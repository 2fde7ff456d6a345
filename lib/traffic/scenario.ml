(** Canned production-traffic scenarios.

    Each scenario is a function of [~seed] and [~duration] so the bench
    CLI can rescale it; every other knob (tenant mixes, curves, SLOs)
    is part of the scenario's identity and fixed here. SLO targets are
    deliberately loose enough that an honest run passes with margin
    across seeds — the gate exists to catch regressions (a scheduler
    change that doubles queueing, a cache bug that tanks scan latency),
    not to flap on noise. [broken_slo] is the falsifiability twin: a
    tenant provisioned far below its arrival rate, whose SLO verdict
    {e must} come back violated. *)

let pi = 4.0 *. atan 1.0

(* Keep per-scenario op volume at a few thousand so the CI smoke stays
   fast; `minuet_bench traffic --duration` rescales offered load
   linearly for longer soaks. *)

let steady ~seed ~duration =
  {
    Engine.default with
    Engine.name = "steady";
    seed;
    duration;
    tenants =
      [
        Tenant.make "web" ~keys:384 ~distribution:(Tenant.Zipfian 0.99)
          ~mix:Tenant.read_mostly ~concurrency:6
          ~arrival:(Arrival.constant 800.0)
          ~slo:(Slo.make ~p99_ms:30.0 ~p999_ms:120.0 ~max_error_rate:0.02 ());
        Tenant.make "api" ~keys:256 ~mix:Tenant.update_heavy ~concurrency:6
          ~arrival:(Arrival.constant 500.0)
          ~slo:(Slo.make ~p99_ms:40.0 ~p999_ms:160.0 ~max_error_rate:0.03 ());
        Tenant.make "batch" ~keys:512 ~mix:Tenant.scan_heavy ~scan_count:16 ~concurrency:4
          ~arrival:(Arrival.constant 120.0)
          ~slo:(Slo.make ~p99_ms:80.0 ~p999_ms:300.0 ~max_error_rate:0.03 ());
      ];
  }

let diurnal ~seed ~duration =
  (* Two regions half a day out of phase over a shared tree, plus a
     constant-rate control tenant. One simulated "day" = the run. *)
  let day ~phase name =
    Tenant.make name ~keys:256 ~distribution:(Tenant.Zipfian 0.9) ~mix:Tenant.read_mostly
      ~concurrency:8
      ~arrival:(Arrival.diurnal ~base:120.0 ~peak:900.0 ~period:duration ~phase ())
      ~slo:(Slo.make ~p99_ms:35.0 ~p999_ms:140.0 ~max_error_rate:0.02 ())
  in
  {
    Engine.default with
    Engine.name = "diurnal";
    seed;
    duration;
    tenants =
      [
        day ~phase:(-.pi /. 2.0) "east";
        day ~phase:(pi /. 2.0) "west";
        Tenant.make "control" ~keys:128 ~mix:Tenant.update_heavy ~concurrency:4
          ~arrival:(Arrival.constant 250.0)
          ~slo:(Slo.make ~p99_ms:40.0 ~p999_ms:160.0 ~max_error_rate:0.03 ());
      ];
  }

let flash_crowd ~seed ~duration =
  (* A 6x spike hits [surge] mid-run; [bystander] shares the tree and
     memnodes but not the queue, so its SLO doubles as an isolation
     check on the spike's collateral damage. *)
  let spike =
    { Arrival.at = 0.4 *. duration; duration = 0.15 *. duration; factor = 6.0 }
  in
  {
    Engine.default with
    Engine.name = "flash-crowd";
    seed;
    duration;
    tenants =
      [
        Tenant.make "surge" ~keys:384 ~distribution:(Tenant.Zipfian 0.99)
          ~mix:Tenant.read_mostly ~concurrency:10
          ~arrival:(Arrival.constant ~spikes:[ spike ] 400.0)
          ~slo:(Slo.make ~p99_ms:60.0 ~p999_ms:250.0 ~max_error_rate:0.02 ());
        Tenant.make "bystander" ~keys:256 ~mix:Tenant.update_heavy ~concurrency:5
          ~arrival:(Arrival.constant 300.0)
          ~slo:(Slo.make ~p99_ms:45.0 ~p999_ms:180.0 ~max_error_rate:0.03 ());
      ];
  }

let shard_hotspot ~seed ~duration =
  (* 90% of one tenant's ops hit the leading 5% of its slice — a
     contiguous key range, i.e. a handful of leaves on one memnode run.
     Update-heavy, so the hot leaves see real write contention. *)
  {
    Engine.default with
    Engine.name = "shard-hotspot";
    seed;
    duration;
    tenants =
      [
        Tenant.make "hot" ~keys:512
          ~distribution:(Tenant.Hotspot { op_frac = 0.9; key_frac = 0.05 })
          ~mix:Tenant.update_heavy ~concurrency:8
          ~arrival:(Arrival.constant 600.0)
          ~slo:(Slo.make ~p99_ms:60.0 ~p999_ms:250.0 ~max_error_rate:0.08 ());
        Tenant.make "cold" ~keys:512 ~mix:Tenant.read_mostly ~concurrency:4
          ~arrival:(Arrival.constant 300.0)
          ~slo:(Slo.make ~p99_ms:40.0 ~p999_ms:160.0 ~max_error_rate:0.02 ());
      ];
  }

let storm ~seed ~duration =
  (* Production traffic with the nemesis overlapped: crash/partition/
     delay storms while the open-loop queues keep filling. SLOs stay on
     but with disaster-budget targets — the point is that the {e
     checker} verdict stays clean through faults, and that recovery is
     fast enough to drain the backlog before the tail budget burns. *)
  {
    Engine.default with
    Engine.name = "storm";
    seed;
    duration;
    chaos = [ Chaos.Nemesis.Crash; Chaos.Nemesis.Partition; Chaos.Nemesis.Delay ];
    chaos_phases = 2;
    tenants =
      [
        Tenant.make "web" ~keys:256 ~distribution:(Tenant.Zipfian 0.9)
          ~mix:Tenant.read_mostly ~concurrency:8
          ~arrival:(Arrival.constant 400.0)
          ~slo:(Slo.make ~p99_ms:1500.0 ~p999_ms:6000.0 ~max_error_rate:0.10 ());
        Tenant.make "api" ~keys:192 ~mix:Tenant.update_heavy ~concurrency:6
          ~arrival:(Arrival.constant 250.0)
          ~slo:(Slo.make ~p99_ms:1500.0 ~p999_ms:6000.0 ~max_error_rate:0.10 ());
      ];
  }

let fig17_traffic ~seed ~duration =
  (* Traffic-shaped variant of the Fig. 17 staleness experiment: a
     snapshot-heavy analytics tenant rides a staleness-bound SCS
     (k = 50 ms) under OLTP update pressure; the checker runs with its
     SCS rule relaxed by exactly k. *)
  {
    Engine.default with
    Engine.name = "fig17-traffic";
    seed;
    duration;
    scs_k = 0.05;
    tenants =
      [
        Tenant.make "oltp" ~keys:384 ~distribution:(Tenant.Zipfian 0.99)
          ~mix:Tenant.update_heavy ~concurrency:8
          ~arrival:(Arrival.constant 700.0)
          ~slo:(Slo.make ~p99_ms:40.0 ~p999_ms:160.0 ~max_error_rate:0.03 ());
        Tenant.make "analytics" ~keys:512 ~mix:Tenant.analytics ~scan_count:24 ~concurrency:4
          ~arrival:(Arrival.constant 150.0)
          ~slo:(Slo.make ~p99_ms:80.0 ~p999_ms:320.0 ~max_error_rate:0.02 ());
      ];
  }

let fig18_traffic ~seed ~duration =
  (* Traffic-shaped variant of the Fig. 18 branching experiment: the
     database runs in branching mode; [versioned] creates, writes and
     deletes clones and pins reads to frozen versions while [mainline]
     keeps ordinary traffic on the trunk. Every surviving frozen
     version is structurally audited at the end. *)
  {
    Engine.default with
    Engine.name = "fig18-traffic";
    seed;
    duration;
    branching = true;
    tenants =
      [
        Tenant.make "mainline" ~keys:256 ~distribution:(Tenant.Zipfian 0.9)
          ~mix:Tenant.read_mostly ~concurrency:6
          ~arrival:(Arrival.constant 400.0)
          ~slo:(Slo.make ~p99_ms:40.0 ~p999_ms:160.0 ~max_error_rate:0.03 ());
        Tenant.make "versioned" ~keys:192 ~mix:Tenant.branchy ~concurrency:4
          ~arrival:(Arrival.constant 150.0)
          ~slo:(Slo.make ~p99_ms:80.0 ~p999_ms:320.0 ~max_error_rate:0.05 ());
      ];
  }

let broken_slo ~seed ~duration =
  (* Falsifiability: one worker against 1500 scans/s cannot keep up;
     the open-loop queue grows without bound and the measured p99 —
     which includes queueing delay — blows through a 5 ms target. If
     this scenario ever reports its SLO as met, the queueing-delay
     accounting is broken (a closed-loop generator would happily pass
     by slowing itself down). *)
  {
    Engine.default with
    Engine.name = "broken-slo";
    seed;
    duration;
    tenants =
      [
        Tenant.make "underprov" ~keys:256 ~mix:Tenant.scan_heavy ~scan_count:32 ~concurrency:1
          ~arrival:(Arrival.constant ~law:`Paced 1500.0)
          ~slo:(Slo.make ~p99_ms:5.0 ~p999_ms:10.0 ~max_error_rate:0.01 ());
      ];
  }

(** The default suite, in the order the bench runs them. [broken_slo]
    is deliberately not in it — the CI gate runs it separately and
    asserts failure. *)
let all =
  [
    ("steady", steady);
    ("diurnal", diurnal);
    ("flash-crowd", flash_crowd);
    ("shard-hotspot", shard_hotspot);
    ("storm", storm);
    ("fig17-traffic", fig17_traffic);
    ("fig18-traffic", fig18_traffic);
  ]

(** Every name {!find} resolves: the suite plus [broken-slo]. *)
let names = "broken-slo" :: List.map fst all

let find name = List.assoc_opt name (("broken-slo", broken_slo) :: all)
