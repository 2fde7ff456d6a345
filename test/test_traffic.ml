(* Tests for the open-loop traffic engine: arrival-schedule determinism
   and independence, spike placement, SLO evaluation, and small
   end-to-end scenarios through the engine and streaming checker. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Arrival schedules                                                    *)
(* ------------------------------------------------------------------ *)

let diurnal_with_spike () =
  Traffic.Arrival.diurnal ~base:50.0 ~peak:400.0 ~period:2.0
    ~spikes:[ { Traffic.Arrival.at = 0.5; duration = 0.25; factor = 5.0 } ]
    ()

let test_schedule_deterministic () =
  (* Same seed and tenant id: byte-identical schedules, including under
     Poisson arrivals, spikes and a diurnal curve. *)
  let a = diurnal_with_spike () in
  let s1 = Traffic.Arrival.schedule a ~seed:42 ~tenant_id:3 ~until:2.0 in
  let s2 = Traffic.Arrival.schedule a ~seed:42 ~tenant_id:3 ~until:2.0 in
  check Alcotest.int "same length" (Array.length s1) (Array.length s2);
  Array.iteri (fun i t -> check (Alcotest.float 0.0) (string_of_int i) t s2.(i)) s1;
  check Alcotest.bool "nonempty" true (Array.length s1 > 0);
  (* Ascending, within horizon. *)
  Array.iteri
    (fun i t ->
      check Alcotest.bool "in horizon" true (t >= 0.0 && t < 2.0);
      if i > 0 then check Alcotest.bool "ascending" true (s1.(i - 1) <= t))
    s1

let test_schedule_tenant_independent () =
  (* Different tenant ids draw from split streams: changing the id
     changes the schedule, and tenant 3's schedule does not depend on
     how many other tenants exist (it is a pure function of
     (seed, tenant_id), not of spawn order). *)
  let a = diurnal_with_spike () in
  let s3 = Traffic.Arrival.schedule a ~seed:42 ~tenant_id:3 ~until:2.0 in
  let s4 = Traffic.Arrival.schedule a ~seed:42 ~tenant_id:4 ~until:2.0 in
  let same =
    Array.length s3 = Array.length s4
    && Array.for_all (fun x -> x) (Array.mapi (fun i t -> t = s4.(i)) s3)
  in
  check Alcotest.bool "tenant 3 and 4 differ" false same;
  (* Recomputing tenant 3 gives the same stream regardless of whether
     tenant 4 was ever scheduled. *)
  let s3' = Traffic.Arrival.schedule a ~seed:42 ~tenant_id:3 ~until:2.0 in
  Array.iteri (fun i t -> check (Alcotest.float 0.0) (string_of_int i) t s3'.(i)) s3

let test_seed_changes_schedule () =
  let a = Traffic.Arrival.constant 300.0 in
  let s1 = Traffic.Arrival.schedule a ~seed:1 ~tenant_id:0 ~until:1.0 in
  let s2 = Traffic.Arrival.schedule a ~seed:2 ~tenant_id:0 ~until:1.0 in
  let same =
    Array.length s1 = Array.length s2
    && Array.for_all (fun x -> x) (Array.mapi (fun i t -> t = s2.(i)) s1)
  in
  check Alcotest.bool "seeds differ" false same

let test_paced_is_periodic () =
  let a = Traffic.Arrival.constant ~law:`Paced 100.0 in
  let s = Traffic.Arrival.schedule a ~seed:9 ~tenant_id:0 ~until:1.0 in
  (* Arrivals at 0.01, 0.02, ..., 0.99: the t = 1.0 tick is outside the
     half-open horizon. *)
  check Alcotest.int "99 arrivals" 99 (Array.length s);
  Array.iteri
    (fun i t ->
      if i > 0 then
        check Alcotest.bool "10ms gaps" true (abs_float (t -. s.(i - 1) -. 0.01) < 1e-9))
    s

let test_flash_crowd_spike_lands () =
  (* A 4x spike over [0.5, 0.75) on a 200/s base: the spike window must
     hold ~4x the arrivals of the preceding quarter-second, and the
     rate curve itself must report the multiplied rate only inside the
     window. *)
  let spike = { Traffic.Arrival.at = 0.5; duration = 0.25; factor = 4.0 } in
  let a = Traffic.Arrival.constant ~spikes:[ spike ] 200.0 in
  check (Alcotest.float 1e-9) "rate before" 200.0 (Traffic.Arrival.rate_at a 0.49);
  check (Alcotest.float 1e-9) "rate inside" 800.0 (Traffic.Arrival.rate_at a 0.5);
  check (Alcotest.float 1e-9) "rate inside late" 800.0 (Traffic.Arrival.rate_at a 0.74);
  check (Alcotest.float 1e-9) "rate after" 200.0 (Traffic.Arrival.rate_at a 0.75);
  let s = Traffic.Arrival.schedule a ~seed:5 ~tenant_id:1 ~until:1.0 in
  let count lo hi = Array.fold_left (fun n t -> if t >= lo && t < hi then n + 1 else n) 0 s in
  let before = count 0.25 0.5 and inside = count 0.5 0.75 in
  check Alcotest.bool "spike multiplies arrivals" true
    (float_of_int inside > 2.5 *. float_of_int before);
  check Alcotest.bool "spike is bounded" true
    (float_of_int inside < 6.0 *. float_of_int before)

let test_diurnal_rate_curve () =
  let a = Traffic.Arrival.diurnal ~base:100.0 ~peak:500.0 ~period:1.0 ~phase:(-1.5707963) () in
  (* Phase -pi/2: trough at t=0, crest at t=period/2. *)
  check Alcotest.bool "trough at 0" true (abs_float (Traffic.Arrival.rate_at a 0.0 -. 100.0) < 1.0);
  check Alcotest.bool "crest at half period" true
    (abs_float (Traffic.Arrival.rate_at a 0.5 -. 500.0) < 1.0)

(* ------------------------------------------------------------------ *)
(* SLO evaluation                                                       *)
(* ------------------------------------------------------------------ *)

let test_slo_verdicts () =
  (* 0.33% of ops are 50ms stragglers (safely above the 0.1% tail), the
     rest 2ms: p99 stays in the bulk, p999 lands on the stragglers. *)
  let h = Sim.Stats.Hist.create () in
  for _ = 1 to 2990 do
    Sim.Stats.Hist.add h 0.002
  done;
  for _ = 1 to 10 do
    Sim.Stats.Hist.add h 0.050
  done;
  let slo = Traffic.Slo.make ~p99_ms:10.0 ~p999_ms:60.0 ~max_error_rate:0.01 () in
  let v = Traffic.Slo.evaluate slo ~latency:h ~offered:3000 ~errors:15 in
  check Alcotest.bool "met" true (Traffic.Slo.ok v);
  (* Tighten p999 below the straggler: breached. *)
  let tight = Traffic.Slo.make ~p99_ms:10.0 ~p999_ms:20.0 ~max_error_rate:0.01 () in
  let v = Traffic.Slo.evaluate tight ~latency:h ~offered:3000 ~errors:0 in
  check Alcotest.bool "p999 breached" false (Traffic.Slo.ok v);
  (* Blow the error budget. *)
  let v = Traffic.Slo.evaluate slo ~latency:h ~offered:3000 ~errors:150 in
  check Alcotest.bool "error budget breached" false (Traffic.Slo.ok v);
  check Alcotest.bool "breach names error rate" true
    (List.exists
       (fun b -> String.length b >= 10 && String.sub b 0 10 = "error rate")
       v.Traffic.Slo.breaches)

(* ------------------------------------------------------------------ *)
(* Engine end to end                                                    *)
(* ------------------------------------------------------------------ *)

let small_scenario ?(law = `Poisson) ?(concurrency = 4) ?(rate = 300.0) ?slo () =
  {
    Traffic.Engine.default with
    Traffic.Engine.name = "test";
    seed = 11;
    duration = 0.4;
    tenants =
      [
        Traffic.Tenant.make "t0" ~keys:96 ~mix:Traffic.Tenant.update_heavy ~concurrency
          ~arrival:(Traffic.Arrival.constant ~law rate)
          ?slo;
        Traffic.Tenant.make "t1" ~keys:96 ~mix:Traffic.Tenant.scan_heavy ~scan_count:6
          ~concurrency:3
          ~arrival:(Traffic.Arrival.constant ~law 100.0);
      ];
  }

let test_engine_smoke_checked () =
  let r = Traffic.Engine.run (small_scenario ()) in
  check Alcotest.bool "passed" true (Traffic.Engine.passed r);
  check Alcotest.bool "checker ok" true (Check.Stream.ok r.Traffic.Engine.verdict);
  check Alcotest.int "no audit failures" 0 (List.length r.Traffic.Engine.audit_failures);
  List.iter
    (fun (t : Traffic.Engine.tenant_result) ->
      check Alcotest.bool "offered > 0" true (t.Traffic.Engine.offered > 0);
      (* Open loop drains everything: each offered op either completed
         or errored; none vanish. *)
      check Alcotest.int "all ops accounted"
        t.Traffic.Engine.offered
        (t.Traffic.Engine.completed + t.Traffic.Engine.errors);
      check Alcotest.int "queueing recorded per offered op" t.Traffic.Engine.offered
        (Sim.Stats.Hist.count t.Traffic.Engine.queueing))
    r.Traffic.Engine.tenants;
  check Alcotest.bool "events flowed" true (r.Traffic.Engine.events > 0)

let test_engine_deterministic () =
  let r1 = Traffic.Engine.run (small_scenario ()) in
  let r2 = Traffic.Engine.run (small_scenario ()) in
  List.iter2
    (fun (a : Traffic.Engine.tenant_result) (b : Traffic.Engine.tenant_result) ->
      check Alcotest.int "completed equal" a.Traffic.Engine.completed
        b.Traffic.Engine.completed;
      check (Alcotest.float 0.0) "p99 equal"
        (Sim.Stats.Hist.quantile a.Traffic.Engine.latency 0.99)
        (Sim.Stats.Hist.quantile b.Traffic.Engine.latency 0.99))
    r1.Traffic.Engine.tenants r2.Traffic.Engine.tenants;
  check Alcotest.int "events equal" r1.Traffic.Engine.events r2.Traffic.Engine.events

let test_engine_underprovision_breaches_slo () =
  (* One worker against a paced 800/s stream of scans: the queue grows
     without bound, so open-loop p99 must blow through a 5ms target even
     though each individual op is fast — the queueing-delay accounting
     at work. *)
  let cfg =
    {
      Traffic.Engine.default with
      Traffic.Engine.name = "underprov";
      seed = 11;
      duration = 0.4;
      tenants =
        [
          Traffic.Tenant.make "u" ~keys:96 ~mix:Traffic.Tenant.scan_heavy ~scan_count:24
            ~concurrency:1
            ~arrival:(Traffic.Arrival.constant ~law:`Paced 3000.0)
            ~slo:(Traffic.Slo.make ~p99_ms:5.0 ~p999_ms:10.0 ~max_error_rate:0.01 ());
        ];
    }
  in
  let r = Traffic.Engine.run cfg in
  check Alcotest.bool "checker still ok" true (Check.Stream.ok r.Traffic.Engine.verdict);
  check Alcotest.bool "SLO breached" false (Traffic.Engine.slo_ok r);
  check Alcotest.bool "run failed overall" false (Traffic.Engine.passed r);
  let t = List.hd r.Traffic.Engine.tenants in
  check Alcotest.bool "queueing dominates" true
    (Sim.Stats.Hist.quantile t.Traffic.Engine.queueing 0.99
    > Sim.Stats.Hist.quantile t.Traffic.Engine.service 0.99)

let test_scenarios_catalogued () =
  check Alcotest.int "seven canned scenarios" 7 (List.length Traffic.Scenario.all);
  List.iter
    (fun (name, s) ->
      let cfg = s ~seed:1 ~duration:1.0 in
      check Alcotest.string "name matches" name cfg.Traffic.Engine.name;
      check Alcotest.bool "has tenants" true (cfg.Traffic.Engine.tenants <> []))
    Traffic.Scenario.all;
  (* The falsifiability twin exists but is not in the default suite. *)
  (match Traffic.Scenario.find "broken-slo" with
  | Some s ->
      check Alcotest.string "broken-slo resolvable" "broken-slo"
        (s ~seed:1 ~duration:1.0).Traffic.Engine.name
  | None -> Alcotest.fail "broken-slo not resolvable");
  check Alcotest.bool "broken-slo not canned" true
    (not (List.mem_assoc "broken-slo" Traffic.Scenario.all));
  check Alcotest.bool "broken-slo named" true (List.mem "broken-slo" Traffic.Scenario.names);
  check Alcotest.bool "unknown scenario rejected" true
    (Option.is_none (Traffic.Scenario.find "no-such"))

let () =
  Alcotest.run "traffic"
    [
      ( "arrival",
        [
          Alcotest.test_case "deterministic" `Quick test_schedule_deterministic;
          Alcotest.test_case "tenant independent" `Quick test_schedule_tenant_independent;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_schedule;
          Alcotest.test_case "paced periodic" `Quick test_paced_is_periodic;
          Alcotest.test_case "flash-crowd spike" `Quick test_flash_crowd_spike_lands;
          Alcotest.test_case "diurnal curve" `Quick test_diurnal_rate_curve;
        ] );
      ("slo", [ Alcotest.test_case "verdicts" `Quick test_slo_verdicts ]);
      ( "engine",
        [
          Alcotest.test_case "smoke through checker" `Quick test_engine_smoke_checked;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "underprovision breaches SLO" `Quick
            test_engine_underprovision_breaches_slo;
          Alcotest.test_case "scenario catalogue" `Quick test_scenarios_catalogued;
        ] );
    ]
