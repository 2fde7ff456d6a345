(* Scan-throughput benchmark: batched leaf scans against the per-leaf
   baseline on the same seed and workload, plus a crash storm proving
   that proxy caches survive memnode crashes through epoch revalidation
   rather than bulk flushes. Drives bin/ci.sh's BENCH_scan.json gate. *)

module Session = Minuet.Session
module Db = Minuet.Db
module Cluster = Sinfonia.Cluster

type side = {
  batch : int;  (** Sibling leaves per round trip: {!Btree.Ops.scan}'s [?batch]. *)
  scans : int;  (** Scans completed inside the measurement window. *)
  elapsed : float;  (** Simulated seconds of the measurement window. *)
  counters : (string * int) list;  (** {!side_counters}, read after the run. *)
}

(* The counters each side reports, in BENCH_scan.json order. *)
let side_counters obs =
  let cs = Obs.cache obs and ss = Obs.scan obs and ns = Obs.node obs in
  List.map
    (fun (name, c) -> (name, Obs.Counter.value c))
    [
      ("scan_batches", ss.Obs.scan_batches);
      ("scan_batched_leaves", ss.Obs.scan_batched_leaves);
      ("scan_consumed_leaves", ss.Obs.scan_consumed_leaves);
      ("scan_continuations", ss.Obs.scan_continuations);
      ("scan_prefetches", ss.Obs.scan_prefetches);
      ("scan_batch_aborts", ss.Obs.scan_batch_aborts);
      ("cache_hits", cs.Obs.cache_hits);
      ("cache_misses", cs.Obs.cache_misses);
      ("cache_stale_hits", cs.Obs.cache_stale_hits);
      ("cache_epoch_revalidations", cs.Obs.cache_epoch_revalidations);
      ("cache_epoch_survived", cs.Obs.cache_epoch_survived);
      ("cache_bulk_evictions", cs.Obs.cache_bulk_evictions);
      ("node_view_hits", ns.Obs.view_hits);
      ("node_materialisations", ns.Obs.materialisations);
      ("node_bytes_copied", ns.Obs.node_bytes_copied);
    ]

let key_of i = Printf.sprintf "k%05d" i

(* The committed window (600 keys, 400-key scans, 0.5 simulated s per
   side): the absolute floors in [run] only hold at it. *)
let duration = 0.5

let keys = 600

let scan_count = 400

(* One deployment: preload a small-leaf tree, then run contended traffic —
   writers splitting and moving leaves under 100-leaf range scans —
   and measure scan completions over a storm-free window. When [storm]
   is set, a crash/recover storm follows the measurement window with
   traffic still running, to exercise post-crash cache behaviour. *)
let run_side ~seed ~batch ~storm =
  (* Tiny leaves under a wide internal fanout: [keys] keys spread over
     ~keys/3 leaves whose parents hold dozens of children, so one
     traversal exposes enough right-siblings to fill full batches. *)
  let config =
    {
      Minuet.Config.default with
      Minuet.Config.hosts = 4;
      max_keys_leaf = Some 4;
      max_keys_internal = Some 64;
      (* The storm's recovery daemons resolve in-doubt transactions
         quickly, as in chaos runs, so traffic keeps flowing through
         it. No daemon runs before the storm. *)
      sinfonia = { Sinfonia.Config.default with Sinfonia.Config.in_doubt_grace = 0.06 };
    }
  in
  Minuet.Harness.run ~seed ~until:((duration *. 8.) +. 60.) ~config @@ fun db ->
  let cluster = Db.cluster db in
  let n = Cluster.n_memnodes cluster in
  let n_sessions = 4 in
  let sessions =
    Array.init n_sessions (fun h -> Session.attach ~home:(h mod n) ~client:(n + h) db)
  in
  for i = 0 to keys - 1 do
    Session.put sessions.(i mod n_sessions) (key_of i) (Printf.sprintf "v%d" i)
  done;
  let stop = ref false in
  let measuring = ref false in
  let scans = ref 0 in
  let rng = Sim.Rng.create (seed lxor 0x5ca9) in
  (* Writers keep the tip moving (splits, COW, removals) so scans are
     contended rather than read-only-idle. *)
  for w = 0 to 1 do
    let wrng = Sim.Rng.split rng in
    Sim.spawn ~name:(Printf.sprintf "scan-bench-writer-%d" w) (fun () ->
        let i = ref 0 in
        while not !stop do
          let k = key_of (Sim.Rng.int wrng keys) in
          (try
             if Sim.Rng.int wrng 10 = 0 then ignore (Session.remove sessions.(w) k : bool)
             else Session.put sessions.(w) k (Printf.sprintf "w%d-%d" w !i)
           with Btree.Ops.Too_contended _ | Btree.Ops.Ambiguous _ -> ());
          incr i;
          Sim.delay 2e-4
        done)
  done;
  (* Scanners: snapshot range scans spanning ~scan_count/4 leaves. *)
  for c = 0 to n_sessions - 1 do
    let srng = Sim.Rng.split rng in
    Sim.spawn ~name:(Printf.sprintf "scan-bench-scanner-%d" c) (fun () ->
        let s = sessions.(c) in
        let tree = Session.tree_of s (Session.index db 0) in
        while not !stop do
          let start = Sim.Rng.int srng (max 1 (keys - scan_count)) in
          (try
             let snap = Session.snapshot s in
             let at_snap _ = Btree.Ops.Linear.at_snapshot tree ~sid:snap.sid ~root:snap.root in
             ignore
               (Btree.Ops.scan ~batch tree ~vctx_of:at_snap ~from:(key_of start) ~count:scan_count
                 : (string * string) list);
             if !measuring then incr scans
           with Btree.Ops.Too_contended _ | Btree.Ops.Ambiguous _ -> ());
          Sim.delay 1e-4
        done)
  done;
  (* Warmup, then a storm-free measurement window. *)
  Sim.delay (duration *. 0.25);
  measuring := true;
  let t0 = Sim.now () in
  Sim.delay duration;
  measuring := false;
  let elapsed = Sim.now () -. t0 in
  let measured = !scans in
  if storm then begin
    (* Crash storm with traffic still running: each crash promotes the
       victim's replica and bumps the space's epoch, turning that
       space's cached entries stale at every proxy. Recovery must then
       happen by lazy revalidation — never by a bulk flush. Crashes
       land mid-2PC and leave transactions in doubt, holding their write
       locks until the recovery coordinator resolves them. *)
    Cluster.start_recovery ~lease:0.05 ~interval:0.02 cluster;
    for cycle = 0 to 5 do
      let victim = 1 + (cycle mod (n - 1)) in
      Cluster.crash cluster victim;
      Sim.delay 0.05;
      (* The crash lands mid-request, so the replica may still be
         serving failover traffic: wait it out. *)
      (match Cluster.recover_when_idle cluster victim with
      | Ok () -> ()
      | Error e -> failwith (Cluster.recover_error_to_string e));
      Sim.delay 0.05
    done;
    Sim.delay (duration *. 0.5)
  end;
  stop := true;
  Sim.delay 0.05;
  { batch; scans = measured; elapsed; counters = side_counters (Db.obs db) }

let ops_per_s side = float_of_int side.scans /. side.elapsed

let count side name = List.assoc name side.counters

let side_json side =
  Obs.Json.Obj
    (("scan_batch", Obs.Json.Int side.batch)
    :: ("scans", Obs.Json.Int side.scans)
    :: ("window_s", Obs.Json.Float side.elapsed)
    :: ("ops_per_s", Obs.Json.Float (ops_per_s side))
    :: List.map (fun (name, v) -> (name, Obs.Json.Int v)) side.counters)

(* Run both sides and write [dir]/BENCH_scan.json, gated on a 2x
   batched speedup, epoch revalidation exercised by the storm, no bulk
   eviction, and batched floors pinned above the pre-zero-copy 1168
   scans/s, so an outright slowdown fails even if the ratio survives.
   Leaves per round trip counts every fetched leaf, so two ratchets on
   the leaves the scans consumed keep it honest: scans that fetched
   every sibling under a parent, with a full prefetch group beyond it,
   read 14.37 consumed leaves per round trip and fetched 1.066 leaves
   per leaf consumed. *)
let run ?(seed = 0x5ca9) ?dir () =
  let wall_ms = Obs.Bench.stopwatch () in
  let batched = run_side ~seed ~batch:16 ~storm:true in
  let per_leaf = run_side ~seed ~batch:1 ~storm:false in
  let speedup = ops_per_s batched /. ops_per_s per_leaf in
  let b = count batched in
  let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let leaves_per_roundtrip = ratio (b "scan_batched_leaves") (b "scan_batches") in
  let consumed_per_roundtrip = ratio (b "scan_consumed_leaves") (b "scan_batches") in
  let overfetch = ratio (b "scan_batched_leaves") (b "scan_consumed_leaves") in
  let lookups = b "cache_hits" + b "cache_misses" + b "cache_stale_hits" in
  let hit_rate =
    if lookups = 0 then 0.0 else float_of_int (b "cache_hits") /. float_of_int lookups
  in
  let epoch_revalidations = b "cache_epoch_revalidations" in
  let bulk_evictions = b "cache_bulk_evictions" + count per_leaf "cache_bulk_evictions" in
  Printf.printf "scan bench: batched %.0f scans/s vs per-leaf %.0f scans/s (speedup %.2fx)\n"
    (ops_per_s batched) (ops_per_s per_leaf) speedup;
  Printf.printf "  leaves/roundtrip %.1f, cache hit rate %.3f, prefetches %d, batch aborts %d\n"
    leaves_per_roundtrip hit_rate (b "scan_prefetches") (b "scan_batch_aborts");
  Printf.printf "  consumed leaves/roundtrip %.2f, fetched/consumed %.3f\n" consumed_per_roundtrip
    overfetch;
  Printf.printf "  crash storm: %d epoch revalidations (%d survived), %d bulk evictions\n"
    epoch_revalidations (b "cache_epoch_survived") bulk_evictions;
  Printf.printf "  node path: %d view hits, %d materialisations\n" (b "node_view_hits")
    (b "node_materialisations");
  Obs.Bench.write ?dir
    {
      Obs.Bench.bench = "scan";
      seed = Some seed;
      wall_ms = wall_ms ();
      gates =
        [
          Obs.Bench.at_least "speedup" speedup 2.0;
          Obs.Bench.at_least "batched_ops_per_s" (ops_per_s batched) 1200.0;
          Obs.Bench.at_least "leaves_per_roundtrip" leaves_per_roundtrip 15.0;
          Obs.Bench.at_least "consumed_leaves_per_roundtrip" consumed_per_roundtrip 14.5;
          Obs.Bench.at_most "overfetch_ratio" overfetch 1.05;
          Obs.Bench.at_least "epoch_revalidations"
            (float_of_int epoch_revalidations) 1.0;
          Obs.Bench.at_most "bulk_evictions" (float_of_int bulk_evictions) 0.0;
        ];
      fields =
        [
          ("keys", Obs.Json.Int keys);
          ("scan_count", Obs.Json.Int scan_count);
          ("batched", side_json batched);
          ("per_leaf", side_json per_leaf);
          ("speedup", Obs.Json.Float speedup);
          ("leaves_per_roundtrip", Obs.Json.Float leaves_per_roundtrip);
          ("consumed_leaves_per_roundtrip", Obs.Json.Float consumed_per_roundtrip);
          ("overfetch_ratio", Obs.Json.Float overfetch);
          ("cache_hit_rate", Obs.Json.Float hit_rate);
          ("epoch_revalidations", Obs.Json.Int epoch_revalidations);
          ("epoch_survival_rate",
           Obs.Json.Float
             (if epoch_revalidations = 0 then 0.0
              else float_of_int (b "cache_epoch_survived") /. float_of_int epoch_revalidations));
          ("bulk_evictions", Obs.Json.Int bulk_evictions);
        ];
    }
