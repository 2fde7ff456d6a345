(* The observability layer: typed counters and their report names, span
   nesting across retries, aborts counted by the typed counters, and the
   JSON report round-trip and shape. *)

let check = Alcotest.check

let small_config = Minuet.Config.small_tree Minuet.Config.default

(* ------------------------------------------------------------------ *)
(* Typed handles (no simulation needed)                                  *)
(* ------------------------------------------------------------------ *)

let test_typed_counters () =
  let obs = Obs.create () in
  Obs.Counter.incr (Obs.txn obs).Obs.commits;
  Obs.Counter.add (Obs.btree obs).Obs.splits 3;
  (* Every typed handle is listed under its report name. *)
  let counters = Obs.counters obs in
  check Alcotest.int "txn.commits by name" 1 (List.assoc "txn.commits" counters);
  check Alcotest.int "btree.splits by name" 3 (List.assoc "btree.splits" counters);
  check Alcotest.int "untouched counter listed" 0 (List.assoc "cache.hits" counters)

(* ------------------------------------------------------------------ *)
(* Span nesting                                                         *)
(* ------------------------------------------------------------------ *)

(* A with_txn whose first attempt is invalidated by a conflicting
   write decomposes into one operation span -> one transaction span ->
   N >= 2 attempt spans, the first of which did not complete. *)
let test_span_nesting_with_retry () =
  Minuet.Harness.run ~config:small_config (fun db ->
      let s1 = Minuet.Session.attach db in
      let s2 = Minuet.Session.attach db in
      Minuet.Session.put s1 "k" "v0";
      let obs = Minuet.Db.obs db in
      Obs.clear_spans obs;
      let first = ref true in
      Minuet.Session.with_txn s1 (fun tx ->
          let (_ : string option) = Minuet.Session.t_get tx "k" in
          if !first then begin
            first := false;
            (* Invalidate s1's read set before it commits. *)
            Minuet.Session.put s2 "k" "conflict"
          end;
          Minuet.Session.t_put tx "k" "mine");
      let spans = Obs.spans obs in
      let op_span =
        List.find
          (fun i -> i.Obs.Span.kind = Obs.Span.Op (Obs.Op.With_txn, Obs.Op.Up_to_date))
          spans
      in
      let txn_span =
        List.find
          (fun i -> i.Obs.Span.kind = Obs.Span.Txn && i.Obs.Span.parent = op_span.Obs.Span.id)
          spans
      in
      let attempts =
        List.filter
          (fun i ->
            i.Obs.Span.kind = Obs.Span.Attempt && i.Obs.Span.parent = txn_span.Obs.Span.id)
          spans
      in
      check Alcotest.bool "at least two attempts" true (List.length attempts >= 2);
      check Alcotest.bool "first attempt did not complete" true
        ((List.hd attempts).Obs.Span.outcome <> Obs.Span.Completed);
      let last = List.nth attempts (List.length attempts - 1) in
      check Alcotest.bool "last attempt completed" true
        (last.Obs.Span.outcome = Obs.Span.Completed);
      (* Every attempt lies inside its transaction's interval. *)
      List.iter
        (fun a ->
          check Alcotest.bool "attempt within txn" true
            (a.Obs.Span.start >= txn_span.Obs.Span.start
            && a.Obs.Span.stop <= txn_span.Obs.Span.stop))
        attempts)

(* ------------------------------------------------------------------ *)
(* Induced aborts                                                       *)
(* ------------------------------------------------------------------ *)

let test_lock_busy_under_conflict () =
  Minuet.Harness.run ~config:small_config (fun db ->
      let obs = Minuet.Db.obs db in
      let workers = 16 in
      let left = ref workers in
      for w = 1 to workers do
        let s = Minuet.Session.attach ~home:(w mod (Minuet.Db.config db).Minuet.Config.hosts) db in
        Sim.spawn (fun () ->
            for i = 0 to 24 do
              Minuet.Session.put s "hot" (string_of_int ((w * 100) + i))
            done;
            decr left)
      done;
      Sim.delay 120.0;
      check Alcotest.int "workers drained" 0 !left;
      let mtx = Obs.mtx obs in
      check Alcotest.bool "mtx busy retries observed" true
        (Obs.Counter.value mtx.Obs.busy_retries > 0);
      check Alcotest.bool "mtx compare failures observed" true
        (Obs.Counter.value mtx.Obs.compare_failed > 0))

let test_crashed_host_abort () =
  Sim.run ~seed:11 (fun () ->
      let config = { Sinfonia.Config.default with Sinfonia.Config.replication = false } in
      let cluster = Sinfonia.Cluster.create ~config ~n:2 () in
      let obs = Sinfonia.Cluster.obs cluster in
      Sinfonia.Cluster.crash cluster 1;
      let addr = Sinfonia.Address.make ~node:1 ~off:0 in
      let mtx = Sinfonia.Mtx.make ~writes:[ Sinfonia.Mtx.write_at addr "x" ] () in
      (match Sinfonia.Coordinator.exec cluster mtx with
      | Sinfonia.Mtx.Unavailable _ -> ()
      | _ -> Alcotest.fail "expected Unavailable against a crashed, unreplicated node");
      check Alcotest.int "mtx.unavailable" 1
        (Obs.Counter.value (Obs.mtx obs).Obs.mtx_unavailable))

(* ------------------------------------------------------------------ *)
(* JSON report                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  Minuet.Harness.run ~config:small_config (fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 49 do
        Minuet.Session.put s (Printf.sprintf "key%04d" i) "v"
      done;
      let (_ : string option) = Minuet.Session.get s "key0007" in
      let snap = Minuet.Session.snapshot s in
      let (_ : string option) = Minuet.Session.get_at s snap "key0007" in
      let obs = Minuet.Db.obs db in
      let json =
        Obs.Bench.to_json
          {
            Obs.Bench.bench = "roundtrip";
            seed = Some 1;
            wall_ms = 0.0;
            gates = [];
            fields = Obs.Report.fields obs;
          }
      in
      let reparsed = Obs.Json.parse (Obs.Json.to_string json) in
      check Alcotest.bool "serialize/parse round-trip" true (Obs.Json.equal json reparsed);
      (match Obs.Bench.validate reparsed with
      | Ok () -> ()
      | Error m -> Alcotest.failf "envelope: %s" m);
      let member name =
        match Obs.Json.member name reparsed with
        | Some v -> v
        | None -> Alcotest.failf "missing %s" name
      in
      check Alcotest.bool "bench" true (member "bench" = Obs.Json.String "roundtrip");
      check Alcotest.bool "schema" true
        (member "schema_version" = Obs.Json.Int Obs.Bench.schema_version);
      (* Counters in the report agree with the typed handles. *)
      let commits =
        match Obs.Json.member "txn.commits" (member "counters") with
        | Some (Obs.Json.Int n) -> n
        | _ -> Alcotest.fail "counters.txn.commits missing"
      in
      check Alcotest.int "report counter = typed counter"
        (Obs.Counter.value (Obs.txn obs).Obs.commits)
        commits;
      (* Both read paths produced latency summaries, and each op cell
         carries all seven quantile fields. *)
      let spans =
        match member "spans" with
        | Obs.Json.Obj cells -> cells
        | _ -> Alcotest.fail "spans: not an object"
      in
      List.iter
        (fun label ->
          match List.assoc_opt label spans with
          | None -> Alcotest.failf "spans.%s missing" label
          | Some cell ->
              List.iter
                (fun field ->
                  match Obs.Json.member field cell with
                  | Some (Obs.Json.Float _ | Obs.Json.Int _) -> ()
                  | _ -> Alcotest.failf "spans.%s.%s: missing or not a number" label field)
                [ "count"; "mean_ms"; "p50_ms"; "p95_ms"; "p99_ms"; "p999_ms"; "max_ms" ])
        [ "op.get"; "op.put"; "op.get@snapshot"; "op.snapshot" ])

(* The report's field names and order, pinned for a fixed small run:
   simulated time, then the counters block listing every counter sorted
   by name, then the spans block with every span kind seen, also
   sorted. *)
let expected_counters =
  [ "alloc.chunk_reservations"; "btree.abort.copied"; "btree.abort.fence"; "btree.abort.height";
    "btree.abort.version"; "btree.branches_created"; "btree.branches_deleted"; "btree.cow";
    "btree.discretionary_cow"; "btree.op_retries"; "btree.root_splits"; "btree.splits";
    "cache.bulk_evictions"; "cache.epoch_revalidations"; "cache.epoch_survived";
    "cache.evictions"; "cache.hits";
    "cache.misses"; "cache.stale_epoch_hits"; "chaos.crashes"; "chaos.delay_faults";
    "chaos.faults_injected"; "chaos.mirror_partitions"; "chaos.partitions";
    "chaos.replica_lags"; "chaos.scs_outages"; "chaos.stalls"; "gc.branch_slots_reclaimed";
    "gc.slots_reclaimed"; "memnode.crashes"; "memnode.recoveries"; "mtx.busy_retries";
    "mtx.committed_1pc"; "mtx.committed_2pc"; "mtx.compare_failed";
    "mtx.retry_budget_exhausted"; "mtx.unavailable"; "mtx.vote_epoch_aborts";
    "node.bytes_copied"; "node.materialisations"; "node.view_hits"; "recovery.in_doubt";
    "recovery.orphans_released"; "recovery.promotions"; "recovery.resolved_abort";
    "recovery.resolved_commit"; "redo.replayed"; "replication.mirror_skipped";
    "replication.mirrors"; "scan.batch_aborts"; "scan.batched_leaves"; "scan.batches";
    "scan.consumed_leaves"; "scan.continuations"; "scan.prefetches"; "scs.borrows";
    "scs.snapshots_created"; "scs.stale_reuses"; "txn.commits"; "txn.free_commits";
    "txn.retry_exhausted"; "txn.unavailable"; "txn.validation_failures" ]

let expected_spans =
  [ "btree.traversal"; "mtx.commit"; "mtx.exec"; "mtx.prepare"; "op.get"; "op.get@snapshot";
    "op.put"; "op.snapshot"; "scs.create_snapshot"; "scs.request"; "txn"; "txn.attempt";
    "txn.commit" ]

let test_report_shape () =
  Minuet.Harness.run ~config:small_config (fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 49 do
        Minuet.Session.put s (Printf.sprintf "key%04d" i) "v"
      done;
      let (_ : string option) = Minuet.Session.get s "key0007" in
      let snap = Minuet.Session.snapshot s in
      let (_ : string option) = Minuet.Session.get_at s snap "key0007" in
      let fields = Obs.Report.fields (Minuet.Db.obs db) in
      let keys block =
        match List.assoc_opt block fields with
        | Some (Obs.Json.Obj cells) -> List.map fst cells
        | _ -> Alcotest.failf "missing %s block" block
      in
      let names = Alcotest.(list string) in
      check names "report fields" [ "sim_time_s"; "counters"; "spans" ] (List.map fst fields);
      check names "counter names" expected_counters (keys "counters");
      check names "span names" expected_spans (keys "spans"))

(* ------------------------------------------------------------------ *)
(* Bench envelope                                                       *)
(* ------------------------------------------------------------------ *)

let report ?(fields = [ ("x", Obs.Json.Int 1) ]) gates =
  { Obs.Bench.bench = "unit"; seed = Some 7; wall_ms = 1.5; gates; fields }

let envelope_pass json =
  match Obs.Json.member "pass" json with
  | Some (Obs.Json.Bool p) -> p
  | _ -> Alcotest.fail "pass missing"

let test_bench_conjunction () =
  let ok1 = Obs.Bench.at_least "ratio" 3.5 3.0 in
  let ok2 = Obs.Bench.at_most "errors" 0.0 0.0 in
  let bad = Obs.Bench.at_least "floor" 1199.0 1200.0 in
  check Alcotest.bool "no gates pass" true (Obs.Bench.pass (report []));
  check Alcotest.bool "all holding" true (Obs.Bench.pass (report [ ok1; ok2 ]));
  check Alcotest.bool "one failing" false (Obs.Bench.pass (report [ ok1; bad; ok2 ]));
  check Alcotest.bool "envelope pass agrees" false
    (envelope_pass (Obs.Bench.to_json (report [ ok1; bad ])));
  check Alcotest.bool "at_most bound" false (Obs.Bench.holds (Obs.Bench.at_most "n" 1.0 0.0))

let test_bench_non_finite () =
  (* A ratio over a zero denominator is infinite, which clears any floor
     under a bare >=, or nan; both serialise as null. *)
  List.iter
    (fun v ->
      check Alcotest.bool "at_least fails" false (Obs.Bench.holds (Obs.Bench.at_least "r" v 3.0));
      check Alcotest.bool "at_most fails" false (Obs.Bench.holds (Obs.Bench.at_most "r" v 3.0));
      let json = Obs.Bench.to_json (report [ Obs.Bench.at_least "speedup" v 3.0 ]) in
      check Alcotest.bool "report fails" false (envelope_pass json);
      match Obs.Bench.validate (Obs.Json.parse (Obs.Json.to_string json)) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "null-valued gate rejected: %s" m)
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let test_bench_written_validates () =
  let path = Filename.temp_file "bench" ".json" in
  let gates = [ Obs.Bench.at_least "a" 2.0 1.0; Obs.Bench.at_most "b" 5.0 4.0 ] in
  let pass = Obs.Bench.write ~path (report gates) in
  let json = Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  Sys.remove path;
  check Alcotest.bool "write returns pass" false pass;
  check Alcotest.bool "written pass" false (envelope_pass json);
  (match Obs.Bench.validate json with
  | Ok () -> ()
  | Error m -> Alcotest.failf "written report rejected: %s" m);
  match json with
  | Obs.Json.Obj fields ->
      check Alcotest.(list string) "envelope first, then the bench's fields"
        [ "bench"; "schema_version"; "seed"; "wall_ms"; "gates"; "pass"; "x" ]
        (List.map fst fields)
  | _ -> Alcotest.fail "not an object"

let test_bench_validate_rejects () =
  let good = Obs.Bench.to_json (report [ Obs.Bench.at_least "a" 2.0 1.0 ]) in
  let fields = match good with Obs.Json.Obj f -> f | _ -> Alcotest.fail "not an object" in
  let rejected what json =
    match Obs.Bench.validate json with
    | Ok () -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  let without k = Obs.Json.Obj (List.remove_assoc k fields) in
  let with_ k v =
    Obs.Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
  in
  (match Obs.Bench.validate good with Ok () -> () | Error m -> Alcotest.failf "good: %s" m);
  rejected "a missing bench" (without "bench");
  rejected "a missing gates" (without "gates");
  rejected "a pass that disagrees with its gates" (with_ "pass" (Obs.Json.Bool false));
  rejected "a stale schema" (with_ "schema_version" (Obs.Json.Int 1));
  rejected "a gate pass that disagrees with its bound"
    (with_ "gates"
       (Obs.Json.List
          [
            Obs.Json.Obj
              [
                ("name", Obs.Json.String "a");
                ("value", Obs.Json.Float 0.5);
                ("op", Obs.Json.String ">=");
                ("bound", Obs.Json.Float 1.0);
                ("pass", Obs.Json.Bool true);
              ];
          ]));
  rejected "envelope fields out of order"
    (Obs.Json.Obj (List.rev fields))

let test_json_parser () =
  let t = Obs.Json.parse {| {"a": [1, 2.5, true, null, "s\n"], "b": {"c": -3}} |} in
  (match Obs.Json.member "a" t with
  | Some (Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Bool true; Obs.Json.Null; Obs.Json.String "s\n" ]) -> ()
  | _ -> Alcotest.fail "array contents");
  (match Obs.Json.member "b" t with
  | Some b -> check Alcotest.bool "nested" true (Obs.Json.member "c" b = Some (Obs.Json.Int (-3)))
  | None -> Alcotest.fail "missing b");
  (match Obs.Json.parse "{broken" with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "parser accepted garbage")

(* A committed report matches a fresh one everywhere but wall_ms. *)
let test_bench_pinned () =
  let rows ns =
    [ ("rows", Obs.Json.List (List.map (fun n -> Obs.Json.Obj [ ("n", Obs.Json.Int n) ]) ns)) ]
  in
  let json ?(fields = rows [ 1; 2 ]) wall_ms =
    Obs.Bench.to_json { (report ~fields [ Obs.Bench.at_least "a" 2.0 1.0 ]) with Obs.Bench.wall_ms }
  in
  let matches = Obs.Bench.matches_pinned ~pinned:(json 1.0) in
  check Alcotest.bool "only wall_ms differs" true (matches (json 9.0));
  check Alcotest.bool "nested value" false (matches (json ~fields:(rows [ 1; 3 ]) 1.0));
  check Alcotest.bool "missing field" false (matches (json ~fields:[] 1.0))

let () =
  Alcotest.run "obs"
    [
      ( "handles",
        [
          Alcotest.test_case "typed counters back the registry" `Quick test_typed_counters;
        ] );
      ( "spans",
        [ Alcotest.test_case "with_txn retry nesting" `Quick test_span_nesting_with_retry ] );
      ( "aborts",
        [
          Alcotest.test_case "lock busy under conflict" `Quick test_lock_busy_under_conflict;
          Alcotest.test_case "crashed host" `Quick test_crashed_host_abort;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "shape pinned" `Quick test_report_shape;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
      ( "bench",
        [
          Alcotest.test_case "pass is the gate conjunction" `Quick test_bench_conjunction;
          Alcotest.test_case "non-finite values fail" `Quick test_bench_non_finite;
          Alcotest.test_case "written report validates" `Quick test_bench_written_validates;
          Alcotest.test_case "validate rejects" `Quick test_bench_validate_rejects;
          Alcotest.test_case "pinned report" `Quick test_bench_pinned;
        ] );
    ]
