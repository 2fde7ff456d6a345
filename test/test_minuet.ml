(* Integration tests for the public Minuet API. *)

let check = Alcotest.check

let key i = Printf.sprintf "k%06d" i

let small_config = Minuet.Config.small_tree Minuet.Config.default

let run ?(config = small_config) f = Minuet.Harness.run ~config f

let test_quick_put_get () =
  run (fun db ->
      let s = Minuet.Session.attach db in
      Minuet.Session.put s "hello" "world";
      check (Alcotest.option Alcotest.string) "roundtrip" (Some "world")
        (Minuet.Session.get s "hello");
      check (Alcotest.option Alcotest.string) "miss" None (Minuet.Session.get s "absent"))

let test_sessions_share_data () =
  run (fun db ->
      let s0 = Minuet.Session.attach ~home:0 db in
      let s1 = Minuet.Session.attach ~home:1 db in
      Minuet.Session.put s0 (key 1) "from-s0";
      check (Alcotest.option Alcotest.string) "visible on other proxy" (Some "from-s0")
        (Minuet.Session.get s1 (key 1));
      Minuet.Session.put s1 (key 1) "from-s1";
      check (Alcotest.option Alcotest.string) "update visible back" (Some "from-s1")
        (Minuet.Session.get s0 (key 1)))

let test_scan_and_remove () =
  run (fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 49 do
        Minuet.Session.put s (key i) (string_of_int i)
      done;
      let r = Minuet.Session.scan s ~from:(key 20) ~count:5 in
      check
        (Alcotest.list Alcotest.string)
        "scan keys"
        [ key 20; key 21; key 22; key 23; key 24 ]
        (List.map fst r);
      check Alcotest.bool "remove" true (Minuet.Session.remove s (key 20));
      let r = Minuet.Session.scan s ~from:(key 20) ~count:2 in
      check (Alcotest.list Alcotest.string) "post-remove" [ key 21; key 22 ] (List.map fst r))

let test_multi_index () =
  let config = { small_config with Minuet.Config.n_trees = 2 } in
  run ~config (fun db ->
      let s = Minuet.Session.attach db in
      Minuet.Session.multi_put s [ (0, key 1, "a"); (1, key 1, "b") ];
      (match Minuet.Session.multi_get s [ (0, key 1); (1, key 1) ] with
      | [ Some "a"; Some "b" ] -> ()
      | _ -> Alcotest.fail "multi_get mismatch");
      check (Alcotest.option Alcotest.string) "index isolation" None
        (Minuet.Session.get ~index:(Minuet.Session.index db 1) s (key 2)))

let test_with_txn_read_your_writes () =
  run (fun db ->
      let s = Minuet.Session.attach db in
      Minuet.Session.put s (key 1) "old";
      let observed =
        Minuet.Session.with_txn s (fun tx ->
            let before = Minuet.Session.t_get tx (key 1) in
            Minuet.Session.t_put tx (key 1) "new";
            let after = Minuet.Session.t_get tx (key 1) in
            let removed = Minuet.Session.t_remove tx (key 2) in
            Minuet.Session.t_put tx (key 2) "two";
            (before, after, removed))
      in
      check
        (Alcotest.triple (Alcotest.option Alcotest.string) (Alcotest.option Alcotest.string)
           Alcotest.bool)
        "in-txn views" (Some "old", Some "new", false) observed;
      check (Alcotest.option Alcotest.string) "committed" (Some "new")
        (Minuet.Session.get s (key 1));
      check (Alcotest.option Alcotest.string) "second write" (Some "two")
        (Minuet.Session.get s (key 2)))

let test_with_txn_conserves_under_conflict () =
  (* Concurrent read-modify-write transfers on two accounts: OCC retries
     must prevent lost updates. *)
  run (fun db ->
      let s0 = Minuet.Session.attach db in
      Minuet.Session.put s0 "a" "1000";
      Minuet.Session.put s0 "b" "1000";
      let done_count = ref 0 in
      for w = 1 to 4 do
        let s = Minuet.Session.attach ~home:(w mod 4) db in
        Sim.spawn (fun () ->
            for _ = 1 to 25 do
              Minuet.Session.with_txn s (fun tx ->
                  let a = int_of_string (Option.get (Minuet.Session.t_get tx "a")) in
                  let b = int_of_string (Option.get (Minuet.Session.t_get tx "b")) in
                  Minuet.Session.t_put tx "a" (string_of_int (a - 1));
                  Minuet.Session.t_put tx "b" (string_of_int (b + 1)))
            done;
            incr done_count)
      done;
      Sim.delay 600.0;
      check Alcotest.int "workers done" 4 !done_count;
      let a = int_of_string (Option.get (Minuet.Session.get s0 "a")) in
      let b = int_of_string (Option.get (Minuet.Session.get s0 "b")) in
      check Alcotest.int "a drained" 900 a;
      check Alcotest.int "b filled" 1100 b)

let test_with_txn_cross_index () =
  let config = { small_config with Minuet.Config.n_trees = 2 } in
  run ~config (fun db ->
      let s = Minuet.Session.attach db in
      let idx0 = Minuet.Session.index db 0 and idx1 = Minuet.Session.index db 1 in
      Minuet.Session.with_txn s (fun tx ->
          Minuet.Session.t_put ~index:idx0 tx (key 1) "zero";
          Minuet.Session.t_put ~index:idx1 tx (key 1) "one";
          check (Alcotest.option Alcotest.string) "cross-index read" (Some "zero")
            (Minuet.Session.t_get ~index:idx0 tx (key 1)));
      check (Alcotest.option Alcotest.string) "idx0" (Some "zero")
        (Minuet.Session.get ~index:idx0 s (key 1));
      check (Alcotest.option Alcotest.string) "idx1" (Some "one")
        (Minuet.Session.get ~index:idx1 s (key 1)))

let test_snapshots_via_scs () =
  run (fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 29 do
        Minuet.Session.put s (key i) "v0"
      done;
      let snap = Minuet.Session.snapshot s in
      for i = 0 to 29 do
        Minuet.Session.put s (key i) "v1"
      done;
      check (Alcotest.option Alcotest.string) "snapshot stable" (Some "v0")
        (Minuet.Session.get_at s snap (key 0));
      let frozen = Minuet.Session.scan_at s snap ~from:"" ~count:100 in
      check Alcotest.int "snapshot scan count" 30 (List.length frozen);
      List.iter (fun (_, v) -> check Alcotest.string "frozen" "v0" v) frozen;
      check (Alcotest.option Alcotest.string) "tip current" (Some "v1")
        (Minuet.Session.get s (key 0)))

let test_snapshot_scan_during_updates () =
  run (fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 99 do
        Minuet.Session.put s (key i) "base"
      done;
      let writer = Minuet.Session.attach ~home:1 db in
      let writer_done = ref false in
      Sim.spawn (fun () ->
          for i = 0 to 99 do
            Minuet.Session.put writer (key i) "changed"
          done;
          writer_done := true);
      (* Concurrent snapshot scan: must see a consistent snapshot and
         never abort due to the updates. *)
      let snap = Minuet.Session.snapshot s in
      let r = Minuet.Session.scan_at s snap ~from:"" ~count:200 in
      check Alcotest.int "scan complete" 100 (List.length r);
      Sim.delay 600.0;
      check Alcotest.bool "writer finished" true !writer_done)

let test_baseline_mode_api () =
  let config = { small_config with Minuet.Config.mode = Btree.Ops.Validated_traversal } in
  run ~config (fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 49 do
        Minuet.Session.put s (key i) (string_of_int i)
      done;
      for i = 0 to 49 do
        check (Alcotest.option Alcotest.string) (key i) (Some (string_of_int i))
          (Minuet.Session.get s (key i))
      done)

let test_branching_api () =
  let config = { small_config with Minuet.Config.branching = true } in
  run ~config (fun db ->
      let s = Minuet.Session.attach db in
      let br = Minuet.Session.branching s in
      Mvcc.Branching.put br (key 1) "main";
      let clone = Mvcc.Branching.create_branch br ~from:0L in
      Mvcc.Branching.put br ~at:clone (key 1) "what-if";
      check (Alcotest.option Alcotest.string) "original frozen" (Some "main")
        (Mvcc.Branching.get br ~at:0L (key 1));
      check (Alcotest.option Alcotest.string) "clone diverged" (Some "what-if")
        (Mvcc.Branching.get br ~at:clone (key 1));
      (* Linear snapshot ops are rejected on a branching database. *)
      match Minuet.Session.get s (key 1) with
      | (_ : string option) -> Alcotest.fail "linear op on branching db should fail"
      | exception Invalid_argument _ -> ())

(* Recover [host], waiting out a replica still serving failover
   requests (the crash lands mid-request, so traffic may be in flight on
   the replica when recovery is asked for). *)
let recover_ok db host =
  match Sinfonia.Cluster.recover_when_idle (Minuet.Db.cluster db) host with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recover %d: %s" host (Sinfonia.Cluster.recover_error_to_string e)

let test_host_arguments_checked () =
  run (fun db ->
      (match Minuet.Db.recover_host db 1 with
      | Error Sinfonia.Cluster.Not_crashed -> ()
      | Ok () -> Alcotest.fail "recovered a live host"
      | Error e -> Alcotest.failf "wrong error: %s" (Sinfonia.Cluster.recover_error_to_string e));
      let hosts = (Minuet.Db.config db).Minuet.Config.hosts in
      List.iter
        (fun host ->
          (match Minuet.Db.crash_host db host with
          | () -> Alcotest.failf "crash_host %d accepted" host
          | exception Invalid_argument _ -> ());
          match Minuet.Db.recover_host db host with
          | (_ : (unit, Sinfonia.Cluster.recover_error) result) ->
              Alcotest.failf "recover_host %d accepted" host
          | exception Invalid_argument _ -> ())
        [ -1; hosts; 99 ])

let test_failover_during_workload () =
  run (fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 49 do
        Minuet.Session.put s (key i) "before"
      done;
      Minuet.Db.crash_host db 2;
      (* All data remains readable and writable through the replicas. *)
      for i = 0 to 49 do
        check (Alcotest.option Alcotest.string) "read after crash" (Some "before")
          (Minuet.Session.get s (key i))
      done;
      for i = 0 to 49 do
        Minuet.Session.put s (key i) "after"
      done;
      recover_ok db 2;
      for i = 0 to 49 do
        check (Alcotest.option Alcotest.string) "read after recovery" (Some "after")
          (Minuet.Session.get s (key i))
      done)

let test_crash_under_writers () =
  (* Crashes land mid-2PC, so concurrent writers leave transactions in
     doubt holding their write locks. Db.crash_host's resolver must
     settle them: once the hosts are back every key is writable again.
     The run has no horizon, so it also shows the resolver exits once
     its work is done. *)
  run (fun db ->
      let keys = 60 in
      let hosts = (Minuet.Db.config db).Minuet.Config.hosts in
      let s = Minuet.Session.attach db in
      for i = 0 to keys - 1 do
        Minuet.Session.put s (key i) "seed"
      done;
      let stop = ref false in
      for w = 0 to 3 do
        let ws = Minuet.Session.attach ~home:(w mod hosts) db in
        let rng = Sim.Rng.create (w + 11) in
        Sim.spawn (fun () ->
            while not !stop do
              (* Two random keys, usually in leaves on different
                 memnodes: a distributed (2PC) minitransaction. *)
              let a = Sim.Rng.int rng keys and b = Sim.Rng.int rng keys in
              try
                Minuet.Session.with_txn ws (fun tx ->
                    Minuet.Session.t_put tx (key a) (Printf.sprintf "w%d" w);
                    Minuet.Session.t_put tx (key b) (Printf.sprintf "w%d" w))
              with Btree.Ops.Too_contended _ | Btree.Ops.Ambiguous _ -> ()
            done)
      done;
      for cycle = 0 to 11 do
        let host = 1 + (cycle mod (hosts - 1)) in
        Sim.delay 0.03;
        Minuet.Db.crash_host db host;
        Sim.delay 0.05;
        recover_ok db host
      done;
      stop := true;
      Sim.delay 2.0;
      check Alcotest.bool "a crash left a transaction in doubt" true
        (Obs.Counter.value (Obs.recovery (Minuet.Db.obs db)).Obs.in_doubt_found > 0);
      check Alcotest.int "nothing left in doubt" 0
        (Sinfonia.Cluster.in_doubt_total (Minuet.Db.cluster db));
      for i = 0 to keys - 1 do
        Minuet.Session.put s (key i) "final"
      done;
      let all = Minuet.Session.scan s ~from:"" ~count:1000 in
      check Alcotest.int "every key present" keys (List.length all);
      List.iter (fun (_, v) -> check Alcotest.string "every key rewritten" "final" v) all)

let test_mixed_load_many_sessions () =
  run (fun db ->
      let sessions = List.init 4 (fun h -> Minuet.Session.attach ~home:h db) in
      let done_count = ref 0 in
      List.iteri
        (fun idx s ->
          Sim.spawn (fun () ->
              for i = 0 to 39 do
                Minuet.Session.put s (key ((idx * 100) + i)) (Printf.sprintf "p%d" idx)
              done;
              incr done_count))
        sessions;
      Sim.delay 600.0;
      check Alcotest.int "all sessions done" 4 !done_count;
      let s = List.hd sessions in
      let all = Minuet.Session.scan s ~from:"" ~count:1000 in
      check Alcotest.int "all present" 160 (List.length all))

let test_snapshot_staleness_bound () =
  (* With scs_min_interval = k, snapshot requests within k seconds reuse
     the same (stale but consistent) snapshot — Sec. 6.3's trade-off. *)
  let config = { small_config with Minuet.Config.scs_min_interval = 5.0 } in
  run ~config (fun db ->
      let s = Minuet.Session.attach db in
      Minuet.Session.put s (key 1) "v0";
      let snap1 = Minuet.Session.snapshot s in
      Minuet.Session.put s (key 1) "v1";
      Sim.delay 1.0;
      let snap2 = Minuet.Session.snapshot s in
      check Alcotest.int64 "reused within k" snap1.Minuet.Session.sid snap2.Minuet.Session.sid;
      check (Alcotest.option Alcotest.string) "stale view" (Some "v0")
        (Minuet.Session.get_at s snap2 (key 1));
      Sim.delay 6.0;
      let snap3 = Minuet.Session.snapshot s in
      check Alcotest.bool "fresh after k" true
        (Int64.compare snap3.Minuet.Session.sid snap1.Minuet.Session.sid > 0);
      check (Alcotest.option Alcotest.string) "fresh view" (Some "v1")
        (Minuet.Session.get_at s snap3 (key 1)))

let test_enable_gc () =
  Minuet.Harness.run ~until:200.0 ~config:small_config (fun db ->
      Minuet.Db.enable_gc ~interval:2.0 ~keep:1 db;
      let s = Minuet.Session.attach db in
      for i = 0 to 29 do
        Minuet.Session.put s (key i) "v0"
      done;
      (* Several snapshot generations with full rewrites in between. *)
      for round = 1 to 4 do
        let (_ : Minuet.Session.snapshot) = Minuet.Session.snapshot s in
        for i = 0 to 29 do
          Minuet.Session.put s (key i) (Printf.sprintf "v%d" round)
        done;
        Sim.delay 3.0
      done;
      Sim.delay 5.0;
      check Alcotest.bool "old versions reclaimed" true
        (Obs.Counter.value (Obs.gc (Minuet.Db.obs db)).Obs.slots_reclaimed > 0);
      (* The tip remains fully intact. *)
      let all = Minuet.Session.scan s ~from:"" ~count:100 in
      check Alcotest.int "tip intact" 30 (List.length all);
      List.iter (fun (_, v) -> check Alcotest.string "latest round" "v4" v) all;
      Sim.stop ())

let test_deterministic_replay () =
  (* The whole distributed system is a pure function of the seed: two
     identical runs produce identical contents AND identical metrics. *)
  let run_once () =
    Minuet.Harness.run ~seed:123 ~config:small_config (fun db ->
        let s = Minuet.Session.attach db in
        let rng = Sim.Rng.create 9 in
        for _ = 1 to 4 do
          Sim.spawn (fun () ->
              for i = 0 to 60 do
                Minuet.Session.put s (key (Sim.Rng.int rng 40)) (string_of_int i)
              done)
        done;
        Sim.delay 600.0;
        let contents = Minuet.Session.scan s ~from:"" ~count:1000 in
        (contents, Obs.counters (Minuet.Db.obs db)))
  in
  let a = run_once () and b = run_once () in
  check Alcotest.bool "identical contents" true (fst a = fst b);
  check Alcotest.bool "identical metrics" true (snd a = snd b)

let test_different_seeds_diverge () =
  let run_with seed =
    Minuet.Harness.run ~seed ~config:small_config (fun db ->
        let s = Minuet.Session.attach db in
        for i = 0 to 20 do
          Minuet.Session.put s (key i) "x"
        done;
        Sim.now ())
  in
  (* Timing (jitter) differs across seeds even though results agree. *)
  check Alcotest.bool "timing differs" true (run_with 1 <> run_with 2)

let test_harness_returns_value () =
  let v = run (fun _db -> 42) in
  check Alcotest.int "returned" 42 v

let test_config_validation () =
  (match Minuet.Harness.run ~config:{ small_config with Minuet.Config.hosts = 0 } (fun _ -> ()) with
  | () -> Alcotest.fail "hosts=0 accepted"
  | exception Invalid_argument _ -> ());
  match
    Minuet.Harness.run ~config:{ small_config with Minuet.Config.n_trees = 1000 } (fun _ -> ())
  with
  | () -> Alcotest.fail "n_trees too large accepted"
  | exception Invalid_argument _ -> ()

let test_chaos_mixed_everything () =
  (* Everything at once: writers, deleters, snapshot-scanning analysts,
     a memnode crash and recovery — then a full structural audit. *)
  Minuet.Harness.run ~until:3600.0 ~config:small_config (fun db ->
      Minuet.Db.enable_gc ~interval:1.0 ~keep:4 db;
      let seed_session = Minuet.Session.attach db in
      for i = 0 to 149 do
        Minuet.Session.put seed_session (key i) "seed"
      done;
      let writers_done = ref 0 and scans_ok = ref 0 and scan_sizes_bad = ref 0 in
      let gave_up = ref 0 in
      for w = 0 to 3 do
        let s = Minuet.Session.attach ~home:w db in
        let rng = Sim.Rng.create (w + 100) in
        Sim.spawn (fun () ->
            for _ = 1 to 150 do
              let k = key (Sim.Rng.int rng 150) in
              (* Under this duress (a snapshot every 25 ms, a crashed
                 memnode) an operation may exhaust its retry budget;
                 that must stay rare and must never corrupt anything. *)
              try
                if Sim.Rng.int rng 10 < 8 then Minuet.Session.put s k "chaos"
                else ignore (Minuet.Session.remove s k : bool)
              with Btree.Ops.Too_contended _ -> incr gave_up
            done;
            incr writers_done)
      done;
      (* Analysts: snapshot scans must always be internally consistent
         (every value fully written, count within bounds). *)
      for a = 0 to 1 do
        let s = Minuet.Session.attach ~home:a db in
        Sim.spawn (fun () ->
            for _ = 1 to 10 do
              Sim.delay 0.025;
              let snap = Minuet.Session.snapshot s in
              let rows = Minuet.Session.scan_at s snap ~from:"" ~count:1000 in
              if List.length rows > 150 then incr scan_sizes_bad;
              if List.for_all (fun (_, v) -> v = "seed" || v = "chaos") rows then
                incr scans_ok
              else incr scan_sizes_bad
            done)
      done;
      (* A crash in the middle of all this. *)
      Sim.spawn (fun () ->
          Sim.delay 0.05;
          Minuet.Db.crash_host db 3;
          Sim.delay 0.2;
          recover_ok db 3);
      Sim.delay 1200.0;
      check Alcotest.int "writers done" 4 !writers_done;
      check Alcotest.bool "give-ups are rare" true (!gave_up < 30);
      check Alcotest.int "all snapshot scans consistent" 20 !scans_ok;
      check Alcotest.int "no anomalies" 0 !scan_sizes_bad;
      (* Structural audit of the final tip. *)
      let tree =
        Minuet.Session.tree_of seed_session
          (Minuet.Session.index (Minuet.Session.db seed_session) 0)
      in
      let txn = Dyntxn.Txn.begin_ (Btree.Ops.cluster tree) in
      let sid, root = Btree.Ops.Linear.read_tip tree txn in
      (match Dyntxn.Txn.commit txn with _ -> ());
      let entries = Btree.Ops.audit tree ~sid ~root in
      check Alcotest.bool "audit passes with plausible count" true
        (List.length entries <= 150);
      Sim.stop ())

let () =
  Alcotest.run "minuet"
    [
      ( "api",
        [
          Alcotest.test_case "put/get" `Quick test_quick_put_get;
          Alcotest.test_case "sessions share data" `Quick test_sessions_share_data;
          Alcotest.test_case "scan and remove" `Quick test_scan_and_remove;
          Alcotest.test_case "multi index" `Quick test_multi_index;
          Alcotest.test_case "with_txn read-your-writes" `Quick test_with_txn_read_your_writes;
          Alcotest.test_case "with_txn no lost updates" `Quick
            test_with_txn_conserves_under_conflict;
          Alcotest.test_case "with_txn cross index" `Quick test_with_txn_cross_index;
          Alcotest.test_case "harness returns value" `Quick test_harness_returns_value;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "seeds diverge" `Quick test_different_seeds_diverge;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "via SCS" `Quick test_snapshots_via_scs;
          Alcotest.test_case "staleness bound" `Quick test_snapshot_staleness_bound;
          Alcotest.test_case "scan during updates" `Quick test_snapshot_scan_during_updates;
        ] );
      ( "modes",
        [
          Alcotest.test_case "baseline mode" `Quick test_baseline_mode_api;
          Alcotest.test_case "branching mode" `Quick test_branching_api;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "background gc" `Quick test_enable_gc;
          Alcotest.test_case "chaos" `Quick test_chaos_mixed_everything;
          Alcotest.test_case "failover" `Quick test_failover_during_workload;
          Alcotest.test_case "host arguments checked" `Quick test_host_arguments_checked;
          Alcotest.test_case "crash under writers" `Quick test_crash_under_writers;
          Alcotest.test_case "mixed load" `Quick test_mixed_load_many_sessions;
        ] );
    ]
