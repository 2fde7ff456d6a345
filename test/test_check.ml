(* Tests for the streaming consistency checker, driven by synthetic
   histories: hand-built event lists exercising each check — commit-order
   replay, real-time order, snapshot freezing, SCS strictness, ambiguity
   resolution, final audits and stamp uniqueness. *)

module Event = Minuet.Session.Event
module Stream = Check.Stream

let check = Alcotest.check

let ev ?client ?(index = 0) ?stamp ?sid ?(ambiguous = false) ~invoked ~returned op =
  {
    Event.client;
    index;
    op;
    invoked_at = invoked;
    returned_at = returned;
    stamp;
    sid;
    ambiguous;
  }

let put ?client ?index ?stamp ?sid ?ambiguous ~invoked ~returned key value =
  ev ?client ?index ?stamp ?sid ?ambiguous ~invoked ~returned (Event.Put { key; value })

let get ?client ?index ?stamp ?sid ?ambiguous ~invoked ~returned key result =
  ev ?client ?index ?stamp ?sid ?ambiguous ~invoked ~returned (Event.Get { key; result })

let remove ?client ?index ?stamp ?sid ?ambiguous ~invoked ~returned key removed =
  ev ?client ?index ?stamp ?sid ?ambiguous ~invoked ~returned (Event.Remove { key; removed })

let scan ?client ?index ?stamp ?sid ?ambiguous ~invoked ~returned from count result =
  ev ?client ?index ?stamp ?sid ?ambiguous ~invoked ~returned
    (Event.Scan { from; count; result })

let snapshot ?client ?index ~sid ~invoked ~returned () =
  ev ?client ?index ~sid ~invoked ~returned Event.Snapshot_taken

(* Feed [events] through a fresh stream, in order, and finish it. *)
let run ?(final = []) ?(strict_scs = true) ?scs_staleness ?(twopc = []) ?(in_doubt = 0)
    ?(creations = [ (0, []) ]) events =
  let stream =
    Stream.create
      {
        Stream.Config.default with
        Stream.Config.strict_scs;
        scs_staleness;
        creations;
        final;
        twopc;
        in_doubt;
      }
  in
  List.iter (Stream.feed stream) events;
  Stream.finish stream

let assert_ok ?(msg = "verdict ok") v =
  if not (Stream.ok v) then
    Alcotest.failf "%s, but:@.%a" msg Stream.pp_verdict v

let assert_violation ?(msg = "expected a violation") ~mentioning v =
  check Alcotest.bool msg true
    (List.exists
       (fun viol ->
         let m = viol.Stream.v_message in
         (* substring match *)
         let rec contains i =
           i + String.length mentioning <= String.length m
           && (String.sub m i (String.length mentioning) = mentioning || contains (i + 1))
         in
         contains 0)
       v.Stream.violations)

(* ------------------------------------------------------------------ *)
(* Commit-order replay                                                 *)
(* ------------------------------------------------------------------ *)

let test_clean_history () =
  let v =
    run
      [
        put ~stamp:1L ~invoked:0.00 ~returned:0.01 "a" "1";
        get ~stamp:2L ~invoked:0.02 ~returned:0.03 "a" (Some "1");
        put ~stamp:3L ~invoked:0.04 ~returned:0.05 "b" "2";
        scan ~stamp:4L ~invoked:0.06 ~returned:0.07 "" 10 [ ("a", "1"); ("b", "2") ];
        remove ~stamp:5L ~invoked:0.08 ~returned:0.09 "a" true;
        get ~stamp:6L ~invoked:0.10 ~returned:0.11 "a" None;
      ]
  in
  assert_ok v;
  check Alcotest.int "ops checked" 6 v.Stream.ops_checked;
  check Alcotest.int "no snapshot reads" 0 v.Stream.snapshot_reads_checked

let test_stale_read_caught () =
  let v =
    run
      [
        put ~stamp:1L ~invoked:0.00 ~returned:0.01 "a" "old";
        put ~stamp:2L ~invoked:0.02 ~returned:0.03 "a" "new";
        get ~stamp:3L ~invoked:0.04 ~returned:0.05 "a" (Some "old");
      ]
  in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"get \"a\"" v;
  (* The counterexample carries the nearby writes on the key. *)
  let viol = List.hd v.Stream.violations in
  check Alcotest.bool "context present" true (List.length viol.Stream.v_context >= 2)

let test_wrong_remove_caught () =
  let v = run [ remove ~stamp:1L ~invoked:0.0 ~returned:0.1 "ghost" true ] in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"remove \"ghost\"" v

let test_scan_divergence_caught () =
  let v =
    run
      [
        put ~stamp:1L ~invoked:0.00 ~returned:0.01 "a" "1";
        put ~stamp:2L ~invoked:0.02 ~returned:0.03 "b" "2";
        scan ~stamp:3L ~invoked:0.04 ~returned:0.05 "" 10 [ ("a", "1"); ("b", "3") ];
      ]
  in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"first divergence" v

let test_missing_stamp_caught () =
  let v = run [ get ~invoked:0.0 ~returned:0.1 "a" None ] in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"no commit stamp" v

(* ------------------------------------------------------------------ *)
(* Real-time order and stamp uniqueness                                *)
(* ------------------------------------------------------------------ *)

let test_realtime_order_violation () =
  (* A returned before B was invoked, yet A's stamp is above B's: the
     serial order contradicts real time (not strictly serializable). *)
  let v =
    run
      [
        put ~stamp:10L ~invoked:0.0 ~returned:0.1 "a" "1";
        put ~stamp:5L ~invoked:0.2 ~returned:0.3 "b" "2";
      ]
  in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"real-time order" v

let test_realtime_order_concurrent_ok () =
  (* Overlapping operations may serialize either way. *)
  let v =
    run
      [
        put ~stamp:10L ~invoked:0.0 ~returned:0.2 "a" "1";
        put ~stamp:5L ~invoked:0.1 ~returned:0.3 "b" "2";
      ]
  in
  assert_ok v

let test_duplicate_stamp_caught () =
  let v =
    run
      [
        put ~stamp:7L ~invoked:0.0 ~returned:0.1 "a" "1";
        put ~stamp:7L ~invoked:0.2 ~returned:0.3 "b" "2";
      ]
  in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"duplicate commit stamp" v;
  check Alcotest.bool "global violation" true
    (List.exists (fun viol -> viol.Stream.v_index = -1) v.Stream.violations)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_frozen_prefix () =
  (* sid 100 was created at stamp 2: it sees the put at stamp 1, not the
     one at stamp 3. *)
  let creations = [ (0, [ (100L, 2L) ]) ] in
  let history sid_result =
    [
      put ~stamp:1L ~invoked:0.00 ~returned:0.01 "a" "frozen";
      put ~stamp:3L ~invoked:0.02 ~returned:0.03 "a" "later";
      get ~sid:100L ~invoked:0.04 ~returned:0.05 "a" sid_result;
    ]
  in
  let v = run ~creations (history (Some "frozen")) in
  assert_ok ~msg:"frozen value accepted" v;
  check Alcotest.int "snapshot read counted" 1 v.Stream.snapshot_reads_checked;
  let v = run ~creations (history (Some "later")) in
  check Alcotest.bool "leaked later write" false (Stream.ok v);
  assert_violation ~mentioning:"snapshot get" v

let test_snapshot_without_creation_record () =
  let v = run [ get ~sid:999L ~invoked:0.0 ~returned:0.1 "a" None ] in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"no creation record" v

let test_scs_strictness () =
  (* The put committed (stamp 5) and returned before the snapshot request
     started, but the granted snapshot's creation stamp is 2: the
     snapshot misses a completed commit. *)
  let creations = [ (0, [ (100L, 2L) ]) ] in
  let events =
    [
      put ~stamp:5L ~invoked:0.00 ~returned:0.10 "a" "1";
      snapshot ~sid:100L ~invoked:0.20 ~returned:0.30 ();
    ]
  in
  let v = run ~creations events in
  check Alcotest.bool "strict mode rejects" false (Stream.ok v);
  assert_violation ~mentioning:"misses a commit" v;
  (* With a staleness bound (k > 0) the same history is legal. *)
  assert_ok ~msg:"non-strict mode accepts" (run ~strict_scs:false ~creations events)

let test_scs_staleness_bound () =
  (* Same history as {!test_scs_strictness}: the missed commit completed
     0.10s before the snapshot request. A staleness bound k relaxes the
     rule by exactly k — legal under k = 0.15, still a violation under
     k = 0.05. *)
  let creations = [ (0, [ (100L, 2L) ]) ] in
  let events =
    [
      put ~stamp:5L ~invoked:0.00 ~returned:0.10 "a" "1";
      snapshot ~sid:100L ~invoked:0.20 ~returned:0.30 ();
    ]
  in
  assert_ok ~msg:"inside the staleness bound" (run ~scs_staleness:0.15 ~creations events);
  let v = run ~scs_staleness:0.05 ~creations events in
  check Alcotest.bool "outside the bound rejected" false (Stream.ok v);
  assert_violation ~mentioning:"misses a commit" v

(* ------------------------------------------------------------------ *)
(* 2PC atomicity and in-doubt residue                                  *)
(* ------------------------------------------------------------------ *)

let test_twopc_consistent () =
  let twopc = [ (0, 7L, `Committed); (1, 7L, `Committed); (0, 9L, `Aborted); (1, 9L, `Aborted) ] in
  let v = run ~twopc [] in
  assert_ok ~msg:"consistent decisions" v;
  check Alcotest.int "records checked" 4 v.Stream.twopc_checked

let test_twopc_split_decision_caught () =
  let v = run ~twopc:[ (0, 7L, `Committed); (1, 7L, `Aborted) ] [] in
  check Alcotest.bool "split decision rejected" false (Stream.ok v);
  assert_violation ~mentioning:"2PC atomicity" v;
  let first = List.hd v.Stream.violations in
  check Alcotest.int "global violation" (-1) first.Stream.v_index

let test_in_doubt_residue_caught () =
  assert_ok ~msg:"zero in doubt" (run ~in_doubt:0 []);
  let v = run ~in_doubt:2 [] in
  check Alcotest.bool "in-doubt residue rejected" false (Stream.ok v);
  assert_violation ~mentioning:"in doubt" v

(* ------------------------------------------------------------------ *)
(* Ambiguous operations                                                *)
(* ------------------------------------------------------------------ *)

let test_ambiguous_put_resolved_applied () =
  (* The ambiguous put may or may not have landed; the later read proves
     it did, and the model absorbs it. *)
  let v =
    run
      [
        put ~ambiguous:true ~invoked:0.00 ~returned:0.10 "a" "maybe";
        get ~stamp:1L ~invoked:0.20 ~returned:0.30 "a" (Some "maybe");
        get ~stamp:2L ~invoked:0.40 ~returned:0.50 "a" (Some "maybe");
      ]
  in
  assert_ok v;
  check Alcotest.int "resolved" 1 v.Stream.candidates_resolved

let test_ambiguous_put_not_applied () =
  let v =
    run
      ~final:[ (0, []) ]
      [
        put ~ambiguous:true ~invoked:0.00 ~returned:0.10 "a" "maybe";
        get ~stamp:1L ~invoked:0.20 ~returned:0.30 "a" None;
      ]
  in
  assert_ok v;
  check Alcotest.int "nothing resolved" 0 v.Stream.candidates_resolved

let test_ambiguous_remove_resolved () =
  let v =
    run
      [
        put ~stamp:1L ~invoked:0.00 ~returned:0.01 "a" "1";
        remove ~ambiguous:true ~invoked:0.02 ~returned:0.03 "a" false;
        get ~stamp:2L ~invoked:0.04 ~returned:0.05 "a" None;
      ]
  in
  assert_ok v;
  check Alcotest.int "resolved" 1 v.Stream.candidates_resolved

let test_candidate_expired_by_overwrite () =
  (* A committed put that started after the ambiguous window closed
     overwrites the key either way; the stale candidate can no longer
     excuse a read of the ambiguous value. *)
  let v =
    run
      [
        put ~ambiguous:true ~invoked:0.00 ~returned:0.10 "a" "maybe";
        put ~stamp:1L ~invoked:0.20 ~returned:0.30 "a" "committed";
        get ~stamp:2L ~invoked:0.40 ~returned:0.50 "a" (Some "maybe");
      ]
  in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"get \"a\"" v

let test_too_many_ambiguous_inconclusive () =
  let amb = List.init 9 (fun i ->
      let t = float_of_int i /. 100.0 in
      put ~ambiguous:true ~invoked:t ~returned:(t +. 0.001) "hot" (string_of_int i))
  in
  let v = run amb in
  assert_ok ~msg:"over-budget is inconclusive, not failed" v;
  check Alcotest.bool "inconclusive noted" true (v.Stream.inconclusive <> [])

(* ------------------------------------------------------------------ *)
(* Final audit                                                         *)
(* ------------------------------------------------------------------ *)

let test_final_audit_mismatch () =
  let v =
    run
      ~final:[ (0, [ ("a", "2") ]) ]
      [ put ~stamp:1L ~invoked:0.0 ~returned:0.1 "a" "1" ]
  in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"final audit" v

let test_final_audit_match () =
  let v =
    run
      ~final:[ (0, [ ("a", "1"); ("b", "2") ]) ]
      [
        put ~stamp:1L ~invoked:0.00 ~returned:0.01 "a" "1";
        put ~stamp:2L ~invoked:0.02 ~returned:0.03 "b" "2";
        put ~stamp:3L ~invoked:0.04 ~returned:0.05 "c" "3";
        remove ~stamp:4L ~invoked:0.06 ~returned:0.07 "c" true;
      ]
  in
  assert_ok v

(* ------------------------------------------------------------------ *)
(* Multiple indexes                                                    *)
(* ------------------------------------------------------------------ *)

let test_indexes_checked_independently () =
  (* The same key lives in two indexes with different values; each index
     replays against its own model. *)
  let v =
    run
      ~creations:[ (0, []); (1, []) ]
      [
        put ~index:0 ~stamp:1L ~invoked:0.00 ~returned:0.01 "k" "zero";
        put ~index:1 ~stamp:2L ~invoked:0.02 ~returned:0.03 "k" "one";
        get ~index:0 ~stamp:3L ~invoked:0.04 ~returned:0.05 "k" (Some "zero");
        get ~index:1 ~stamp:4L ~invoked:0.06 ~returned:0.07 "k" (Some "one");
      ]
  in
  assert_ok v;
  check Alcotest.int "all ops checked" 4 v.Stream.ops_checked

(* ------------------------------------------------------------------ *)
(* Branching                                                           *)
(* ------------------------------------------------------------------ *)

let branch_created ~stamp ~parent ~sid ~invoked ~returned () =
  ev ~stamp ~invoked ~returned (Event.Branch_created { parent; sid })

let branch_put ~stamp ~at ~invoked ~returned key value =
  ev ~stamp ~invoked ~returned (Event.Branch_put { at; key; value })

let branch_get ?stamp ~at ~invoked ~returned key result =
  ev ?stamp ~invoked ~returned (Event.Branch_get { at; key; result })

let test_branch_frozen_ancestor () =
  (* Forking freezes the parent; reads pinned at the frozen version see
     exactly its pre-fork state even as the child advances. *)
  let v =
    run
      [
        branch_put ~stamp:1L ~at:0L ~invoked:0.00 ~returned:0.01 "a" "pre";
        branch_created ~stamp:2L ~parent:0L ~sid:1L ~invoked:0.02 ~returned:0.03 ();
        branch_put ~stamp:3L ~at:1L ~invoked:0.04 ~returned:0.05 "a" "child";
        branch_get ~at:0L ~invoked:0.06 ~returned:0.07 "a" (Some "pre");
        branch_get ~stamp:4L ~at:1L ~invoked:0.08 ~returned:0.09 "a" (Some "child");
      ]
  in
  assert_ok ~msg:"frozen ancestor state observed" v;
  (* Only the read pinned at the frozen version exercises the
     frozen-ancestor rule; the stamped tip read replays normally. *)
  check Alcotest.bool "branch read counted" true (v.Stream.branch_reads_checked >= 1)

let test_branch_isolation_leak_caught () =
  (* A read pinned at the frozen parent observing the child's write is a
     branch-isolation leak. *)
  let v =
    run
      [
        branch_put ~stamp:1L ~at:0L ~invoked:0.00 ~returned:0.01 "a" "pre";
        branch_created ~stamp:2L ~parent:0L ~sid:1L ~invoked:0.02 ~returned:0.03 ();
        branch_put ~stamp:3L ~at:1L ~invoked:0.04 ~returned:0.05 "a" "child";
        branch_get ~at:0L ~invoked:0.06 ~returned:0.07 "a" (Some "child");
      ]
  in
  check Alcotest.bool "not ok" false (Stream.ok v)

let test_sibling_leak_caught () =
  (* Two children forked from the same parent: a write on one sibling
     must not surface in the other's realm. *)
  let v =
    run
      [
        branch_created ~stamp:1L ~parent:0L ~sid:1L ~invoked:0.00 ~returned:0.01 ();
        branch_created ~stamp:2L ~parent:0L ~sid:2L ~invoked:0.02 ~returned:0.03 ();
        branch_put ~stamp:3L ~at:1L ~invoked:0.04 ~returned:0.05 "k" "from-sibling";
        branch_get ~stamp:4L ~at:2L ~invoked:0.06 ~returned:0.07 "k" (Some "from-sibling");
      ]
  in
  check Alcotest.bool "not ok" false (Stream.ok v)

(* ------------------------------------------------------------------ *)
(* Synthetic histories (Histgen): falsifiability                       *)
(* ------------------------------------------------------------------ *)

let gen_history cfg =
  let events = ref [] in
  let gen = Chaos.Histgen.generate cfg (fun e -> events := e :: !events) in
  (gen, List.rev !events)

let histgen_cfg ?(branching = false) ?fault () =
  { Chaos.Histgen.default with Chaos.Histgen.ops = 20_000; branching; fault }

let test_histgen_branching_clean () =
  let gen, events = gen_history (histgen_cfg ~branching:true ()) in
  let v = run ~creations:gen.Chaos.Histgen.gen_creations events in
  assert_ok ~msg:"branching synthetic history passes" v;
  check Alcotest.bool "branch reads exercised" true (v.Stream.branch_reads_checked > 100)

let test_histgen_stale_read_caught () =
  let gen, events =
    gen_history (histgen_cfg ~fault:Chaos.Histgen.Stale_read ())
  in
  let v =
    run ~creations:gen.Chaos.Histgen.gen_creations ~final:gen.Chaos.Histgen.gen_final events
  in
  check Alcotest.bool "seeded stale read caught" false (Stream.ok v)

let test_histgen_branch_isolation_caught () =
  let gen, events =
    gen_history (histgen_cfg ~branching:true ~fault:Chaos.Histgen.Branch_isolation ())
  in
  let v = run ~creations:gen.Chaos.Histgen.gen_creations events in
  check Alcotest.bool "seeded isolation leak caught" false (Stream.ok v)

(* ------------------------------------------------------------------ *)
(* Event JSON                                                          *)
(* ------------------------------------------------------------------ *)

let test_event_json_roundtrip () =
  let samples =
    [
      put ~client:3 ~stamp:7L ~invoked:0.5 ~returned:0.625 "k" "v";
      get ~index:2 ~sid:9L ~invoked:1.0 ~returned:1.25 "k" None;
      remove ~stamp:8L ~ambiguous:true ~invoked:2.0 ~returned:2.5 "k" false;
      scan ~stamp:9L ~invoked:3.0 ~returned:3.5 "a" 4 [ ("a", "1"); ("b", "2") ];
      snapshot ~sid:11L ~invoked:4.0 ~returned:4.5 ();
      branch_created ~stamp:12L ~parent:0L ~sid:5L ~invoked:5.0 ~returned:5.5 ();
      ev ~stamp:13L ~invoked:6.0 ~returned:6.5 (Event.Branch_deleted { sid = 5L });
      branch_get ~stamp:14L ~at:5L ~invoked:7.0 ~returned:7.5 "k" (Some "v");
      branch_put ~stamp:15L ~at:5L ~invoked:8.0 ~returned:8.5 "k" "w";
      ev ~stamp:16L ~invoked:9.0 ~returned:9.5
        (Event.Branch_remove { at = 5L; key = "k"; removed = true });
      ev ~stamp:17L ~invoked:10.0 ~returned:10.5
        (Event.Branch_scan { at = 5L; from = "a"; count = 2; result = [ ("a", "1") ] });
      ev ~stamp:18L ~invoked:11.0 ~returned:11.5
        (Event.Get_many { key = "k"; results = [ (0L, Some "x"); (5L, None) ] });
      ev ~stamp:19L ~invoked:12.0 ~returned:12.5
        (Event.History { from = 5L; key = "k"; results = [ (0L, None); (5L, Some "w") ] });
    ]
  in
  List.iteri
    (fun i e ->
      let e' = Event.of_json (Event.to_json e) in
      if e' <> e then
        Alcotest.failf "sample %d did not roundtrip:@.%a@.vs@.%a" i Event.pp e Event.pp e')
    samples;
  (* A non-event payload is rejected, not misparsed. *)
  match Event.of_json (Obs.Json.String "nope") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_json accepted a non-event"

let () =
  Alcotest.run "check"
    [
      ( "replay",
        [
          Alcotest.test_case "clean history" `Quick test_clean_history;
          Alcotest.test_case "stale read caught" `Quick test_stale_read_caught;
          Alcotest.test_case "wrong remove caught" `Quick test_wrong_remove_caught;
          Alcotest.test_case "scan divergence caught" `Quick test_scan_divergence_caught;
          Alcotest.test_case "missing stamp caught" `Quick test_missing_stamp_caught;
        ] );
      ( "order",
        [
          Alcotest.test_case "real-time violation" `Quick test_realtime_order_violation;
          Alcotest.test_case "concurrent ok" `Quick test_realtime_order_concurrent_ok;
          Alcotest.test_case "duplicate stamp" `Quick test_duplicate_stamp_caught;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "frozen prefix" `Quick test_snapshot_frozen_prefix;
          Alcotest.test_case "missing creation record" `Quick
            test_snapshot_without_creation_record;
          Alcotest.test_case "scs strictness" `Quick test_scs_strictness;
          Alcotest.test_case "scs staleness bound" `Quick test_scs_staleness_bound;
        ] );
      ( "twopc",
        [
          Alcotest.test_case "consistent decisions" `Quick test_twopc_consistent;
          Alcotest.test_case "split decision caught" `Quick test_twopc_split_decision_caught;
          Alcotest.test_case "in-doubt residue caught" `Quick test_in_doubt_residue_caught;
        ] );
      ( "ambiguity",
        [
          Alcotest.test_case "put resolved (applied)" `Quick test_ambiguous_put_resolved_applied;
          Alcotest.test_case "put not applied" `Quick test_ambiguous_put_not_applied;
          Alcotest.test_case "remove resolved" `Quick test_ambiguous_remove_resolved;
          Alcotest.test_case "expired by overwrite" `Quick test_candidate_expired_by_overwrite;
          Alcotest.test_case "over budget inconclusive" `Quick
            test_too_many_ambiguous_inconclusive;
        ] );
      ( "audit",
        [
          Alcotest.test_case "final mismatch" `Quick test_final_audit_mismatch;
          Alcotest.test_case "final match" `Quick test_final_audit_match;
        ] );
      ( "structure",
        [
          Alcotest.test_case "independent indexes" `Quick test_indexes_checked_independently;
        ] );
      ( "branching",
        [
          Alcotest.test_case "frozen ancestor" `Quick test_branch_frozen_ancestor;
          Alcotest.test_case "isolation leak caught" `Quick test_branch_isolation_leak_caught;
          Alcotest.test_case "sibling leak caught" `Quick test_sibling_leak_caught;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "branching clean" `Quick test_histgen_branching_clean;
          Alcotest.test_case "stale read caught" `Quick test_histgen_stale_read_caught;
          Alcotest.test_case "branch isolation caught" `Quick
            test_histgen_branch_isolation_caught;
        ] );
      ( "json",
        [ Alcotest.test_case "event roundtrip" `Quick test_event_json_roundtrip ] );
    ]
