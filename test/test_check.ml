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
let run ?final ?scs_staleness ?(reorder_window = Stream.Config.default.Stream.Config.reorder_window)
    ?twopc ?in_doubt ?(creations = []) events =
  let stream = Stream.create { Stream.Config.scs_staleness; reorder_window } in
  List.iter
    (fun (index, log) ->
      List.iter (fun (sid, stamp) -> Stream.add_creation stream ~index ~sid ~stamp) log)
    creations;
  List.iter (Stream.feed stream) events;
  Stream.finish ?final ?twopc ?in_doubt stream

let assert_ok ?(msg = "verdict ok") v =
  if not (Stream.ok v) then
    Alcotest.failf "%s, but:@.%a" msg Stream.pp_verdict v

(* Substring match. *)
let mentions ~sub m =
  let rec from i =
    i + String.length sub <= String.length m
    && (String.sub m i (String.length sub) = sub || from (i + 1))
  in
  from 0

let assert_violation ?(msg = "expected a violation") ~mentioning v =
  check Alcotest.bool msg true
    (List.exists (fun viol -> mentions ~sub:mentioning viol.Stream.v_message) v.Stream.violations)

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

let test_reorder_window_bound () =
  (* The reorder window holds 4096 stamped events: an event arriving
     after 4096 higher-stamped ones is still re-sequenced, one arriving
     after 4097 lands below the applied watermark. *)
  let late_after n =
    run
      (List.init n (fun i ->
           let t = 0.01 +. (0.001 *. float_of_int i) in
           put ~stamp:(Int64.of_int (i + 2)) ~invoked:t ~returned:(t +. 0.0005) "k"
             (string_of_int i))
      @ [ put ~stamp:1L ~invoked:0.0 ~returned:0.0005 "early" "1" ])
  in
  assert_ok ~msg:"inside the window" (late_after 4096);
  let v = late_after 4097 in
  check Alcotest.bool "not ok" false (Stream.ok v);
  assert_violation ~mentioning:"at or below the applied watermark" v

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

let test_frozen_state_evicted () =
  (* At most 1024 frozen states are kept per index: the 1025th
     creation to freeze evicts the oldest, and a read at the evicted
     sid is inconclusive, not a violation. *)
  let creations =
    [ (0, List.init 1025 (fun i -> (Int64.of_int (i + 1), Int64.of_int (i + 1)))) ]
  in
  let events =
    [
      put ~stamp:2000L ~invoked:0.0 ~returned:0.1 "a" "1";
      get ~stamp:2001L ~sid:1L ~invoked:0.2 ~returned:0.3 "a" None;
      get ~stamp:2002L ~sid:2L ~invoked:0.4 ~returned:0.5 "a" None;
    ]
  in
  let v = run ~creations events in
  assert_ok ~msg:"eviction is not a violation" v;
  check Alcotest.bool "evicted read inconclusive" true
    (List.exists (mentions ~sub:"frozen state for sid 1 was evicted") v.Stream.inconclusive);
  check Alcotest.int "the retained sid is still checked" 1 v.Stream.snapshot_reads_checked

let test_parked_scan () =
  (* A snapshot scan that arrives before its snapshot freezes is parked
     with its result packed. Keys and values holding NUL bytes or empty
     strings must survive the packing: a matching scan passes, and one
     value off reports the scan exactly as it arrived. *)
  let creations = [ (0, [ (100L, 4L) ]) ] in
  let frozen = [ ("", "e"); ("\000", ""); ("a\000b", "x\000y") ] in
  let history ~count result =
    [
      put ~stamp:1L ~invoked:0.00 ~returned:0.01 "" "e";
      put ~stamp:2L ~invoked:0.02 ~returned:0.03 "\000" "";
      put ~stamp:3L ~invoked:0.04 ~returned:0.05 "a\000b" "x\000y";
      put ~stamp:5L ~invoked:0.06 ~returned:0.07 "a\000b" "later";
      scan ~sid:100L ~invoked:0.08 ~returned:0.09 "" count result;
    ]
  in
  let v = run ~creations (history ~count:10 frozen) in
  assert_ok ~msg:"frozen scan accepted" v;
  check Alcotest.int "snapshot read counted" 1 v.Stream.snapshot_reads_checked;
  assert_ok ~msg:"count-limited scan accepted"
    (run ~creations (history ~count:2 [ ("", "e"); ("\000", "") ]));
  let off = [ ("", "e"); ("\000", ""); ("a\000b", "x\000z") ] in
  let events = history ~count:10 off in
  let v = run ~creations events in
  match v.Stream.violations with
  | [ viol ] ->
      check Alcotest.string "message"
        "snapshot scan from \"\" at sid 100 returned 3 entries, frozen state has 3"
        viol.Stream.v_message;
      check Alcotest.bool "the scan as it arrived" true
        (viol.Stream.v_event = Some (List.nth events 4));
      check Alcotest.string "rendering"
        "index 0: snapshot scan from \"\" at sid 100 returned 3 entries, frozen state has 3\n\
        \  at: [0.080000,0.090000] sid:100 idx0 scan from:\"\" count:10 -> 3 entries"
        (Format.asprintf "%a" Stream.pp_violation viol)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

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
  assert_violation ~mentioning:"misses a commit" v

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

let test_twopc_many_records_one_torn () =
  (* 3000 tids decided at five spaces each, records shuffled across
     spaces and tids; tid 1234 committed at spaces 0, 2 and 4 but
     aborted at spaces 1 and 3. *)
  let rng = Random.State.make [| 2 |] in
  let records =
    List.concat_map
      (fun i ->
        let tid = Int64.of_int i in
        let d = if i mod 3 = 0 then `Aborted else `Committed in
        List.map
          (fun space -> (space, tid, if i = 1234 && space mod 2 = 1 then `Aborted else d))
          [ 4; 2; 0; 3; 1 ])
      (List.init 3000 (fun i -> i + 1))
  in
  let twopc =
    List.map (fun r -> (Random.State.bits rng, r)) records
    |> List.sort compare |> List.map snd
  in
  let v = run ~twopc [] in
  check Alcotest.int "records checked" 15000 v.Stream.twopc_checked;
  check
    (Alcotest.list Alcotest.string)
    "one violation, spaces sorted"
    [
      "2PC atomicity violated: transaction 1234 committed at space(s) 0,2,4 but aborted at \
       space(s) 1,3";
    ]
    (List.map (fun x -> x.Stream.v_message) v.Stream.violations)

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

let test_pending_overflow_flushes_oldest () =
  (* 259 stamped reads observe a value nothing wrote; only 256
     mismatches stay buffered, so each further one flushes the oldest
     as a verdict. An ambiguous put arriving late explains the read of
     "k257", which must still be buffered when it arrives. *)
  let reads =
    List.init 259 (fun i ->
        let t = 0.01 *. float_of_int (i + 1) in
        get ~stamp:(Int64.of_int (i + 1)) ~invoked:t ~returned:(t +. 0.005)
          (Printf.sprintf "k%03d" (i + 1))
          (Some "x"))
  in
  let late = put ~ambiguous:true ~invoked:0.0 ~returned:5.0 "k257" "x" in
  let v = run ~reorder_window:1 (reads @ [ late ]) in
  check Alcotest.int "violations" 258 (List.length v.Stream.violations);
  check Alcotest.int "resolved" 1 v.Stream.candidates_resolved;
  check Alcotest.bool "k257 settled" false
    (List.exists (fun viol -> mentions ~sub:"\"k257\"" viol.Stream.v_message) v.Stream.violations)

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

let branch_scan ?stamp ~at ~invoked ~returned from count result =
  ev ?stamp ~invoked ~returned (Event.Branch_scan { at; from; count; result })

let get_many ?stamp ~invoked ~returned key results =
  ev ?stamp ~invoked ~returned (Event.Get_many { key; results })

(* The exact text of every message the frozen-state read rule, the
   version checks and the deferral budget report: (case, creations,
   history, violation messages, inconclusive notes). *)
let message_cases =
  let forked =
    [
      branch_put ~stamp:1L ~at:0L ~invoked:0.00 ~returned:0.01 "a" "1";
      branch_put ~stamp:2L ~at:0L ~invoked:0.02 ~returned:0.03 "b" "2";
      branch_created ~stamp:3L ~parent:0L ~sid:1L ~invoked:0.04 ~returned:0.05 ();
    ]
  in
  let amb_a = put ~ambiguous:true ~invoked:0.0 ~returned:0.01 "a" "maybe" in
  [
    ( "snapshot get",
      [ (0, [ (100L, 2L) ]) ],
      [
        put ~stamp:1L ~invoked:0.00 ~returned:0.01 "a" "frozen";
        put ~stamp:3L ~invoked:0.02 ~returned:0.03 "a" "later";
        get ~sid:100L ~invoked:0.04 ~returned:0.05 "a" (Some "later");
      ],
      [ "snapshot get \"a\" at sid 100 observed \"later\" but the frozen state holds \"frozen\"" ],
      [] );
    (* A candidate excuses only the keys it wrote: "a" cannot explain
       the stale "b". *)
    ( "snapshot scan with ambiguous writes",
      [ (0, [ (100L, 2L) ]) ],
      [
        amb_a;
        put ~stamp:1L ~invoked:0.02 ~returned:0.03 "b" "1";
        put ~stamp:3L ~invoked:0.04 ~returned:0.05 "b" "2";
        scan ~sid:100L ~invoked:0.06 ~returned:0.07 "" 10 [ ("b", "2") ];
      ],
      [ "snapshot scan from \"\" at sid 100 returned 1 entries, frozen state has 1" ],
      [] );
    (* An applied ambiguous insert of "a" fills a full window and pushes
       the model's "c" out of it: only "a" differs, and it is excused. *)
    ( "snapshot scan window excused",
      [ (0, [ (100L, 3L) ]) ],
      [
        amb_a;
        put ~stamp:1L ~invoked:0.02 ~returned:0.03 "b" "1";
        put ~stamp:2L ~invoked:0.04 ~returned:0.05 "c" "1";
        put ~stamp:4L ~invoked:0.06 ~returned:0.07 "d" "1";
        scan ~sid:100L ~invoked:0.08 ~returned:0.09 "" 2 [ ("a", "maybe"); ("b", "1") ];
      ],
      [],
      [] );
    ( "branch get",
      [],
      forked
      @ [
          branch_put ~stamp:4L ~at:1L ~invoked:0.06 ~returned:0.07 "a" "child";
          branch_get ~at:0L ~invoked:0.08 ~returned:0.09 "a" (Some "child");
        ],
      [
        "branch get \"a\" at version 0 observed \"child\" but the frozen ancestor state holds \
         \"1\"";
      ],
      [] );
    ( "branch scan divergence",
      [],
      forked
      @ [
          branch_scan ~stamp:4L ~at:0L ~invoked:0.06 ~returned:0.07 "" 10
            [ ("a", "1"); ("b", "3") ];
        ],
      [
        "branch scan from \"\" at version 0 returned 2 entries, frozen ancestor state has 2 (first \
         divergence: observed \"b\"=\"3\", model \"b\"=\"2\")";
      ],
      [] );
    (* The candidate on "c" cannot excuse the missing "a" and "b". *)
    ( "branch scan with ambiguous writes",
      [],
      (ev ~ambiguous:true ~invoked:0.0 ~returned:0.01
         (Event.Branch_put { at = 0L; key = "c"; value = "3" })
      :: forked)
      @ [ branch_scan ~stamp:4L ~at:0L ~invoked:0.06 ~returned:0.07 "" 10 [] ],
      [
        "branch scan from \"\" at version 0 returned 0 entries, frozen ancestor state has 2 (first \
         divergence: model \"a\"=\"1\" missing from the scan)";
      ],
      [] );
    ( "multi-version get and history chain",
      [],
      forked
      @ [
          get_many ~stamp:4L ~invoked:0.06 ~returned:0.07 "a" [ (0L, Some "x"); (1L, Some "1") ];
          ev ~stamp:5L ~invoked:0.08 ~returned:0.09
            (Event.History { from = 1L; key = "a"; results = [ (1L, Some "1") ] });
        ],
      [
        "multi-version get \"a\" at version 0 observed \"x\" but the version's state holds \"1\"";
        "history at version 1 returned chain [1] but the recorded version tree has [0;1]";
      ],
      [] );
    ( "deleted version",
      [],
      forked
      @ [
          ev ~stamp:4L ~invoked:0.06 ~returned:0.07 (Event.Branch_deleted { sid = 1L });
          branch_put ~stamp:5L ~at:1L ~invoked:0.08 ~returned:0.09 "a" "late";
          branch_get ~stamp:6L ~at:1L ~invoked:0.10 ~returned:0.11 "a" None;
          get_many ~invoked:0.12 ~returned:0.13 "a" [ (1L, None) ];
        ],
      [
        "write at deleted version 1";
        "read at deleted version 1";
        "multi-version read at deleted version 1";
      ],
      [] );
    ( "deferred-read budget",
      [ (0, [ (100L, 1000L) ]) ],
      List.init 65536 (fun _ -> get_many ~invoked:0.0 ~returned:0.01 "a" [])
      @ [
          get ~sid:100L ~invoked:0.02 ~returned:0.03 "a" None;
          branch_get ~at:0L ~invoked:0.04 ~returned:0.05 "a" None;
          get_many ~invoked:0.06 ~returned:0.07 "a" [];
        ],
      [],
      [
        "index 0: deferred-read budget exhausted; snapshot read at sid 100 unchecked";
        "index 0: deferred-read budget exhausted; branch read at version 0 unchecked";
        "index 0: deferred-read budget exhausted; multi-version query unchecked";
      ] );
  ]

let test_messages () =
  List.iter
    (fun (case, creations, events, violations, inconclusive) ->
      let v = run ~creations events in
      check
        (Alcotest.list Alcotest.string)
        (case ^ ": violations") violations
        (List.map (fun viol -> viol.Stream.v_message) v.Stream.violations);
      check
        (Alcotest.list Alcotest.string)
        (case ^ ": inconclusive") inconclusive v.Stream.inconclusive)
    message_cases

(* ------------------------------------------------------------------ *)
(* Synthetic histories (Histgen): falsifiability                       *)
(* ------------------------------------------------------------------ *)

(* The generator's result, its snapshot creations (newest first, as
   [run ~creations] takes them) and its events in release order. *)
let gen_history cfg =
  let events = ref [] and creations = ref [] in
  let gen =
    Chaos.Histgen.generate
      ~on_creation:(fun ~index ~sid ~stamp -> creations := (index, [ (sid, stamp) ]) :: !creations)
      cfg
      (fun e -> events := e :: !events)
  in
  (gen, !creations, List.rev !events)

let histgen_cfg ?(branching = false) ?fault () =
  { Chaos.Histgen.default with Chaos.Histgen.ops = 20_000; branching; fault }

let test_histgen_branching_clean () =
  let _, creations, events = gen_history (histgen_cfg ~branching:true ()) in
  let v = run ~creations events in
  assert_ok ~msg:"branching synthetic history passes" v;
  check Alcotest.bool "branch reads exercised" true (v.Stream.branch_reads_checked > 100)

let test_histgen_stale_read_caught () =
  let gen, creations, events = gen_history (histgen_cfg ~fault:Chaos.Histgen.Stale_read ()) in
  let v = run ~creations ~final:gen.Chaos.Histgen.gen_final events in
  check Alcotest.bool "seeded stale read caught" false (Stream.ok v)

let test_histgen_branch_isolation_caught () =
  let _, creations, events =
    gen_history (histgen_cfg ~branching:true ~fault:Chaos.Histgen.Branch_isolation ())
  in
  let v = run ~creations events in
  check Alcotest.bool "seeded isolation leak caught" false (Stream.ok v)

(* ------------------------------------------------------------------ *)
(* Packed violation context                                            *)
(* ------------------------------------------------------------------ *)

(* Events on one key, of every keyed operation, with [None] and [Some]
   in each optional field and keys and values that may be empty or
   hold NUL bytes. *)
let gen_context_case =
  let open QCheck.Gen in
  let bytes = oneof [ return ""; return "\000"; string_size ~gen:char (int_range 0 12) ] in
  let i64 = oneof [ return 0L; return Int64.min_int; return Int64.max_int; int64 ] in
  let versioned = list_size (int_range 0 4) (pair i64 (opt bytes)) in
  let op key =
    oneof
      [
        map (fun result -> Event.Get { key; result }) (opt bytes);
        map (fun value -> Event.Put { key; value }) bytes;
        map (fun removed -> Event.Remove { key; removed }) bool;
        map2 (fun at result -> Event.Branch_get { at; key; result }) i64 (opt bytes);
        map2 (fun at value -> Event.Branch_put { at; key; value }) i64 bytes;
        map2 (fun at removed -> Event.Branch_remove { at; key; removed }) i64 bool;
        map (fun results -> Event.Get_many { key; results }) versioned;
        map2 (fun from results -> Event.History { from; key; results }) i64 versioned;
      ]
  in
  let event key =
    map
      (fun ((client, index, op), (invoked_at, returned_at), (stamp, sid, ambiguous)) ->
        { Event.client; index; op; invoked_at; returned_at; stamp; sid; ambiguous })
      (triple (triple (opt int) int (op key)) (pair float float) (triple (opt i64) (opt i64) bool))
  in
  bytes >>= fun key -> map (fun evs -> (key, evs)) (list_size (int_range 1 9) (event key))

(* Pushing events one by one keeps the newest four, oldest first, equal
   field for field ([compare]: NaN times round-trip too). *)
let prop_context_roundtrip =
  let print (key, evs) =
    Format.asprintf "key %S:@ %a" key
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Event.pp)
      evs
  in
  QCheck.Test.make ~name:"context round trip" ~count:1000
    (QCheck.make ~print gen_context_case)
    (fun (key, evs) ->
      let packed = List.fold_left Stream.Context.push "" evs in
      let newest = List.filteri (fun i _ -> i >= List.length evs - 4) evs in
      compare (Stream.Context.events ~key packed) newest = 0)

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
          QCheck_alcotest.to_alcotest prop_context_roundtrip;
        ] );
      ( "order",
        [
          Alcotest.test_case "real-time violation" `Quick test_realtime_order_violation;
          Alcotest.test_case "concurrent ok" `Quick test_realtime_order_concurrent_ok;
          Alcotest.test_case "duplicate stamp" `Quick test_duplicate_stamp_caught;
          Alcotest.test_case "reorder window bound" `Quick test_reorder_window_bound;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "frozen prefix" `Quick test_snapshot_frozen_prefix;
          Alcotest.test_case "missing creation record" `Quick
            test_snapshot_without_creation_record;
          Alcotest.test_case "frozen state evicted" `Quick test_frozen_state_evicted;
          Alcotest.test_case "parked scan" `Quick test_parked_scan;
          Alcotest.test_case "scs strictness" `Quick test_scs_strictness;
          Alcotest.test_case "scs staleness bound" `Quick test_scs_staleness_bound;
        ] );
      ( "twopc",
        [
          Alcotest.test_case "consistent decisions" `Quick test_twopc_consistent;
          Alcotest.test_case "split decision caught" `Quick test_twopc_split_decision_caught;
          Alcotest.test_case "many records, one torn" `Quick test_twopc_many_records_one_torn;
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
          Alcotest.test_case "pending overflow flushes oldest" `Quick
            test_pending_overflow_flushes_oldest;
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
          Alcotest.test_case "message texts" `Quick test_messages;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "branching clean" `Quick test_histgen_branching_clean;
          Alcotest.test_case "stale read caught" `Quick test_histgen_stale_read_caught;
          Alcotest.test_case "branch isolation caught" `Quick
            test_histgen_branch_isolation_caught;
        ] );
    ]
