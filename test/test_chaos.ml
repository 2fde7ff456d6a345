(* End-to-end tests for the chaos engine: deterministic replay, clean
   runs verified by the history checker, the deliberately-broken mode
   being caught, and a qcheck property over random chaos schedules
   (whose shrinking minimises the seed and the fault mix). *)

module Runner = Chaos.Runner
module Nemesis = Chaos.Nemesis

let check = Alcotest.check

let small ?(seed = 11) ?(duration = 0.3) ?(kinds = Nemesis.all_kinds) ?(broken = false)
    ?(broken_recovery = false) ?(scs_k = 0.0) () =
  {
    Runner.default with
    Runner.seed;
    duration;
    hosts = 3;
    clients = 4;
    keys = 48;
    hot_keys = 6;
    phases = 1;
    kinds;
    broken;
    broken_recovery;
    scs_k;
  }

let report_string r = Format.asprintf "%a" Runner.pp_report r

let test_clean_run_passes () =
  let r = Runner.run (small ()) in
  if not (Runner.passed r) then Alcotest.failf "chaos run failed:@.%a" Runner.pp_report r;
  check Alcotest.bool "ops ran" true (r.Runner.verdict.Check.Stream.ops_checked > 0);
  check Alcotest.bool "history recorded" true (r.Runner.events > 0);
  check Alcotest.bool "audits ran" true (r.Runner.audits > 0)

let test_faults_injected () =
  let r = Runner.run (small ~duration:0.5 ()) in
  let total = List.assoc "total" r.Runner.fault_counts in
  check Alcotest.bool "faults injected" true (total > 0)

let test_no_fault_baseline () =
  let r = Runner.run (small ~kinds:[] ()) in
  if not (Runner.passed r) then Alcotest.failf "baseline failed:@.%a" Runner.pp_report r;
  check Alcotest.int "no faults" 0 (List.assoc "total" r.Runner.fault_counts)

let test_deterministic_replay () =
  (* A whole run is a pure function of its seed: the full report —
     workload counts, fault schedule, history size, verdict — must be
     byte-identical across runs. *)
  let cfg = small ~seed:23 ~duration:0.4 () in
  let a = report_string (Runner.run cfg) in
  let b = report_string (Runner.run cfg) in
  check Alcotest.string "same seed, same report" a b;
  let c = report_string (Runner.run { cfg with Runner.seed = 24 }) in
  check Alcotest.bool "different seed, different run" true (a <> c)

let test_each_kind_alone () =
  List.iter
    (fun kind ->
      let r = Runner.run (small ~kinds:[ kind ] ()) in
      if not (Runner.passed r) then
        Alcotest.failf "run with only %s faults failed:@.%a" (Nemesis.kind_to_string kind)
          Runner.pp_report r)
    Nemesis.all_kinds

let test_broken_mode_caught () =
  (* unsafe_dirty_leaf_reads skips leaf validation on read-only
     traversals; the checker must catch the resulting stale reads and
     report a counterexample. Whether a run serializes a stale read is a
     matter of timing, so the run is long enough that the outcome does
     not hang on the seed: at 0.5 s this configuration is caught on
     about two seeds in three, at 4 s on every one of seeds 1-250. *)
  let r = Runner.run (small ~seed:11 ~duration:4.0 ~broken:true ()) in
  check Alcotest.bool "broken run fails" false (Runner.passed r);
  check Alcotest.bool "violations reported" true
    (r.Runner.verdict.Check.Stream.violations <> []);
  (* The counterexample names the operation that exposed the bug. *)
  let first = List.hd r.Runner.verdict.Check.Stream.violations in
  check Alcotest.bool "counterexample has the event" true
    (first.Check.Stream.v_event <> None)

let test_broken_recovery_caught () =
  (* broken_recovery skips the redo-log replay when a replica is
     promoted or a crashed primary is restored, so committed writes
     whose mirror never arrived are silently lost. Under crashes
     landing mid-2PC the run must fail — either the checker reports lost
     updates, a structural audit catches a torn tree, or the corruption
     crashes the run outright (also reported as a failure). *)
  let r =
    Runner.run
      (small ~seed:7 ~duration:0.5
         ~kinds:[ Nemesis.Crash; Nemesis.Replica_lag ]
         ~broken_recovery:true ())
  in
  check Alcotest.bool "broken recovery caught" false (Runner.passed r)

let test_staleness_bound_passes () =
  (* With a staleness bound k > 0 the checker relaxes the SCS rule by
     exactly k rather than dropping it; a clean run must still pass. *)
  let r = Runner.run (small ~seed:5 ~scs_k:0.02 ()) in
  if not (Runner.passed r) then Alcotest.failf "staleness run failed:@.%a" Runner.pp_report r

let test_twopc_records_checked () =
  (* Chaos runs retain every 2PC decision record; the final verdict
     must actually cross-check them. *)
  let r = Runner.run (small ~kinds:[ Nemesis.Crash ] ()) in
  if not (Runner.passed r) then Alcotest.failf "crash run failed:@.%a" Runner.pp_report r;
  check Alcotest.bool "2pc records checked" true
    (r.Runner.verdict.Check.Stream.twopc_checked > 0)

let test_kind_names_roundtrip () =
  List.iter
    (fun kind ->
      match Nemesis.kind_of_string (Nemesis.kind_to_string kind) with
      | Some k -> check Alcotest.bool "roundtrip" true (k = kind)
      | None -> Alcotest.failf "kind %s does not roundtrip" (Nemesis.kind_to_string kind))
    Nemesis.all_kinds;
  check Alcotest.bool "unknown rejected" true (Nemesis.kind_of_string "meteor" = None)

let test_registry_bounded () =
  (* Duplicates are ignored; past capacity the oldest version drops. *)
  let reg = Chaos.Checked.Registry.create ~capacity:3 in
  List.iter (Chaos.Checked.Registry.note reg) [ 1L; 2L; 2L; 3L; 1L; 4L; 5L ];
  check
    Alcotest.(list int64)
    "newest three, newest first" [ 5L; 4L; 3L ]
    (Chaos.Checked.Registry.frozen reg)

let test_failed_audit_recorded () =
  (* A raising audit is recorded under its label and does not stop the
     audits after it, including finish's tip audit. *)
  let o =
    Minuet.Harness.run ~seed:3 ~until:5.0
      ~config:(Chaos.Checked.config { Minuet.Config.default with Minuet.Config.hosts = 2 })
    @@ fun db ->
    let checked = Chaos.Checked.start db ~n_clients:1 in
    Chaos.Checked.audit checked ~label:"torn" (fun () -> failwith "bad fence");
    Chaos.Checked.audit checked ~label:"fine" ignore;
    Chaos.Checked.finish checked
  in
  check Alcotest.(list string) "failure labelled" [ "torn: bad fence" ]
    o.Chaos.Checked.audit_failures;
  check Alcotest.int "later audits ran" 2 o.Chaos.Checked.audits

let test_trace_tee () =
  (* --trace writes one JSON event object per line for each event the
     checker was fed. *)
  let path = Filename.temp_file "chaos-trace" ".jsonl" in
  let r = Runner.run { (small ~duration:0.2 ()) with Runner.trace_out = Some path } in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  check Alcotest.int "one line per event" r.Runner.events (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.member "operation" (Obs.Json.parse line) with
      | Some (Obs.Json.Obj _) -> ()
      | _ -> Alcotest.failf "no operation object in %s" line)
    lines

(* Any short chaos schedule — any seed, any subset of fault kinds — must
   produce a history the checker accepts. On failure qcheck shrinks the
   schedule: the seed toward 0 and the fault mask toward the empty mix,
   yielding a minimal failing configuration. *)
let prop_any_schedule_passes =
  QCheck.Test.make ~name:"any chaos schedule passes the checker" ~count:6
    QCheck.(pair (int_bound 999) (int_bound 255))
    (fun (seed, mask) ->
      let kinds =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) Nemesis.all_kinds
      in
      let r = Runner.run (small ~seed ~duration:0.2 ~kinds ()) in
      Runner.passed r)

let () =
  Alcotest.run "chaos"
    [
      ( "runner",
        [
          Alcotest.test_case "clean run passes" `Quick test_clean_run_passes;
          Alcotest.test_case "faults injected" `Quick test_faults_injected;
          Alcotest.test_case "no-fault baseline" `Quick test_no_fault_baseline;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "each kind alone" `Quick test_each_kind_alone;
          Alcotest.test_case "broken mode caught" `Quick test_broken_mode_caught;
          Alcotest.test_case "broken recovery caught" `Quick test_broken_recovery_caught;
          Alcotest.test_case "staleness bound passes" `Quick test_staleness_bound_passes;
          Alcotest.test_case "2pc records checked" `Quick test_twopc_records_checked;
          Alcotest.test_case "kind names roundtrip" `Quick test_kind_names_roundtrip;
          Alcotest.test_case "registry bounded" `Quick test_registry_bounded;
          Alcotest.test_case "failed audit recorded" `Quick test_failed_audit_recorded;
          Alcotest.test_case "trace tee" `Quick test_trace_tee;
        ] );
      ( "schedules",
        [ QCheck_alcotest.to_alcotest prop_any_schedule_passes ] );
    ]
