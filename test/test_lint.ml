(* Tier-1 gate for minuet_lint itself: the fixture self-test, exact
   finding anchors, repo-wide cleanliness, falsifiability (a disabled
   rule goes silent), the suppression window, and the JSON report. *)

let check = Alcotest.check

(* Copied next to the test binary by the dune [deps] glob. *)
let fixtures_dir = "lint_fixtures"

(* Under [dune runtest] the cwd is _build/default/test, and dune has
   copied every library source into _build/default — walk up until the
   tree root shows a known protocol source. *)
let repo_root =
  lazy
    (let rec up dir n =
       if n > 6 then Alcotest.fail "could not locate repo root from cwd"
       else if Sys.file_exists (Filename.concat dir "lib/sinfonia/mtx.ml") then dir
       else up (Filename.dirname dir) (n + 1)
     in
     up (Sys.getcwd ()) 0)

let pp_diags diags =
  String.concat "\n"
    (List.map (fun d -> Format.asprintf "%a" Lint.Diag.pp d) diags)

let test_fixture_selftest () =
  match Lint.Engine.check_fixtures fixtures_dir with
  | [] -> ()
  | failures -> Alcotest.fail (String.concat "\n" failures)

(* The self-test checks (rule, line) sets per fixture; this pins the
   exact anchors of one bad fixture so a matcher that drifts to a
   different node of the same construct is caught even if it stays on
   the same line count. *)
let test_fixture_anchors () =
  let src =
    Lint.Src_file.load ~rel:"bad_crashed_swallow.ml"
      (Filename.concat fixtures_dir "bad_crashed_swallow.ml")
  in
  let found =
    Lint.Engine.lint_source ~ignore_scope:true ~rules:Lint.Rules.all src
    |> List.map (fun (d : Lint.Diag.t) -> (d.Lint.Diag.rule, d.Lint.Diag.line))
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "anchors"
    [
      ("crashed-swallow", 7);
      ("crashed-swallow", 11);
      ("crashed-swallow", 17);
      ("crashed-swallow", 21);
    ]
    found

let repo_result =
  lazy
    (let root = Lazy.force repo_root in
     Lint.Engine.lint_files (Lint.Engine.expand_targets ~root [ "lib"; "bin"; "test" ]))

let test_repo_clean () =
  let result = Lazy.force repo_result in
  (match result.Lint.Engine.parse_errors with
  | [] -> ()
  | errs ->
      Alcotest.fail
        (String.concat "\n" (List.map (fun (rel, m) -> rel ^ ": " ^ m) errs)));
  (match Lint.Engine.unsuppressed result with
  | [] -> ()
  | live -> Alcotest.fail ("repo has unsuppressed findings:\n" ^ pp_diags live));
  (* Guards against the walk silently scanning nothing (wrong root)
     and against suppressions being dropped wholesale. *)
  check Alcotest.bool "scanned most of the tree" true
    (result.Lint.Engine.files_scanned >= 50);
  check Alcotest.bool "suppressions survive" true
    (Lint.Engine.suppressed_count result >= 4)

(* Falsifiability: the same seeded-bad file flips from findings to
   silence when (and only when) its rule is disabled. *)
let test_disable_silences_rule () =
  let targets =
    [
      ( Filename.concat fixtures_dir "bad_nondet_iteration.ml",
        "lib/sinfonia/seeded.ml" );
    ]
  in
  let on = Lint.Engine.lint_files targets in
  check Alcotest.bool "rule fires on seeded violation" true
    (List.length (Lint.Engine.unsuppressed on) > 0);
  let rules =
    List.filter (fun (r : Lint.Rules.t) -> r.Lint.Rules.id <> "nondet-iteration") Lint.Rules.all
  in
  let off = Lint.Engine.lint_files ~rules targets in
  check Alcotest.int "disabled rule is silent" 0
    (List.length (Lint.Engine.unsuppressed off))

(* ------------------------------------------------------------------ *)
(* Interprocedural phase                                                *)
(* ------------------------------------------------------------------ *)

(* The xmod fixture pair, loaded at their in-tree rels so scoping and
   cross-file resolution behave exactly as in a whole-repo run. *)
let xmod_srcs () =
  List.map
    (fun rel ->
      Lint.Src_file.load ~rel (Filename.concat (Filename.concat fixtures_dir "xmod") rel))
    [ "lib/sinfonia/xm_entry.ml"; "lib/util/xm_leak.ml" ]

(* Both the [open Xm_leak] unqualified call and the [module L =
   Xm_leak] aliased call must resolve to the same cross-file target. *)
let test_xmod_resolution () =
  let ip = Lint.Interproc.build ~honor_scope:true (List.map Lint.Summary.of_src (xmod_srcs ())) in
  let entry_rel = "lib/sinfonia/xm_entry.ml" in
  let target = Lint.Summary.fn_id ~rel:"lib/util/xm_leak.ml" "dump" in
  List.iter
    (fun local ->
      match Lint.Interproc.fn ip (Lint.Summary.fn_id ~rel:entry_rel local) with
      | None -> Alcotest.fail ("missing summary for " ^ local)
      | Some fn -> (
          match Lint.Summary.calls_of fn with
          | [ call ] ->
              check (Alcotest.option Alcotest.string)
                (local ^ " resolves cross-file")
                (Some target)
                (Lint.Interproc.resolve_from ip ~rel:entry_rel call)
          | calls ->
              Alcotest.fail
                (Printf.sprintf "%s: expected one call, summarized %d" local
                   (List.length calls))))
    [ "report"; "audit" ]

(* Feeding the files in either order must produce byte-identical
   diagnostics and a sorted function list — the summary and fixpoint
   stages are order-independent by construction. *)
let test_deterministic_order () =
  let diags srcs =
    fst (Lint.Engine.lint_program ~rules:Lint.Rules.all srcs)
    |> List.map (fun (d : Lint.Diag.t) -> (d.Lint.Diag.rule, d.Lint.Diag.path, d.Lint.Diag.line))
  in
  let fwd = xmod_srcs () in
  check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.string Alcotest.int))
    "file order does not leak into diagnostics" (diags fwd)
    (diags (List.rev fwd));
  let ip = Lint.Interproc.build (List.map Lint.Summary.of_src fwd) in
  let ids =
    List.map (fun (f : Lint.Summary.fn) -> f.Lint.Summary.fn_id) (Lint.Interproc.functions ip)
  in
  check
    (Alcotest.list Alcotest.string)
    "functions visited in sorted order"
    (List.sort compare ids) ids

(* A mutually-recursive cycle must still reach a fixpoint (well under
   the pass cap) and propagate the source to every cycle member. *)
let test_fixpoint_recursion () =
  let path = Filename.temp_file "lint_rec_probe" ".ml" in
  let oc = open_out path in
  output_string oc
    "let rec ping tbl n =\n\
    \  if n = 0 then Hashtbl.iter (fun _ _ -> ()) tbl else pong tbl (n - 1)\n\
     and pong tbl n = ping tbl (n - 1)\n";
  close_out oc;
  let rel = "lib/sim/rec_probe.ml" in
  let src = Lint.Src_file.load ~rel path in
  Sys.remove path;
  let ip = Lint.Interproc.build ~honor_scope:false [ Lint.Summary.of_src src ] in
  let stats = Lint.Interproc.stats ip in
  check Alcotest.bool "fixpoint converged below the cap" true
    (stats.Lint.Interproc.st_reach_passes < 64);
  List.iter
    (fun local ->
      let reach = Lint.Interproc.reach_of ip (Lint.Summary.fn_id ~rel local) in
      check Alcotest.bool (local ^ " reaches the cycle's nondet source") true
        (List.exists
           (fun (r : Lint.Interproc.reach) -> r.Lint.Interproc.r_what = "Hashtbl.iter")
           reach))
    [ "ping"; "pong" ]

(* Falsifiability for a Global rule: same shape as the Expr-rule test,
   seeded at a protocol path so real scoping applies. *)
let test_disable_silences_global_rule () =
  let targets =
    [
      ( Filename.concat fixtures_dir "bad_blocking_under_lock.ml",
        "lib/sinfonia/seeded.ml" );
    ]
  in
  let on = Lint.Engine.lint_files targets in
  check Alcotest.bool "blocking-under-lock fires on seeded violation" true
    (List.exists
       (fun (d : Lint.Diag.t) -> d.Lint.Diag.rule = "blocking-under-lock")
       (Lint.Engine.unsuppressed on));
  let rules =
    List.filter
      (fun (r : Lint.Rules.t) -> r.Lint.Rules.id <> "blocking-under-lock")
      Lint.Rules.all
  in
  let off = Lint.Engine.lint_files ~rules targets in
  check Alcotest.int "disabled global rule is silent" 0
    (List.length (Lint.Engine.unsuppressed off))

let test_suppression_window () =
  let src =
    Lint.Src_file.load ~rel:"good_suppressed.ml"
      (Filename.concat fixtures_dir "good_suppressed.ml")
  in
  let allowed rule line = Lint.Src_file.allowed src ~rule ~line in
  check Alcotest.bool "line after the directive" true (allowed "nondet-iteration" 9);
  check Alcotest.bool "window does not reach above" false (allowed "nondet-iteration" 7);
  check Alcotest.bool "window ends one line after" false (allowed "nondet-iteration" 10);
  check Alcotest.bool "trailing same-line directive" true (allowed "wallclock-rng" 11);
  check Alcotest.bool "directive names only its rule" false (allowed "crashed-swallow" 9);
  check Alcotest.bool "allow-file covers everywhere" true (allowed "poly-compare" 13)

let test_json_report () =
  let result = Lazy.force repo_result in
  let report = Obs.Bench.to_json (Lint.Engine.report result) in
  let parsed = Obs.Json.parse (Obs.Json.to_string report) in
  check Alcotest.bool "report round-trips through the codec" true
    (Obs.Json.equal report parsed);
  (match Obs.Bench.validate parsed with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("envelope: " ^ m));
  let member key =
    match Obs.Json.member key parsed with
    | Some v -> v
    | None -> Alcotest.fail ("missing member " ^ key)
  in
  let int_member key =
    match member key with Obs.Json.Int i -> i | _ -> Alcotest.fail ("not an int: " ^ key)
  in
  check Alcotest.bool "bench" true (Obs.Json.equal (member "bench") (Obs.Json.String "lint"));
  check Alcotest.bool "no seed" true (Obs.Json.equal (member "seed") Obs.Json.Null);
  (match member "wall_ms" with
  | Obs.Json.Float _ -> ()
  | _ -> Alcotest.fail "wall_ms not a float");
  (match member "gates" with
  | Obs.Json.List gates ->
      check Alcotest.(list string) "gate names" [ "findings"; "parse_errors"; "wall_ms" ]
        (List.map
           (fun g ->
             match Obs.Json.member "name" g with
             | Some (Obs.Json.String n) -> n
             | _ -> Alcotest.fail "gate without a name")
           gates)
  | _ -> Alcotest.fail "missing gates list");
  check Alcotest.int "rules_run" (List.length Lint.Rules.all) (int_member "rules_run");
  check Alcotest.int "findings" 0 (int_member "findings");
  check Alcotest.int "suppressions" (Lint.Engine.suppressed_count result)
    (int_member "suppressions");
  (match member "rules" with
  | Obs.Json.List rules ->
      check Alcotest.int "per-rule entries" (List.length Lint.Rules.all) (List.length rules)
  | _ -> Alcotest.fail "missing rules list");
  match Obs.Json.member "functions" (member "interproc") with
  | Some (Obs.Json.Int n) -> check Alcotest.bool "interproc saw the repo's functions" true (n > 100)
  | _ -> Alcotest.fail "missing interproc.functions"

let () =
  Alcotest.run "lint"
    [
      ( "engine",
        [
          Alcotest.test_case "fixture self-test" `Quick test_fixture_selftest;
          Alcotest.test_case "fixture anchors" `Quick test_fixture_anchors;
          Alcotest.test_case "repo lints clean" `Quick test_repo_clean;
          Alcotest.test_case "disable silences rule" `Quick test_disable_silences_rule;
          Alcotest.test_case "suppression window" `Quick test_suppression_window;
          Alcotest.test_case "cross-module resolution" `Quick test_xmod_resolution;
          Alcotest.test_case "deterministic order" `Quick test_deterministic_order;
          Alcotest.test_case "fixpoint on recursion" `Quick test_fixpoint_recursion;
          Alcotest.test_case "disable silences global rule" `Quick
            test_disable_silences_global_rule;
          Alcotest.test_case "json report" `Quick test_json_report;
        ] );
    ]
