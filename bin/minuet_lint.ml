(* minuet_lint: static analysis over the repo's own sources.

   Usage:
     minuet_lint [options] [paths...]        lint files/directories (default: lib bin test)
     minuet_lint --fixtures DIR              run the fixture self-test
     minuet_lint --list-rules                describe the rule set

   Exit codes: 0 clean, 1 unsuppressed findings or a failed
   BENCH_lint.json gate, 2 parse/self-test errors. Run from the
   repository root so rule scoping (path prefixes like lib/sinfonia/)
   lines up. *)

let usage = "minuet_lint [options] [paths...]"

let () =
  let targets = ref [] in
  let json_path = ref "" in
  let fixtures = ref "" in
  let disabled = ref [] in
  let rel_as = ref "" in
  let quiet = ref false in
  let list_rules = ref false in
  let spec =
    [
      ("--json", Arg.Set_string json_path, "FILE write a gated BENCH_lint.json report to FILE");
      ("--fixtures", Arg.Set_string fixtures, "DIR run the self-test over the fixture tree DIR");
      ( "--disable",
        Arg.String (fun r -> disabled := r :: !disabled),
        "RULE disable a rule (repeatable; the CI falsifiability check uses this)" );
      ( "--as",
        Arg.Set_string rel_as,
        "PATH treat a single file (or directory) target as repo-relative PATH for rule scoping" );
      ("--quiet", Arg.Set quiet, " print only the summary line");
      ("--list-rules", Arg.Set list_rules, " list rule ids and the invariant each protects");
    ]
  in
  Arg.parse spec (fun t -> targets := t :: !targets) usage;
  let fail fmt = Format.kasprintf (fun m -> prerr_endline ("minuet_lint: " ^ m); exit 2) fmt in
  if !list_rules then begin
    List.iter
      (fun (r : Lint.Rules.t) ->
        Printf.printf "%-18s %-7s %s\n" r.Lint.Rules.id
          (Lint.Diag.severity_to_string r.Lint.Rules.severity)
          r.Lint.Rules.doc)
      Lint.Rules.all;
    exit 0
  end;
  List.iter
    (fun r -> if not (List.mem r Lint.Rules.ids) then fail "--disable %s: unknown rule" r)
    !disabled;
  let rules =
    List.filter (fun (r : Lint.Rules.t) -> not (List.mem r.Lint.Rules.id !disabled)) Lint.Rules.all
  in
  if !fixtures <> "" then begin
    match Lint.Engine.check_fixtures ~rules !fixtures with
    | [] ->
        if not !quiet then Printf.printf "fixtures OK (%s)\n" !fixtures;
        exit 0
    | failures ->
        List.iter prerr_endline failures;
        fail "%d fixture expectation(s) not met" (List.length failures)
  end;
  let targets = match List.rev !targets with [] -> [ "lib"; "bin"; "test" ] | ts -> ts in
  let pairs =
    if !rel_as <> "" then begin
      match targets with
      | [ file ] when Sys.file_exists file && not (Sys.is_directory file) -> [ (file, !rel_as) ]
      | [ dir ] when Sys.file_exists dir && Sys.is_directory dir ->
          (* A whole tree mapped under PATH: the CI falsifiability gate
             uses this to plant a multi-file seeded program at a scoped
             location (e.g. --as lib <tree> so <tree>/sinfonia/x.ml
             lints as lib/sinfonia/x.ml). *)
          List.map
            (fun (path, rel) -> (path, !rel_as ^ "/" ^ rel))
            (Lint.Engine.files_under dir "")
      | _ -> fail "--as requires exactly one file or directory target"
    end
    else Lint.Engine.expand_targets ~root:"." targets
  in
  if pairs = [] then fail "no .ml files found under: %s" (String.concat " " targets);
  let result = Lint.Engine.lint_files ~rules pairs in
  List.iter
    (fun (rel, message) -> Printf.eprintf "%s: parse failure\n%s\n" rel message)
    result.Lint.Engine.parse_errors;
  let live = Lint.Engine.unsuppressed result in
  if not !quiet then
    List.iter (fun d -> Format.printf "%a@." Lint.Diag.pp d) live;
  Printf.printf "minuet_lint: %d file(s), %d rule(s), %d finding(s), %d suppression(s)%s\n"
    result.Lint.Engine.files_scanned (List.length rules) (List.length live)
    (Lint.Engine.suppressed_count result)
    (if result.Lint.Engine.parse_errors <> [] then
       Printf.sprintf ", %d parse error(s)" (List.length result.Lint.Engine.parse_errors)
     else "");
  let pass =
    !json_path = "" || Obs.Bench.write ~path:!json_path (Lint.Engine.report result)
  in
  if result.Lint.Engine.parse_errors <> [] then exit 2;
  if live <> [] || not pass then exit 1
