(* Walks source trees and runs the two-phase analysis over the loaded
   program: per-expression rules in one [Ast_iterator] pass per file,
   then the whole-program rules over the interprocedural context
   (Summary facts propagated to fixpoint by Interproc). Suppression
   directives apply to both kinds; the result renders as human
   diagnostics or an Obs.Json report. *)

type result = {
  files_scanned : int;
  parse_errors : (string * string) list;  (* rel path, message *)
  findings : Diag.t list;  (* sorted; includes suppressed ones *)
  rules_run : Rules.t list;
  interproc : Interproc.stats option;  (* None when nothing parsed *)
  wall_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Target discovery                                                     *)
(* ------------------------------------------------------------------ *)

(* Fixture trees hold deliberately-bad sources for the self-test; they
   are linted only via [check_fixtures], never on a repo walk. *)
let skip_dir name =
  name = "lint_fixtures"
  || String.length name > 0
     && (name.[0] = '.' || name.[0] = '_')

let is_ml name =
  Filename.check_suffix name ".ml"

(* Depth-first, name-sorted walk so diagnostics and reports list files
   in a stable order on every run. *)
let rec files_under path rel =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           let sub = Filename.concat path name in
           let sub_rel = if rel = "" then name else rel ^ "/" ^ name in
           if Sys.is_directory sub then if skip_dir name then [] else files_under sub sub_rel
           else if is_ml name then [ (sub, sub_rel) ]
           else [])
  else if is_ml path then [ (path, rel) ]
  else []

let strip_dot_slash p =
  if String.length p >= 2 && String.sub p 0 2 = "./" then String.sub p 2 (String.length p - 2)
  else p

(* Expand CLI targets (files or directories, relative to [root]) into
   (filesystem path, repo-relative path) pairs. *)
let expand_targets ~root targets =
  List.concat_map
    (fun target ->
      let rel = strip_dot_slash target in
      files_under (Filename.concat root target) rel)
    targets

(* ------------------------------------------------------------------ *)
(* Linting a program                                                    *)
(* ------------------------------------------------------------------ *)

let directive_rule = "lint-directive"

(* Findings about the lint comments themselves (typos, unknown rule
   ids). Never suppressable: a directive that does nothing must not be
   able to hide itself. *)
let directive_findings (src : Src_file.t) =
  List.concat_map
    (fun d ->
      let bad ~line reason =
        [
          {
            Diag.rule = directive_rule;
            severity = Diag.Error;
            path = src.Src_file.rel;
            line;
            col = 0;
            message = reason;
            suppressed = false;
          };
        ]
      in
      let unknown ~line ids =
        List.concat_map
          (fun id ->
            if List.mem id Rules.ids then []
            else bad ~line (Printf.sprintf "unknown rule id %S in lint directive" id))
          ids
      in
      match d with
      | Src_file.Malformed { line; reason } -> bad ~line reason
      | Src_file.Allow { ids; from_line; _ } -> unknown ~line:from_line ids
      | Src_file.Allow_file ids -> unknown ~line:1 ids)
    (Src_file.directives src)

(* Lint a set of already-parsed files as one program: the per-file
   expression pass for [Expr] rules, then the interprocedural pass for
   [Global] rules. With [ignore_scope] (fixture self-tests) path
   scoping is bypassed for both kinds and the Global rules drop their
   internal scope filters too. *)
let lint_program ?(ignore_scope = false) ~rules (srcs : Src_file.t list) =
  let summaries = List.map Summary.of_src srcs in
  let ip = Interproc.build ~honor_scope:(not ignore_scope) summaries in
  let srcs_by_rel = Hashtbl.create 16 in
  List.iter (fun (s : Src_file.t) -> Hashtbl.replace srcs_by_rel s.Src_file.rel s) srcs;
  let findings = ref [] in
  let add (r : Rules.t) ~rel ~line ~col msg =
    let suppressed =
      match Hashtbl.find_opt srcs_by_rel rel with
      | Some src -> Src_file.allowed src ~rule:r.Rules.id ~line
      | None -> false
    in
    findings :=
      {
        Diag.rule = r.Rules.id;
        severity = r.Rules.severity;
        path = rel;
        line;
        col;
        message = msg;
        suppressed;
      }
      :: !findings
  in
  List.iter
    (fun (src : Src_file.t) ->
      let rel = src.Src_file.rel in
      let active =
        List.filter
          (fun (r : Rules.t) ->
            match r.Rules.kind with
            | Rules.Expr _ -> ignore_scope || Rules.in_scope r rel
            | Rules.Global _ -> false)
          rules
      in
      let ctx = { Rules.rel; src } in
      let emit (r : Rules.t) ~loc msg =
        let line = loc.Location.loc_start.Lexing.pos_lnum in
        let col = loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol in
        add r ~rel ~line ~col msg
      in
      let iterator =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              List.iter
                (fun (r : Rules.t) ->
                  match r.Rules.kind with
                  | Rules.Expr check -> check ctx ~emit:(emit r) e
                  | Rules.Global _ -> ())
                active;
              Ast_iterator.default_iterator.expr it e);
        }
      in
      iterator.structure iterator src.Src_file.ast;
      findings := directive_findings src @ !findings)
    srcs;
  List.iter
    (fun (r : Rules.t) ->
      match r.Rules.kind with
      | Rules.Global check ->
          check ip ~emit:(fun ~rel ~line ~col msg ->
              if ignore_scope || Rules.in_scope r rel then add r ~rel ~line ~col msg)
      | Rules.Expr _ -> ())
    rules;
  (List.sort Diag.order !findings, Interproc.stats ip)

let lint_source ?(ignore_scope = false) ~rules (src : Src_file.t) =
  fst (lint_program ~ignore_scope ~rules [ src ])

let lint_files ?(rules = Rules.all) ?(ignore_scope = false) targets =
  let wall_ms = Obs.Bench.stopwatch () in
  let parse_errors = ref [] in
  let srcs = ref [] in
  List.iter
    (fun (path, rel) ->
      match Src_file.load ~rel path with
      | src -> srcs := src :: !srcs
      | exception Src_file.Parse_failure { rel; message } ->
          parse_errors := (rel, message) :: !parse_errors)
    targets;
  let findings, stats = lint_program ~ignore_scope ~rules (List.rev !srcs) in
  {
    files_scanned = List.length targets;
    parse_errors = List.rev !parse_errors;
    findings;
    rules_run = rules;
    interproc = Some stats;
    wall_ms = wall_ms ();
  }

let unsuppressed t = List.filter (fun (d : Diag.t) -> not d.Diag.suppressed) t.findings

let suppressed_count t =
  List.length (List.filter (fun (d : Diag.t) -> d.Diag.suppressed) t.findings)

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

(* BENCH_lint.json: no live finding, no parse error, and a 10 s budget
   that catches a fixpoint or splice pass gone quadratic. *)
let report t =
  let per_rule (r : Rules.t) =
    let mine = List.filter (fun (d : Diag.t) -> d.Diag.rule = r.Rules.id) t.findings in
    let live = List.filter (fun (d : Diag.t) -> not d.Diag.suppressed) mine in
    Obs.Json.Obj
      [
        ("id", Obs.Json.String r.Rules.id);
        ("severity", Obs.Json.String (Diag.severity_to_string r.Rules.severity));
        ("invariant", Obs.Json.String r.Rules.doc);
        ("findings", Obs.Json.Int (List.length live));
        ("suppressed", Obs.Json.Int (List.length mine - List.length live));
      ]
  in
  let interproc =
    match t.interproc with
    | None -> Obs.Json.Null
    | Some (s : Interproc.stats) ->
        Obs.Json.Obj
          [
            ("functions", Obs.Json.Int s.Interproc.st_functions);
            ("calls", Obs.Json.Int s.Interproc.st_calls);
            ("resolved_calls", Obs.Json.Int s.Interproc.st_resolved);
            ("unresolved_calls", Obs.Json.Int s.Interproc.st_unresolved);
            ("handlers", Obs.Json.Int s.Interproc.st_handlers);
            ("reach_passes", Obs.Json.Int s.Interproc.st_reach_passes);
            ("raise_passes", Obs.Json.Int s.Interproc.st_raise_passes);
            ("seq_passes", Obs.Json.Int s.Interproc.st_seq_passes);
            ("seq_truncated", Obs.Json.Int s.Interproc.st_seq_truncated);
          ]
  in
  let findings = List.length (unsuppressed t) in
  let parse_errors = List.length t.parse_errors in
  {
    Obs.Bench.bench = "lint";
    seed = None;
    wall_ms = t.wall_ms;
    gates =
      [
        Obs.Bench.at_most "findings" (float_of_int findings) 0.0;
        Obs.Bench.at_most "parse_errors" (float_of_int parse_errors) 0.0;
        Obs.Bench.at_most "wall_ms" t.wall_ms 10_000.0;
      ];
    fields =
      [
        ("rules_run", Obs.Json.Int (List.length t.rules_run));
        ("files_scanned", Obs.Json.Int t.files_scanned);
        ("findings", Obs.Json.Int findings);
        ("suppressions", Obs.Json.Int (suppressed_count t));
        ("parse_errors", Obs.Json.Int parse_errors);
        ("interproc", interproc);
        ("rules", Obs.Json.List (List.map per_rule t.rules_run));
        ("diagnostics", Obs.Json.List (List.map Diag.to_json (unsuppressed t)));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Fixture self-test                                                    *)
(* ------------------------------------------------------------------ *)

(* Fixtures encode their own expected outcome: [(* expect: rule *)] on
   the line a finding must anchor to, [(* expect-suppressed: rule *)]
   where an allow directive must have downgraded one. Every fixture is
   checked for exact (rule, line) set equality, so a rule that drifts
   (fires elsewhere, or goes quiet) fails the self-test.

   Layout: [.ml] files directly under the fixture dir are linted one
   at a time with scoping ignored (they exercise matchers, not path
   prefixes). Each sub-directory is linted as one whole program with
   real scoping, the file's path inside the tree standing in for its
   repo-relative path — so a multi-file tree can exercise cross-module
   resolution and the scope behaviour of the Global rules. *)
let fixture_expectations (src : Src_file.t) =
  let parse prefix (c : Src_file.comment) =
    let t = String.trim c.Src_file.c_text in
    let lp = String.length prefix in
    if String.length t > lp && String.sub t 0 lp = prefix then
      Some (String.trim (String.sub t lp (String.length t - lp)), c.Src_file.c_start)
    else None
  in
  let expected = List.filter_map (parse "expect:") src.Src_file.comments in
  let expected_suppressed =
    List.filter_map (parse "expect-suppressed:") src.Src_file.comments
  in
  (expected, expected_suppressed)

let check_fixtures ?(rules = Rules.all) dir =
  let failures = ref [] in
  let fail rel fmt =
    Format.kasprintf (fun m -> failures := (rel ^ ": " ^ m) :: !failures) fmt
  in
  let pp_set set =
    String.concat ", "
      (List.map (fun (rule, line) -> Printf.sprintf "%s@%d" rule line) set)
  in
  let check_against ~label (src : Src_file.t) (findings : Diag.t list) =
    let mine = List.filter (fun (d : Diag.t) -> d.Diag.path = src.Src_file.rel) findings in
    let observed select =
      List.filter select mine
      |> List.map (fun (d : Diag.t) -> (d.Diag.rule, d.Diag.line))
      |> List.sort compare
    in
    let expected, expected_suppressed = fixture_expectations src in
    let check kind expected actual =
      if List.sort compare expected <> actual then
        fail label "%s findings mismatch: expected {%s} but the linter reported {%s}" kind
          (pp_set (List.sort compare expected))
          (pp_set actual)
    in
    check "unsuppressed" expected (observed (fun d -> not d.Diag.suppressed));
    check "suppressed" expected_suppressed (observed (fun d -> d.Diag.suppressed))
  in
  let entries = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
  let base = Filename.basename dir in
  let top_files = List.filter (fun n -> is_ml n) entries in
  let subdirs =
    List.filter
      (fun n -> Sys.is_directory (Filename.concat dir n) && not (skip_dir n))
      entries
  in
  if top_files = [] && subdirs = [] then
    failures := [ "no fixture files found under " ^ dir ];
  List.iter
    (fun name ->
      let rel = base ^ "/" ^ name in
      match Src_file.load ~rel (Filename.concat dir name) with
      | exception Src_file.Parse_failure { message; _ } ->
          fail rel "fixture does not parse: %s" message
      | src -> check_against ~label:rel src (lint_source ~ignore_scope:true ~rules src))
    top_files;
  List.iter
    (fun sub ->
      let tree = Filename.concat dir sub in
      let files = files_under tree "" in
      let srcs = ref [] in
      List.iter
        (fun (path, rel) ->
          match Src_file.load ~rel path with
          | src -> srcs := src :: !srcs
          | exception Src_file.Parse_failure { message; _ } ->
              fail (sub ^ "/" ^ rel) "fixture does not parse: %s" message)
        files;
      let srcs = List.rev !srcs in
      let findings, _ = lint_program ~ignore_scope:false ~rules srcs in
      List.iter
        (fun (src : Src_file.t) ->
          check_against ~label:(sub ^ "/" ^ src.Src_file.rel) src findings)
        srcs)
    subdirs;
  List.rev !failures
