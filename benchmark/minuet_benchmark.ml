(* The repository benchmark. See README.md beside this file.

     minuet_benchmark run --workload <name> --seed <n> [--trace 0|1] [--out file]
     minuet_benchmark pass --out <dir>
     minuet_benchmark compare <parent-dir> <change-dir>
     minuet_benchmark calibrate --out <dir>
     minuet_benchmark selftest

   `run` prints every metric as "workload metric value unit", then, as
   its last line, one JSON object with the keys correct, attempted,
   failed and metrics. It exits 1 unless the run passes the streaming
   serializability checker and the final tip audit. The other commands
   read BENCHMARK.json from the current directory and start one `run`
   process per workload run. *)

module J = Obs.Json

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("minuet_benchmark: " ^ msg);
      exit 2)
    fmt

let parse args spec usage =
  try Arg.parse_argv ~current:(ref 0) args spec (fun a -> fail "unexpected argument %s" a) usage
  with Arg.Bad msg | Arg.Help msg -> fail "%s" msg

let pinned_seed = 1

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let metric_json ~names (r : Run.result) =
  J.Obj
    (List.map
       (fun (m : Catalog.metric) ->
         match List.assoc_opt m.Catalog.name r.Run.metrics with
         | Some v -> (m.Catalog.name, J.Obj [ ("value", J.Float v); ("unit", J.String m.Catalog.unit) ])
         | None -> fail "metric %s was not measured" m.Catalog.name)
       names)

(* The last line of a run: one object with exactly the keys correct,
   attempted, failed and metrics. *)
let summary_json (r : Run.result) =
  let names = if r.Run.opts.Run.traced then Catalog.per_layer else Catalog.end_to_end in
  J.Obj
    [
      ("correct", J.Bool r.Run.correct);
      ("attempted", J.Int r.Run.attempted);
      ("failed", J.Int r.Run.failed);
      ("metrics", metric_json ~names r);
    ]

(* The result file: everything measured, for pass, compare and
   calibrate. *)
let result_json ~wall_s (r : Run.result) =
  let o = r.Run.opts in
  J.Obj
    [
      ("workload", J.String o.Run.workload);
      ("seed", J.Int o.Run.seed);
      ("traced", J.Bool o.Run.traced);
      ("scale", J.String (match o.Run.scale with Run.Full -> "full" | Run.Tiny -> "tiny"));
      ("correct", J.Bool r.Run.correct);
      ("violations", J.List (List.map (fun v -> J.String v) r.Run.violations));
      ("attempted", J.Int r.Run.attempted);
      ("failed", J.Int r.Run.failed);
      ("wall_s", J.Float wall_s);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) r.Run.metrics));
      ("samples", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) r.Run.samples));
      ( "steps",
        J.List
          (List.map
             (fun (rate, p99, backlog, ok) ->
               J.Obj
                 [
                   ("rate_ops_s", J.Float rate);
                   ("read_p99_ms", J.Float (1e3 *. p99));
                   ("backlog", J.Int backlog);
                   ("passed", J.Bool ok);
                 ])
             r.Run.steps) );
    ]

let print_lines (r : Run.result) =
  let w = r.Run.opts.Run.workload in
  List.iter
    (fun (name, v) ->
      let unit = match Catalog.find name with Some m -> m.Catalog.unit | None -> "" in
      Printf.printf "%s %s %.17g %s\n" w name v unit)
    r.Run.metrics;
  List.iter (fun (k, n) -> Printf.printf "%s %s_samples %d count\n" w k n) r.Run.samples;
  List.iter (fun v -> Printf.printf "%s VIOLATION %s\n" w v) r.Run.violations

let cmd_run args =
  let workload = ref "" and seed = ref pinned_seed and traced = ref false and out = ref "" in
  let tiny = ref false and unsafe = ref false in
  parse args
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Int ignore, "S accepted and ignored: the simulated windows are fixed");
      ("--trace", Arg.Int (fun v -> traced := v <> 0), "0|1 per-layer (traced) run");
      ("--out", Arg.Set_string out, "FILE also write the full result as JSON");
      ("--tiny", Arg.Set tiny, " 3 hosts, 48 keys, short windows");
      ("--unsafe-dirty-leaf-reads", Arg.Set unsafe, " break leaf-read validation (the gate must fail)");
    ]
    "minuet_benchmark run --workload NAME --seed N [options]";
  if not (List.mem !workload Catalog.workloads) then
    fail "--workload must be one of %s" (String.concat ", " Catalog.workloads);
  let opts =
    {
      Run.workload = !workload;
      seed = !seed;
      scale = (if !tiny then Run.Tiny else Run.Full);
      traced = !traced;
      unsafe = !unsafe;
    }
  in
  let t0 = Run.wall () in
  let r = Run.run opts in
  let wall_s = Run.wall () -. t0 in
  if !out <> "" then
    Out_channel.with_open_bin !out (fun oc ->
        output_string oc (J.to_string (result_json ~wall_s r) ^ "\n"));
  print_lines r;
  print_endline (J.to_string (summary_json r));
  if not r.Run.correct then exit 1

(* ------------------------------------------------------------------ *)
(* Child runs                                                           *)
(* ------------------------------------------------------------------ *)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* One workload in its own process; its stdout is discarded, the result
   file is what the caller reads. Returns the exit code. *)
let child_run ?(extra = []) ~workload ~seed ~out () =
  let args = [ "run"; "--workload"; workload; "--seed"; string_of_int seed; "--out"; out ] @ extra in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin null Unix.stderr
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 255

let load_spec () =
  if not (Sys.file_exists "BENCHMARK.json") then fail "run from the repository root (BENCHMARK.json not found)";
  Compare.load_spec "BENCHMARK.json"

let simulated = [ "tput_ops_s"; "read_p50_ms"; "read_p99_ms"; "write_p50_ms"; "write_p99_ms" ]

let sim_fingerprint metrics =
  String.concat " "
    (List.map (fun n -> Printf.sprintf "%s=%.17g" n (Option.value (List.assoc_opt n metrics) ~default:nan)) simulated)

(* ------------------------------------------------------------------ *)
(* pass                                                                 *)
(* ------------------------------------------------------------------ *)

(* Every workload at the pinned seed, untraced and traced: the traced
   run must reproduce the simulated metrics, and its host cost against
   the untraced run's is the tracing overhead. *)
let cmd_pass args =
  let out = ref "" in
  parse args [ ("--out", Arg.Set_string out, "DIR where the result files go") ] "minuet_benchmark pass --out DIR";
  if !out = "" then fail "pass needs --out DIR";
  ensure_dir !out;
  let ok = ref true in
  List.iter
    (fun w ->
      let file = Filename.concat !out (w ^ ".json") in
      let t0 = Run.wall () in
      if child_run ~workload:w ~seed:pinned_seed ~out:file () <> 0 then ok := false;
      let wall = Run.wall () -. t0 in
      let r = Compare.load_run file in
      Printf.printf "%-14s (%.1fs)" w wall;
      List.iter
        (fun (m : Catalog.metric) ->
          Printf.printf " %s=%.4g" m.Catalog.name
            (Option.value (List.assoc_opt m.Catalog.name r.Compare.metrics) ~default:nan))
        Catalog.end_to_end;
      print_newline ();
      let tfile = Filename.concat !out (w ^ ".traced.json") in
      if child_run ~extra:[ "--trace"; "1" ] ~workload:w ~seed:pinned_seed ~out:tfile () <> 0 then
        ok := false;
      let t = Compare.load_run tfile in
      let same = String.equal (sim_fingerprint r.Compare.metrics) (sim_fingerprint t.Compare.metrics) in
      let host m = Option.value (List.assoc_opt "host_us_per_op" m.Compare.metrics) ~default:nan in
      Printf.printf "%-14s traced: simulated metrics %s, tracing overhead %+.1f%% host_us_per_op\n%!" w
        (if same then "identical" else "DIFFER")
        (100.0 *. ((host t /. host r) -. 1.0));
      if not same then ok := false)
    Catalog.workloads;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let cmd_compare args =
  let dirs = ref [] in
  (try Arg.parse_argv ~current:(ref 0) args [] (fun d -> dirs := !dirs @ [ d ]) "compare PARENT CHANGE"
   with Arg.Bad msg | Arg.Help msg -> fail "%s" msg);
  let parent_dir, change_dir =
    match !dirs with [ p; c ] -> (p, c) | _ -> fail "usage: compare PARENT-DIR CHANGE-DIR"
  in
  let spec = load_spec () in
  let parent = Compare.load_dir parent_dir and change = Compare.load_dir change_dir in
  Printf.printf "%-14s %-15s %28s %28s %7s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "won" "verdict";
  let worse = ref false in
  List.iter
    (fun workload ->
      let parent = Compare.of_workload parent workload and change = Compare.of_workload change workload in
      let pairs, parent_alone, change_alone = Compare.pair parent change in
      let seeds runs =
        List.map (fun r -> r.Compare.seed) runs |> List.sort Int.compare |> List.map string_of_int |> String.concat " "
      in
      if parent_alone <> [] || change_alone <> [] then
        Printf.printf "%-14s unpaired seeds: parent [%s], change [%s]\n" workload (seeds parent_alone)
          (seeds change_alone);
      List.iter
        (fun (side, runs) ->
          match List.filter (fun r -> not r.Compare.correct) runs with
          | [] -> ()
          | bad -> Printf.printf "%-14s %s runs failing the correctness gate: seeds [%s]\n" workload side (seeds bad))
        [ ("parent", parent); ("change", change) ];
      if List.exists (fun r -> not r.Compare.correct) change then worse := true;
      let failed side = List.fold_left (fun acc pr -> acc + (side pr).Compare.failed) 0 pairs in
      let fails_more = failed snd > failed fst in
      if fails_more then
        Printf.printf "%-14s the change fails more operations than the parent over the pairs (%d, not %d)\n"
          workload (failed snd) (failed fst);
      List.iter
        (fun (m : Compare.bound_metric) ->
          let name = m.Compare.name in
          let p = Compare.values parent name and c = Compare.values change name in
          if p <> [] && c <> [] then begin
            let j =
              Compare.judge ~better:m.Compare.better
                ~bound:(Option.value m.Compare.bound ~default:0.0)
                ~fails_more ~paired:(Compare.paired_values pairs name) p c
            in
            if j.Compare.verdict = Compare.Worse then worse := true;
            let q1, q3 = j.Compare.parent_q and c1, c3 = j.Compare.change_q in
            Printf.printf "%-14s %-15s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %3d/%-3d  %s\n"
              workload m.Compare.name j.Compare.parent_median q1 q3 j.Compare.change_median c1 c3
              j.Compare.wins j.Compare.pairs
              (Compare.verdict_to_string j.Compare.verdict)
          end)
        spec.Compare.end_to_end)
    spec.Compare.workloads;
  if !worse then exit 1

(* ------------------------------------------------------------------ *)
(* calibrate                                                            *)
(* ------------------------------------------------------------------ *)

(* Each workload on ten seeds (the spread the bounds must cover) plus
   five runs of the pinned seed (host noise alone, and a determinism
   check: the repeats' simulated metrics must be byte-identical). A run
   whose result file is already in DIR is not run again, so calling it
   a second time re-analyses the files there. *)
let calibration_seeds = 10

let calibration_repeats = 5

let cmd_calibrate args =
  let out = ref "" in
  parse args [ ("--out", Arg.Set_string out, "DIR where the result files go") ] "minuet_benchmark calibrate --out DIR";
  if !out = "" then fail "calibrate needs --out DIR";
  let spec = load_spec () in
  ensure_dir !out;
  let file w kind i = Filename.concat !out (Printf.sprintf "%s.%s.%d.json" w kind i) in
  let runs w kind n seed_of =
    List.init n (fun i -> i + 1)
    |> List.filter_map (fun i ->
           let f = file w kind i in
           if not (Sys.file_exists f) then ignore (child_run ~workload:w ~seed:(seed_of i) ~out:f () : int);
           if Sys.file_exists f then Some (Compare.load_run f) else None)
  in
  Printf.printf "%-14s %-15s %12s %9s %9s %7s  %s\n" "workload" "metric" "median" "seeds" "repeats"
    "bound" "";
  List.iter
    (fun w ->
      let by_seed = runs w "seed" calibration_seeds (fun i -> pinned_seed + i) in
      let reps = runs w "repeat" calibration_repeats (fun _ -> pinned_seed) in
      let prints = List.sort_uniq String.compare (List.map (fun r -> sim_fingerprint r.Compare.metrics) reps) in
      Printf.printf "%-14s %d seed runs, %d repeats; repeats' simulated metrics %s\n" w
        (List.length by_seed) (List.length reps)
        (if List.length prints <= 1 then "identical" else "DIFFER");
      List.iter
        (fun (m : Compare.bound_metric) ->
          let vs = Compare.values by_seed m.Compare.name and rs = Compare.values reps m.Compare.name in
          let spread l = if List.length l >= 2 then Stats.spread l else nan in
          let bound = Option.value m.Compare.bound ~default:nan in
          let s = spread vs in
          Printf.printf "%-14s %-15s %12.5g %8.2f%% %8.2f%% %6.1f%%  %s\n" w m.Compare.name
            (if vs = [] then nan else Stats.median vs)
            (100.0 *. s) (100.0 *. spread rs) (100.0 *. bound)
            (if Float.is_nan s then ""
             else if s <= bound /. 3.0 then "ok"
             else if s <= bound then "within bound"
             else "SPREAD ABOVE BOUND"))
        spec.Compare.end_to_end)
    Catalog.workloads

(* ------------------------------------------------------------------ *)
(* selftest                                                             *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own checks, at tiny scale (3 hosts, 48 keys):
   BENCHMARK.json and the code agree; every workload reports every
   metric with its unit; a seed repeats its simulated metrics byte for
   byte; a traced run reproduces them; self times sum to the root
   spans' inclusive time; and the correctness gate fails when leaf-read
   validation is switched off but passes with it on. *)
let cmd_selftest _args =
  let failures = ref 0 in
  let check ok fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg;
        if not ok then incr failures)
      fmt
  in
  let spec = load_spec () in
  let mismatches = Compare.spec_mismatches spec in
  List.iter (fun m -> check false "%s" m) mismatches;
  check (mismatches = []) "BENCHMARK.json names the metrics and units the code reports";
  let tiny ?(traced = false) w = Run.run { Run.workload = w; seed = 7; scale = Run.Tiny; traced; unsafe = false } in
  List.iter
    (fun w ->
      let a = tiny w and b = tiny w and t = tiny ~traced:true w in
      check a.Run.correct "%s: passes the correctness gate" w;
      let reported (r : Run.result) (names : Catalog.metric list) =
        List.for_all
          (fun (m : Catalog.metric) ->
            match List.assoc_opt m.Catalog.name r.Run.metrics with
            | Some v -> Float.is_finite v
            | None -> false)
          names
      in
      check (reported a Catalog.end_to_end) "%s: every end-to-end metric is reported" w;
      check
        (List.for_all (fun n -> List.assoc n a.Run.metrics > 0.0) (List.map (fun (m : Catalog.metric) -> m.Catalog.name) Catalog.end_to_end))
        "%s: no end-to-end metric reads 0" w;
      check (reported t Catalog.per_layer) "%s: every per-layer metric is reported when traced" w;
      check
        (String.equal (sim_fingerprint a.Run.metrics) (sim_fingerprint b.Run.metrics))
        "%s: one seed gives byte-identical simulated metrics" w;
      check
        (String.equal (sim_fingerprint a.Run.metrics) (sim_fingerprint t.Run.metrics))
        "%s: the traced run reproduces the untraced simulated metrics" w;
      let err = Float.abs (t.Run.self_total_s -. t.Run.root_inclusive_s) in
      check
        (t.Run.root_inclusive_s > 0.0 && err <= 0.01 *. t.Run.root_inclusive_s)
        "%s: self times sum to the root spans' inclusive time (%.6fs of %.6fs)" w
        t.Run.self_total_s t.Run.root_inclusive_s)
    Catalog.workloads;
  let gate unsafe =
    let out = Filename.temp_file ~temp_dir:Filename.current_dir_name "minuet_benchmark" ".json" in
    let extra = [ "--tiny" ] @ if unsafe then [ "--unsafe-dirty-leaf-reads" ] else [] in
    let code = child_run ~extra ~workload:"update-zipf" ~seed:pinned_seed ~out () in
    let correct =
      match Compare.field "correct" (J.parse (Compare.read_file out)) with
      | J.Bool b -> b
      | _ | (exception (J.Parse_error _ | Failure _)) -> false
    in
    Sys.remove out;
    (code, correct)
  in
  let code, correct = gate true in
  check (code <> 0 && not correct) "unsafe_dirty_leaf_reads: the gate reports a violation and exits %d" code;
  let code, correct = gate false in
  check (code = 0 && correct) "the same variant with validation on passes (exit %d)" code;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: _ -> (
      let args = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
      match cmd with
      | "run" -> cmd_run args
      | "pass" -> cmd_pass args
      | "compare" -> cmd_compare args
      | "calibrate" -> cmd_calibrate args
      | "selftest" -> cmd_selftest args
      | c -> fail "unknown command %s" c)
  | _ -> fail "usage: minuet_benchmark (run|pass|compare|calibrate|selftest) ..."
