(* Reading BENCHMARK.json and result files, and the two-sided rule for
   judging a change against its parent. Runs pair up by seed.

   - improved: the change wins at least nine tenths of the paired runs
     (ties count for neither side), the medians differ, in the better
     direction, by more than the parent's inter-quartile distance, and
     the change fails no more operations than the parent over the
     paired runs;
   - unresolved: the run-to-run spread of either side is wider than the
     metric's bound, unless every change run reads better than every
     parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound (a share of the parent's median);
   - no worse: otherwise. *)

module J = Obs.Json

type bound_metric = { name : string; unit : string; better : Catalog.better; bound : float option }

type spec = {
  workloads : string list;
  end_to_end : bound_metric list;
  per_layer : bound_metric list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let field name j =
  match J.member name j with Some v -> v | None -> failwith (Printf.sprintf "missing field %S" name)

let string_of name j =
  match J.string_value (field name j) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "field %S is not a string" name)

let list_of name j =
  match field name j with J.List l -> l | _ -> failwith (Printf.sprintf "field %S is not a list" name)

let better_of_string = function
  | "lower" -> Catalog.Lower
  | "higher" -> Catalog.Higher
  | s -> failwith ("bad direction " ^ s)

let load_spec path =
  let j = J.parse (read_file path) in
  let metric m =
    {
      name = string_of "name" m;
      unit = string_of "unit" m;
      better = better_of_string (string_of "better" m);
      bound = Option.bind (J.member "bound" m) J.number;
    }
  in
  {
    workloads = List.map (string_of "name") (list_of "workloads" j);
    end_to_end = List.map metric (list_of "end_to_end" j);
    per_layer = List.map metric (list_of "per_layer" j);
  }

(* Differences between the catalogue the code reports and the spec. *)
let spec_mismatches spec =
  let check kind (code : Catalog.metric list) (listed : bound_metric list) =
    let names l = List.map (fun (m : bound_metric) -> m.name) l in
    let missing =
      List.filter_map
        (fun (c : Catalog.metric) ->
          match List.find_opt (fun (m : bound_metric) -> String.equal m.name c.Catalog.name) listed with
          | None -> Some (Printf.sprintf "%s metric %s is reported but not in BENCHMARK.json" kind c.Catalog.name)
          | Some m when not (String.equal m.unit c.Catalog.unit) ->
              Some (Printf.sprintf "%s metric %s: unit %s in BENCHMARK.json, %s reported" kind m.name m.unit c.Catalog.unit)
          | Some m when m.better <> c.Catalog.better ->
              Some (Printf.sprintf "%s metric %s: direction differs" kind m.name)
          | Some _ -> None)
        code
    in
    let extra =
      List.filter_map
        (fun n ->
          if List.exists (fun (c : Catalog.metric) -> String.equal c.Catalog.name n) code then None
          else Some (Printf.sprintf "%s metric %s is in BENCHMARK.json but never reported" kind n))
        (names listed)
    in
    missing @ extra
  in
  let workloads =
    if List.equal String.equal spec.workloads Catalog.workloads then []
    else [ "BENCHMARK.json lists other workloads than the benchmark runs" ]
  in
  workloads
  @ check "end-to-end" Catalog.end_to_end spec.end_to_end
  @ check "per-layer" Catalog.per_layer spec.per_layer

(* ------------------------------------------------------------------ *)
(* Result files                                                         *)
(* ------------------------------------------------------------------ *)

type run = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  failed : int;
  metrics : (string * float) list;
}

let load_run file =
  let j = J.parse (read_file file) in
  let metrics =
    match field "metrics" j with
    | J.Obj fields -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.number v)) fields
    | _ -> failwith (file ^ ": metrics is not an object")
  in
  let int name = match J.number (field name j) with Some f -> int_of_float f | None -> 0 in
  {
    workload = string_of "workload" j;
    seed = int "seed";
    traced = (match field "traced" j with J.Bool b -> b | _ -> false);
    correct = (match field "correct" j with J.Bool b -> b | _ -> false);
    failed = int "failed";
    metrics;
  }

(* Every untraced result in a directory, in file-name order. *)
let load_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (fun f -> load_run (Filename.concat dir f))
  |> List.filter (fun r -> not r.traced)

let of_workload runs workload = List.filter (fun r -> String.equal r.workload workload) runs

let values runs metric = List.filter_map (fun r -> List.assoc_opt metric r.metrics) runs

(* Pair two sides' runs of one workload by seed: each change run takes
   the first parent run of its seed not yet taken. Returns the pairs and
   the parent and change runs left without a partner. *)
let pair parent change =
  let rec take seed = function
    | [] -> None
    | r :: rest when r.seed = seed -> Some (r, rest)
    | r :: rest -> Option.map (fun (found, rest) -> (found, r :: rest)) (take seed rest)
  in
  let pairs, pool, alone =
    List.fold_left
      (fun (pairs, pool, alone) c ->
        match take c.seed pool with
        | Some (p, pool) -> ((p, c) :: pairs, pool, alone)
        | None -> (pairs, pool, c :: alone))
      ([], parent, []) change
  in
  (List.rev pairs, pool, List.rev alone)

let paired_values pairs metric =
  List.filter_map
    (fun (a, b) ->
      match (List.assoc_opt metric a.metrics, List.assoc_opt metric b.metrics) with
      | Some x, Some y -> Some (x, y)
      | _ -> None)
    pairs

(* ------------------------------------------------------------------ *)
(* The verdict                                                          *)
(* ------------------------------------------------------------------ *)

type verdict = Improved | No_worse | Worse | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Positive when [b] is better than [a]. *)
let gain better a b = match better with Catalog.Lower -> a -. b | Catalog.Higher -> b -. a

type judged = {
  parent_median : float;
  parent_q : float * float;
  change_median : float;
  change_q : float * float;
  wins : int;
  pairs : int;
  verdict : verdict;
}

(* [parent] and [change] are every run's value of one metric; [paired]
   holds the values of the runs paired by seed. A change that fails
   more operations than its parent ([fails_more]) never reads
   improved. *)
let judge ~better ~bound ~fails_more ~paired parent change =
  let med = Stats.median and q l = if List.length l >= 2 then Stats.quartiles l else (nan, nan) in
  let pm = med parent and cm = med change in
  let pairs = List.length paired in
  let wins = List.length (List.filter (fun (p, c) -> gain better p c > 0.0) paired) in
  let pq1, pq3 = q parent in
  let spread l = if List.length l >= 2 then Stats.spread l else 0.0 in
  let wide = Float.max (spread parent) (spread change) > bound in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> gain better p c > 0.0) parent) change
  in
  let verdict =
    if (not fails_more) && pairs > 0 && 10 * wins >= 9 * pairs && gain better pm cm > pq3 -. pq1
    then Improved
    else if wide && not all_better then Unresolved
    else if -.gain better pm cm > bound *. Float.abs pm then Worse
    else No_worse
  in
  { parent_median = pm; parent_q = (pq1, pq3); change_median = cm; change_q = q change; wins; pairs; verdict }
