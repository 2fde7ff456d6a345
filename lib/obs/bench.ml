(* [op] is ">=" or "<=", as the report spells it. *)
type gate = { name : string; value : float; op : string; bound : float }

let at_least name value bound = { name; value; op = ">="; bound }

let at_most name value bound = { name; value; op = "<="; bound }

let check op value bound =
  Float.is_finite value && if op = ">=" then value >= bound else value <= bound

let holds g = check g.op g.value g.bound

type report = {
  bench : string;
  seed : int option;
  wall_ms : float;
  gates : gate list;
  fields : (string * Json.t) list;
}

let schema_version = 2

let pass r = List.for_all holds r.gates

let gate_json g =
  Json.Obj
    [
      ("name", Json.String g.name);
      ("value", Json.Float g.value);
      ("op", Json.String g.op);
      ("bound", Json.Float g.bound);
      ("pass", Json.Bool (holds g));
    ]

let envelope = [ "bench"; "schema_version"; "seed"; "wall_ms"; "gates"; "pass" ]

let to_json r =
  Json.Obj
    ([
       ("bench", Json.String r.bench);
       ("schema_version", Json.Int schema_version);
       ("seed", match r.seed with Some s -> Json.Int s | None -> Json.Null);
       ("wall_ms", Json.Float r.wall_ms);
       ("gates", Json.List (List.map gate_json r.gates));
       ("pass", Json.Bool (pass r));
     ]
    @ r.fields)

let write ?(dir = ".") ?path r =
  let path =
    match path with
    | Some p -> p
    | None -> Filename.concat dir (Printf.sprintf "BENCH_%s.json" r.bench)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n');
  let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v in
  List.iter
    (fun g ->
      Printf.printf "  gate %-26s %s %s %s: %s\n" g.name (num g.value) g.op (num g.bound)
        (if holds g then "ok" else "FAIL"))
    r.gates;
  let pass = pass r in
  Printf.printf "%s report written to %s (%s)\n%!" r.bench path (if pass then "pass" else "FAIL");
  pass

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

(* A gate read back: its recomputed verdict, which must agree with its
   [pass]. A [null] value is how the emitter writes a non-finite one. *)
let gate_verdict i g =
  let m k = Json.member k g in
  match (m "name", m "value", m "op", Option.bind (m "bound") Json.number, m "pass") with
  | ( Some (Json.String _),
      Some ((Json.Null | Json.Int _ | Json.Float _) as value),
      Some (Json.String ((">=" | "<=") as op)),
      Some bound,
      Some (Json.Bool written) ) ->
      let value = Option.value (Json.number value) ~default:Float.nan in
      if check op value bound = written then Ok written
      else err "gates[%d].pass: disagrees with its value, op and bound" i
  | _ -> err "gates[%d]: needs a name, a numeric or null value, an op (>= or <=), bound and pass" i

let validate = function
  | Json.Obj fields -> (
      match List.filteri (fun i _ -> i < List.length envelope) fields with
      | [
       ("bench", Json.String bench);
       ("schema_version", Json.Int version);
       ("seed", (Json.Int _ | Json.Null));
       ("wall_ms", (Json.Int _ | Json.Float _));
       ("gates", Json.List gates);
       ("pass", Json.Bool pass);
      ]
        when bench <> "" && version = schema_version ->
          let rec conjunction i = function
            | [] -> Ok true
            | g :: gs ->
                let* verdict = gate_verdict i g in
                let* rest = conjunction (i + 1) gs in
                Ok (verdict && rest)
          in
          let* all = conjunction 0 gates in
          if all = pass then Ok () else err "pass: disagrees with its gates"
      | _ -> (
          match List.find_opt (fun k -> not (List.mem_assoc k fields)) envelope with
          | Some k -> err "missing field %S" k
          | None ->
              err "the envelope (%s, schema %d) must open the report, in order and well typed"
                (String.concat ", " envelope) schema_version))
  | _ -> err "not a JSON object"

let matches_pinned ~pinned fresh =
  let host_free = function
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> not (String.equal k "wall_ms")) fields)
    | j -> j
  in
  Json.equal (host_free pinned) (host_free fresh)

(* Host time of a bench run, reported beside its simulated results;
   nothing simulated reads it. *)
let stopwatch () =
  let clock () = Unix.gettimeofday () (* lint: allow wallclock-rng *) in
  let t0 = clock () in
  fun () -> (clock () -. t0) *. 1e3
