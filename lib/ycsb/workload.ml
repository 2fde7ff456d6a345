type op =
  | Read of string
  | Update of string * string
  | Insert of string * string
  | Scan of string * int

let op_kind = function
  | Read _ -> "read"
  | Update _ -> "update"
  | Insert _ -> "insert"
  | Scan _ -> "scan"

type mix = { read : float; update : float; insert : float; scan : float }

let read_only = { read = 1.0; update = 0.0; insert = 0.0; scan = 0.0 }

let update_only = { read = 0.0; update = 1.0; insert = 0.0; scan = 0.0 }

let insert_only = { read = 0.0; update = 0.0; insert = 1.0; scan = 0.0 }

let scan_only = { read = 0.0; update = 0.0; insert = 0.0; scan = 1.0 }

let read_mostly = { read = 0.95; update = 0.05; insert = 0.0; scan = 0.0 }

let update_heavy = { read = 0.5; update = 0.5; insert = 0.0; scan = 0.0 }

type t = {
  mix : mix;
  total : float;
  keygen : Keygen.t;
  scan_length : int;
  mutable record_count : int;
  mutable next_insert : int;
}

(* Bytes per value (Sec. 6.1). *)
let value_size = 8

let create ?(distribution = `Uniform) ?(scan_length = 100) ?(record_count = 100_000) ~mix () =
  if record_count <= 0 then invalid_arg "Workload.create: record_count must be positive";
  let total = mix.read +. mix.update +. mix.insert +. mix.scan in
  if total <= 0.0 then invalid_arg "Workload.create: empty mix";
  let keygen =
    match distribution with
    | `Uniform -> Keygen.uniform ~n:record_count
    | `Zipfian -> Keygen.zipfian ~n:record_count ()
    | `Latest -> Keygen.latest ~n:record_count
    | `Hotspot (op_frac, key_frac) -> Keygen.hotspot ~op_frac ~key_frac ~n:record_count ()
  in
  { mix; total; keygen; scan_length; record_count; next_insert = record_count }

let record_count t = t.record_count

let key_of _t i = Keygen.hashed_key_of_int i

let value rng = Sim.Rng.bytes rng value_size

let next_op t rng =
  let pick = Sim.Rng.float rng t.total in
  let existing () = key_of t (Keygen.next t.keygen rng) in
  if pick < t.mix.read then Read (existing ())
  else if pick < t.mix.read +. t.mix.update then Update (existing (), value rng)
  else if pick < t.mix.read +. t.mix.update +. t.mix.insert then begin
    let ordinal = t.next_insert in
    t.next_insert <- t.next_insert + 1;
    t.record_count <- t.record_count + 1;
    Keygen.set_n t.keygen t.record_count;
    Insert (key_of t ordinal, value rng)
  end
  else Scan (existing (), t.scan_length)
