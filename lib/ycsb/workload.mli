(** YCSB-style workload definitions: an operation mix over a keyed data
    set, yielding a deterministic operation stream per client. *)

type op =
  | Read of string
  | Update of string * string
  | Insert of string * string
  | Scan of string * int  (** start key, requested length *)

val op_kind : op -> string
(** "read" | "update" | "insert" | "scan". *)

type mix = {
  read : float;
  update : float;
  insert : float;
  scan : float;
}
(** Proportions; need not sum to 1 (normalized internally). *)

val read_only : mix

val update_only : mix

val insert_only : mix

val scan_only : mix

val read_mostly : mix
(** 95% reads / 5% updates (YCSB workload B). *)

val update_heavy : mix
(** 50/50 (YCSB workload A). *)

type t

val create :
  ?distribution:[ `Uniform | `Zipfian | `Latest | `Hotspot of float * float ] ->
  ?scan_length:int ->
  ?record_count:int ->
  mix:mix ->
  unit ->
  t
(** [record_count] (default 100_000) is the initial logical key-space
    size; inserts extend it. Values are 8 bytes (Sec. 6.1);
    [scan_length] defaults to 100. [`Hotspot (op_frac, key_frac)]
    sends [op_frac] of the operations to the first [key_frac] of the
    ordinal space ({!Keygen.hotspot}). *)

val record_count : t -> int

val next_op : t -> Sim.Rng.t -> op
(** Draw the next operation from the mix. Inserts use fresh keys and
    grow the key space (thread-safe within one simulation because the
    simulator is cooperative). *)

val key_of : t -> int -> string
(** Key for ordinal [i] under this workload's keying scheme. *)
