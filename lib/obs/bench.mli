(** The one envelope every [BENCH_<bench>.json] report shares: [bench],
    [schema_version], [seed] ([null] without one), [wall_ms] (host
    time), [gates] and [pass] (their conjunction) open the report, in
    that order, and the bench's own fields follow. *)

type gate
(** A named bound on one measured value. *)

val at_least : string -> float -> float -> gate
(** [at_least name value bound] holds when [value >= bound]. *)

val at_most : string -> float -> float -> gate
(** [at_most name value bound] holds when [value <= bound]. *)

val holds : gate -> bool
(** A non-finite value (a ratio over a zero denominator) never holds. *)

type report = {
  bench : string;
  seed : int option;
  wall_ms : float;
  gates : gate list;
  fields : (string * Json.t) list;  (** The bench's own fields, in order. *)
}

val schema_version : int

val pass : report -> bool

val to_json : report -> Json.t

val write : ?dir:string -> ?path:string -> report -> bool
(** Write {!to_json} to [path] (default [<dir>/BENCH_<bench>.json]),
    print one line per gate and the path, and return {!pass}. *)

val validate : Json.t -> (unit, string) result
(** Check a parsed report against the envelope, recomputing each
    gate's [pass] and their conjunction. *)

val matches_pinned : pinned:Json.t -> Json.t -> bool
(** Whether a fresh report equals a committed ([pinned]) one everywhere
    but the envelope's [wall_ms], the only host measurement a seeded
    bench writes. *)

val stopwatch : unit -> unit -> float
(** [stopwatch ()] starts a host wall clock; the returned function
    reads the milliseconds elapsed since. *)
