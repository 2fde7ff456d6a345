(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256** seeded through splitmix64, which gives
    high-quality 64-bit output and cheap splitting: every simulation
    component derives its own independent stream from a root seed, so a
    whole run is a pure function of that seed. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split t] returns a new generator whose stream is statistically
    independent of [t]'s future output. Both generators advance
    deterministically. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val bytes : t -> int -> string
(** [bytes t n] is a string of [n] uniformly random bytes. *)
