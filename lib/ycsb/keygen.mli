(** Key generators in the style of the Yahoo! Cloud Serving Benchmark
    (Cooper et al., SoCC'10), which the paper uses for every
    experiment.

    Keys are fixed-width strings (14 bytes, as in Sec. 6.1): a one-byte
    prefix plus a zero-padded decimal. Generators are deterministic
    functions of their {!Sim.Rng.t}. *)

val key_of_int : int -> string
(** The canonical 14-byte key for ordinal [i]. Preserves numeric order. *)

val hashed_key_of_int : int -> string
(** Key for ordinal [i] under FNV hashing, spreading inserts across the
    key space (YCSB's default insert order). *)

(** Distribution over item ordinals [\[0, n)]. *)
type t

val uniform : n:int -> t

val zipfian : ?theta:float -> n:int -> unit -> t
(** Scrambled zipfian with parameter [theta] (default 0.99, YCSB's
    default): item popularity follows a zipf law but popular items are
    scattered over the key space. *)

val latest : n:int -> t
(** Skewed toward the most recently inserted ordinals; combine with
    {!set_n} as inserts grow the key space. *)

val hotspot : ?op_frac:float -> ?key_frac:float -> n:int -> unit -> t
(** [op_frac] of the draws (default 0.8) land uniformly in the first
    [key_frac * n] ordinals (default 0.2); the rest are uniform over
    the whole space. The hot set is the {e front} of the ordinal space,
    unscrambled, so under an order-preserving key mapping it is a
    contiguous key range — concentrated on a few leaves and memnodes
    (the shard-hotspot workload). *)

val sequence : start:int -> t
(** 0, 1, 2, ... (load phase). [n] grows automatically. *)

val next : t -> Sim.Rng.t -> int
(** Sample an ordinal. *)

val set_n : t -> int -> unit
(** Grow (or shrink) the item count, e.g. after inserts. No-op for
    [sequence]. The zipfian zeta constants are refreshed here (against
    a process-wide memo of zeta sums), never on the {!next} draw
    path. *)

val current_n : t -> int
