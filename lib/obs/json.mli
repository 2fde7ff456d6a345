(** Minimal JSON tree, emitter and parser.

    Just enough for the observability reports ([BENCH_*.json]): no
    streaming, no options, strings are assumed to be UTF-8 already.
    Kept dependency-free because the container pins the package set. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). *)

exception Parse_error of string

val parse : string -> t
(** Strict parser for the subset {!to_string} emits (standard JSON with
    [\uXXXX] escapes decoded to raw bytes for the BMP's ASCII range
    only). Raises {!Parse_error} on malformed input. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for other constructors or missing keys. *)

val number : t -> float option
(** [Int] or [Float] as a float. *)

val string_value : t -> string option

val equal : t -> t -> bool
(** Structural equality; [Int i] and [Float f] compare equal when
    [float_of_int i = f], so a parse round-trip is the identity. *)
