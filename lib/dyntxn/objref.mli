(** Reference to an object stored in Sinfonia's address space.

    An object occupies a fixed-size slot with a 12-byte header: the
    object's sequence number (8 bytes, bumped on every update and used
    for OCC validation) and the payload length (4 bytes), followed by
    the payload itself. *)

type t = { addr : Sinfonia.Address.t; len : int }
(** [len] is the full slot size including the 12-byte header
    ({!Sinfonia.Mtx.slot_header_size}). *)

val make : addr:Sinfonia.Address.t -> len:int -> t
(** Raises [Invalid_argument] unless [len] exceeds the header size. *)

val payload_capacity : t -> int

val node : t -> int
(** Memnode holding the object. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val encode : Codec.Enc.t -> t -> unit

val decode : Codec.Dec.t -> t

val seq_of_slot : string -> int64
(** Sequence number from raw slot bytes (first 8 bytes, little-endian).
    A slot of zeros (never written) has sequence number 0. *)

val payload_of_slot : string -> string
(** Extract the payload using the stored length field. Raises
    [Codec.Decode_error] if the length field is corrupt. *)

val slot_of : seq:int64 -> payload:string -> string
(** Assemble raw slot bytes (one allocation). *)
