(** Binary serialization used to marshal B-tree nodes and metadata into
    Sinfonia's byte-addressable storage.

    Encoders append to an internal buffer; decoders consume a string and
    fail with {!Decode_error} on malformed input. All multi-byte integers
    are little-endian. *)

exception Decode_error of string

(** Append-only encoder over a growable byte buffer. One encoder can be
    reused across encodings via {!Enc.reset}, which keeps the backing
    buffer — the node-write path allocates exactly the output string. *)
module Enc : sig
  type t

  val create : ?initial_size:int -> unit -> t

  val reset : t -> unit
  (** Empty the encoder, keeping its backing buffer for reuse. *)

  val to_string : t -> string
  val length : t -> int

  val u8 : t -> int -> unit
  (** Raises [Invalid_argument] unless in [\[0, 255\]]. *)

  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  (** Raises [Invalid_argument] unless in [\[0, 2^32)]. *)

  val i64 : t -> int64 -> unit
  val int_as_i64 : t -> int -> unit
  val varint : t -> int -> unit
  (** LEB128 for non-negative ints. *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val bytes : t -> string -> unit
  (** Varint length prefix + raw bytes. *)

  val raw : t -> string -> unit
  (** Raw bytes, no length prefix. *)

  val raw_sub : t -> string -> int -> int -> unit
  (** [raw_sub t s pos len] appends [len] bytes of [s] starting at
      [pos], without materialising the substring. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** Varint count prefix, then each element with the given writer. *)

  val array : t -> ('a -> unit) -> 'a array -> unit
  val option : t -> ('a -> unit) -> 'a option -> unit

  val to_string_with_checksum : t -> string
  (** The encoded contents followed by a CRC-32 trailer over them, in a
      single allocation (no intermediate payload copy). The result
      round-trips through {!check_checksum} /
      {!verify_checksum_in_place}. *)
end

(** Sequential decoder over a string. *)
module Dec : sig
  type t

  val of_string : ?pos:int -> string -> t
  val pos : t -> int
  val at_end : t -> bool

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int_as_i64 : t -> int
  val varint : t -> int
  val bool : t -> bool
  val float : t -> float
  val bytes : t -> string
  val raw : t -> int -> string

  val raw_view : t -> int -> int * int
  (** [raw_view t n] consumes [n] bytes and returns their [(pos, len)]
      span in the underlying string — no substring allocation. *)

  val bytes_view : t -> int * int
  (** Varint length prefix, then the payload as a [(pos, len)] span. *)

  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  val option : t -> (t -> 'a) -> 'a option
end

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3 polynomial) of the whole string. *)

val with_checksum : string -> string
(** Append a CRC-32 trailer to a payload. *)

val check_checksum : string -> string
(** Verify and strip the CRC-32 trailer; raises {!Decode_error} on
    mismatch or truncation. *)

val verify_checksum_in_place : string -> int -> int -> unit
(** [verify_checksum_in_place s pos len] treats [s.(pos .. pos+len)] as
    a checksummed frame (payload + 4-byte CRC trailer) and verifies it
    without copying; raises {!Decode_error} on mismatch. *)
