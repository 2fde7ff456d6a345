(** Zero-copy view over the slotted node wire format.

    A view wraps the raw payload bytes fetched from a memnode and
    answers [leaf_find] / [child_for] / fence checks by binary-searching
    a slotted, common-prefix-truncated key directory in place — offsets
    into the buffer, no per-key string materialisation. Structural
    bounds (slot directory, entry spans) are validated once at
    construction; the CRC trailer is verified on the materialise/write
    path ({!verify_crc}), while hot-path reads rely on the same
    fence/height/version checks and OCC validation that guard every
    other dirty read. See DESIGN.md ("Slotted node layout"). *)

type t

val of_string : string -> t
(** Parse and bounds-validate the header and slot directory. Raises
    {!Codec.Decode_error} on truncation, bad magic, or any slot/entry
    span that escapes the entry region. Does not fold the CRC. *)

val verify_crc : t -> unit
(** Verify the CRC-32 trailer in place; raises {!Codec.Decode_error}. *)

val payload_length : t -> int

(** {1 Header accessors} *)

val is_leaf : t -> bool
val height : t -> int
val snap_created : t -> int64
val low : t -> Bkey.fence
val high : t -> Bkey.fence
val in_range : t -> Bkey.t -> bool
val nkeys : t -> int
val n_descendants : t -> int
val exists_descendant : t -> (int64 -> bool) -> bool
val descendants : t -> int64 array

(** {1 In-place search} *)

val lower_bound : t -> Bkey.t -> int
(** Index of the first key [>=] the argument ([nkeys] if none). *)

val leaf_find : t -> Bkey.t -> string option

val leaf_entry : t -> int -> Bkey.t * string

(** {1 Child routing (internal nodes)} *)

val child_count : t -> int
(** [nkeys + 1] for internal nodes, 0 for leaves. *)

val child_at : t -> int -> Dyntxn.Objref.t
val child_for : t -> Bkey.t -> int * Dyntxn.Objref.t

(** {1 Materialisation helpers} *)

val leaf_entries : t -> (Bkey.t * string) array
val internal_keys : t -> Bkey.t array
val children : t -> Dyntxn.Objref.t array

val dir_bounds : t -> int * int
(** [(offset, length)] of the slot directory within the payload — a
    testing hook for corruption falsifiability checks. *)

(** {1 Encoding} *)

type body_spec =
  | Leaf_spec of (Bkey.t * string) array
  | Internal_spec of Bkey.t array * Dyntxn.Objref.t array

val encode_into :
  Codec.Enc.t ->
  height:int ->
  low:Bkey.fence ->
  high:Bkey.fence ->
  snap:int64 ->
  descendants:int64 array ->
  body_spec ->
  unit
(** Append the slotted content (no CRC trailer — the caller frames
    with {!Codec.Enc.to_string_with_checksum}). Raises
    [Invalid_argument], leaving the encoder untouched, when the node
    exceeds the format's u16 limits. Such a node would encode to more
    than 64 KiB and so fits no slot ({!Layout.make} caps [node_size] at
    64 KiB). *)

(** {1 Leaf splice} *)

type splice =
  | Spliced  (** The rewritten leaf was appended to the encoder. *)
  | Absent  (** A removal of a key the leaf does not hold: nothing to write. *)
  | Fallback
      (** The splice cannot produce the encoder's bytes: the edit would
          change the keys' common prefix, break a u16 limit, or leave
          more than [max_keys] entries. The encoder is untouched. *)

val leaf_splice :
  Codec.Enc.t -> t -> max_keys:int -> Bkey.t -> string option -> splice
(** [leaf_splice e v ~max_keys k edit] appends to [e] the content of
    leaf [v] with [k] bound to the value ([Some]) or removed ([None]),
    built from [v]'s bytes in one pass: the header is copied, the slot
    directory re-emitted with shifted offsets, the entries region copied
    around the one edited entry. The result is
    byte-identical to [Bnode.encode_into] of the edited decoded leaf;
    frame it with {!Codec.Enc.to_string_with_checksum}. [v] must come
    from a payload whose CRC was verified ({!verify_crc}). Raises
    [Invalid_argument] on an internal node. *)
