(** Addresses in Sinfonia's global storage space: a memnode id plus a
    byte offset within that memnode's linear address space. *)

type memnode_id = int

type t = { node : memnode_id; off : int }

val make : node:memnode_id -> off:int -> t
(** Raises [Invalid_argument] on negative components. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val encode : Codec.Enc.t -> t -> unit

val decode : Codec.Dec.t -> t

val encoded_size : int
(** Fixed wire size in bytes. *)

val null : t
(** Sentinel address (node -1). Never dereferenced; used for "no
    pointer" slots in fixed layouts. *)

val is_null : t -> bool
