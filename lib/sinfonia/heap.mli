(** A memnode's linear byte-addressable storage.

    Storage is paged and sparse: only written 1 KiB pages
    ({!page_size}) consume memory, up to a configurable capacity that
    mirrors the memnode's DRAM budget. Reads of never-written bytes
    return zeros (as freshly mapped memory would). *)

type t

val page_size : int
(** Bytes per materialized page (1 KiB). *)

val create : ?capacity:int -> unit -> t
(** Default capacity 1 GiB of simulated address space. *)

val capacity : t -> int

val high_water : t -> int
(** Highest offset ever written + 1 (0 if untouched). *)

val resident : t -> int
(** Bytes of actually-materialized storage (whole pages). *)

exception Out_of_space

val write : t -> off:int -> string -> unit
(** Raises {!Out_of_space} when the write would exceed capacity, and
    [Invalid_argument] on negative offsets or when called with an empty
    string. *)

val read : t -> off:int -> len:int -> string
(** Reading past the high-water mark yields zero bytes (within
    capacity); reading past capacity raises [Invalid_argument]. *)

val get_int32_le : t -> off:int -> int32
(** The little-endian 32-bit integer stored at [off], read in place.
    Raises [Invalid_argument] when [off, off+4) is out of capacity. *)

val equal_at : t -> off:int -> string -> bool
(** [equal_at t ~off expected] compares stored bytes with [expected]
    without copying. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] a copy of [src]: its resident pages and high-water mark
    (crash recovery restores a primary from its replica this way).
    Only [src]'s resident pages are copied. Raises {!Out_of_space} when
    [src]'s high-water mark exceeds [dst]'s capacity. *)
