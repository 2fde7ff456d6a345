(** Minitransaction specifications and results.

    A minitransaction atomically: (1) compares bytes at a set of
    locations against expected values, and if every comparison succeeds
    (2) returns the bytes at a set of read locations and (3) applies a
    set of writes. Locations are declared up front (Sec. 2.1). *)

type compare_item = { c_addr : Address.t; c_expected : string }

type read_item = { r_addr : Address.t; r_len : int; r_trim : bool }
(** [r_trim] asks the serving memnode to reply with only the used
    prefix of an object slot (header + stored payload length) instead
    of the full [r_len] range — the request still locks and costs the
    full range, but the response transfers only live bytes. *)

type write_item = { w_addr : Address.t; w_data : string }

type t = {
  compares : compare_item list;
  reads : read_item list;
  writes : write_item list;
}

val empty : t

val make :
  ?compares:compare_item list ->
  ?reads:read_item list ->
  ?writes:write_item list ->
  unit ->
  t

val compare_at : Address.t -> string -> compare_item

val read_at : ?trim:bool -> Address.t -> int -> read_item
(** [trim] (default false) requests a reply trimmed to the slot's used
    prefix; see {!read_item}. *)

val slot_header_size : int
(** Bytes of an object slot's header (12): the sequence number (i64)
    and the payload length (i32, at offset 8), both little-endian. *)

val trimmed_read : Heap.t -> off:int -> len:int -> string
(** The used prefix of the object slot at [off, off+len): the header
    and the stored payload length's worth of payload, copied once
    without materialising the padding. Returns the full range when the
    length field is out of range. Raises like {!Heap.read}. *)

val write_at : Address.t -> string -> write_item

val is_empty : t -> bool

val is_read_only : t -> bool

val memnodes : t -> int list
(** Sorted list of distinct memnode ids touched. *)

val item_count : t -> int

type outcome =
  | Committed of {
      stamp : int64;
      reads : (Address.t * string) list;
      epochs : (int * int) list;
    }
      (** [reads] are the read results, in the order of the [reads]
          field. [stamp] is the minitransaction's commit stamp, drawn
          from a cluster-global counter {e while every participant's
          locks were held}: stamp order of two conflicting
          minitransactions is therefore their serialization order. The
          checker ([minuet.check]) replays histories in stamp order.

          [epochs] piggy-backs each participating address space's crash
          epoch ({!Cluster.space_epoch}) on the reply: a crash or
          replica promotion bumps the epoch, and proxies use the
          observed values to lazily revalidate (rather than bulk-evict)
          cache entries that predate a crash. Empty for the trivial
          no-participant commit. *)
  | Failed_compare of int list
      (** Indices (into [compares]) of the comparisons that failed. *)
  | Busy  (** A lock could not be acquired; caller should retry. *)
  | Unavailable of { maybe_applied : bool; partitioned : bool }
      (** A participant could not be reached. [partitioned] separates an
          injected network partition from a crashed, un-failed-over
          host. [maybe_applied] is false when the coordinator knows no
          write took effect (it always is under the current drain-based
          crash model, which fails memnodes only at minitransaction
          boundaries; the field exists so callers are forced to consider
          the ambiguous case). *)

val pp_outcome : Format.formatter -> outcome -> unit
