(** Distributed slot allocator for B-tree nodes.

    Placement is round-robin across memnodes to balance load (Sec. 2.3).
    To avoid a contention hotspot on the per-memnode allocation pointer,
    each proxy reserves slots in chunks with a small compare-and-swap
    transaction and then hands them out locally. Slots freed by the
    garbage collector go to a shared per-memnode free list that
    allocators drain before extending the slot region. *)

(** Cluster-wide allocator state shared by all proxies: the free lists
    maintained by each memnode's garbage collector. *)
module Shared : sig
  type t

  val create : n_memnodes:int -> t

  val free_count : t -> node:int -> int
end

type t

exception Out_of_slots of int
(** Memnode id whose slot region is exhausted. *)

val create :
  ?chunk:int ->
  ?first_node:int ->
  cluster:Sinfonia.Cluster.t ->
  layout:Layout.t ->
  shared:Shared.t ->
  unit ->
  t
(** [chunk] (default 64) is the number of slots reserved per
    reservation transaction. [first_node] seeds the round-robin
    placement. *)

val alloc : t -> Dyntxn.Objref.t
(** Allocate a slot on the next memnode in round-robin order. May run a
    reservation transaction (must be called inside a simulation). *)

val alloc_on : t -> node:int -> Dyntxn.Objref.t
(** Allocate a slot on a specific memnode. *)

val free : t -> Dyntxn.Objref.t -> unit
(** Return a slot to the shared free list (used by the GC). The slot
    must belong to the layout's slot region. *)
