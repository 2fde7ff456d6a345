(** Address-space layout of Minuet's state inside each memnode's heap.

    Every memnode uses the same layout. Replicated objects (tree
    descriptors, the snapshot catalog, the baseline sequence-number
    table) occupy the same offset on every memnode; per-memnode state
    (the slot region and its allocation pointer) is independent.

    {v
    0 ............... tree descriptors (tip snapshot id / root location)
    trees_end ....... global snapshot-id counter, GC watermark
    catalog_base .... snapshot catalog entries (branching versions)
    seqtable_base ... replicated seqnum table (baseline CC mode)
    alloc_ptr ....... per-memnode slot allocation pointer
    slot_base ....... B-tree node slots (node_size bytes each)
    v} *)

type t = {
  node_size : int;  (** Slot size for B-tree nodes (paper: 4096). *)
  max_slots : int;  (** Slots per memnode. *)
  max_trees : int;
  max_snapshots : int;  (** Catalog capacity (branching mode). *)
  max_memnodes : int;
      (** Upper bound on cluster size; sizes the baseline seqnum table,
          which has one entry per (memnode, slot) — the table at every
          memnode covers the aggregate capacity of the system (Sec. 3). *)
}

val make :
  ?node_size:int ->
  ?max_slots:int ->
  ?max_trees:int ->
  ?max_snapshots:int ->
  ?max_memnodes:int ->
  unit ->
  t
(** Defaults: 4096-byte nodes, 8192 slots, 32 trees, 4096 snapshots,
    64 memnodes. Raises [Invalid_argument] unless
    [128 <= node_size <= 65536]: the slotted node format ({!Bview})
    addresses a node's entries with u16 offsets. *)

val heap_capacity_needed : t -> int
(** Minimum memnode heap capacity for this layout. *)

(** {1 Replicated objects} *)

val slot_len_small : int
(** Slot size used for metadata objects (64 bytes). *)

val tip_id_off : t -> tree:int -> int
(** Tip snapshot id for a tree (payload: i64 sid). *)

val tip_root_off : t -> tree:int -> int
(** Root location of the tip snapshot (payload: encoded {!Dyntxn.Objref.t}). *)

val global_sid_off : t -> tree:int -> int
(** Per-tree global snapshot-id counter (branching mode). *)

val lowest_sid_off : t -> tree:int -> int
(** GC watermark: smallest snapshot id still queryable. *)

val catalog_entry_off : t -> tree:int -> sid:int64 -> int
(** Catalog entry slot for a snapshot of one tree (branching mode).
    Raises [Invalid_argument] beyond [max_snapshots]. *)

val catalog_entry_len : int

(** {1 Baseline sequence-number table} *)

val seq_entry_off : t -> Sinfonia.Address.t -> int
(** Replicated sequence-number slot for the B-tree node stored at the
    given slot address. *)

val seq_entry_len : int

(** {1 Per-memnode slot region} *)

val alloc_ptr_off : t -> int
(** Allocation bump pointer (payload: i64 next free slot index). *)

val slot_base : t -> int

val slot_off : t -> index:int -> int
(** Byte offset of slot [index]. Raises [Invalid_argument] when out of
    range. *)

val slot_index : t -> off:int -> int
(** Inverse of {!slot_off}. *)

val node_ref : t -> node:int -> index:int -> Dyntxn.Objref.t
(** Object reference for slot [index] on memnode [node]. *)

val is_slot_off : t -> off:int -> bool
