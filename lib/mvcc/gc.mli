(** Snapshot garbage collection (Sec. 4.4).

    Minuet records, per tree, a global {e lowest snapshot id}: the
    smallest snapshot clients may still query. A background process
    sweeps the B-tree node slots at each memnode and reclaims every node
    that has been copied to a snapshot id <= the watermark — such nodes
    are never referenced by any snapshot newer than the watermark.
    Reclaimed slots are zeroed (so stale readers fail validation or the
    empty-slot safety check) and returned to the allocator's free
    list. *)

val set_lowest : Btree.Ops.tree -> int64 -> unit
(** Publish the watermark (replicated at every memnode). *)

val get_lowest : Btree.Ops.tree -> int64
(** Current watermark (0 when never set). *)

val sweep : Btree.Ops.tree -> alloc:Btree.Node_alloc.t -> int
(** One full sweep over every memnode's slot region using the current
    watermark; returns the number of slots reclaimed. Reclamation of a
    slot is transactional (compare current sequence number, write
    zeros), so racing writers are never clobbered. *)

val sweep_branching :
  Btree.Ops.tree list -> alloc:Btree.Node_alloc.t -> roots:Dyntxn.Objref.t list -> int
(** Mark-and-sweep reclamation for branching versions (Sec. 5.2:
    deleted what-if branches give their storage back, including
    discretionary copies). [roots] must be the live roots of {e every}
    tree sharing the cluster's slot region (see
    [Branching.live_roots]); [trees] supplies the layout and a cluster
    handle. Nodes written after the sweep starts are never collected
    (they carry sequence numbers above the sweep's watermark), so the
    sweep is safe to run concurrently with updates. Returns the number
    of slots reclaimed. *)

val keep_recent : Btree.Ops.tree -> n:int -> unit
(** Convenience watermark policy from the paper: always support queries
    over the [n] most recent snapshots — sets the watermark to
    [tip - n] when positive. *)
