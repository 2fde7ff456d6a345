(** Writable clones and branching versions (Sec. 5).

    A branching tree's snapshots form a tree of versions recorded in the
    {!Catalog}: internal vertices are read-only snapshots, leaves are
    writable tips. Creating a snapshot is creating the {e first} branch
    of a tip; further branches from any read-only version create
    parallel writable clones.

    Dirty traversals remain safe thanks to β-bounded descendant sets
    maintained with discretionary copy-on-write (Sec. 5.2): when a node
    accumulates more than β copies, the copies that share a child
    subtree of the version tree are collapsed under a content-identical
    discretionary copy at their common ancestor — performed atomically
    inside the same dynamic transaction as the triggering write. *)

(** Raw trace of branch-aware operations, emitted through
    {!set_tracer}. This module cannot name [Session.Event] (the core
    library depends on it), so it emits a neutral record; the session
    layer converts these into history events for the checker. *)
module Trace : sig
  type op =
    | Branch_created of { parent : int64; sid : int64 }
    | Branch_deleted of { sid : int64 }
    | Get of { at : int64; key : string; result : string option }
    | Put of { at : int64; key : string; value : string }
    | Remove of { at : int64; key : string; removed : bool }
    | Scan of { at : int64; from : string; count : int; result : (string * string) list }
    | Get_many of { key : string; results : (int64 * string option) list }
    | History of { from : int64; key : string; results : (int64 * string option) list }

  type t = {
    op : op;
    invoked_at : float;  (** Simulated time the operation started. *)
    returned_at : float;  (** Simulated time it returned. *)
    stamp : int64 option;
        (** Commit stamp of the operation's transaction; [None] for
            dirty (read-only snapshot) commits and ambiguous ops. *)
    ambiguous : bool;
        (** The operation raised {!Btree.Ops.Ambiguous}: its effect is
            unknown (emitted just before re-raising). *)
  }
end

type t

val attach : ?broken_isolation:bool -> tree:Btree.Ops.tree -> beta:int -> unit -> t
(** Per-proxy handle. [beta] >= 2 bounds both the version tree's
    branching factor and descendant-set sizes. [broken_isolation]
    (default false) deliberately routes reads at read-only versions to
    the mainline tip below them — checker falsifiability only. *)

val set_tracer : t -> (Trace.t -> unit) -> unit
(** Install a trace sink. Branch-scoped {!get}/{!put}/{!remove}/{!scan},
    {!get_many}, {!history}, {!create_branch} and {!delete_branch}
    each emit one record when they return. *)

val tree : t -> Btree.Ops.tree

val init_tree : t -> unit
(** Create the empty tree as snapshot 0 (a writable tip) and publish
    the catalog entry and global id counter. Once per tree id. *)

exception Too_many_branches of int64
(** Creating another branch would exceed β (Sec. 5.2 restricts the
    version tree's branching factor). *)

exception No_mainline of int64
(** Following first-branch pointers from the carried version reached a
    deleted first branch with siblings remaining: there is no default
    mainline anymore, and the caller must name a tip explicitly
    (Sec. 5.1 lets users override the default). *)

val create_branch : t -> from:int64 -> int64
(** Create a new writable snapshot branching from [from] (which may be
    a writable tip — that is exactly "creating a snapshot" — or an
    existing read-only version). Returns the new snapshot id. Uses a
    blocking commit like Fig. 6, through {!Dyntxn.Txn.run}: a commit
    whose outcome is unknown raises {!Btree.Ops.Ambiguous} and is never
    retried, so [from] gains at most one branch per call. *)

val mainline_tip : t -> Dyntxn.Txn.t -> from:int64 -> int64
(** Follow first-branch pointers from [from] down to a writable tip:
    the default snapshot for retried up-to-date operations (Sec. 5.1). *)

val is_ancestor : t -> Dyntxn.Txn.t -> int64 -> int64 -> bool
(** [is_ancestor t txn a b]: [a] is [b] or one of its ancestors. *)

(** {1 Convenience operations} *)

val get : t -> ?at:int64 -> Btree.Bkey.t -> string option
(** [at] defaults to the mainline tip. For a read-only version pass its
    id; for a specific tip pass that tip's id. *)

val put : t -> ?at:int64 -> Btree.Bkey.t -> string -> unit
(** [at] (default mainline) must lead to a writable tip. *)

val remove : t -> ?at:int64 -> Btree.Bkey.t -> bool

val scan : ?at:int64 -> t -> from:Btree.Bkey.t -> count:int -> (Btree.Bkey.t * string) list

(** {1 Multi-version queries (Sec. 5.1)} *)

val get_many : t -> at:int64 list -> Btree.Bkey.t -> (int64 * string option) list
(** Horizontal query: read one key across several versions atomically
    (one dynamic transaction). *)

val history : t -> from:int64 -> Btree.Bkey.t -> (int64 * string option) list
(** Vertical query: the key's value at [from] and at each of its
    ancestors, root-first, read atomically. *)

type change = Added of string | Removed of string | Changed of string * string

val diff : t -> base:int64 -> other:int64 -> (Btree.Bkey.t * change) list
(** Compare two whole versions atomically: entries added, removed or
    changed going from [base] to [other], in key order. *)

(** {1 Branch deletion and reclamation (Sec. 5.2)} *)

exception Not_deletable of string

val delete_branch : t -> int64 -> unit
(** Delete a leaf version (a writable tip that never had branches).
    Its parent sheds a branch — shedding the last one makes the parent
    writable again. Storage is reclaimed by [Gc.sweep_branching].
    Raises {!Not_deletable} for the initial version, internal versions,
    or already-deleted ids, and {!Btree.Ops.Ambiguous} (never retried)
    when the deletion may or may not have landed. *)

val is_deleted : t -> sid:int64 -> bool

val live_roots : t -> Dyntxn.Objref.t list
(** Root locations of all non-deleted versions (the GC mark roots). *)

val root_of : t -> sid:int64 -> Dyntxn.Objref.t
(** Root location of a version (for {!Btree.Ops.audit}). *)

val snapshot_exists : t -> sid:int64 -> bool

val writable : t -> sid:int64 -> bool

val parent : t -> sid:int64 -> int64 option
(** [None] for the initial snapshot. *)
