(** Deployment configuration for a Minuet database. *)

type t = {
  hosts : int;  (** Memnode count (one memnode + one proxy per host, Sec. 6.1). *)
  sinfonia : Sinfonia.Config.t;  (** Substrate cost model. *)
  layout : Btree.Layout.t;  (** Address-space layout (node size, slots, ...). *)
  mode : Btree.Ops.mode;  (** Dirty traversals (default) or the baseline. *)
  n_trees : int;  (** Number of independent B-tree indexes to create. *)
  branching : bool;  (** Branching versions (Sec. 5) instead of linear snapshots. *)
  beta : int;  (** Descendant-set bound for branching versions. *)
  max_keys_leaf : int option;  (** Override derived leaf fanout. *)
  max_keys_internal : int option;
  scs_borrowing : bool;  (** Borrowed snapshots (Sec. 4.3). *)
  scs_min_interval : float;  (** Snapshot staleness bound k, seconds (Sec. 6.3). *)
  cache_capacity : int;  (** Proxy object-cache entries. *)
  alloc_chunk : int;  (** Slots reserved per allocator refill. *)
  unsafe_dirty_leaf_reads : bool;
      (** Deliberately broken concurrency control for checker
          validation: up-to-date leaf reads skip commit-time validation,
          so gets can serialize against a stale leaf. The history
          checker must flag such runs. Never enable outside checker
          self-tests. *)
  broken_branch_isolation : bool;
      (** Deliberately broken branch isolation for checker validation:
          reads addressed at a read-only version are silently routed to
          the mainline tip below it, leaking descendant writes into
          frozen snapshots. The checker's frozen-ancestor rule must flag
          such runs. Never enable outside checker self-tests. *)
}

val default : t
(** Paper-like settings at laptop scale: 4 hosts, 4 KiB nodes, dirty
    traversals, one linear-snapshot tree, borrowing on, k = 0. *)

val small_tree : t -> t
(** Shrink nodes (512 B) and fanout (4 keys) so tests exercise deep
    trees and frequent splits with little data. *)

val validate : t -> unit
(** Raises [Invalid_argument] on inconsistent settings (e.g. heap
    capacity below what the layout needs — normally fixed up by
    {!Db.start} automatically). *)
