(** Distributed multiversion B-tree operations.

    This module implements the paper's core algorithms:
    - transactional traversal with dirty reads, fence-key and height
      safety checks (Fig. 5);
    - the baseline concurrency-control mode of Aguilera et al., where
      every traversed node is validated via the replicated
      sequence-number table;
    - copy-on-write path copying with [snap_created] / descendant-set
      version checks (Sec. 4.1–4.2, 5.2);
    - node splits, including in-place root splits (the root of each
      snapshot stays at a fixed address);
    - snapshot creation (Fig. 6).

    Operations are expressed against a {!vctx} describing the snapshot
    being operated on; {!Linear} builds contexts for the
    totally-ordered snapshot scheme of Sec. 4 (replicated tip objects),
    while branching versions (Sec. 5) build richer contexts from the
    catalog (see [Mvcc.Branching]). *)

module Objref = Dyntxn.Objref
module Txn = Dyntxn.Txn

(** Concurrency-control mode. *)
type mode =
  | Dirty_traversal
      (** Sec. 3: internal nodes are dirty-read; only the leaf is
          validated. No replicated sequence-number table. *)
  | Validated_traversal
      (** Baseline (Aguilera et al.): every traversed node is validated,
          using internal-node sequence numbers replicated at every
          memnode; splits update the table everywhere. *)

(** Per-proxy handle on one distributed B-tree. *)
type tree

val make_tree :
  ?mode:mode ->
  ?max_keys_leaf:int ->
  ?max_keys_internal:int ->
  ?home:int ->
  ?client:int ->
  ?unsafe_dirty_leaf_reads:bool ->
  ?view_memo:View_memo.t ->
  cluster:Sinfonia.Cluster.t ->
  layout:Layout.t ->
  tree_id:int ->
  alloc:Node_alloc.t ->
  cache:Dyntxn.Objcache.t ->
  unit ->
  tree
(** Key capacities default to values derived from [layout.node_size]
    assuming short keys and values (the YCSB schema: 14-byte keys,
    8-byte values).

    [client] is this proxy's host id for the network fault model: all
    transactions the tree runs carry it, so injected per-link faults
    (partitions, drops, delays) apply to this proxy's traffic.

    [unsafe_dirty_leaf_reads] deliberately breaks the tree for checker
    validation: up-to-date leaf reads skip the read set, so gets can
    serialize against a stale leaf. Only for proving the history
    checker has teeth.

    [view_memo] is the parsed-view memo to share with the database's
    other handles (default: a fresh one private to this handle). *)

val cluster : tree -> Sinfonia.Cluster.t

val tree_id : tree -> int

val client : tree -> int option
(** The [client] the handle was made with. *)

val mode : tree -> mode

val home : tree -> int

val layout : tree -> Layout.t

val proxy_cache : tree -> Dyntxn.Objcache.t

val view_memo : tree -> View_memo.t

val last_commit_stamp : tree -> int64 option
(** Commit stamp of the last operation that committed through this
    handle ({!Txn.commit_stamp}); [None] when that operation was a
    dirty-only snapshot read. Safe to read immediately after an
    operation returns (the simulator is cooperative). For
    session-level history tracing. *)

exception Too_contended of string
(** An operation exhausted its retry budget ({!Txn.Too_contended},
    re-exported). The operation certainly did not take effect (every
    attempt aborted before its commit was applied). *)

exception Ambiguous of string
(** An operation's commit round ended [Unavailable] with
    [maybe_applied = true] ({!Txn.Ambiguous}, re-exported): a participant
    crashed mid-commit, so the operation may or may not have taken
    effect, and retrying could double-apply it. The history checker
    resolves such operations from later reads. *)

(** {1 Version contexts} *)

(** Discretionary copy-on-write directive (branching versions,
    Sec. 5.2). *)
type disc = { disc_at : int64; disc_covered : int64 array }

type cow_plan = { old_descendants : int64 array; discretionary : disc list }

type vctx = {
  snap : int64;  (** Snapshot the operation acts on. *)
  root : Objref.t;  (** Root node location for [snap]. *)
  writable : bool;
      (** Up-to-date operation on a tip snapshot: leaves are read
          transactionally and tip metadata is validated at commit. *)
  is_ancestor : int64 -> int64 -> bool;
      (** [is_ancestor a b]: snapshot [a] is an ancestor of (or equal
          to) [b] in the version tree. Linear snapshots: [a <= b]. *)
  plan_cow : created:int64 -> descendants:int64 array -> cow_plan;
      (** Decide the old node's new descendant set (and any
          discretionary copy) when copying a node to [snap]. *)
  root_of : Txn.t -> int64 -> Objref.t;
      (** Root location of another snapshot (needed for discretionary
          relinking); may read the catalog through the transaction. *)
}

(** {1 Operations}

    Each operation runs in its own retrying dynamic transaction; the
    version context is rebuilt per attempt by [vctx_of] (which reads
    and registers tip/catalog validations on the transaction). All must
    be called inside a simulation. They commit through {!Txn.run}, so
    they raise {!Too_contended} after 64 attempts and {!Ambiguous} when
    a commit's outcome is unknown. *)

val get : tree -> vctx_of:(Txn.t -> vctx) -> Bkey.t -> string option

val put : tree -> vctx_of:(Txn.t -> vctx) -> Bkey.t -> string -> unit

val remove : tree -> vctx_of:(Txn.t -> vctx) -> Bkey.t -> bool
(** [true] if the key was present. *)

val scan :
  ?batch:int ->
  tree ->
  vctx_of:(Txn.t -> vctx) ->
  from:Bkey.t ->
  count:int ->
  (Bkey.t * string) list
(** Up to [count] consecutive entries starting at the smallest key
    >= [from], in key order. Runs as a single transaction: against a
    read-only snapshot this commits for free (leaves are fetched
    directly and guarded by safety checks only); against a writable tip
    every leaf joins the read set and the scan may abort under
    concurrent updates (Sec. 6.3 explains why tip scans are
    impractical).

    The scan descends to the deepest parent of the leaf holding [from]
    (internal nodes are dirty-read, mostly from the proxy cache), then
    fetches that leaf together with its right siblings and chases fence
    keys sideways, up to [batch] (default 16; clamped to >= 1) siblings
    per minitransaction round trip. Each group is sized to the
    keys still needed, over the keys per leaf this scan (or, before its
    first leaf, this handle's earlier scans) has seen, so a scan fetches
    about the leaves it consumes; the next group is fetched while the
    current one is consumed only when the groups in flight are estimated
    short. Batched leaves are validated individually — fence-key
    continuity, height, and the Fig. 5 version checks — rather than
    through a re-traversal; any violation aborts the attempt.
    [~batch:1] forces the per-leaf path (the oracle the chaos checker
    compares batched scans against). *)

val run_txn : tree -> (Txn.t -> 'a) -> 'a
(** Run [f] through {!Txn.run}, the retry loop every transaction shares
    (the operations above use it too), with this handle's cache, client
    and home memnode; records {!last_commit_stamp}. Use with
    {!get_in_txn}/{!scan_in_txn} for multi-operation transactions (e.g.
    reading several versions atomically), including ones over several
    trees of one cluster: the paper's multi-index transactions
    (Sec. 6.2). *)

val get_in_txn : tree -> Txn.t -> vctx -> Bkey.t -> string option

val put_in_txn : tree -> Txn.t -> vctx -> Bkey.t -> string -> unit

val remove_in_txn : tree -> Txn.t -> vctx -> Bkey.t -> bool

val scan_in_txn :
  ?batch:int -> tree -> Txn.t -> vctx -> from:Bkey.t -> count:int -> (Bkey.t * string) list

(** {1 Linear snapshots (Sec. 4)} *)

module Linear : sig
  val init_tree : tree -> unit
  (** Create the empty tree: allocate the initial root (snapshot 0) and
      publish the replicated tip objects. Call once per tree id. *)

  val tip : tree -> Txn.t -> vctx
  (** Up-to-date context: reads the replicated tip snapshot id and root
      location (from the proxy cache when warm) and registers them for
      commit-time validation. *)

  val at_snapshot : tree -> sid:int64 -> root:Objref.t -> vctx
  (** Read-only context on an earlier snapshot. *)

  val read_tip : tree -> Txn.t -> int64 * Objref.t
  (** Current tip snapshot id and root location (dirty; no
      validation registered). *)

  val create_snapshot : tree -> Txn.t -> int64 * Objref.t
  (** Fig. 6: make the tip read-only and create a new tip (id + 1),
      copying the root so each snapshot's root address is immutable.
      Effective when the transaction commits (callers use a blocking
      commit). Returns the read-only snapshot's id and root. *)
end

(** {1 Raw node access (for the snapshot/branching machinery)} *)

val read_node_txn : tree -> Txn.t -> Objref.t -> Bnode.t
(** Transactional (validated) read + decode of one node. *)

val write_node_txn : tree -> Txn.t -> Objref.t -> Bnode.t -> unit
(** Mode-aware node write (baseline mode republishes the sequence
    number of internal nodes). *)

val alloc_node : tree -> Objref.t
(** Allocate a fresh node slot through the tree's allocator. *)

(** {1 Audit (tests)} *)

val audit : tree -> sid:int64 -> root:Objref.t -> (Bkey.t * string) list
(** Walk the whole tree at a snapshot outside any transaction (direct
    heap reads), checking structural invariants (fences, heights,
    sortedness, reachability at the snapshot); returns all entries in
    key order. Raises [Failure] on an invariant violation. For tests and
    the consistency checker. *)
