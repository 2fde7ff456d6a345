(** A running Minuet deployment: a Sinfonia cluster with initialized
    B-tree indexes, a snapshot creation service per index, and shared
    allocator state. Create sessions with {!Session.attach} to operate
    on it. *)

type t

val start : ?config:Config.t -> unit -> t
(** Boot the cluster and initialize every index. Must run inside a
    simulation ({!Harness.run} does both). *)

val config : t -> Config.t

val cluster : t -> Sinfonia.Cluster.t

val shared_alloc : t -> Btree.Node_alloc.Shared.t

val scs : t -> index:int -> Mvcc.Scs.t
(** The snapshot creation service for one index (linear mode only). *)

val obs : t -> Obs.t
(** The cluster's observability registry: typed counters, abort
    taxonomy by layer, operation latency histograms and trace spans. *)

val n_trees : t -> int

val pp_stats : Format.formatter -> t -> unit
(** Human-readable runtime report: per-memnode CPU utilization and
    storage high-water marks, all protocol metrics (commit/abort
    counters, retries, copies, GC work), and the observability report
    (operation latency quantiles and per-layer abort reasons). *)

val enable_gc : ?interval:float -> keep:int -> t -> unit
(** Start background garbage collection for every index (Sec. 4.4):
    every [interval] simulated seconds (default 5) the watermark is
    advanced so that the [keep] most recent snapshots stay queryable,
    and superseded node versions are swept back to the allocator.
    Linear-snapshot mode only. *)

val crash_host : t -> int -> unit
(** Crash a memnode mid-request; operations fail over to its backup
    replica. Transactions the crash leaves in doubt keep their write
    ranges locked until a resolver
    ({!Sinfonia.Cluster.settle_in_doubt}), started here, settles them.
    Raises [Invalid_argument] when the cluster has no such host. *)

val recover_host : t -> int -> (unit, Sinfonia.Cluster.recover_error) result
(** Restore a crashed memnode from its replica
    ({!Sinfonia.Cluster.try_recover}); [Error] leaves the cluster
    untouched. Raises [Invalid_argument] when the cluster has no such
    host. *)

(**/**)

val make_tree_handle :
  ?client:int ->
  config:Config.t ->
  cluster:Sinfonia.Cluster.t ->
  shared_alloc:Btree.Node_alloc.Shared.t ->
  cache:Dyntxn.Objcache.t ->
  home:int ->
  tree_id:int ->
  unit ->
  Btree.Ops.tree
(** Internal (used by {!Session}). [client] is the attaching proxy's
    host id for the network fault model. *)
