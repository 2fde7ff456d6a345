(** A proxy-side session: the handle applications use to run
    transactional B-tree operations against a {!Db.t}.

    Each session models one proxy (Sec. 2): it has its own incoherent
    object cache and allocator chunks, and routes its Sinfonia traffic
    through a home memnode (typically the proxy's own host). Sessions
    are cheap; benchmarks attach one per simulated host.

    Every public operation is timed into the database's observability
    registry ({!Db.obs}): latency histograms per operation kind, split
    by up-to-date versus snapshot reads, plus a trace span per call. *)

type t

(** {1 History events}

    With a [tracer], every single-index session operation emits one
    {!Event.t} when it returns. On a branching database
    ({!Config.t.branching}), branch-aware operations run through the
    index's {!Mvcc.Branching.t} handle are traced too. The streaming
    consistency checker ([Check.Stream]) consumes these.
    Multi-index operations and {!with_txn} bodies are not traced. *)

module Event = Mvcc.Event

val attach : ?home:int -> ?client:int -> ?tracer:(Event.t -> unit) -> Db.t -> t
(** [home] defaults to 0; benchmarks attach one session per host with
    [home = host]. [client] is this proxy's host id for the network
    fault model: injected per-link faults (partitions, drops, delays)
    apply to this session's traffic. Omitted, the session's traffic is
    anonymous and never faulted. [tracer] receives a history event per
    operation (see {!Event}). *)

val db : t -> Db.t

(** {1 Index handles}

    Operations address one of the database's B-tree indexes through an
    abstract, validated handle instead of a raw integer. *)

type index
(** A validated reference to one B-tree index of a database. *)

val index : Db.t -> int -> index
(** [index db i] is the handle for the [i]th index. Raises
    [Invalid_argument] unless [0 <= i < Db.n_trees db]. *)

val tree_of : t -> index -> Btree.Ops.tree
(** The underlying per-session tree handle (escape hatch for benches
    and tests). *)

(** {1 Up-to-date operations (strictly serializable)} *)

val get : ?index:index -> t -> string -> string option

val put : ?index:index -> t -> string -> string -> unit

val remove : ?index:index -> t -> string -> bool

val scan : ?index:index -> t -> from:string -> count:int -> (string * string) list
(** Scan against the writable tip; aborts easily under concurrent
    updates — prefer {!scan_at} a snapshot (Sec. 6.3). *)

(** {1 General transactions}

    Arbitrary multi-operation, multi-index, strictly serializable
    transactions — the dynamic-transaction layer exposed directly.
    Reads and writes inside the function see each other; the whole
    body commits atomically (and is re-executed from scratch on
    conflicts, so it must be idempotent apart from its [txn]
    operations). *)

type txn

val with_txn : t -> (txn -> 'a) -> 'a
(** Run the body in a retrying dynamic transaction. *)

val t_get : ?index:index -> txn -> string -> string option

val t_put : ?index:index -> txn -> string -> string -> unit

val t_remove : ?index:index -> txn -> string -> bool

(** {1 Multi-index transactions (Sec. 6.2)} *)

val multi_get : t -> (int * string) list -> string option list
(** [(index, key)] pairs, read atomically across indexes. *)

val multi_put : t -> (int * string * string) list -> unit

(** {1 Snapshots (linear mode)} *)

type snapshot = { index : int; sid : int64; root : Dyntxn.Objref.t }

val snapshot : ?index:index -> t -> snapshot
(** Obtain a read-only snapshot from the snapshot creation service
    (created or borrowed per Fig. 7; possibly up to [k] seconds stale
    when the service has a staleness bound). *)

val get_at : t -> snapshot -> string -> string option

val scan_at : t -> snapshot -> from:string -> count:int -> (string * string) list
(** Strictly serializable when the snapshot came from an SCS with
    [k = 0]; never blocks updates and never aborts due to them. *)

(** {1 Writable clones (branching mode)} *)

val branching : ?index:index -> t -> Mvcc.Branching.t
(** Branch-aware operations for a database started with
    [config.branching = true]. Raises [Invalid_argument] otherwise.
    When the session has a tracer, operations run through this handle
    emit branch-scoped {!Event}s. *)
