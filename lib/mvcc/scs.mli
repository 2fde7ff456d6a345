(** Snapshot creation service (SCS) with borrowed snapshots (Fig. 7).

    All snapshot requests are routed through one service so that the
    replicated tip objects see one writer at a time. Inside the service,
    a request that waited while another request completed can
    {e borrow} the latter's snapshot without compromising strict
    serializability: the borrowed snapshot was created inside the
    borrower's request window.

    The service also implements the staleness bound of Sec. 6.3: with
    [min_interval = k > 0], at most one snapshot is created every [k]
    seconds and other requests reuse the most recent one. That mode is
    only serializable (the snapshot may be up to [k] seconds stale);
    [k = 0] keeps strict serializability. *)

type t

val create : ?borrowing:bool -> ?min_interval:float -> tree:Btree.Ops.tree -> unit -> t
(** [borrowing] (default true) enables Fig. 7 borrowing; disabling it
    makes every request create its own snapshot (the paper's comparison
    baseline in Fig. 15). [min_interval] is the staleness bound [k]
    (default 0). The proxy→service hop costs 25 µs each way. The [tree]
    handle is the service's own proxy handle. Creations, borrows and
    stale reuses are counted in the cluster's [Obs.scs]. *)

val request : t -> int64 * Dyntxn.Objref.t
(** Obtain a snapshot to run a query against: the id and root location
    of a read-only snapshot that reflects all transactions that
    completed before this call started. Must run inside a simulation.
    A creation commits through {!Dyntxn.Txn.run} with a blocking commit,
    so an outage that outlasts its attempt budget raises
    {!Dyntxn.Txn.Too_contended} and a creation whose commit outcome is
    unknown raises {!Dyntxn.Txn.Ambiguous}. Either way the service's
    lock is released and the next request starts afresh. *)

val set_on_create : t -> (sid:int64 -> stamp:int64 -> unit) -> unit
(** Subscribe to snapshot creations as they happen: [f ~sid ~stamp]
    runs once per created snapshot, where [stamp] is the commit stamp
    of the transaction that created snapshot [sid] — the serialization
    point at which the state frozen into [sid] stopped changing.
    Streaming checkers feed these to [Check.Stream.add_creation]. One
    subscriber; later calls replace earlier ones. *)

(** {1 Chaos hooks} *)

val set_outage : t -> until:float -> unit
(** Declare the service unreachable until simulated time [until]:
    requests arriving before then queue and are served once the outage
    lifts (extends, never shortens, a current outage). *)
