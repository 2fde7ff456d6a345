(** A simulated Sinfonia deployment: a set of memnodes, the network
    between them, and shared bookkeeping (metrics, owner-id generator,
    replication wiring, per-space redo logs), plus Sinfonia's recovery
    coordinator (Sec. 2.3 of the paper): the orphan-lock lease, the
    lagging-replica flush and the in-doubt resolver. *)

type t

val create : ?config:Config.t -> ?seed:int -> n:int -> unit -> t
(** [create ~n ()] builds [n] memnodes. With replication enabled and
    [n > 1], memnode [i] is backed up on memnode [(i+1) mod n]; the two
    share address space [i]'s redo log (stable storage). A crash hook on
    every node promotes its replica the instant a crash lands: the
    replica image is rolled forward through the redo log and in-doubt
    write ranges are re-locked (see {!Memnode.set_crash_hook}). *)

val config : t -> Config.t

val n_memnodes : t -> int

val memnode : t -> int -> Memnode.t

val space_epoch : t -> int -> int
(** Address space [i]'s crash epoch: bumped once per crash of its
    primary (at the instant the replica is promoted). Carried on
    minitransaction replies ({!Mtx.outcome}) so proxies can lazily
    revalidate cache entries that predate a crash. *)

val redo_log : t -> int -> Redo_log.t
(** Address space [i]'s redo log (shared by its primary and replica
    stores). *)

val net : t -> Sim.Net.t

val obs : t -> Obs.t
(** The cluster's observability registry: typed counters, abort
    taxonomy, latency histograms and trace spans. One per cluster, so
    distinct runs never share state. *)

val rng : t -> Sim.Rng.t

val fresh_owner : t -> int64
(** Unique lock-owner / transaction id. *)

val owner_watermark : t -> int64
(** The next id {!fresh_owner} would hand out. Sequence numbers are
    drawn from the same counter, so any object written from now on has a
    sequence number >= this value (used by the branching GC). *)

val take_stamp : t -> int64
(** Draw the next commit stamp from the cluster-global stamp counter.
    Only meaningful when called while the minitransaction being stamped
    holds all of its locks (the coordinator's and memnode's job); under
    that discipline, stamp order of conflicting minitransactions equals
    their serialization order, which is what [minuet.check] replays. *)

val backup_of : t -> int -> int option
(** The node hosting [i]'s replica, if replication is on and [n > 1]. *)

exception Unavailable of int
(** Raised when routing to a memnode whose primary and backup are both
    down. *)

exception Partitioned of int
(** Raised by the coordinator when an injected network partition blocks
    the link between a client and the node serving memnode [i]. *)

val route : t -> int -> Memnode.t * Memnode.store
(** [route t i] is the node and store that currently serve memnode [i]'s
    address space: the primary when alive, otherwise its replica on the
    backup node. Raises {!Unavailable} if neither is alive. *)

val serving_host : t -> int -> int
(** The id of the physical node {!route} would pick for memnode [i]'s
    address space — the endpoint used for per-link fault lookups.
    Raises {!Unavailable} like {!route}. *)

val connected : t -> int -> int -> bool
(** [connected t a b]: hosts [a] and [b] can exchange a request and its
    reply — no injected partition blocks the link in either
    direction. *)

val mirror : t -> int -> owner:int64 -> Mtx.write_item list -> unit
(** Synchronously apply [owner]'s committed [writes] (addressed to
    memnode [i]) to [i]'s replica, paying network and backup CPU costs.
    The outcome is recorded honestly in [i]'s redo log: a mirror that
    reached the replica image marks the entry mirrored (truncating it);
    a mirror skipped because the backup is down, the link is
    partitioned, or either end crashed mid-transfer leaves the entry
    committed-but-unmirrored — {!start_recovery}'s flush daemon (or a
    promotion replay) delivers it later. No-op recorded as mirrored when
    replication is off or node [i] is already served from its
    replica. *)

val start_recovery : ?lease:float -> ?interval:float -> t -> unit
(** Spawn Sinfonia's recovery daemons. Every [interval] (default 1 s):

    - a lease process walks the memnodes in id order, releasing locks
      held longer than [lease] (default 250 ms of simulated time) whose
      owner never logged a vote — their coordinators are presumed
      crashed before preparing, and their minitransactions resolve as
      aborted;
    - a resolver flushes aged ({!Config.in_doubt_grace})
      committed-but-unmirrored redo entries to lagging replicas, then
      sweeps every space's redo log in space order, polling the other
      participants of each in-doubt transaction and driving its
      outcome. A decision recorded anywhere wins and is propagated; a
      reachable participant without a vote forces an abort, but only
      after an [Aborted] decision is recorded {e at that participant}
      (a late prepare there votes no, so a live coordinator can never
      assemble all-yes concurrently); all-yes with no decision commits
      (under a fresh stamp when none is recorded — safe because the
      write ranges stay locked under the tid); an unreachable
      participant with every reachable one voting yes blocks the
      transaction until it is back. Each sweep emits [recovery.*]
      counters and a [recovery.sweep] trace span.

    Healthy minitransactions hold locks for microseconds, far below the
    lease. *)

val settle_in_doubt : t -> unit
(** Spawn one process doing {!start_recovery}'s work every 50 ms (lease
    250 ms) that exits once no transaction is in doubt
    ({!in_doubt_total} is 0). For callers that crash nodes without the
    daemons: a crash lands mid-2PC, and its in-doubt transactions keep
    their write ranges locked until resolved. Unlike the daemons it
    lets a simulation run out of events and end. No-op while the
    daemons or another such process run. *)

val crash : t -> int -> unit
(** Crash memnode [i] immediately, mid-request ({!Memnode.crash}):
    in-flight participant operations die at their next service-time
    boundary, leaving any yes votes in doubt in the redo log for the
    recovery coordinator. Replica promotion runs synchronously via the
    crash hook, so from this call on operations are served by the
    backup replica (if any). *)

(** Why a recovery attempt was refused; see {!try_recover}. *)
type recover_error = Not_crashed | No_replica | Replica_busy

val recover_error_to_string : recover_error -> string

val try_recover : t -> int -> (unit, recover_error) result
(** Bring memnode [i] back, restoring state from its replica image —
    first rolled forward through the redo log (committed writes whose
    mirror never arrived), with in-doubt write ranges re-locked on the
    restored primary. Returns [Error] (leaving all state untouched)
    instead of raising when the node is not crashed, has no replica, or
    the replica is mid-request — the chaos nemesis races recovery
    against crashes and retries on [Error]. *)

val recover_when_idle : ?poll:float -> t -> int -> (unit, recover_error) result
(** {!try_recover}, waiting [poll] (default 1 ms) between attempts
    while the answer is [Replica_busy]; any other answer is returned. *)

val redo_decisions : t -> (int * int64 * [ `Committed | `Aborted ]) list
(** Every retained (space, tid, decision) record across all redo logs —
    the input to the checker's 2PC-atomicity rule. Chaos runs set
    {!Config.decision_retention} to [infinity] so nothing is pruned. *)

val in_doubt_total : t -> int
(** Transactions still in doubt across all spaces (should be 0 after a
    quiesced run with recovery running). *)
