(** A memnode: storage node participating in minitransactions.

    A memnode owns a primary store (heap + lock table) and may host
    replica stores for other memnodes (primary-backup replication). The
    participant-side minitransaction logic lives here; message timing and
    the commit protocol live in {!Coordinator}.

    Every store carries the {!Redo_log} of the address space it images;
    a space's primary store and its replica store share one log (it
    models stable storage, surviving crashes of either host). Timed
    participant operations log yes votes and decisions through it. *)

(** One store: a heap plus its lock table plus the space's redo log. *)
type store

val store_heap : store -> Heap.t

val store_locks : store -> Lock_table.t

val store_serving : store -> int
(** Number of in-flight requests currently being served from this store
    (see {!begin_serving}). A store with in-flight requests must not be
    used as a recovery source — its heap may be mid-update. *)

val store_space : store -> int
(** The address space (memnode id) this store is an image of. *)

val store_redo : store -> Redo_log.t

exception Crashed
(** Raised by timed participant operations (and {!begin_serving}) when
    the node crashed under them mid-request. The coordinator maps it to
    unavailability; the transaction's fate is whatever the redo log
    says. *)

type t

val create : ?redo:Redo_log.t -> id:int -> cores:int -> heap_capacity:int -> unit -> t
(** [redo] is the stable redo log for this node's address space
    (default: a fresh private log). {!Cluster} passes one it also hands
    to the backup's {!add_replica}, making the log shared storage. *)

val id : t -> int

val cpu : t -> Sim.Resource.t

val primary : t -> store

val crashed : t -> bool
(** Crashed nodes accept no new requests until {!recover}. *)

val epoch : t -> int
(** Crash epoch: bumped once per crash. In-flight operations capture it
    and compare at service-time boundaries to detect a crash landing
    under them. *)

val set_crash_hook : t -> (unit -> unit) -> unit
(** Install a hook run synchronously at the instant a crash lands
    (after the epoch bump and lock wipe). {!Cluster} uses it to promote
    the replica: replay the redo log forward and re-lock in-doubt write
    ranges before any request can reach the stale image. *)

val crash : t -> unit
(** Crash immediately, mid-request: volatile lock state is wiped, the
    epoch is bumped, and in-flight participant operations raise
    {!Crashed} at their next service boundary. Transactions they had
    voted yes on remain in the redo log, in doubt, for the recovery
    coordinator. No-op on an already-crashed node. *)

val recover : ?broken:bool -> t -> from_replica:store -> int
(** Restore the primary store's contents from a replica image and mark
    the node alive. The replica image is first rolled forward through
    the redo log (committed writes whose mirror never arrived), then
    in-doubt write ranges are re-locked under their tids so undecided
    transactions stay isolated until recovery resolves them. Returns
    the number of un-mirrored commits replayed. [broken] skips the
    replay — the falsifiability hook behind
    {!Config.broken_recovery}. *)

val relock_in_doubt : store -> unit
(** Re-acquire exclusive locks over every in-doubt transaction's write
    set, under the transaction's tid (used after a crash wipes volatile
    lock state, and by replica promotion). *)

val begin_serving : t -> store -> unit
(** Pin one of the node's stores as serving one in-flight request
    ({!store_serving}). Raises {!Crashed} on a crashed node — callers
    must route first. *)

val end_serving : store -> unit
(** Release one {!begin_serving} pin. *)

val add_replica : t -> of_node:int -> heap_capacity:int -> redo:Redo_log.t -> store
(** Host a replica store for memnode [of_node] on this node, sharing
    [of_node]'s redo log (one log per address space). *)

val replica : t -> of_node:int -> store option

val recover_orphaned_locks : t -> lease:float -> int
(** Release every lock held longer than [lease] simulated seconds whose
    owner never logged a yes vote: the owning coordinator is presumed
    crashed before preparing, and its minitransaction is resolved as
    aborted (Sinfonia's recovery decision for unprepared transactions).
    Owners with a logged vote are left alone — they are in doubt and
    belong to the recovery coordinator. Returns the number of owners
    recovered. *)

val serve : t -> cost:float -> unit
(** Occupy one CPU core of this memnode for [cost] simulated seconds
    (FCFS). *)

(** {1 Participant-side minitransaction logic} *)

(** The slice of a minitransaction addressed to one memnode. Compare and
    read items carry their index in the original minitransaction. *)
type part = {
  p_compares : (int * Mtx.compare_item) list;
  p_reads : (int * Mtx.read_item) list;
  p_writes : Mtx.write_item list;
}

val part_of_mtx : Mtx.t -> node:int -> part
(** Project the items of [mtx] that live on [node]. *)

val part_cost : Config.t -> part -> float
(** CPU service time to process this part in one message. *)

val part_bytes : part -> int
(** Approximate request size in bytes, for the network model. *)

type prepare_result =
  | Prepared of (int * string) list
      (** Locks held; compares passed; read results tagged with their
          global indices. *)
  | Busy_locks
  | Compare_failed of int list  (** Locks released. *)

(** {1 Timed participant operations}

    The memnode's CPU service time is spent {e while the locks are
    held}, which is what makes lock contention real: a concurrent
    minitransaction arriving during the service window sees busy locks
    (or waits, for blocking minitransactions). Used by {!Coordinator}.

    These are also the logged operations. A prepare called with
    [?participants] appends a yes-vote entry (tid, participants, write
    set) to the store's redo log before returning [Prepared]; a prepare
    for a tid the recovery coordinator already force-aborted votes no
    ([Busy_locks]). [commit_timed]/[abort_timed] record the decision.
    Every service window ends with an epoch check, so a mid-request
    crash raises {!Crashed} instead of completing against wiped
    state. *)

val prepare_timed :
  t ->
  store ->
  owner:int64 ->
  ?participants:int list ->
  ?lock_wait:float ->
  part ->
  cost:float ->
  prepare_result
(** Phase one: acquire the part's locks all-or-nothing, evaluate its
    compares and perform its reads. On [Prepared] the locks stay held
    until {!commit_timed} or {!abort_timed}; on [Compare_failed] they
    are released. [lock_wait] is a blocking minitransaction's bound
    (Sec. 4.1): wait up to that many seconds for busy locks, and return
    [Busy_locks] only on timeout. Without it the locks are tried once. *)

val commit_timed : t -> store -> owner:int64 -> part -> stamp:int64 -> cost:float -> unit
(** Phase two at one participant: records the commit decision (stamp
    included) in the redo log, then applies and releases — unless the
    recovery coordinator already committed this tid, in which case the
    writes are left exactly as recovery applied them. *)

val abort_timed : t -> store -> owner:int64 -> cost:float -> unit

val execute_single_timed :
  t -> store -> owner:int64 -> stamp:(unit -> int64) -> ?lock_wait:float -> part ->
  cost:float -> prepare_result * int64 option
(** One-phase execution for single-memnode minitransactions: prepare
    (as {!prepare_timed}), and on success draw a commit stamp from
    [stamp] {e between} prepare and commit — while the
    minitransaction's locks are held — commit, and return the stamp.
    No locks survive the call. Stamp order of two conflicting
    minitransactions is their serialization order. The commit is
    routed through the redo log (append + decide, no scheduler yield
    in between) so a crash after the 1PC commit but before the mirror
    cannot lose it. *)

val apply_writes : store -> Mtx.write_item list -> unit
(** Raw write application (used by replication mirroring). *)
