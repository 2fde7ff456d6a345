(** Streaming serializability checker.

    The checker's only entry point: a sink that consumes
    {!Minuet.Session.Event.t}s one at a time and verifies them online
    against per-index sequential models, in O(active keys + candidate
    budget + reorder window) live memory — a million-op chaos history
    checks in a bounded heap instead of materializing the full event
    list.

    {b Replay.} Commit stamps are the operations' serialization points
    (drawn while all their locks were held), so applying stamped events
    in ascending stamp order against a per-index map model {e is} the
    equivalent serial order; any divergence between an observed result
    and the model is a serializability violation. Events may be fed in
    any arrival order: a bounded reorder buffer
    ({!Config.t.reorder_window}) re-sequences them by stamp, and a
    stamp at or below the applied watermark is itself reported (the
    run's in-flight concurrency bounds the needed window).

    {b Strictness} is checked in O(1) per event: a violation exists iff
    some operation's stamp is below that of an operation invoked after
    it returned, which the stream detects by tracking the maximum
    invocation time seen so far per index.

    {b Snapshots.} A read at snapshot [sid] must observe exactly the
    frozen prefix — the model state after the last commit stamped below
    [sid]'s creation stamp. The stream freezes a persistent-map copy of
    the model when the replay crosses a creation stamp and evicts the
    oldest frozen snapshots beyond {!Config.t.max_frozen}; reads that
    arrive before their snapshot freezes are deferred (bounded by
    {!Config.t.max_deferred}).

    {b Branches} (Sec. 5): each version id gets its own model realm,
    forked from its parent's at {!Minuet.Session.Event.Branch_created};
    creating a branch freezes the parent. The rule checked: a branch
    read at version [v] observes exactly the frozen state of [v]'s
    ancestor chain — writes reaching a read-only version, or leaking
    across sibling branches, diverge from the forked realm and are
    reported as branch-isolation violations. Multi-version queries
    ([Get_many], [History]) are checked against every version's realm,
    and [History] additionally against the recorded parent chain.

    {b Sharding.} Indexes are independent serialization domains, so
    with [workers > 1] shards are distributed over worker domains by
    index; each shard still consumes its operations in a single
    deterministic order, so the verdict does not depend on domain
    scheduling. *)

module Event = Minuet.Session.Event

module Config : sig
  type t = {
    strict_scs : bool;
        (** A granted snapshot must reflect every commit that completed
            before the request started (disable for staleness-bound
            SCS configs). Default [true]. *)
    scs_staleness : float option;
        (** Time-bound variant: the snapshot may miss commits completed
            within the last [scs_staleness] seconds, nothing older.
            Takes precedence over [strict_scs]. Default [None]. *)
    creations : (int * (int64 * int64) list) list;
        (** Per-index snapshot creation logs ([(sid, stamp)] pairs, any
            order) known up front; more can arrive incrementally via
            {!add_creation}. *)
    final : (int * (string * string) list) list;
        (** Per-index post-run audits of the surviving tip entries. *)
    twopc : (int * int64 * [ `Committed | `Aborted ]) list;
        (** Every address space's redo-log decision records
            ({!Sinfonia.Cluster.redo_decisions}). *)
    in_doubt : int;
        (** Transactions still undecided when the run quiesced; any
            nonzero value is a violation. *)
    reorder_window : int;
        (** Stamped events buffered before the lowest is applied.
            Default 4096. *)
    max_frozen : int;
        (** Frozen snapshot states retained per index; oldest evicted
            first (reads against evicted snapshots report
            inconclusive). Default 1024. *)
    max_deferred : int;
        (** Reads parked awaiting their snapshot's freeze, per index.
            Default 65536. *)
    workers : int;
        (** Worker domains to shard indexes over; [<= 1] checks
            in-process. Default 1. *)
  }

  val default : t
end

type violation = {
  v_index : int;  (** Index the violation was found in; -1 for global. *)
  v_message : string;
  v_event : Event.t option;  (** The operation that exposed it. *)
  v_context : Event.t list;
      (** Minimal counterexample context: the last few committed
          operations on the same key, oldest first. *)
}

type verdict = {
  violations : violation list;
  inconclusive : string list;
      (** Checks that could not complete (e.g. too many ambiguous
          operations, evicted frozen snapshots); not failures. *)
  ops_checked : int;
  snapshot_reads_checked : int;
  branch_reads_checked : int;
      (** Branch-scoped reads verified against frozen ancestor
          states (includes multi-version query entries). *)
  candidates_resolved : int;
  twopc_checked : int;  (** 2PC decision records cross-checked. *)
}

val ok : verdict -> bool
(** No violations (inconclusive notes allowed). *)

val pp_violation : Format.formatter -> violation -> unit

val pp_verdict : Format.formatter -> verdict -> unit
(** Deterministic rendering: same history, same output. *)

type t
(** A live checking stream. Not thread-safe: feed from one domain
    (worker parallelism is internal). *)

val create : Config.t -> t

val feed : t -> Event.t -> unit
(** Consume one event. Raises [Invalid_argument] after {!finish}. *)

val add_creation : t -> index:int -> sid:int64 -> stamp:int64 -> unit
(** Register a snapshot creation observed mid-run (e.g. from
    {!Mvcc.Scs.set_on_create}); equivalent to listing it in
    {!Config.t.creations} up front. *)

val fed : t -> int
(** Events fed so far. *)

val finish : ?final:(int * (string * string) list) list ->
             ?twopc:(int * int64 * [ `Committed | `Aborted ]) list ->
             ?in_doubt:int ->
             t ->
             verdict
(** Drain the reorder buffer, resolve end-of-stream obligations
    (deferred snapshot and branch reads, pending ambiguous reads,
    final audits) and assemble the verdict. The optional arguments
    override their {!Config.t} counterparts for data only known at the
    end of the run. The stream cannot be used afterwards. *)
