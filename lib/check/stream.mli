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
    ({!Config.t.reorder_window}, 4096 by default) re-sequences them by
    stamp, and a stamp at or below the applied watermark is itself
    reported (the run's in-flight concurrency bounds the needed
    window).

    {b Strictness} is checked in O(1) per event: a violation exists iff
    some operation's stamp is below that of an operation invoked after
    it returned, which the stream detects by tracking the maximum
    invocation time seen so far per index.

    {b Snapshots.} A read at snapshot [sid] must observe exactly the
    frozen prefix — the model state after the last commit stamped below
    [sid]'s creation stamp. The stream freezes a persistent-map copy of
    the model when the replay crosses a creation stamp and keeps at
    most 1024 frozen states per index, evicting the oldest first (a
    read against an evicted snapshot is reported inconclusive); reads
    that arrive before their snapshot freezes are deferred, at most
    65536 per index.

    {b Branches} (Sec. 5): each version id gets its own model realm,
    forked from its parent's at {!Minuet.Session.Event.Branch_created};
    creating a branch freezes the parent. The rule checked: a branch
    read at version [v] observes exactly the frozen state of [v]'s
    ancestor chain — writes reaching a read-only version, or leaking
    across sibling branches, diverge from the forked realm and are
    reported as branch-isolation violations. Multi-version queries
    ([Get_many], [History]) are checked against every version's realm,
    and [History] additionally against the recorded parent chain.

    Indexes are independent serialization domains: each gets its own
    shard of models and budgets, all checked in the caller's domain. *)

module Event = Minuet.Session.Event

module Config : sig
  type t = {
    scs_staleness : float option;
        (** SCS staleness bound k: a granted snapshot must reflect every
            commit that returned more than [k] seconds before the
            request started. [None] is strict (k = 0). Default [None]. *)
    reorder_window : int;
        (** Stamped events buffered before the lowest is applied; must
            exceed the run's in-flight concurrency. Default 4096. *)
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

(** The packed per-key context behind {!violation.v_context}; exposed
    for tests. *)
module Context : sig
  val push : string -> Event.t -> string
  (** [push ctx ev] adds [ev] to the context [ctx] ([""] when empty),
      keeping the newest 4 events. [ev] must carry a key ([Get], [Put],
      [Remove], their [Branch_] forms, [Get_many] or [History]); the
      key is not stored. Raises [Invalid_argument] otherwise. *)

  val events : key:string -> string -> Event.t list
  (** The events of a context, oldest first, each given [key]. *)
end

val ok : verdict -> bool
(** No violations (inconclusive notes allowed). *)

val pp_violation : Format.formatter -> violation -> unit

val pp_verdict : Format.formatter -> verdict -> unit
(** Deterministic rendering: same history, same output. *)

type t
(** A live checking stream. Not thread-safe: feed it from one domain;
    every check runs in the caller's domain. *)

val create : Config.t -> t

val feed : t -> Event.t -> unit
(** Consume one event. Raises [Invalid_argument] after {!finish}. *)

val add_creation : t -> index:int -> sid:int64 -> stamp:int64 -> unit
(** Register a snapshot creation ([sid] froze at commit stamp
    [stamp]), up front or as it happens (e.g. from
    {!Mvcc.Scs.set_on_create}). *)

val fed : t -> int
(** Events fed so far. *)

val finish : ?final:(int * (string * string) list) list ->
             ?twopc:(int * int64 * [ `Committed | `Aborted ]) list ->
             ?in_doubt:int ->
             t ->
             verdict
(** Drain the reorder buffer, resolve end-of-stream obligations
    (deferred snapshot and branch reads, pending ambiguous reads,
    final audits) and assemble the verdict. The stream cannot be used
    afterwards.

    The optional arguments carry data only known at the end of the
    run: [final] is the per-index post-run audit of the surviving tip
    entries (default none); [twopc] is every address space's redo-log
    decision records ({!Sinfonia.Cluster.redo_decisions}), cross-checked
    for 2PC atomicity (default none); [in_doubt] counts transactions
    still undecided when the run quiesced, and any nonzero value is a
    violation (default 0). *)
