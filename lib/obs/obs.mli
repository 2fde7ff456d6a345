(** Observability for the Minuet stack: typed counters and trace spans
    with parent/child links, each span kind with a latency histogram —
    all exportable as JSON ({!Report.fields}) so a benchmark trajectory
    can be tracked across changes. Each event is recorded once: an
    abort bumps the typed counter of its layer and cause (for example
    [mtx.busy_retries] or [btree.abort.fence]), and an operation's
    latency is its [op.*] span.

    One [Obs.t] is owned by each simulated cluster
    ({!Sinfonia.Cluster.obs}); every layer above it (dynamic
    transactions, B-tree, snapshot service, sessions) records into it
    through the typed handles below. Each counter also carries a fixed
    report name ({!counters}); nothing looks a counter up by name. *)

module Json = Json

module Bench = Bench

module Counter = Sim.Stats.Counter

(** Why a transaction attempt aborted: the outcome an
    {!Span.Attempt} span carries. The counts live in the typed counters
    ([mtx.busy_retries], [mtx.compare_failed], [txn.unavailable], ...). *)
module Abort : sig
  type reason =
    | Lock_busy  (** Minitransaction lock collision; retried with backoff. *)
    | Validation_failed  (** A read-set compare failed: data changed underneath. *)
    | Crashed_host  (** Memnode (and backup) unreachable or partitioned away. *)
end

type t

val create : unit -> t
(** The finished-span ring buffer holds 65536 spans; older spans are
    overwritten, aggregates are unaffected. *)

(** {1 Typed metric handles}

    Pre-registered at {!create}; incrementing one is a record-field read
    plus an integer bump — no string hashing on any hot path. *)

type mtx_stats = {
  committed_1pc : Counter.t;
  committed_2pc : Counter.t;
  busy_retries : Counter.t;
  compare_failed : Counter.t;
  retry_budget_exhausted : Counter.t;
  vote_epoch_aborts : Counter.t;
  mtx_unavailable : Counter.t;
  mirrors : Counter.t;
  orphans_released : Counter.t;
  crashes : Counter.t;
  recoveries : Counter.t;
}

type txn_stats = {
  commits : Counter.t;
  free_commits : Counter.t;
  validation_failures : Counter.t;
  retry_exhausted : Counter.t;
  txn_unavailable : Counter.t;
}

type btree_stats = {
  abort_fence : Counter.t;
  abort_version : Counter.t;
  abort_copied : Counter.t;
  abort_height : Counter.t;
  splits : Counter.t;
  root_splits : Counter.t;
  cow : Counter.t;
  discretionary_cow : Counter.t;
  op_retries : Counter.t;
  branches_created : Counter.t;
  branches_deleted : Counter.t;
  chunk_reservations : Counter.t;
}

(** Proxy object-cache accounting ({!Dyntxn.Objcache}). Hits/misses were
    the only cache signals before; evictions (LRU + explicit
    invalidation), bulk evictions ({!Dyntxn.Objcache.clear} — a healthy
    run after a crash keeps this at 0) and the epoch-revalidation
    machinery are all first-class so crash-recovery cache behaviour
    shows up in every report. *)
type cache_stats = {
  cache_hits : Counter.t;
  cache_misses : Counter.t;
  cache_evictions : Counter.t;
      (** Entries dropped one at a time (LRU pressure or targeted
          invalidation after an abort). *)
  cache_bulk_evictions : Counter.t;
      (** Whole-cache flushes. Stays 0 when crash recovery relies on
          epoch revalidation instead of flushing. *)
  cache_stale_hits : Counter.t;
      (** Lookups that found an entry tagged with a pre-crash epoch. *)
  cache_epoch_revalidations : Counter.t;
      (** Stale-epoch entries lazily re-fetched and re-tagged. *)
  cache_epoch_survived : Counter.t;
      (** Revalidations whose sequence number was unchanged — the entry
          was still good and a bulk flush would have wasted it. *)
}

(** Batched-scan accounting (the leaf-chaining fast path in
    {!Btree.Ops}). *)
type scan_stats = {
  scan_batches : Counter.t;  (** Multi-leaf fetch rounds issued. *)
  scan_batched_leaves : Counter.t;  (** Leaves fetched via batch rounds. *)
  scan_consumed_leaves : Counter.t;
      (** Batched leaves whose entries the scan read: fetched leaves past
          the one where the scan ended (or aborted) are not counted. *)
  scan_continuations : Counter.t;
      (** Fence-key continuations: re-traversals after exhausting a
          parent's children. *)
  scan_prefetches : Counter.t;
      (** Batch fetches overlapped with consumption of the previous
          batch. *)
  scan_batch_aborts : Counter.t;
      (** Batches whose safety checks (fence continuity, height,
          version) failed, aborting the scan attempt. *)
}

(** Zero-copy node-view accounting (the slotted wire format,
    {!Btree.Bview}). [view_hits] counts traversal/scan hops answered in
    place from raw payload bytes; [materialisations] counts the
    write/split-path decodes into a full {!Btree.Bnode.t};
    [node_bytes_copied] counts bytes actually materialised into strings
    (scan results, write-path decodes) — the copy budget the bench
    gates on. *)
type node_stats = {
  view_hits : Counter.t;
  materialisations : Counter.t;
  node_bytes_copied : Counter.t;
}

type gc_stats = { slots_reclaimed : Counter.t; branch_slots_reclaimed : Counter.t }

type scs_stats = {
  scs_created : Counter.t;
  scs_borrowed : Counter.t;
  scs_stale_reused : Counter.t;
}

type chaos_stats = {
  faults_injected : Counter.t;  (** Total faults injected by the chaos nemesis. *)
  crashes_injected : Counter.t;
  partitions_injected : Counter.t;
  delay_faults_injected : Counter.t;
  stalls_injected : Counter.t;
  scs_outages_injected : Counter.t;
  mirror_partitions_injected : Counter.t;  (** memnode<->backup link partitions. *)
  replica_lags_injected : Counter.t;  (** Latency/loss injected on mirror links. *)
}

(** Redo-log and in-doubt recovery accounting (the Sinfonia recovery
    coordinator, {!Sinfonia.Cluster.start_recovery}). *)
type recovery_stats = {
  in_doubt_found : Counter.t;
      (** Distinct transactions that aged past the in-doubt grace. *)
  resolved_commit : Counter.t;  (** In-doubt transactions driven to commit. *)
  resolved_abort : Counter.t;  (** In-doubt transactions driven to abort. *)
  redo_replayed : Counter.t;
      (** Committed redo entries replayed into a replica image or a
          restored primary. *)
  mirror_skipped : Counter.t;
      (** Mirrors skipped (backup down, link partitioned, or source
          crashed mid-mirror); the redo log retains the entry. *)
  promotions : Counter.t;  (** Replica promotions that rolled the image forward. *)
}

val mtx : t -> mtx_stats

val txn : t -> txn_stats

val btree : t -> btree_stats

val cache : t -> cache_stats

val scan : t -> scan_stats

val node : t -> node_stats

val gc : t -> gc_stats

val scs : t -> scs_stats

val chaos : t -> chaos_stats

val recovery : t -> recovery_stats

val counters : t -> (string * int) list
(** Every counter above under its report name, sorted by name — the
    ["counters"] block of {!Report.fields}. *)

(** {1 Per-operation latency} *)

module Op : sig
  type op = Get | Put | Remove | Scan | With_txn | Multi_get | Multi_put | Snapshot_req

  (** Whether the operation read the writable tip (strictly
      serializable) or a read-only snapshot. *)
  type path = Up_to_date | At_snapshot
end

val time_op : t -> op:Op.op -> path:Op.path -> (unit -> 'a) -> 'a
(** Run the thunk inside a {!Span.Op} span ({!with_span}). The span's
    histogram is the operation's latency; it also counts operations
    that raised, whose exceptions propagate. *)

(** {1 Trace spans}

    Spans record simulated-time intervals with parent/child links: one
    [put] decomposes into its traversal, validation and commit spans.
    Parenting is implicit through the scheduler's per-process trace
    context, so spans nest correctly across [Sim.spawn]/[Sim.delay]
    boundaries without threading handles through every call. *)

module Span : sig
  type kind =
    | Op of Op.op * Op.path  (** Session-level operation. *)
    | Txn  (** One retrying dynamic transaction (all attempts). *)
    | Attempt  (** One optimistic attempt inside a {!Txn}. *)
    | Commit  (** Dynamic-transaction commit (validation + write-back). *)
    | Traversal  (** Root-to-leaf descent. *)
    | Scan_batch  (** One multi-leaf fetch round of a batched scan. *)
    | Mtx_exec  (** Single-memnode minitransaction (1PC fast path). *)
    | Mtx_prepare  (** Prepare phase of a 2PC minitransaction. *)
    | Mtx_commit  (** Commit phase of a 2PC minitransaction. *)
    | Snapshot_create  (** SCS executing Fig. 6. *)
    | Scs_request  (** Proxy-visible SCS snapshot request. *)
    | Fault of string
        (** One injected chaos fault ("crash", "partition", ...); the
            span covers injection through heal. *)
    | Recovery_sweep
        (** One pass of the in-doubt resolver over every space's redo
            log. *)

  val kind_to_string : kind -> string

  type outcome = Completed | Aborted of Abort.reason | Failed of string

  type t
  (** A live span handle. *)

  (** A finished span. [parent = 0] means the span was a root. *)
  type info = {
    id : int;
    parent : int;
    kind : kind;
    start : float;
    stop : float;
    outcome : outcome;
  }
end

val span_begin : t -> Span.kind -> Span.t
(** Starts a span whose parent is the calling process's current span,
    and makes it the current span. *)

val span_end : ?outcome:Span.outcome -> t -> Span.t -> unit
(** Finishes the span, restores its parent as current, records its
    duration into the per-kind histogram and appends it to the finished
    ring. Spans must end LIFO within a process; prefer {!with_span}. *)

val with_span : t -> ?outcome_of_exn:(exn -> Span.outcome option) -> Span.kind -> (unit -> 'a) -> 'a
(** Wrap a computation in a span. An escaping exception finishes the
    span with outcome [Failed] (or whatever [outcome_of_exn] maps it
    to) and is re-raised. *)

val spans : t -> Span.info list
(** Finished spans still in the ring, oldest first. *)

val clear_spans : t -> unit

(** {1 Reporting} *)

module Report : sig
  val fields : t -> (string * Json.t) list
  (** The report body: ["sim_time_s"], every counter (["counters"]) and
      p50/p95/p99/p999 latency summaries per span kind (["spans"]; the
      [op.*] cells are per-operation latency). Schema documented in
      DESIGN.md ("Observability"). *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable per-operation latency table, from the [op.*] span
      histograms ({!Db.pp_stats} embeds this). *)
end
