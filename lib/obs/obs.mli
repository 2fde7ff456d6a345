(** Observability for the Minuet stack: typed metric handles, a closed
    abort-reason taxonomy, per-operation latency histograms, and trace
    spans with parent/child links — all exportable as JSON
    ({!Report.fields}) so a benchmark trajectory can be tracked across
    changes.

    One [Obs.t] is owned by each simulated cluster
    ({!Sinfonia.Cluster.obs}); every layer above it (dynamic
    transactions, B-tree, snapshot service, sessions) records into it
    through the typed handles below. Each counter also carries a fixed
    report name ({!counters}); nothing looks a counter up by name. *)

module Json = Json

module Bench = Bench

module Counter = Sim.Stats.Counter

(** {1 Abort taxonomy}

    Every way an operation can fail to make progress, as a closed
    variant (replacing the old ad-hoc counter names). Aborts are counted
    per (layer, reason); the same logical conflict may legitimately be
    counted at more than one layer (a failed minitransaction compare is
    a [Validation_failed] at the [Mtx] layer and again at the [Txn]
    layer that aborts because of it). *)
module Abort : sig
  type reason =
    | Lock_busy  (** Minitransaction lock collision; retried with backoff. *)
    | Validation_failed  (** A read-set compare failed: data changed underneath. *)
    | Fence_violation  (** Dirty traversal left the node's key-range fence. *)
    | Height_mismatch  (** Stale pointer led to a node at the wrong level. *)
    | Snapshot_stale  (** Node version not on the snapshot's path, or superseded. *)
    | Crashed_host  (** Memnode (and backup) unreachable. *)
    | Partitioned  (** A participant is behind an injected network partition. *)

  val all : reason list

  val to_string : reason -> string
  (** Stable snake_case name used in reports ("lock_busy", ...). *)

  type layer = Mtx | Txn | Btree | Scs

  val layers : layer list
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
  snapshots_created : Counter.t;
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
    [stamp_revalidations] counts epoch-stale cache entries revalidated
    by content stamp without re-decoding; [node_bytes_copied] counts
    bytes actually materialised into strings (scan results, write-path
    decodes) — the copy budget the bench gates on. *)
type node_stats = {
  view_hits : Counter.t;
  materialisations : Counter.t;
  stamp_revalidations : Counter.t;
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
(** Every counter above and every abort-matrix cell
    (["abort.<layer>.<reason>"]) under its report name, sorted by name
    — the ["counters"] block of {!Report.fields}. *)

(** {1 Abort accounting} *)

val abort : t -> layer:Abort.layer -> Abort.reason -> unit

val abort_count : t -> ?layer:Abort.layer -> Abort.reason -> int
(** Count for one layer, or summed over all layers when omitted. *)

val abort_counts : t -> (Abort.layer * Abort.reason * int) list
(** All nonzero cells of the (layer, reason) matrix. *)

(** {1 Per-operation latency} *)

module Op : sig
  type op = Get | Put | Remove | Scan | With_txn | Multi_get | Multi_put | Snapshot_req

  (** Whether the operation read the writable tip (strictly
      serializable) or a read-only snapshot. *)
  type path = Up_to_date | At_snapshot

  val all : op list

  val to_string : op -> string

  val label : op -> path -> string
  (** Report key: ["get"], ["get\@snapshot"], ... *)
end

val time_op : t -> op:Op.op -> path:Op.path -> (unit -> 'a) -> 'a
(** Run the thunk inside an operation span, recording its simulated
    duration into the cell's histogram on success (exceptions
    propagate; their duration is not recorded). *)

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
  (** The report body: simulated time, every counter, the (layer,
      reason) abort matrix, and p50/p95/p99/p999 latency summaries per
      operation and per span kind. Schema documented in DESIGN.md
      ("Observability"). *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable latency + abort tables ({!Db.pp_stats} embeds
      this). *)
end
