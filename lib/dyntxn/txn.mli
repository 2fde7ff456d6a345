(** Dynamic transactions: optimistic concurrency control over objects
    stored in Sinfonia, following Aguilera et al. (Sec. 2.2) extended
    with dirty reads (Sec. 3).

    A transaction's footprint is three sets: a read set (object,
    sequence number), a write set (object, new payload) and the objects
    it dirty-read. Commit executes one minitransaction that validates
    every read-set sequence number and applies the writes with fresh
    sequence numbers. Dirty reads bypass the read set (no validation)
    and are served from the proxy's incoherent cache when possible.

    {e Replicated objects} (the tip snapshot id and root location, the
    branch catalog, and the baseline sequence-number table) are stored
    at the same offset on every memnode and join the same three sets,
    keyed by their copy on the [home] memnode. A read-set entry of one
    is compared at a single replica: at a fetch, the first memnode the
    fetch reads; at commit, one that already participates (that of the
    highest-addressed slot write, else of the highest slot read, else
    [home]), preserving one-phase commits. Each write has a fan-out:
    its own slot; its slot plus an echo of the fresh sequence number on
    every memnode ({!write_linked}); or, for a replicated object, the
    same offset on every memnode, updated atomically. *)

exception Aborted of string
(** Raised by {!abort}, by reads that detect a stale read set via
    piggy-backed validation, and by fetches that hit an outage. {!run}
    catches it and retries. *)

exception Too_contended of string
(** {!run} exhausted its attempt budget. The transaction certainly did
    not take effect (every attempt aborted before its commit was
    applied). *)

exception Ambiguous of string
(** {!run}'s commit ended [Unavailable] with [maybe_applied = true]: a
    participant crashed or was cut off mid-commit, so the transaction
    may or may not have taken effect, and retrying could apply it twice.
    The history checker resolves such operations from later reads. *)

type t

val begin_ : ?cache:Objcache.t -> ?client:int -> ?home:int -> Sinfonia.Cluster.t -> t
(** Start a transaction. [cache] is the proxy's object cache (dirty
    reads without one always go to the network). [client] is the calling
    host's id for the network fault model (see {!Sinfonia.Coordinator.exec});
    omitted, the transaction's traffic is anonymous and never faulted.
    [home] is the memnode used to fetch replicated objects (default 0). *)

val is_aborted : t -> bool

(** {1 Operations} *)

val read : t -> Objref.t -> string
(** Transactional read: returns the payload and records the sequence
    number in the read set. Served from the write set or read set if
    already present; otherwise fetched with a minitransaction that also
    re-validates (piggy-backs) read-set entries living on the same
    memnode — raising {!Aborted} if any is stale. *)

val in_write_set : t -> Objref.t -> bool
(** Whether reads of this object are currently served from the
    transaction's own buffered (uncommitted) write. *)

val read_with_seq : t -> Objref.t -> int64 * string
(** Like {!read}, also exposing the sequence number the object was read
    at (0 for objects only present in the write set). *)

val dirty_read : ?use_cache:bool -> t -> Objref.t -> string
(** Read without validation: from the write set, the read set, the
    cache, or (on miss) the memnode — caching the result. The object is
    remembered so that a later {!write} adds it to the read set, and so
    that {!evict_dirty} can purge the traversal path after an {!Aborted}
    read.
    [~use_cache:false] bypasses the proxy cache entirely (no lookup, no
    insert): the paper always fetches leaf nodes directly from Sinfonia
    (Sec. 4.2). *)

val dirty_read_with_seq : ?use_cache:bool -> t -> Objref.t -> int64 * string
(** Like {!dirty_read} but also returns the sequence number the payload
    was observed at (needed by the baseline concurrency-control mode to
    validate internal nodes against the replicated sequence-number
    table). *)

val read_many_with_seq : t -> Objref.t list -> (int64 * string) list
(** Batched {!read_with_seq}: objects not already served locally are
    fetched by {e one} minitransaction (items coalesced per memnode —
    one round trip for a single participant, one parallel 2PC for
    several) that piggy-backs read-set validation, so the whole batch
    joins the read set atomically validated. Results are in argument
    order; duplicates are served from the first fetch. The batched
    leaf scan ({!Btree.Ops.scan}) rides on this. *)

val dirty_read_many_with_seq : ?use_cache:bool -> t -> Objref.t list -> (int64 * string) list
(** Batched {!dirty_read_with_seq}: objects not resolvable from local
    state (or the cache, unless [~use_cache:false]) are fetched in one
    unvalidated fetch: one one-phase read per memnode, all in parallel
    ({!Sinfonia.Coordinator.read_per_memnode}). The batch is not atomic
    across memnodes; callers check each object on its own. *)

val write : t -> Objref.t -> string -> unit
(** Buffer a write. If the object was previously dirty-read (and is not
    yet in the read set), its observed sequence number is added to the
    read set first, per Sec. 3. Raises [Invalid_argument] if the payload
    exceeds the slot capacity. *)

val read_replicated : t -> off:int -> len:int -> string
(** Read a replicated object (from the [home] replica) and record it
    for commit-time validation. [len] is the full slot size. *)

val dirty_read_replicated : ?use_cache:bool -> t -> off:int -> len:int -> string
(** Read a replicated object without adding it to the read set. Every
    call goes to the cache or the home memnode, never to the
    transaction's own buffered writes. [~use_cache:false] always fetches from the home memnode (and does
    not populate the cache) — for decisions that must not act on stale
    cached metadata. *)

val write_replicated : t -> off:int -> len:int -> string -> unit
(** Buffer a write to a replicated object; commit will update all
    replicas atomically (engaging every memnode). *)

val validate_replicated : t -> off:int -> seq:int64 -> obj:Objref.t -> unit
(** Add a commit-time comparison asserting that the replicated object at
    [off] still has sequence number [seq], without fetching it. Used by
    the baseline mode of Aguilera et al.: internal-node sequence numbers
    are replicated at every memnode ({!write_linked}), so a traversal can
    validate cached internal nodes at whatever memnode the commit runs
    on. [obj] is the object [seq] numbers: a failed comparison evicts
    its cached copy. Re-asserting the same offset keeps the earliest
    expectation. *)

val write_linked : t -> Objref.t -> string -> repl_off:int -> unit
(** Like {!write}, additionally republishing the object's fresh
    commit-time sequence number to the replicated slot at [repl_off] on
    every memnode (the baseline's replicated sequence-number table).
    This makes the commit engage all memnodes. *)

val abort : t -> 'a
(** Mark the transaction aborted and raise {!Aborted}. *)

val evict_dirty : t -> unit
(** Invalidate every cache entry this transaction dirty-read, and any
    cached copy of a read-set entry observed empty. {!run} calls it
    after an {!Aborted} attempt, where stale cached data is detected. *)

(** {1 Commit} *)

type commit_result =
  | Committed
  | Validation_failed
      (** Some read-set entry was stale; the cached copies of the
          entries whose comparisons failed are evicted. *)
  | Retry_exhausted  (** Lock contention exceeded the retry budget. *)
  | Unavailable of { maybe_applied : bool }
      (** A participant was crashed or partitioned off; distinct from
          {!Retry_exhausted} so callers can back off for the (much
          longer) outage timescale. [maybe_applied] is false when the
          writes certainly did not take effect (always, under the
          drain-based crash model). *)

val commit : ?blocking:bool -> t -> commit_result
(** Execute the commit minitransaction. Read-only transactions whose
    read set was populated by at most one fetch commit without any
    further network round trip. [blocking] uses blocking
    minitransactions (Sec. 4.1), appropriate for updates to heavily
    contended replicated objects. *)

(** {1 The retry loop} *)

val run :
  ?cache:Objcache.t ->
  ?client:int ->
  ?home:int ->
  ?blocking:bool ->
  name:string ->
  Sinfonia.Cluster.t ->
  (t -> 'a) ->
  'a * int64 option
(** [run ~name cluster f] runs [f] in a fresh transaction ({!begin_}'s
    arguments) and commits it ({!commit}'s [blocking]), retrying until a
    commit lands. Returns [f]'s result and the commit stamp: the
    cluster-global stamp of the transaction's serialization point. For
    write (or validating read-only) commits this is the commit
    minitransaction's stamp; for free commits it is the stamp of the
    last fetch that validated the whole read set. It is [None] for
    transactions with no validated footprint (dirty-read-only snapshot
    transactions, which are checked against their snapshot id
    instead). Every
    transaction in the system commits through here, except the node
    allocator's chunk reservation.
    - {b Contention} (a validation failure, lock-busy, or an {!Aborted}
      read that is not an outage): retry; a non-blocking transaction
      first sleeps a jittered backoff of up to 120 µs, a blocking one
      retries at once (its locks were already waited for at the
      memnode). What the cache loses depends on the abort: after an
      {!Aborted} read (a failed safety check, decode or CRC error, or
      piggy-backed validation) {!evict_dirty}; after [Validation_failed]
      only what {!commit} proved stale; after [Retry_exhausted]
      nothing. Either commit result also drops cached copies of
      read-set entries observed empty.
    - {b Outage} ([Unavailable {maybe_applied = false}], or a read that
      aborted on a crashed or partitioned memnode): sleep a jittered
      backoff of up to 16 ms, keep the cache, retry.
    - {b Unknown outcome} ([Unavailable {maybe_applied = true}]): raise
      {!Ambiguous}; never retried.
    - {b Budget}: after 64 attempts raise
      [Too_contended "<name>: 64 attempts"].
    Any other exception from [f] ends the loop and propagates. One
    [txn] span covers the call and one [txn.attempt] span each
    attempt. Must run inside a simulation. *)

(** {1 Introspection (tests, reporting)} *)

val fetches : t -> int
(** Number of minitransaction fetches this transaction performed. *)
