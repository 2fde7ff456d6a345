(** Minitransaction execution protocol (the proxy-side Sinfonia
    library).

    Single-memnode minitransactions commit in one phase (one round
    trip); multi-memnode minitransactions use two-phase commit, except
    batches of dirty reads ({!read_per_memnode}), which run one
    single-memnode minitransaction per memnode. A busy lock aborts the
    attempt and the coordinator retries transparently with randomized
    exponential backoff (Sec. 2.1). Blocking minitransactions instead
    wait at the memnode for locks, up to a 20 ms threshold (Sec. 4.1). *)

type mode =
  | Normal  (** Abort-and-retry on busy locks. *)
  | Blocking  (** Wait at memnodes for locks, bounded by the 20 ms threshold. *)

val exec : Cluster.t -> ?client:int -> ?mode:mode -> Mtx.t -> Mtx.outcome
(** Execute a minitransaction to completion. [Busy] is only returned
    if the retry budget (10 000 Busy retries) is exhausted — callers
    treat it as an abort. Must run inside a simulation.

    [client] is the calling host's id for the network fault model: when
    given, request/response transfers are attributed to the
    (client, memnode) links, so injected per-link faults (drops, delay,
    partitions) apply. A blocked link is detected before each exchange
    and surfaces as [Unavailable { partitioned = true; _ }]; exchanges
    already in flight complete (Sinfonia's recovery protocol resolves
    in-doubt participants). Without [client], traffic is anonymous and
    never faulted.

    Committed outcomes carry a commit stamp drawn while all participant
    locks were held (after the last prepare, before the first commit),
    so stamp order is serialization order for conflicting
    minitransactions. *)

val read_per_memnode : Cluster.t -> ?client:int -> Mtx.read_item list -> Mtx.outcome
(** Dirty batch read: each memnode's share of [reads] runs as its own
    single-memnode, one-phase minitransaction, all in parallel, and the
    results merge in the order of [reads]. Reads on one memnode stay
    mutually consistent; the batch as a whole is not atomic, so the
    caller must check what it reads by other means (the B-tree checks
    every dirty-read node by fences and versions, Sec. 4). Validated
    reads that must join a read set atomically go through {!exec},
    which keeps two-phase commit across memnodes. One memnode's reads
    are exactly {!exec} of them.

    [Committed]'s [stamp] is the latest part's stamp and orders nothing
    across memnodes; [epochs] covers every part. A part that cannot be
    reached makes the outcome [Unavailable] (partitioned if any part
    was), and a part whose retry budget ran out makes it [Busy]; either
    is returned only once every part has. *)
