(** Per-proxy object cache.

    The cache is deliberately {e incoherent}: it is never invalidated by
    remote writes (Sec. 2.3). Stale entries are detected later by OCC
    validation or by the fence-key / copied-to safety checks of dirty
    traversals, which then evict them. LRU eviction bounds memory.

    {b Crash epochs.} Every entry is tagged with the crash epoch of its
    object's address space at insertion time ({!observe_epoch} keeps the
    per-space view current from minitransaction replies). After a
    memnode crash/promotion bumps a space's epoch, that space's older
    entries turn {!Stale}: lookups report them distinctly and callers
    lazily revalidate them (re-fetch; the piggy-backed sequence number
    tells whether the entry survived) instead of flushing the cache
    wholesale — a crash costs amortized misses, not an invalidation
    storm. *)

type t

type entry = { seq : int64; payload : string }

(** Lookup result: [Fresh] entries are usable as before; [Stale] entries
    predate a crash of their address space and must be revalidated
    before use (their [seq] is the comparison point). *)
type status = Fresh of entry | Stale of entry | Miss

val create : ?capacity:int -> Obs.t -> t
(** [capacity] is the maximum number of cached objects (default 65536).
    Every hit, miss, eviction and revalidation is counted in the typed
    {!Obs.cache_stats} of the given [Obs.t] (and therefore in
    [Obs.Report.fields]); the cache keeps no counters of its own. *)

val find : t -> Objref.t -> entry option
(** Refreshes LRU position on hit. Stale-epoch entries count as misses
    here; use {!find_status} to revalidate them instead. *)

val find_status : t -> Objref.t -> status
(** Like {!find} but distinguishing stale-epoch entries from true
    misses. *)

val mem : t -> Objref.t -> bool
(** [mem t r] is [find t r <> None], but counts nothing and leaves the
    LRU order alone. *)

val insert : t -> Objref.t -> entry -> unit
(** Insert or overwrite (tagging with the space's current epoch); may
    evict the least-recently-used entry. *)

val invalidate : t -> Objref.t -> unit

val observe_epoch : t -> space:int -> epoch:int -> unit
(** Record that address space [space] is at crash epoch [epoch] (from a
    minitransaction reply). Monotonic: older observations are ignored. *)

val note_revalidation : t -> old:entry -> seq:int64 -> unit
(** Account one lazy revalidation of a stale-epoch entry [old] against
    the re-fetched [seq]. The entry survived when the sequence number is
    unchanged: promotion and replay apply whole slots, sequence number
    included, so no slot is renumbered. Purely accounting: the caller
    stores the fresh payload either way. *)

val clear : t -> unit
(** Drop everything (a bulk eviction — production code paths avoid
    this; the counter proves it). *)

val size : t -> int
