(** Byte-range lock table for one memnode.

    Minitransaction phase one acquires, all-or-nothing, the ranges
    touched by the transaction at this memnode. An acquisition that
    would conflict either fails immediately (ordinary minitransactions,
    which are then retried by the coordinator) or waits until the locks
    are released or a timeout expires (blocking minitransactions,
    Sec. 4.1 of the paper).

    Owners are opaque 64-bit transaction ids. Ranges owned by the same
    owner never conflict with each other. *)

type t

type mode = Shared | Exclusive
(** Compares and reads take shared locks; writes take exclusive locks
    (two minitransactions may validate the same object concurrently,
    but a write conflicts with everything else). *)

type range = { start : int; len : int; mode : mode }
(** Byte range [\[start, start+len)]. [len] must be positive. *)

val create : unit -> t

val try_acquire : t -> owner:int64 -> range list -> bool
(** Acquire all ranges or none. Returns [false] if any range overlaps a
    range held by a different owner. *)

val acquire_blocking : t -> owner:int64 -> range list -> timeout:float -> bool
(** Like {!try_acquire} but waits (in simulated time) for conflicting
    locks to drain, up to [timeout] seconds. Must be called from inside a
    simulation. Returns [false] on timeout (nothing is held then). *)

val release : t -> owner:int64 -> unit
(** Release every range held by [owner] and wake blocked acquirers.
    No-op for unknown owners. *)

val holds : t -> owner:int64 -> bool

val held_ranges : t -> int
(** Number of currently-held ranges (for tests and reporting). *)

val owners_older_than : t -> float -> int64 list
(** Owners holding at least one lock acquired before the given
    simulated time (candidates for crash recovery). Must be called
    inside a simulation (acquisition times are simulated time). *)
