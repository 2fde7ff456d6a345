(** Deterministic discrete-event simulator with lightweight cooperative
    processes implemented with OCaml effect handlers.

    A simulation is started with {!run}. Inside it, code may call the
    process operations ({!delay}, {!spawn}, {!suspend}, ...) freely. Only
    the two that block the calling process, {!delay} and {!suspend}, are
    effects handled by the scheduler; the rest act on the running
    scheduler directly. The entire run is a deterministic function of the
    seed and of the program itself.

    Simulated time is a [float] in seconds. *)

type time = float

(** {1 Running} *)

val run : ?seed:int -> ?until:time -> (unit -> unit) -> unit
(** [run main] executes [main] as the initial process and then processes
    events until the queue drains or simulated time exceeds [until].
    Raises [Invalid_argument] when called from inside a running
    simulation (simulations do not nest). *)

val inside : unit -> bool
(** [inside ()] is [true] when called from code running under {!run}. *)

(** {1 Process operations}

    All of these must be called from inside a simulation. *)

val now : unit -> time
(** Current simulated time. Raises [Invalid_argument] outside {!run}. *)

val delay : time -> unit
(** Suspend the calling process for the given amount of simulated time.
    Negative durations are treated as zero. *)

val yield : unit -> unit
(** Reschedule the calling process at the current time, letting other
    ready processes run first. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** Start a new process at the current time. It inherits the caller's
    {!trace_context}. An exception escaping the process aborts the whole
    simulation (it propagates out of {!run}). *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the calling process and calls
    [register wake]. Some other process (or event) may later call
    [wake v] exactly once, which reschedules the blocked process at the
    then-current time with result [v]. Extra calls to [wake] are
    ignored.

    [register] runs at once, at the suspending process's time and with
    its trace context, but outside any process. It may {!spawn} (a
    timeout, say), read {!now} and call [wake], but it must not block:
    a {!delay} or {!suspend} inside it aborts the simulation with
    [Effect.Unhandled], which propagates out of {!run}. *)

val rng : unit -> Rng.t
(** The simulation's root random stream. Derive independent component
    streams with {!Rng.split}. *)

val trace_context : unit -> int
(** The calling process's trace context: an opaque span id owned by the
    tracing layer ([minuet.obs]); [0] means no active span. The context
    follows each process across {!delay}/{!suspend} and is inherited by
    {!spawn}ed children, so spans parent correctly even across process
    boundaries. Application code should not touch this directly. *)

val set_trace_context : int -> unit
(** Set the calling process's trace context (tracing layer only). *)

val stop : unit -> unit
(** Stop the simulation: no further events are processed after the
    current one returns. *)

(** {1 Blocking primitives} *)

(** Unbounded FIFO mailbox. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  (** Blocks until a message is available. Waiters are served FIFO. *)

  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

(** Single-assignment result cell, for fork/join patterns. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t
  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** Blocks until filled. *)

  val is_filled : 'a t -> bool
end

(** Counting semaphore with FIFO waiters. *)
module Semaphore : sig
  type t

  val create : int -> t
  val with_acquired : t -> (unit -> 'a) -> 'a
  (** [with_acquired t f] runs [f] holding one unit of [t], waiting
      (FIFO) while none is free, and gives the unit back however [f]
      ends. *)
end
