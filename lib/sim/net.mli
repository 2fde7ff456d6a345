(** Network model: message delays for a data-center LAN, plus per-link
    fault injection for chaos testing.

    A message delay is [one_way + per_byte * size + Exp(jitter)], with
    [one_way] = 25 µs and [per_byte] = 1 ns (≈ 8 Gb/s effective). The
    model is deliberately simple — the experiments in the paper depend on
    round-trip counts and server-side service times far more than on
    wire-level detail.

    Faults are directional, keyed by [(src, dst)] host pairs, and only
    apply to transfers that declare their endpoints:

    - [drop]: each transmission is independently lost with this
      probability; the sender retransmits after a full RTO, so lossy
      links show up as latency spikes (bounded — see {!transfer}).
    - [extra_latency]: added verbatim to every delivery on the link.
    - [blocked]: a partition. Blocked links are reported by
      {!reachable} and enforced at protocol boundaries by the layers
      above (a coordinator refuses to start a minitransaction it cannot
      reach); an exchange already in flight still completes, which
      models Sinfonia's transaction-recovery protocol resolving
      in-doubt participants. *)

type t

val create : ?jitter:float -> ?rto:float -> rng:Rng.t -> unit -> t
(** Defaults: [jitter] mean = 5 µs, [rto] (retransmission timeout for
    dropped messages) = 1 ms. *)

val sample_one_way : t -> bytes:int -> float
(** Sample a one-way delay for a message of [bytes] bytes. *)

val transfer : ?src:int -> ?dst:int -> t -> bytes:int -> unit
(** Suspend the calling process for one sampled one-way delay. When both
    endpoints are given, the link's fault state applies: dropped
    transmissions each cost one RTO before the retransmit (at most 16
    retransmissions, then the message is assumed through), and
    [extra_latency] is added to the final delivery. Without endpoints
    the transfer is anonymous and never faulted. *)

(** {1 Fault injection} *)

val set_fault :
  t -> src:int -> dst:int -> ?drop:float -> ?extra_latency:float -> ?blocked:bool -> unit -> unit
(** Replace the fault state of the directional link [src -> dst].
    Omitted fields are benign; setting an all-benign fault clears the
    entry. Raises [Invalid_argument] if [drop] is outside [0, 1] or
    [extra_latency] is negative. *)

val clear_fault : t -> src:int -> dst:int -> unit

val clear_all_faults : t -> unit

val reachable : t -> src:int -> dst:int -> bool
(** False iff the link [src -> dst] is currently [blocked]. *)

val active_faults : t -> int
(** Number of links with a non-benign fault installed. *)

(** {1 Accounting} *)

val messages_sent : t -> int
(** Total number of transmissions (including dropped ones), for
    reporting. *)

val bytes_sent : t -> int

val drops : t -> int
(** Total transmissions lost to injected [drop] faults. *)
