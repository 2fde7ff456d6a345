(** Measurement utilities: counters, log-bucketed latency histograms,
    and fixed-width time series. *)

(** Monotonic event counter. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** Log-bucketed histogram for positive samples (latencies in seconds).
    Relative bucket error is about 2%; values outside
    [\[1e-9, 1e6\]] are clamped. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0. when empty. *)

  val min : t -> float
  val max : t -> float
  val quantile : t -> float -> float
  (** [quantile t q] for q in [\[0,1\]]; 0. when empty. Returns the
      upper edge of the bucket containing the q-th sample. *)

  val p999 : t -> float
  (** [p999 t] = [quantile t 0.999] — the tail-latency quantile SLO
      gates are written against. The geometric buckets (ratio 1.04)
      resolve it to within ~4% relative error at any magnitude. *)

  val merge_into : dst:t -> t -> unit
  val reset : t -> unit
end

(** Counts bucketed by fixed-width windows of simulated time, e.g.
    per-second throughput time series. *)
module Series : sig
  type t

  val create : width:float -> t
  (** [width] is the bucket width in seconds; must be positive. *)

  val add : t -> time:float -> int -> unit
  val buckets : t -> (float * int) array
  (** [(bucket_start_time, count)] for every bucket from time 0 to the
      last nonempty one, including empty buckets in between. *)
end
