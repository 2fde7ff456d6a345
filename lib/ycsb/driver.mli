(** Closed-loop benchmark driver: a set of client processes issue
    operations back-to-back (like YCSB client threads), with a warmup
    period excluded from measurement.

    Offered load is controlled by the number of clients, as in the
    paper's latency/throughput experiments. *)

type result = {
  measured_seconds : float;
  ops : int;  (** Completed operations inside the measurement window. *)
  failures : int;  (** Operations whose executor raised. *)
  throughput : float;  (** ops / measured_seconds. *)
  latency_by_kind : (string * Sim.Stats.Hist.t) list;
      (** Completion latency histograms keyed by operation kind. *)
  series : (float * int) array;
      (** Per-second completed-op counts over the whole run (including
          warmup), for time-series plots. *)
}

val overall_latency : result -> Sim.Stats.Hist.t
(** All kinds merged. *)

val kind_latency : result -> string -> Sim.Stats.Hist.t
(** The latency histogram of one operation kind ("read", "update",
    "insert", "scan"); empty when no such operation completed. *)

val run :
  ?warmup:float ->
  ?seed:int ->
  clients:int ->
  duration:float ->
  workload_of:(int -> Workload.t) ->
  exec:(client:int -> Workload.op -> unit) ->
  unit ->
  result
(** [run ~clients ~duration ~workload_of ~exec ()] spawns [clients]
    processes; client [i] draws operations from [workload_of i] and
    executes them via [exec] until [duration] simulated seconds have
    passed (measurement starts after [warmup], default 0). Blocks until
    every client stops. Must run inside a simulation.

    [exec] exceptions are counted as failures (the client keeps going). *)

