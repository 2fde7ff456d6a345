(** FCFS k-server resource, used to model CPU capacity of simulated
    servers (memnodes, proxies, partitions).

    A resource has [servers] identical servers. {!use} occupies one
    server for a service time, queueing FIFO when all are busy. The
    integral of busy servers over time is tracked so utilization can be
    reported. *)

type t

val create : ?name:string -> servers:int -> unit -> t
(** [servers] must be positive. [name] labels the call site only; it is
    not stored. *)

val servers : t -> int

val acquire : t -> unit
(** Block until a server is free, then occupy it. *)

val release : t -> unit
(** Release an occupied server. *)

val use : t -> service_time:float -> unit
(** [use t ~service_time] = acquire, hold for [service_time] simulated
    seconds, release. *)

val busy : t -> int
(** Number of currently-occupied servers. *)

val queue_length : t -> int
(** Number of processes waiting for a server. *)

val utilization : t -> since:float -> float
(** Average fraction of servers busy between [since] and now,
    in [\[0, 1\]]. Returns [0.] for an empty interval. *)

val busy_time : t -> float
(** Integral of (busy servers) dt since creation, in server-seconds. *)
