(** Shared infrastructure for reproducing the paper's experiments
    (Sec. 6): deployment builders, the parallel loader, workload
    executors, the closed-loop point every figure measures, and the
    result rows with their printer.

    Parameters are scaled down from the paper's testbed (100 M rows,
    60 s runs, 35 hosts) to laptop-size defaults; `bin/minuet_bench`
    exposes these workload parameters (not the cost model).
    EXPERIMENTS.md records the mapping. *)

type params = {
  hosts : int list;  (** Cluster sizes to sweep. *)
  records : int;  (** Preloaded key count (paper: 100 M). *)
  duration : float;  (** Measured seconds per point (paper: 60). *)
  warmup : float;
  clients_per_host : int;  (** Closed-loop client threads per host. *)
  scan_count : int;  (** Keys per scan (paper: 1 M). *)
  seed : int;
}

val fast : params
(** Finishes the full suite in minutes. *)

val full : params
(** Closer to the paper's operating point (minutes per figure). *)

(** {1 Deployments} *)

type deployment = {
  db : Minuet.Db.t;
  sessions : Minuet.Session.t array;  (** One proxy session per host. *)
  proxies : Sim.Resource.t array;
      (** Proxy CPU (three cores per host, Fig. 9), charged per
          operation by the executors. *)
}

val experiment_sinfonia : Sinfonia.Config.t
(** Cost model used by all experiments (calibrated so per-host rates
    land in the paper's regime; see EXPERIMENTS.md). *)

val deploy :
  ?mode:Btree.Ops.mode ->
  ?n_trees:int ->
  ?k:float ->
  ?borrowing:bool ->
  ?replication:bool ->
  ?cache_capacity:int ->
  ?alloc_chunk:int ->
  ?retry_backoff:float ->
  hosts:int ->
  unit ->
  deployment
(** Start a Minuet deployment (inside a simulation) sized for the
    experiments: 1 KiB nodes, snapshot staleness bound [k] (seconds),
    SCS borrowing on/off. *)

val preload : deployment -> records:int -> unit
(** Load [records] hashed keys through all sessions in parallel, one
    loading client per host. *)

val preload_cdb : Cdb.t -> records:int -> unit
(** The same parallel loader against CDB (its own value stream). *)

(** {1 Executors} *)

val minuet_exec : deployment -> client:int -> Ycsb.Workload.op -> unit
(** Single-key ops against the session of the client's host; scans run
    against a fresh/borrowed SCS snapshot (Sec. 6.3). *)

val cdb_exec : Cdb.t -> client:int -> Ycsb.Workload.op -> unit

val cdb_client_factor : int
(** The paper drives CDB with 8x more client threads than Minuet (512
    vs 64) to reach its peak throughput through its higher-latency
    synchronous client path. *)

val in_sim : ?seed:int -> (unit -> 'a) -> 'a
(** Run one experiment point in its own simulation and return its
    result. *)

val closed_loop :
  params ->
  clients:int ->
  workload_of:(int -> Ycsb.Workload.t) ->
  exec:(client:int -> Ycsb.Workload.op -> unit) ->
  Ycsb.Driver.result
(** One closed-loop point: {!Ycsb.Driver.run} seeded with
    [params.seed], measuring [params.duration] seconds after
    [params.warmup]. Runs inside {!in_sim}. *)

val run_observed : ?dir:string -> name:string -> unit -> unit
(** Run a small mixed workload (reads, writes, snapshot scans,
    cross-index transactions, contended hot keys) against a fresh
    3-host deployment and write its observability report
    ({!Obs.Report.fields}, no gates) to [dir/BENCH_<name>.json]. *)

(** {1 Result rows} *)

type row = { label : (string * string) list; metrics : (string * float) list }

val row_value : row -> string -> float
(** Metric by name; raises [Not_found]. *)

val run_figure : params -> string * string * (params -> row list) -> row list
(** [run_figure params (name, title, compute)] prints the figure's
    header ("=== fig12: Single-key scalability ... ==="), computes its
    rows and prints each as one aligned line
    ("fig12  hosts=5 system=minuet ... | tput=12345"). *)

val ms : float -> float
(** Seconds to milliseconds. *)
