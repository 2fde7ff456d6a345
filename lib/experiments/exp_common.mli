(** Shared infrastructure for reproducing the paper's experiments
    (Sec. 6): deployment builders, preloading, workload executors and
    result rows.

    Parameters are scaled down from the paper's testbed (100 M rows,
    60 s runs, 35 hosts) to laptop-size defaults; `bin/minuet_bench`
    exposes every knob. EXPERIMENTS.md records the mapping. *)

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
(** Load [records] hashed keys through all sessions in parallel. *)

val preload_cdb : Cdb.t -> records:int -> unit

(** {1 Executors} *)

val minuet_exec : deployment -> client:int -> Ycsb.Workload.op -> unit
(** Single-key ops against the session of the client's host; scans run
    against a fresh/borrowed SCS snapshot (Sec. 6.3). *)

val minuet_exec_tip_scan : deployment -> client:int -> Ycsb.Workload.op -> unit
(** Like {!minuet_exec} but scans run against the writable tip without
    a snapshot (they abort under updates — the paper's motivation for
    snapshot scans). *)

val cdb_exec : Cdb.t -> client:int -> Ycsb.Workload.op -> unit

val cdb_client_factor : int
(** The paper drives CDB with 8x more client threads than Minuet (512
    vs 64) to reach its peak throughput through its higher-latency
    synchronous client path. *)

val in_sim : ?seed:int -> (unit -> 'a) -> 'a
(** Run one experiment point in its own simulation and return its
    result. *)

val run_observed : ?dir:string -> name:string -> unit -> unit
(** Run a small mixed workload (reads, writes, snapshot scans,
    cross-index transactions, contended hot keys) against a fresh
    3-host deployment and write its observability report
    ({!Obs.Report.fields}, no gates) to [dir/BENCH_<name>.json]. *)

(** {1 Result rows} *)

type row = { label : (string * string) list; metrics : (string * float) list }

val row_value : row -> string -> float
(** Metric by name; raises [Not_found]. *)

val print_header : string -> string -> unit
(** [print_header "fig12" "Single-key scalability ..."] *)

val print_row : figure:string -> row -> unit
(** One aligned line: "fig12  hosts=5 system=minuet ... tput=12345". *)

val ms : float -> float
(** Seconds to milliseconds. *)
