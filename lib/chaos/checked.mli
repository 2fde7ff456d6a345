(** The checked-run protocol (DESIGN.md §10) shared by every run that
    verifies Minuet under faults: the chaos {!Runner} and the open-loop
    traffic engine. Callers keep their workload, preload, seeds and
    report, and call {!config}, {!start}, {!storm}, {!quiesce}, the
    audits and {!finish} in that order. *)

(** Read-only versions a branching workload discovered, newest first,
    bounded so old frozen versions stop receiving traffic and the final
    audit stays small. The simulation is cooperative, so plain mutation
    is safe. *)
module Registry : sig
  type t

  val create : capacity:int -> t

  val note : t -> int64 -> unit
  (** Record a frozen version. Already-known versions are ignored; past
      [capacity] the oldest is dropped. *)

  val frozen : t -> int64 list
  (** Newest first; at most [capacity] distinct versions. *)
end

val config : Minuet.Config.t -> Minuet.Config.t
(** [base] on small-tree nodes, with a 60 ms in-doubt grace (so the
    resolver fires within a storm phase) and infinite decision retention
    (so the final 2PC-atomicity cross-check sees every decision). *)

type t

val start : Minuet.Db.t -> n_clients:int -> t
(** Start orphaned-lock recovery (50 ms lease, 20 ms sweep), create the
    streaming checker and wire every index's snapshot creations into it.
    A positive [scs_min_interval] in the database's config relaxes the
    checker's SCS rule by exactly that staleness bound. [n_clients]
    sizes the nemesis's client-facing faults. *)

val feed : t -> Minuet.Session.Event.t -> unit
(** The tracer sessions attach with: one event into the checker. *)

val storm :
  ?after_phase:(unit -> unit) ->
  t ->
  rng:Sim.Rng.t ->
  Nemesis.kind list ->
  phases:int ->
  duration:float ->
  unit
(** Split [duration] into [phases] storms. Each one starts the nemesis,
    runs its share of the time, stops and drains it, recovers every
    memnode, waits past the lease and the in-doubt grace, then calls
    [after_phase]. *)

val quiesce : t -> unit
(** Recover every memnode, wait past the lease and the in-doubt grace,
    then poll (40 tries, 50 ms apart) until no transaction is in doubt.
    A nonzero residue fails {!finish}'s verdict. *)

val audit : t -> label:string -> (unit -> unit) -> unit
(** Run one structural audit. A [Failure], or an audit transaction
    that gives up ([Too_contended]) or ends with an unknown outcome
    ([Ambiguous]), is recorded as ["label: message"] and does not stop
    later audits. *)

val audit_snapshots : t -> unit
(** Audit every index at a fresh snapshot, labelled ["index i"]. Safe
    under concurrent traffic: snapshots are immutable and GC is off. *)

val audit_version : t -> index:int -> int64 -> unit
(** Audit one frozen version of a branching database. Raises [Failure]
    on a structural fault. *)

val audit_versions : t -> Registry.t -> unit
(** One audit per index, labelled ["index i"], covering every version
    in the registry. *)

type outcome = {
  verdict : Check.Stream.verdict;
  events : int;  (** History events fed to the checker. *)
  audits : int;  (** Audits that passed. *)
  audit_failures : string list;  (** In the order they ran. *)
  fault_counts : (string * int) list;  (** {!Nemesis.fault_counts}. *)
  sim_time : float;
}

val finish : t -> outcome
(** In linear mode audit every index at its tip and hand the entries to
    the checker as the final state (branching callers audit their
    frozen versions first). Then close the checker with the redo-log
    decision records and the in-doubt count. *)
