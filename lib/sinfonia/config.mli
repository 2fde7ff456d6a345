(** Cost model and cluster parameters for the simulated Sinfonia
    deployment.

    Defaults approximate the paper's testbed: memnodes pinned to two
    cores of a 2.67 GHz Xeon, a 10 GigE LAN, primary-backup replication
    with logging disabled. The absolute values matter less than their
    ratios; EXPERIMENTS.md records the calibration.

    Only the settings some caller varies live here. The rest of the
    cost model is constants next to their one reader: memnode cores and
    the backup's share of the apply cost in {!Cluster}, the blocking
    lock-wait bound and the retry cap and budget in {!Coordinator}, and
    the network latency terms in [Sim.Net]. [bin/minuet_bench] exposes
    the workload parameters, not this cost model. *)

type t = {
  heap_capacity : int;  (** Bytes of storage per memnode. *)
  replication : bool;  (** Synchronous primary-backup (paper: on). *)
  svc_msg : float;  (** Memnode CPU per message, seconds. *)
  svc_item : float;  (** Memnode CPU per minitransaction item. *)
  svc_per_kb : float;  (** Memnode CPU per KiB of payload. *)
  retry_backoff : float;  (** Initial retry backoff after Busy, seconds. *)
  in_doubt_grace : float;
      (** How long (simulated seconds) a prepared redo-log entry must be
          in doubt before the recovery coordinator resolves it. Must
          comfortably exceed a worst-case prepare-to-commit gap
          (blocking-lock waits plus lossy-link retransmits) so recovery
          rarely races a live coordinator; the force-abort handshake
          keeps the race safe regardless. *)
  decision_retention : float;
      (** How long commit/abort decision records are kept in each redo
          log for late-arriving participants (simulated seconds;
          [infinity] keeps them all — used by chaos runs, which dump
          them into the checker's 2PC-atomicity rule). *)
  broken_recovery : bool;
      (** Falsifiability hook: skip redo-log replay when promoting a
          replica or restoring a crashed primary, so committed writes
          can be silently lost. The history checker must catch this. *)
}

val default : t
