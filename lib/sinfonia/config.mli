(** Cost model and cluster parameters for the simulated Sinfonia
    deployment.

    Defaults approximate the paper's testbed: memnodes pinned to two
    cores of a 2.67 GHz Xeon, a 10 GigE LAN, primary-backup replication
    with logging disabled. The absolute values matter less than their
    ratios; EXPERIMENTS.md records the calibration. *)

type t = {
  memnode_cores : int;  (** CPU servers per memnode (paper: 2). *)
  heap_capacity : int;  (** Bytes of storage per memnode. *)
  replication : bool;  (** Synchronous primary-backup (paper: on). *)
  net_one_way : float;  (** Base one-way message latency, seconds. *)
  net_per_byte : float;
  net_jitter : float;  (** Mean of the exponential jitter term. *)
  svc_msg : float;  (** Memnode CPU per message, seconds. *)
  svc_item : float;  (** Memnode CPU per minitransaction item. *)
  svc_per_kb : float;  (** Memnode CPU per KiB of payload. *)
  backup_factor : float;
      (** Fraction of the primary's apply cost charged to the backup. *)
  blocking_timeout : float;
      (** Lock wait bound for blocking minitransactions, seconds. *)
  retry_backoff : float;  (** Initial retry backoff after Busy, seconds. *)
  retry_backoff_max : float;
  max_retries : int;  (** Busy retries before giving up (safety valve). *)
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

val pp : Format.formatter -> t -> unit
