(** Per-address-space redo log (Sinfonia's participant log, Sec. 2.1 of
    the paper).

    Phase one appends [(tid, vote, write-set)] when a participant votes
    yes; phase two records the decision, applies and (once the replica
    image has the writes) truncates. The log models stable storage
    shared by a space's primary store and its replica store — it
    survives crashes of either host, so a restarted memnode comes back
    with in-doubt entries instead of a wiped lock table, and replica
    promotion replays the log forward instead of trusting the replica
    image to be current.

    Decision records double as Sinfonia's recovery "block" mark: once a
    tid is decided [Aborted] here, a late prepare for it must be
    refused ({!refused}), which is what makes the recovery
    coordinator's forced aborts race-free against a slow live
    coordinator. *)

type decision = Committed of int64  (** carries the commit stamp *) | Aborted

type entry = private {
  e_tid : int64;
  e_participants : int list;  (** every memnode space in the transaction *)
  e_writes : Mtx.write_item list;  (** this space's writes only *)
  e_logged_at : float;
  mutable e_stamp : int64;
  mutable e_state : [ `Prepared | `Committed ];
  mutable e_mirrored : bool;
  mutable e_reported : bool;
}

type t

val create : ?retention:float -> unit -> t
(** [retention] bounds how long decision records are kept (default 5
    simulated seconds; [infinity] keeps all). A tid decided more than
    once is kept until [retention] after its latest decision. Tids and
    commit stamps must lie in [\[0, max_int\]] (both count up from 1);
    deciding one outside raises [Invalid_argument]. *)

val append : t -> tid:int64 -> participants:int list -> writes:Mtx.write_item list -> unit
(** Log a yes vote: called by phase-one prepare once locks are held and
    compares passed, before the vote is acknowledged. Idempotent per
    tid. *)

val voted : t -> tid:int64 -> bool
(** True iff a vote entry for [tid] exists (prepared or committed). *)

val entry : t -> tid:int64 -> entry option

val decision : t -> tid:int64 -> decision option

val refused : t -> tid:int64 -> bool
(** True iff [tid] was decided [Aborted] — a prepare arriving now must
    vote no. *)

val decide_commit : t -> tid:int64 -> stamp:int64 -> [ `Apply | `Skip ]
(** Record the commit decision. [`Apply]: the caller must apply the
    writes (normal path). [`Skip]: the transaction was already committed
    here (the recovery coordinator got there first) — the writes are in
    place and must not be re-applied over later commits. *)

val decide_abort : t -> tid:int64 -> unit
(** Record the abort decision and drop the vote entry. On a tid with no
    entry this is recovery's forced no-vote: the decision record makes
    {!refused} true for any prepare still in flight. A conflicting
    earlier commit decision is preserved and reported by
    {!decisions}. *)

val mark_mirrored : t -> tid:int64 -> unit
(** Note that a committed entry's writes are reflected in the replica
    image (or that there is no replica to lag), enabling truncation. *)

val apply_mirror : t -> tid:int64 -> heap:Heap.t -> unit
(** Normal mirror path: apply the committed entry's writes to the
    replica [heap], repair stamp order if a higher-stamped mirror
    landed first, mark mirrored and truncate. No-op if the entry is
    gone (already flushed by recovery). *)

val replay : ?min_age:float -> t -> heap:Heap.t -> int
(** Roll [heap] (a replica image, or a restored primary) forward to the
    log's committed tail, in stamp order; returns the number of
    un-mirrored commits recovered. With [min_age], only flush when
    every un-mirrored commit is at least that old (younger ones may
    still have a mirror in flight). *)

val in_doubt : ?min_age:float -> t -> entry list
(** Prepared entries — voted yes, decision unknown — oldest first,
    optionally at least [min_age] old. *)

val in_doubt_count : t -> int

val note_reported : entry -> bool
(** True the first time it is called on an entry (used to count each
    in-doubt transaction once in [recovery.in_doubt]). *)

val write_ranges : entry -> Lock_table.range list
(** Exclusive lock ranges covering the entry's writes, for re-locking
    in-doubt transactions after a crash or promotion. *)

val decisions : t -> (int64 * [ `Committed | `Aborted ]) list
(** Every retained decision, sorted; a tid with contradictory decisions
    contributes both records (the checker's atomicity rule flags it). *)

val fold_decisions :
  t -> init:'a -> (int64 -> [ `Committed | `Aborted ] -> 'a -> 'a) -> 'a
(** [List.fold_right] over {!decisions} without building it: the last
    record is folded first, so consing rebuilds the sorted order. *)

val entry_count : t -> int
