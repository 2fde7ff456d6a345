(** History events: one per traced operation, for the streaming
    consistency checker ([Check.Stream]).

    Sessions emit them for single-index operations, and
    {!Branching} for branch-aware ones: version creation/deletion and
    branch-scoped reads and writes carry the version id they resolved
    to. Each event carries the simulated invocation/response times and
    the operation's serialization point — its commit stamp (up-to-date
    operations) or snapshot id (snapshot reads). [Minuet.Session.Event]
    is this module. *)

type operation =
  | Get of { key : string; result : string option }
  | Put of { key : string; value : string }
  | Remove of { key : string; removed : bool }
  | Scan of { from : string; count : int; result : (string * string) list }
  | Snapshot_taken
  | Branch_created of { parent : int64; sid : int64 }
      (** A writable clone [sid] was created from version [parent]
          (branching mode; Sec. 5.1). *)
  | Branch_deleted of { sid : int64 }
  | Branch_get of { at : int64; key : string; result : string option }
      (** Branch-scoped read; [at] is the version the operation
          resolved to (the requested read-only version, or the
          mainline tip reached from the requested version). *)
  | Branch_put of { at : int64; key : string; value : string }
  | Branch_remove of { at : int64; key : string; removed : bool }
  | Branch_scan of { at : int64; from : string; count : int; result : (string * string) list }
  | Get_many of { key : string; results : (int64 * string option) list }
      (** Horizontal multi-version query: one key across versions,
          read atomically. *)
  | History of { from : int64; key : string; results : (int64 * string option) list }
      (** Vertical multi-version query: one key at [from] and each
          ancestor, root-first, read atomically. *)

type t = {
  client : int option;  (** The emitting handle's client host id. *)
  index : int;  (** B-tree index operated on. *)
  op : operation;
  invoked_at : float;  (** Simulated time the operation started. *)
  returned_at : float;  (** Simulated time it returned. *)
  stamp : int64 option;
      (** Cluster-global commit stamp of the operation's serialization
          point; [None] for snapshot reads (serialized by [sid]) and
          for ambiguous operations. *)
  sid : int64 option;
      (** Snapshot the operation ran against ([Snapshot_taken]: the
          snapshot granted). [None] for up-to-date operations. *)
  ambiguous : bool;
      (** The operation raised {!Btree.Ops.Ambiguous}: its effect is
          unknown (event emitted just before re-raising). *)
}

val pp : Format.formatter -> t -> unit

val to_json : t -> Obs.Json.t
(** One JSON object per event, for dumped histories (debugging):
    int64s as decimal strings (JSON numbers are doubles), [None] as
    [null]. *)

(** {1 Emitting} *)

val emit :
  (t -> unit) option ->
  Btree.Ops.tree ->
  invoked:float ->
  ?stamp:int64 ->
  ?sid:int64 ->
  ?ambiguous:bool ->
  operation ->
  unit
(** Hand the tracer (if any) the event of an operation on [tree] that
    started at [invoked] and returns now: [client] and [index] come
    from the tree handle, [ambiguous] defaults to false. *)

val traced : (t -> unit) option -> Btree.Ops.tree -> (unit -> 'a) -> ('a -> operation) -> 'a
(** [traced tracer tree f op] runs [f] and emits [op] of its result,
    stamped with the handle's {!Btree.Ops.last_commit_stamp}. *)

val traced_write :
  (t -> unit) option -> Btree.Ops.tree -> unknown:'a -> (unit -> 'a) -> ('a -> operation) -> 'a
(** {!traced} for a write: when [f] raises {!Btree.Ops.Ambiguous}, the
    write may or may not have taken effect, so [op unknown] is emitted
    as ambiguous (unstamped) for the checker to resolve from later
    reads, and the exception is re-raised. *)
