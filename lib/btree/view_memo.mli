(** Host-side memo of parsed node views, shared by every tree handle of
    one database.

    It keeps only the newest parsed {!Bview.t} per node pointer. A
    slot's sequence number is drawn from a cluster-wide counter, so it
    only grows, and a fetch always returns the slot's current one; an
    older [(ptr, seq)] entry could therefore never hit again. Purely a
    wall-clock optimization of the simulator: no simulated cost depends
    on it. *)

type t

val create : unit -> t

val find : t -> Dyntxn.Objref.t -> seq:int64 -> Bview.t option
(** The view of version [seq] of the node at the pointer, if that is
    the version held. *)

val add : t -> Dyntxn.Objref.t -> seq:int64 -> Bview.t -> unit
(** Remember a freshly parsed view. It replaces the held version only
    when [seq] is newer; a view of an older version is dropped. When
    the memo holds 16384 pointers, a new pointer first empties it. *)

val length : t -> int
(** Node pointers held: at most one entry each. *)

val misses : t -> int
(** Lookups that found no view of the requested version since
    creation (each one parsed a payload). *)
