(** B-tree node representation and pure (in-memory) node operations.

    Every node carries:
    - its height (0 = leaf);
    - two fence keys bounding the key range it is responsible for;
    - [snap_created], the snapshot id at which this physical node version
      was created (by a split, a copy-on-write, or snapshot creation);
    - [descendants], the snapshot ids to which the node has been copied:
      at most one element with linear snapshots (Sec. 4.2), at most β
      with branching versions (Sec. 5.2).

    All operations here are pure; distributed reads/writes live in
    {!Ops}. *)

type body =
  | Leaf of (Bkey.t * string) array  (** Sorted key/value pairs. *)
  | Internal of { keys : Bkey.t array; children : Dyntxn.Objref.t array }
      (** [children] has length [Array.length keys + 1]; child [i] is
          responsible for keys in [\[keys.(i-1), keys.(i))] (with the
          node's own fences at the ends). *)

type t = {
  height : int;
  low : Bkey.fence;
  high : Bkey.fence;
  snap_created : int64;
  descendants : int64 array;
  body : body;
}

val is_leaf : t -> bool

val nkeys : t -> int

val make_leaf :
  low:Bkey.fence ->
  high:Bkey.fence ->
  snap:int64 ->
  (Bkey.t * string) array ->
  t

val make_internal :
  height:int ->
  low:Bkey.fence ->
  high:Bkey.fence ->
  snap:int64 ->
  keys:Bkey.t array ->
  children:Dyntxn.Objref.t array ->
  t

val empty_root : snap:int64 -> t
(** A leaf root spanning the whole key space. *)

(** {1 Leaf operations} *)

val leaf_find : t -> Bkey.t -> string option

val leaf_insert : t -> Bkey.t -> string -> t
(** Insert or replace. *)

val leaf_remove : t -> Bkey.t -> t option
(** [None] when the key was absent. *)

val leaf_entries : t -> (Bkey.t * string) array

val leaf_entries_from : t -> Bkey.t -> int
(** Index of the first entry with key [>=] the argument ([nkeys] when
    none). Pairs with {!leaf_entries} to iterate a suffix of the leaf
    without building an intermediate list. *)

(** {1 Internal-node operations} *)

val child_for : t -> Bkey.t -> int * Dyntxn.Objref.t
(** Index and pointer of the child responsible for the key. *)

val child_at : t -> int -> Dyntxn.Objref.t

val child_fences : t -> int -> Bkey.fence * Bkey.fence
(** Key range that child [i] is responsible for. *)

val replace_child : t -> int -> Dyntxn.Objref.t -> t

val insert_sep : t -> at:int -> sep:Bkey.t -> right:Dyntxn.Objref.t -> t
(** After child [at] split, record separator [sep] and the new right
    sibling: child [at] keeps the left half. *)

(** {1 Copy-on-write metadata} *)

val with_snap : t -> int64 -> t
(** Fresh copy created at the given snapshot, with an empty descendant
    set. *)

val add_descendant : t -> int64 -> t

val with_descendants : t -> int64 array -> t

(** {1 Split} *)

val needs_split : t -> max_keys:int -> bool

val split : t -> t * Bkey.t * t
(** [split n] = (left, separator, right). The separator equals
    [right.low]. Raises [Invalid_argument] on nodes with fewer than two
    keys (leaf) or two children (internal). *)

(** {1 Serialization}

    The wire format is the slotted layout ({!Bview}) framed with a
    CRC-32 trailer. Traversals and scans read payloads in place through
    {!Bview}; the write path verifies the CRC ({!Bview.verify_crc}),
    then splices a leaf's bytes in place ({!Bview.leaf_splice}) or, for
    splits, copy-on-write and internal nodes, materialises the node
    through {!of_view}. *)

val encode : t -> string

val encode_into : Codec.Enc.t -> t -> unit
(** Append the node's content to a (reusable) encoder; frame the result
    with {!Codec.Enc.to_string_with_checksum}. Raises
    [Invalid_argument] on a node too large for any slot
    ({!Bview.encode_into}). *)

val decode : string -> t
(** Parse and CRC-verify a payload. Raises {!Codec.Decode_error} on
    corruption. *)

val of_view : Bview.t -> t

(** {1 Validation (tests)} *)

val check : t -> (unit, string) result
(** Structural invariants: sorted keys, keys within fences, child count,
    consistent height. *)

val pp : Format.formatter -> t -> unit
