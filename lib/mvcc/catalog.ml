module Ops = Btree.Ops
module Layout = Btree.Layout
module Txn = Dyntxn.Txn
module Objref = Dyntxn.Objref

type entry = {
  root : Objref.t;
  parent : int64;
  first_branch : int64;
  nbranches : int;
  deleted : bool;
}

let no_parent = -1L

let is_writable e = e.nbranches = 0 && not e.deleted

let encode_entry e =
  let enc = Codec.Enc.create ~initial_size:48 () in
  Objref.encode enc e.root;
  Codec.Enc.i64 enc e.parent;
  Codec.Enc.i64 enc e.first_branch;
  Codec.Enc.u8 enc e.nbranches;
  Codec.Enc.bool enc e.deleted;
  Codec.Enc.to_string enc

let decode_entry s =
  if String.length s = 0 then None
  else
    let d = Codec.Dec.of_string s in
    let root = Objref.decode d in
    let parent = Codec.Dec.i64 d in
    let first_branch = Codec.Dec.i64 d in
    let nbranches = Codec.Dec.u8 d in
    let deleted = Codec.Dec.bool d in
    Some { root; parent; first_branch; nbranches; deleted }

let entry_off tree sid =
  Layout.catalog_entry_off (Ops.layout tree) ~tree:(Ops.tree_id tree) ~sid

let entry_len = Layout.catalog_entry_len

let read tree txn ~sid =
  decode_entry (Txn.read_replicated txn ~off:(entry_off tree sid) ~len:entry_len)

let dirty_read ?use_cache tree txn ~sid =
  decode_entry (Txn.dirty_read_replicated ?use_cache txn ~off:(entry_off tree sid) ~len:entry_len)

let write tree txn ~sid entry =
  Txn.write_replicated txn ~off:(entry_off tree sid) ~len:entry_len (encode_entry entry)

let counter_off tree = Layout.global_sid_off (Ops.layout tree) ~tree:(Ops.tree_id tree)

let read_counter tree txn =
  Layout.decode_i64 (Txn.read_replicated txn ~off:(counter_off tree) ~len:Layout.slot_len_small)

let write_counter tree txn v =
  Txn.write_replicated txn ~off:(counter_off tree) ~len:Layout.slot_len_small (Layout.encode_i64 v)
