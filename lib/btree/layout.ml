type t = {
  node_size : int;
  max_slots : int;
  max_trees : int;
  max_snapshots : int;
  max_memnodes : int;
}

let slot_len_small = 64

let catalog_entry_len = 128

let seq_entry_len = 16

let make ?(node_size = 4096) ?(max_slots = 8192) ?(max_trees = 32) ?(max_snapshots = 4096)
    ?(max_memnodes = 64) () =
  if node_size < 128 then invalid_arg "Layout.make: node_size too small";
  (* The slotted node format addresses its entries with u16 offsets. *)
  if node_size > 65536 then invalid_arg "Layout.make: node_size above 64 KiB";
  if max_slots <= 0 || max_trees <= 0 || max_snapshots <= 0 || max_memnodes <= 0 then
    invalid_arg "Layout.make: sizes must be positive";
  { node_size; max_slots; max_trees; max_snapshots; max_memnodes }

(* Region boundaries. Each tree descriptor needs two small slots plus a
   GC watermark slot. *)
let trees_end t = t.max_trees * 3 * slot_len_small

let global_sid_region t = trees_end t

let misc_end t = global_sid_region t + (t.max_trees * slot_len_small)

let catalog_base t = misc_end t

let catalog_end t = catalog_base t + (t.max_trees * t.max_snapshots * catalog_entry_len)

let seqtable_base t = catalog_end t

(* One entry per (memnode, slot): the table at every memnode covers the
   aggregate capacity of the system, which is precisely the space
   overhead the dirty-traversal mode eliminates (Sec. 3). *)
let seqtable_end t = seqtable_base t + (t.max_memnodes * t.max_slots * seq_entry_len)

let alloc_ptr_off t = seqtable_end t

let slot_base t =
  let b = alloc_ptr_off t + slot_len_small in
  (* Round up to the node size for tidy offsets. *)
  (b + t.node_size - 1) / t.node_size * t.node_size

let heap_capacity_needed t = slot_base t + (t.max_slots * t.node_size)

let check_tree t tree =
  if tree < 0 || tree >= t.max_trees then invalid_arg "Layout: tree id out of range"

let tip_id_off t ~tree =
  check_tree t tree;
  tree * 3 * slot_len_small

let tip_root_off t ~tree =
  check_tree t tree;
  (tree * 3 * slot_len_small) + slot_len_small

let lowest_sid_off t ~tree =
  check_tree t tree;
  (tree * 3 * slot_len_small) + (2 * slot_len_small)

let global_sid_off t ~tree =
  check_tree t tree;
  global_sid_region t + (tree * slot_len_small)

let catalog_entry_off t ~tree ~sid =
  check_tree t tree;
  let sid = Int64.to_int sid in
  if sid < 0 || sid >= t.max_snapshots then
    invalid_arg "Layout.catalog_entry_off: snapshot id beyond catalog capacity";
  catalog_base t + (((tree * t.max_snapshots) + sid) * catalog_entry_len)

let slot_off t ~index =
  if index < 0 || index >= t.max_slots then invalid_arg "Layout.slot_off: index out of range";
  slot_base t + (index * t.node_size)

let slot_index t ~off =
  let base = slot_base t in
  if off < base || (off - base) mod t.node_size <> 0 then
    invalid_arg "Layout.slot_index: not a slot offset";
  let index = (off - base) / t.node_size in
  if index >= t.max_slots then invalid_arg "Layout.slot_index: index out of range";
  index

let is_slot_off t ~off =
  let base = slot_base t in
  off >= base
  && (off - base) mod t.node_size = 0
  && (off - base) / t.node_size < t.max_slots

let seq_entry_off t addr =
  let node = addr.Sinfonia.Address.node in
  if node < 0 || node >= t.max_memnodes then
    invalid_arg "Layout.seq_entry_off: memnode beyond max_memnodes";
  let index = slot_index t ~off:addr.Sinfonia.Address.off in
  seqtable_base t + (((node * t.max_slots) + index) * seq_entry_len)

let node_ref t ~node ~index =
  Dyntxn.Objref.make ~addr:(Sinfonia.Address.make ~node ~off:(slot_off t ~index)) ~len:t.node_size
