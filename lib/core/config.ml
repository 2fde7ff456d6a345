type t = {
  hosts : int;
  sinfonia : Sinfonia.Config.t;
  layout : Btree.Layout.t;
  mode : Btree.Ops.mode;
  n_trees : int;
  branching : bool;
  beta : int;
  max_keys_leaf : int option;
  max_keys_internal : int option;
  scs_borrowing : bool;
  scs_min_interval : float;
  cache_capacity : int;
  alloc_chunk : int;
  scan_batch : int;
  unsafe_dirty_leaf_reads : bool;
  broken_branch_isolation : bool;
}

let default =
  {
    hosts = 4;
    sinfonia = Sinfonia.Config.default;
    layout = Btree.Layout.make ();
    mode = Btree.Ops.Dirty_traversal;
    n_trees = 1;
    branching = false;
    beta = 2;
    max_keys_leaf = None;
    max_keys_internal = None;
    scs_borrowing = true;
    scs_min_interval = 0.0;
    cache_capacity = 65536;
    alloc_chunk = 64;
    scan_batch = 16;
    unsafe_dirty_leaf_reads = false;
    broken_branch_isolation = false;
  }

let small_tree t =
  {
    t with
    layout = Btree.Layout.make ~node_size:512 ~max_slots:8192 ~max_trees:4 ~max_snapshots:512 ();
    max_keys_leaf = Some 4;
    max_keys_internal = Some 4;
  }

let validate t =
  if t.hosts <= 0 then invalid_arg "Minuet.Config: hosts must be positive";
  (* The seqnum table is only used (and sized per memnode) in the
     baseline mode. *)
  if t.mode = Btree.Ops.Validated_traversal && t.hosts > t.layout.Btree.Layout.max_memnodes then
    invalid_arg "Minuet.Config: hosts exceeds layout.max_memnodes";
  if t.n_trees <= 0 || t.n_trees > t.layout.Btree.Layout.max_trees then
    invalid_arg "Minuet.Config: n_trees out of range";
  if t.branching && t.beta < 2 then invalid_arg "Minuet.Config: beta must be >= 2";
  if t.scs_min_interval < 0.0 then invalid_arg "Minuet.Config: negative staleness bound";
  if t.scan_batch < 1 then invalid_arg "Minuet.Config: scan_batch must be >= 1"
