module Cluster = Sinfonia.Cluster
module Layout = Btree.Layout
module Ops = Btree.Ops
module Node_alloc = Btree.Node_alloc

type t = {
  config : Config.t;
  cluster : Cluster.t;
  shared_alloc : Node_alloc.Shared.t;
  view_memo : Btree.View_memo.t;
  scs : Mvcc.Scs.t array;
  gc_trees : (Ops.tree * Node_alloc.t) array;
  mutable gc_running : bool;
}

(* Build a tree handle with its own allocator over the shared state. *)
let make_tree_handle ?client ~config ~cluster ~shared_alloc ~view_memo ~cache ~home ~tree_id () =
  let alloc =
    Node_alloc.create ~chunk:config.Config.alloc_chunk ~first_node:home ~cluster
      ~layout:config.Config.layout ~shared:shared_alloc ()
  in
  Ops.make_tree ~mode:config.Config.mode ?max_keys_leaf:config.Config.max_keys_leaf
    ?max_keys_internal:config.Config.max_keys_internal ~home ?client
    ~unsafe_dirty_leaf_reads:config.Config.unsafe_dirty_leaf_reads ~view_memo ~cluster
    ~layout:config.Config.layout ~tree_id ~alloc ~cache ()

let start ?(config = Config.default) () =
  Config.validate config;
  (* The memnode heap must fit the layout. *)
  let heap_needed = Layout.heap_capacity_needed config.Config.layout in
  let sinfonia =
    if config.Config.sinfonia.Sinfonia.Config.heap_capacity < heap_needed then
      { config.Config.sinfonia with Sinfonia.Config.heap_capacity = heap_needed }
    else config.Config.sinfonia
  in
  let config = { config with Config.sinfonia } in
  (* Derive the cluster's random streams from the simulation seed so a
     whole run is a pure function of Harness.run's ~seed. *)
  let seed = Sim.Rng.int (Sim.rng ()) 0x3FFFFFFF in
  let cluster = Cluster.create ~config:sinfonia ~seed ~n:config.Config.hosts () in
  let shared_alloc = Node_alloc.Shared.create ~n_memnodes:config.Config.hosts in
  (* One parsed-view memo for every handle: sessions reading the same
     node version parse it once. *)
  let view_memo = Btree.View_memo.create () in
  (* Admin handles used for initialization and the SCS. *)
  let admin_cache =
    Dyntxn.Objcache.create ~capacity:config.Config.cache_capacity (Cluster.obs cluster)
  in
  let gc_trees =
    Array.init config.Config.n_trees (fun tree_id ->
        let tree =
          make_tree_handle ~config ~cluster ~shared_alloc ~view_memo ~cache:admin_cache ~home:0
            ~tree_id ()
        in
        (* The GC handle reuses the tree's allocator so reclaimed slots
           return to the shared free lists. *)
        let alloc =
          Node_alloc.create ~chunk:config.Config.alloc_chunk ~cluster
            ~layout:config.Config.layout ~shared:shared_alloc ()
        in
        (tree, alloc))
  in
  let scs =
    Array.map
      (fun (tree, _) ->
        if config.Config.branching then begin
          let br = Mvcc.Branching.attach ~tree ~beta:config.Config.beta () in
          Mvcc.Branching.init_tree br
        end
        else Ops.Linear.init_tree tree;
        Mvcc.Scs.create ~borrowing:config.Config.scs_borrowing
          ~min_interval:config.Config.scs_min_interval ~tree ())
      gc_trees
  in
  { config; cluster; shared_alloc; view_memo; scs; gc_trees; gc_running = false }

let config t = t.config

let cluster t = t.cluster

let shared_alloc t = t.shared_alloc

let view_memo t = t.view_memo

let scs t ~index = t.scs.(index)

let obs t = Cluster.obs t.cluster

let n_trees t = t.config.Config.n_trees

let pp_stats fmt t =
  Format.fprintf fmt "@[<v>cluster: %d memnodes (replication %b)@," t.config.Config.hosts
    t.config.Config.sinfonia.Sinfonia.Config.replication;
  for i = 0 to Cluster.n_memnodes t.cluster - 1 do
    let mn = Cluster.memnode t.cluster i in
    let heap = Sinfonia.Memnode.store_heap (Sinfonia.Memnode.primary mn) in
    Format.fprintf fmt "  memnode %2d: util=%4.1f%% resident=%d KiB (address space %d KiB)%s@," i
      (100.0 *. Sim.Resource.utilization (Sinfonia.Memnode.cpu mn) ~since:0.0)
      (Sinfonia.Heap.resident heap / 1024)
      (Sinfonia.Heap.high_water heap / 1024)
      (if Sinfonia.Memnode.crashed mn then " (CRASHED)" else "")
  done;
  Format.fprintf fmt "metrics:@,";
  List.iter
    (fun (name, v) -> Format.fprintf fmt "  %-40s %d@," name v)
    (Obs.counters (Cluster.obs t.cluster));
  Format.fprintf fmt "%a" Obs.Report.pp (Cluster.obs t.cluster);
  Format.fprintf fmt "@]"

let enable_gc ?(interval = 5.0) ~keep t =
  if t.config.Config.branching then invalid_arg "Db.enable_gc: linear-snapshot mode only";
  if keep < 0 then invalid_arg "Db.enable_gc: negative keep";
  if not t.gc_running then begin
    t.gc_running <- true;
    Array.iter
      (fun (tree, alloc) ->
        Sim.spawn ~name:"gc-policy" (fun () ->
            let rec loop () =
              Sim.delay interval;
              (* A round whose transactions give up is skipped: the
                 watermark update is idempotent, and the next round
                 sweeps again. *)
              (match
                 Mvcc.Gc.keep_recent tree ~n:keep;
                 Mvcc.Gc.sweep tree ~alloc
               with
              | (_ : int) -> ()
              | exception (Ops.Too_contended _ | Ops.Ambiguous _) -> ());
              loop ()
            in
            loop ()))
      t.gc_trees
  end

let check_host t fn i =
  let n = Cluster.n_memnodes t.cluster in
  if i < 0 || i >= n then invalid_arg (Printf.sprintf "Db.%s: no host %d (hosts are 0..%d)" fn i (n - 1))

(* The crash lands mid-2PC: its in-doubt transactions hold their write
   locks until resolved, so a resolver runs until none is left. *)
let crash_host t i =
  check_host t "crash_host" i;
  Cluster.crash t.cluster i;
  Cluster.settle_in_doubt t.cluster

let recover_host t i =
  check_host t "recover_host" i;
  Cluster.try_recover t.cluster i
