(* Tests for the distributed multiversion B-tree: layout, allocation,
   operations, copy-on-write snapshots, concurrency, and both
   concurrency-control modes. *)

let check = Alcotest.check

open Btree
module Objref = Dyntxn.Objref
module Txn = Dyntxn.Txn
module Objcache = Dyntxn.Objcache
module Cluster = Sinfonia.Cluster

let key i = Printf.sprintf "k%06d" i

let value i = Printf.sprintf "v%d" i

let small_layout = Layout.make ~node_size:512 ~max_slots:4096 ~max_trees:4 ~max_snapshots:256 ()

type env = {
  cluster : Cluster.t;
  layout : Layout.t;
  shared : Node_alloc.Shared.t;
  cache : Objcache.t;
}

let make_env ?(n = 3) () =
  let layout = small_layout in
  let config =
    { Sinfonia.Config.default with heap_capacity = Layout.heap_capacity_needed layout }
  in
  let cluster = Cluster.create ~config ~n () in
  let shared = Node_alloc.Shared.create ~n_memnodes:n in
  { cluster; layout; shared; cache = Objcache.create (Obs.create ()) }

let make_tree ?(mode = Ops.Dirty_traversal) ?(max_keys = 4) ?(tree_id = 0) ?cache ?view_memo env =
  let alloc = Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared () in
  Ops.make_tree ~mode ~max_keys_leaf:max_keys ~max_keys_internal:max_keys ?view_memo
    ~cluster:env.cluster ~layout:env.layout ~tree_id ~alloc
    ~cache:(Option.value cache ~default:env.cache)
    ()

let with_tree ?n ?mode ?max_keys f =
  Sim.run (fun () ->
      let env = make_env ?n () in
      let tree = make_tree ?mode ?max_keys env in
      Ops.Linear.init_tree tree;
      f env tree)

let tip tree txn = Ops.Linear.tip tree txn

let get tree k = Ops.get tree ~vctx_of:(tip tree) k

let put tree k v = Ops.put tree ~vctx_of:(tip tree) k v

let remove tree k = Ops.remove tree ~vctx_of:(tip tree) k

let scan tree ~from ~count = Ops.scan tree ~vctx_of:(tip tree) ~from ~count

(* Read the current tip (sid, root) with a throwaway transaction. *)
let read_tip tree =
  let txn = Txn.begin_ (Ops.cluster tree) in
  let r = Ops.Linear.read_tip tree txn in
  (match Txn.commit txn with _ -> ());
  r

let audit_tip tree =
  let sid, root = read_tip tree in
  Ops.audit tree ~sid ~root

(* ------------------------------------------------------------------ *)
(* Layout                                                               *)
(* ------------------------------------------------------------------ *)

let test_layout_regions_disjoint () =
  let l = small_layout in
  (* Metadata offsets are all below the slot region. *)
  let offs =
    [
      Layout.tip_id_off l ~tree:0;
      Layout.tip_root_off l ~tree:0;
      Layout.lowest_sid_off l ~tree:0;
      Layout.tip_id_off l ~tree:3;
      Layout.global_sid_off l ~tree:0;
      Layout.global_sid_off l ~tree:3;
      Layout.catalog_entry_off l ~tree:0 ~sid:0L;
      Layout.catalog_entry_off l ~tree:3 ~sid:255L;
      Layout.alloc_ptr_off l;
    ]
  in
  let sorted = List.sort_uniq Int.compare offs in
  check Alcotest.int "all distinct" (List.length offs) (List.length sorted);
  List.iter
    (fun off -> check Alcotest.bool "below slots" true (off < Layout.slot_base l))
    offs;
  check Alcotest.bool "heap fits" true
    (Layout.heap_capacity_needed l > Layout.slot_off l ~index:(l.Layout.max_slots - 1))

let test_layout_slot_mapping () =
  let l = small_layout in
  for i = 0 to 10 do
    let off = Layout.slot_off l ~index:i in
    check Alcotest.int "roundtrip" i (Layout.slot_index l ~off);
    check Alcotest.bool "is_slot" true (Layout.is_slot_off l ~off);
    check Alcotest.bool "not slot" false (Layout.is_slot_off l ~off:(off + 1))
  done;
  (match Layout.slot_off l ~index:l.Layout.max_slots with
  | (_ : int) -> Alcotest.fail "out of range accepted"
  | exception Invalid_argument _ -> ());
  (* Sequence-table entries are distinct per slot and below slot_base. *)
  let e0 = Layout.seq_entry_off l (Sinfonia.Address.make ~node:0 ~off:(Layout.slot_off l ~index:0)) in
  let e1 = Layout.seq_entry_off l (Sinfonia.Address.make ~node:0 ~off:(Layout.slot_off l ~index:1)) in
  check Alcotest.bool "distinct entries" true (e0 <> e1);
  check Alcotest.bool "entry below slots" true (e0 < Layout.slot_base l && e1 < Layout.slot_base l)

(* ------------------------------------------------------------------ *)
(* Allocator                                                            *)
(* ------------------------------------------------------------------ *)

let test_alloc_unique_and_round_robin () =
  Sim.run (fun () ->
      let env = make_env ~n:3 () in
      let alloc = Node_alloc.create ~chunk:4 ~cluster:env.cluster ~layout:env.layout ~shared:env.shared () in
      let refs = List.init 30 (fun _ -> Node_alloc.alloc alloc) in
      let uniq = List.sort_uniq Objref.compare refs in
      check Alcotest.int "all distinct" 30 (List.length uniq);
      let per_node = Array.make 3 0 in
      List.iter (fun r -> per_node.(Objref.node r) <- per_node.(Objref.node r) + 1) refs;
      Array.iter (fun c -> check Alcotest.int "balanced" 10 c) per_node)

let test_alloc_two_proxies_disjoint () =
  Sim.run (fun () ->
      let env = make_env ~n:2 () in
      let a1 = Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared () in
      let a2 = Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared () in
      let r1 = List.init 50 (fun _ -> Node_alloc.alloc a1) in
      let r2 = List.init 50 (fun _ -> Node_alloc.alloc a2) in
      let all = List.sort_uniq Objref.compare (r1 @ r2) in
      check Alcotest.int "no overlap between proxies" 100 (List.length all))

let test_alloc_free_reuse () =
  Sim.run (fun () ->
      let env = make_env ~n:1 () in
      let alloc = Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared () in
      let r = Node_alloc.alloc alloc in
      Node_alloc.free alloc r;
      check Alcotest.int "free list" 1 (Node_alloc.Shared.free_count env.shared ~node:0))

let test_alloc_exhaustion () =
  Sim.run (fun () ->
      let layout = Layout.make ~node_size:512 ~max_slots:4 ~max_trees:4 ~max_snapshots:16 () in
      let config =
        { Sinfonia.Config.default with heap_capacity = Layout.heap_capacity_needed layout }
      in
      let cluster = Cluster.create ~config ~n:1 () in
      let shared = Node_alloc.Shared.create ~n_memnodes:1 in
      let alloc = Node_alloc.create ~chunk:2 ~cluster ~layout ~shared () in
      for _ = 1 to 4 do
        ignore (Node_alloc.alloc alloc)
      done;
      match Node_alloc.alloc alloc with
      | (_ : Objref.t) -> Alcotest.fail "expected exhaustion"
      | exception Node_alloc.Out_of_slots 0 -> ())

(* ------------------------------------------------------------------ *)
(* Basic operations                                                     *)
(* ------------------------------------------------------------------ *)

let test_empty_tree () =
  with_tree (fun _env tree ->
      check (Alcotest.option Alcotest.string) "miss" None (get tree (key 1));
      check Alcotest.bool "remove miss" false (remove tree (key 1));
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "empty scan" [] (scan tree ~from:"" ~count:10);
      check Alcotest.int "audit empty" 0 (List.length (audit_tip tree)))

let test_put_get_single () =
  with_tree (fun _env tree ->
      put tree (key 1) "hello";
      check (Alcotest.option Alcotest.string) "hit" (Some "hello") (get tree (key 1));
      check (Alcotest.option Alcotest.string) "miss" None (get tree (key 2)))

let test_put_overwrite () =
  with_tree (fun _env tree ->
      put tree (key 1) "first";
      put tree (key 1) "second";
      check (Alcotest.option Alcotest.string) "overwritten" (Some "second") (get tree (key 1));
      check Alcotest.int "one entry" 1 (List.length (audit_tip tree)))

let test_tip_put_off_home_one_phase () =
  (* The tip pointers are replicated objects: a put whose leaf lives
     off the home memnode validates its cached tip read at the leaf's
     memnode, so the leaf read and the commit each stay one-phase. *)
  Sim.run (fun () ->
      let env = make_env () in
      let tree = make_tree env in
      Ops.Linear.init_tree tree;
      let _, root = read_tip tree in
      (* A handle on the same tree whose home is not the root leaf's
         memnode. *)
      let home = (Objref.node root + 1) mod Cluster.n_memnodes env.cluster in
      let alloc = Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared () in
      let cache_obs = Obs.create () in
      let tree =
        Ops.make_tree ~home ~max_keys_leaf:4 ~max_keys_internal:4 ~cluster:env.cluster
          ~layout:env.layout ~tree_id:0 ~alloc ~cache:(Objcache.create cache_obs) ()
      in
      put tree (key 1) "warm";
      let mtx = Obs.mtx (Cluster.obs env.cluster) in
      let ones = Obs.Counter.value mtx.Obs.committed_1pc in
      let twos = Obs.Counter.value mtx.Obs.committed_2pc in
      let hits () = Obs.Counter.value (Obs.cache cache_obs).Obs.cache_hits in
      let hits0 = hits () in
      put tree (key 2) "off-home";
      check Alcotest.bool "tip id and root pointer from the cache" true (hits () >= hits0 + 2);
      check Alcotest.int "no 2PC" twos (Obs.Counter.value mtx.Obs.committed_2pc);
      check Alcotest.int "leaf read and commit one-phase" (ones + 2)
        (Obs.Counter.value mtx.Obs.committed_1pc);
      check (Alcotest.option Alcotest.string) "committed" (Some "off-home") (get tree (key 2)))

(* ------------------------------------------------------------------ *)
(* Parsed-view memo                                                     *)
(* ------------------------------------------------------------------ *)

let test_memo_one_entry_per_node () =
  with_tree (fun _env tree ->
      for i = 1 to 40 do
        put tree (key i) (value i)
      done;
      ignore (scan tree ~from:(key 0) ~count:100 : (string * string) list);
      let memo = Ops.view_memo tree in
      let nodes = View_memo.length memo in
      (* Updates in place neither split nor copy: every new version
         replaces its node's entry instead of piling up beside it. *)
      for round = 1 to 50 do
        let v = Printf.sprintf "r%03d" round in
        put tree (key 7) v;
        check (Alcotest.option Alcotest.string) "new version read" (Some v) (get tree (key 7))
      done;
      check Alcotest.int "at most one entry per node pointer" nodes (View_memo.length memo))

let test_memo_skips_buffered_write () =
  with_tree (fun _env tree ->
      for i = 1 to 10 do
        put tree (key i) (value i)
      done;
      check (Alcotest.option Alcotest.string) "committed value" (Some (value 3)) (get tree (key 3));
      let memo = Ops.view_memo tree in
      let entries = View_memo.length memo and misses = View_memo.misses memo in
      (* Read back an uncommitted write: the leaf comes from the
         transaction's own buffer while its sequence number still names
         the committed version. *)
      let txn = Txn.begin_ (Ops.cluster tree) in
      let vctx = tip tree txn in
      Ops.put_in_txn tree txn vctx (key 3) "uncommitted";
      check (Alcotest.option Alcotest.string) "own write visible" (Some "uncommitted")
        (Ops.get_in_txn tree txn vctx (key 3));
      check Alcotest.int "no entry added" entries (View_memo.length memo);
      check Alcotest.int "buffered leaf bypassed the memo" misses (View_memo.misses memo);
      (* The transaction never commits: a memoised buffered view would
         now answer for the committed version. *)
      check (Alcotest.option Alcotest.string) "committed value still read" (Some (value 3))
        (get tree (key 3)))

let test_memo_shared_across_handles () =
  Sim.run (fun () ->
      let env = make_env () in
      let a = make_tree env in
      Ops.Linear.init_tree a;
      for i = 1 to 30 do
        put a (key i) (value i)
      done;
      check (Alcotest.option Alcotest.string) "first handle" (Some (value 17)) (get a (key 17));
      let memo = Ops.view_memo a in
      let misses = View_memo.misses memo in
      (* A second proxy with a cold cache of its own, sharing the memo:
         it fetches the same node versions and parses none of them. *)
      let b = make_tree ~cache:(Objcache.create (Obs.create ())) ~view_memo:memo env in
      check (Alcotest.option Alcotest.string) "second handle" (Some (value 17)) (get b (key 17));
      check Alcotest.int "parsed once" misses (View_memo.misses memo);
      (* Without the shared memo the second proxy parses its own. *)
      let c = make_tree ~cache:(Objcache.create (Obs.create ())) env in
      check (Alcotest.option Alcotest.string) "private memo" (Some (value 17)) (get c (key 17));
      check Alcotest.bool "private memo parses" true (View_memo.misses (Ops.view_memo c) > 0))

(* A leaf rewrite trusts only bytes that pass the CRC: with one payload
   byte flipped in the memnode heap, a put on the leaf aborts and
   buffers no write. The flipped byte sits inside a value, so the view
   still parses and only the checksum can catch it. *)
let test_put_on_corrupt_leaf_aborts () =
  with_tree (fun env tree ->
      put tree (key 1) (value 1);
      put tree (key 2) "MARKER";
      let _, root = read_tip tree in
      let heap =
        Sinfonia.Memnode.store_heap
          (Sinfonia.Memnode.primary (Cluster.memnode env.cluster (Objref.node root)))
      in
      let off = root.Objref.addr.Sinfonia.Address.off in
      let slot = Sinfonia.Heap.read heap ~off ~len:root.Objref.len in
      let rec find i = if String.sub slot i 6 = "MARKER" then i else find (i + 1) in
      let at = off + find 0 in
      Sinfonia.Heap.write heap ~off:at "N";
      let corrupt = Sinfonia.Heap.read heap ~off ~len:root.Objref.len in
      (* A fresh handle: its view memo holds no parse of the old bytes. *)
      let fresh = make_tree ~cache:(Objcache.create (Obs.create ())) env in
      let txn = Txn.begin_ (Ops.cluster fresh) in
      (match Ops.put_in_txn fresh txn (tip fresh txn) (key 3) (value 3) with
      | () -> Alcotest.fail "put on a corrupt leaf went through"
      | exception Txn.Aborted _ -> ());
      check Alcotest.bool "no write buffered" false (Txn.in_write_set txn root);
      check Alcotest.bool "heap untouched" true
        (String.equal corrupt (Sinfonia.Heap.read heap ~off ~len:root.Objref.len)))

let test_many_inserts_with_splits () =
  with_tree ~max_keys:4 (fun _env tree ->
      let n = 300 in
      for i = 1 to n do
        put tree (key i) (value i)
      done;
      (* Every key is retrievable. *)
      for i = 1 to n do
        check (Alcotest.option Alcotest.string) (key i) (Some (value i)) (get tree (key i))
      done;
      (* Structure is a valid B-tree holding exactly the model. *)
      let entries = audit_tip tree in
      check Alcotest.int "entry count" n (List.length entries);
      check Alcotest.bool "splits happened" true
        (Obs.Counter.value (Obs.btree (Cluster.obs (Ops.cluster tree))).Obs.splits > 0);
      check Alcotest.bool "root split happened" true
        (Obs.Counter.value (Obs.btree (Cluster.obs (Ops.cluster tree))).Obs.root_splits > 0))

let test_random_order_inserts () =
  with_tree ~max_keys:4 (fun _env tree ->
      let rng = Sim.Rng.create 7 in
      let keys = Array.init 200 key in
      Sim.Rng.shuffle rng keys;
      Array.iter (fun k -> put tree k ("=" ^ k)) keys;
      let entries = audit_tip tree in
      check Alcotest.int "count" 200 (List.length entries);
      List.iter (fun (k, v) -> check Alcotest.string "value" ("=" ^ k) v) entries)

let test_remove () =
  with_tree ~max_keys:4 (fun _env tree ->
      for i = 1 to 50 do
        put tree (key i) (value i)
      done;
      for i = 1 to 50 do
        if i mod 2 = 0 then check Alcotest.bool "removed" true (remove tree (key i))
      done;
      check Alcotest.bool "already removed" false (remove tree (key 2));
      for i = 1 to 50 do
        let expected = if i mod 2 = 0 then None else Some (value i) in
        check (Alcotest.option Alcotest.string) (key i) expected (get tree (key i))
      done;
      check Alcotest.int "audit count" 25 (List.length (audit_tip tree)))

let test_scan_ranges () =
  with_tree ~max_keys:4 (fun _env tree ->
      for i = 0 to 99 do
        put tree (key i) (value i)
      done;
      (* Scan spanning many leaves. *)
      let r = scan tree ~from:(key 10) ~count:25 in
      check Alcotest.int "count" 25 (List.length r);
      List.iteri
        (fun j (k, v) ->
          check Alcotest.string "key order" (key (10 + j)) k;
          check Alcotest.string "value" (value (10 + j)) v)
        r;
      (* Scan from a key that is absent starts at the successor. *)
      let r = scan tree ~from:(key 10 ^ "x") ~count:3 in
      check (Alcotest.list Alcotest.string) "successor start"
        [ key 11; key 12; key 13 ]
        (List.map fst r);
      (* Scan beyond the end is truncated. *)
      let r = scan tree ~from:(key 95) ~count:100 in
      check Alcotest.int "truncated" 5 (List.length r);
      (* Scan of the whole tree. *)
      let r = scan tree ~from:"" ~count:1000 in
      check Alcotest.int "full" 100 (List.length r))

(* ------------------------------------------------------------------ *)
(* Model-based randomized test                                          *)
(* ------------------------------------------------------------------ *)

let test_model_random_ops () =
  with_tree ~max_keys:4 (fun _env tree ->
      let module M = Map.Make (String) in
      let rng = Sim.Rng.create 99 in
      let model = ref M.empty in
      for step = 1 to 600 do
        let k = key (Sim.Rng.int rng 80) in
        match Sim.Rng.int rng 4 with
        | 0 | 1 ->
            let v = Printf.sprintf "s%d" step in
            put tree k v;
            model := M.add k v !model
        | 2 ->
            let removed = remove tree k in
            check Alcotest.bool "remove agrees" (M.mem k !model) removed;
            model := M.remove k !model
        | _ ->
            check
              (Alcotest.option Alcotest.string)
              "get agrees" (M.find_opt k !model) (get tree k)
      done;
      let entries = audit_tip tree in
      check Alcotest.bool "final state matches model" true (M.bindings !model = entries))

let test_scan_matches_model_random () =
  (* Random scans against a sorted-map model after random inserts. *)
  with_tree ~max_keys:4 (fun _env tree ->
      let module M = Map.Make (String) in
      let rng = Sim.Rng.create 31 in
      let model = ref M.empty in
      for i = 0 to 149 do
        let k = key (Sim.Rng.int rng 400) in
        let v = string_of_int i in
        put tree k v;
        model := M.add k v !model
      done;
      for _ = 1 to 40 do
        let from = key (Sim.Rng.int rng 450) in
        let count = 1 + Sim.Rng.int rng 30 in
        let got = scan tree ~from ~count in
        let expected =
          M.bindings !model
          |> List.filter (fun (k, _) -> Bkey.compare k from >= 0)
          |> List.filteri (fun i _ -> i < count)
        in
        if got <> expected then Alcotest.fail "scan diverged from model"
      done)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let create_snapshot tree =
  let txn = Txn.begin_ (Ops.cluster tree) in
  let sid, root = Ops.Linear.create_snapshot tree txn in
  match Txn.commit ~blocking:true txn with
  | Txn.Committed -> (sid, root)
  | _ -> Alcotest.fail "snapshot creation failed"

let test_snapshot_isolation () =
  with_tree ~max_keys:4 (fun _env tree ->
      for i = 0 to 29 do
        put tree (key i) "old"
      done;
      let sid, root = create_snapshot tree in
      (* Mutate the tip: updates, inserts and removes. *)
      for i = 0 to 29 do
        if i mod 3 = 0 then put tree (key i) "new"
        else if i mod 3 = 1 then ignore (remove tree (key i))
      done;
      for i = 100 to 120 do
        put tree (key i) "new"
      done;
      (* The snapshot still shows the old state... *)
      let snap_vctx txn = Ops.Linear.at_snapshot tree ~sid ~root |> fun v -> ignore txn; v in
      for i = 0 to 29 do
        check (Alcotest.option Alcotest.string) "snapshot value" (Some "old")
          (Ops.get tree ~vctx_of:snap_vctx (key i))
      done;
      check (Alcotest.option Alcotest.string) "no new key in snapshot" None
        (Ops.get tree ~vctx_of:snap_vctx (key 100));
      (* ...and audits cleanly with exactly the old contents. *)
      let snap_entries = Ops.audit tree ~sid ~root in
      check Alcotest.int "snapshot count" 30 (List.length snap_entries);
      List.iter (fun (_, v) -> check Alcotest.string "old value" "old" v) snap_entries;
      (* The tip reflects all mutations. *)
      check (Alcotest.option Alcotest.string) "tip updated" (Some "new") (get tree (key 0));
      check (Alcotest.option Alcotest.string) "tip removed" None (get tree (key 1));
      check (Alcotest.option Alcotest.string) "tip inserted" (Some "new") (get tree (key 100));
      check Alcotest.bool "copies happened" true
        (Obs.Counter.value (Obs.btree (Cluster.obs (Ops.cluster tree))).Obs.cow > 0))

let test_snapshot_scan_stable () =
  with_tree ~max_keys:4 (fun _env tree ->
      for i = 0 to 49 do
        put tree (key i) "s0"
      done;
      let sid, root = create_snapshot tree in
      for i = 0 to 49 do
        put tree (key i) "s1"
      done;
      let snap_vctx _txn = Ops.Linear.at_snapshot tree ~sid ~root in
      let r = Ops.scan tree ~vctx_of:snap_vctx ~from:"" ~count:100 in
      check Alcotest.int "snapshot scan count" 50 (List.length r);
      List.iter (fun (_, v) -> check Alcotest.string "stable" "s0" v) r)

let test_multiple_snapshots_chain () =
  with_tree ~max_keys:4 (fun _env tree ->
      let snaps = ref [] in
      for round = 0 to 4 do
        for i = 0 to 19 do
          put tree (key i) (Printf.sprintf "round%d" round)
        done;
        snaps := create_snapshot tree :: !snaps
      done;
      (* Each snapshot sees exactly its round's values. *)
      List.iteri
        (fun rev_idx (sid, root) ->
          let round = 4 - rev_idx in
          let entries = Ops.audit tree ~sid ~root in
          check Alcotest.int "count" 20 (List.length entries);
          List.iter
            (fun (_, v) -> check Alcotest.string "round value" (Printf.sprintf "round%d" round) v)
            entries)
        !snaps)

let test_snapshot_ids_monotonic () =
  with_tree (fun _env tree ->
      put tree (key 1) "x";
      let s1, _ = create_snapshot tree in
      let s2, _ = create_snapshot tree in
      let s3, _ = create_snapshot tree in
      check Alcotest.bool "monotonic" true (Int64.compare s1 s2 < 0 && Int64.compare s2 s3 < 0))

(* ------------------------------------------------------------------ *)
(* Concurrency                                                          *)
(* ------------------------------------------------------------------ *)

let test_concurrent_disjoint_inserts () =
  with_tree ~n:4 ~max_keys:4 (fun env tree0 ->
      (* Several proxies, each with its own cache and allocator, insert
         disjoint key ranges concurrently. *)
      let proxies =
        List.init 4 (fun p -> (p, make_tree env ~cache:(Objcache.create (Obs.create ())) ~max_keys:4))
      in
      ignore tree0;
      let done_count = ref 0 in
      List.iter
        (fun (p, tree) ->
          Sim.spawn (fun () ->
              for i = 0 to 49 do
                put tree (key ((p * 1000) + i)) (Printf.sprintf "p%d" p)
              done;
              incr done_count))
        proxies;
      Sim.delay 3600.0;
      check Alcotest.int "all proxies finished" 4 !done_count;
      let entries = audit_tip tree0 in
      check Alcotest.int "all inserted" 200 (List.length entries))

let test_concurrent_same_key_updates () =
  with_tree ~n:2 ~max_keys:4 (fun env tree0 ->
      put tree0 (key 0) "init";
      let proxies = List.init 3 (fun p -> (p, make_tree env ~cache:(Objcache.create (Obs.create ())))) in
      let done_count = ref 0 in
      List.iter
        (fun (p, tree) ->
          Sim.spawn (fun () ->
              for i = 1 to 20 do
                put tree (key 0) (Printf.sprintf "p%d-%d" p i)
              done;
              incr done_count))
        proxies;
      Sim.delay 3600.0;
      check Alcotest.int "all finished" 3 !done_count;
      (* The final value is the last committed write of some proxy. *)
      match get tree0 (key 0) with
      | Some v -> check Alcotest.bool "suffix -20" true (String.length v > 3 && String.sub v (String.length v - 3) 3 = "-20")
      | None -> Alcotest.fail "key vanished")

let test_concurrent_updates_with_snapshot () =
  with_tree ~n:3 ~max_keys:4 (fun env tree0 ->
      for i = 0 to 39 do
        put tree0 (key i) "base"
      done;
      let writer = make_tree env ~cache:(Objcache.create (Obs.create ())) in
      let snapshot = ref None in
      let writes_done = ref false in
      Sim.spawn (fun () ->
          for i = 0 to 39 do
            put writer (key i) "changed"
          done;
          writes_done := true);
      Sim.spawn (fun () ->
          Sim.delay 0.001;
          snapshot := Some (create_snapshot tree0));
      Sim.delay 3600.0;
      check Alcotest.bool "writes done" true !writes_done;
      match !snapshot with
      | None -> Alcotest.fail "snapshot not created"
      | Some (sid, root) ->
          (* The snapshot is a consistent prefix: every value is either
             base or changed, and the set of keys is intact. *)
          let entries = Ops.audit tree0 ~sid ~root in
          check Alcotest.int "snapshot intact" 40 (List.length entries);
          List.iter
            (fun (_, v) ->
              check Alcotest.bool "consistent value" true (v = "base" || v = "changed"))
            entries;
          (* The tip has all changes. *)
          List.iter
            (fun (_, v) -> check Alcotest.string "tip changed" "changed" v)
            (audit_tip tree0))

(* ------------------------------------------------------------------ *)
(* Baseline (validated) mode                                            *)
(* ------------------------------------------------------------------ *)

let test_validated_mode_basic () =
  with_tree ~mode:Ops.Validated_traversal ~max_keys:4 (fun _env tree ->
      for i = 0 to 99 do
        put tree (key i) (value i)
      done;
      for i = 0 to 99 do
        check (Alcotest.option Alcotest.string) (key i) (Some (value i)) (get tree (key i))
      done;
      check Alcotest.int "audit" 100 (List.length (audit_tip tree)))

let test_validated_mode_detects_stale_internal () =
  (* Two proxies in baseline mode; one splits internal nodes, the other
     (with a now-stale cache) must not commit against them. *)
  Sim.run (fun () ->
      let env = make_env ~n:2 () in
      let t1 = make_tree env ~mode:Ops.Validated_traversal ~cache:(Objcache.create (Obs.create ())) in
      Ops.Linear.init_tree t1;
      let t2 = make_tree env ~mode:Ops.Validated_traversal ~cache:(Objcache.create (Obs.create ())) in
      (* Warm both proxies. *)
      for i = 0 to 20 do
        put t1 (key i) "a"
      done;
      check (Alcotest.option Alcotest.string) "t2 sees" (Some "a") (get t2 (key 0));
      (* t1 causes splits; t2 keeps operating correctly despite its
         stale cache (validation + retry). *)
      for i = 21 to 120 do
        put t1 (key i) "a"
      done;
      for i = 0 to 120 do
        check (Alcotest.option Alcotest.string) "t2 consistent" (Some "a") (get t2 (key i))
      done)

let test_modes_agree () =
  (* The same operation sequence produces the same logical contents in
     both modes. *)
  let run mode =
    let result = ref [] in
    Sim.run (fun () ->
        let env = make_env ~n:2 () in
        let tree = make_tree env ~mode ~max_keys:4 in
        Ops.Linear.init_tree tree;
        let rng = Sim.Rng.create 5 in
        for _ = 1 to 300 do
          let k = key (Sim.Rng.int rng 60) in
          match Sim.Rng.int rng 3 with
          | 0 | 1 -> put tree k ("v" ^ k)
          | _ -> ignore (remove tree k)
        done;
        result := audit_tip tree);
    !result
  in
  check Alcotest.bool "identical contents" true
    (run Ops.Dirty_traversal = run Ops.Validated_traversal)

(* ------------------------------------------------------------------ *)
(* The paper's anomaly scenarios (Figs. 2 and 3)                        *)
(* ------------------------------------------------------------------ *)

let test_fig2_no_unnecessary_abort_with_dirty_traversals () =
  (* Fig. 2: a sibling split updates the parent. In the baseline, a
     concurrent operation that traversed the parent must abort even
     though its leaf is untouched. With dirty traversals the parent is
     not validated, so the operation commits without extra retries. *)
  let run mode =
    let result = ref 0 in
    Sim.run (fun () ->
        let env = make_env ~n:2 () in
        let t1 = make_tree env ~mode ~cache:(Objcache.create (Obs.create ())) in
        Ops.Linear.init_tree t1;
        let t2 = make_tree env ~mode ~cache:(Objcache.create (Obs.create ())) in
        (* Grow a two-level tree and warm both proxies. *)
        for i = 0 to 29 do
          put t1 (key (2 * i)) "x"
        done;
        check (Alcotest.option Alcotest.string) "warm" (Some "x") (get t2 (key 0));
        let before =
          Obs.Counter.value (Obs.btree (Cluster.obs env.cluster)).Obs.op_retries
        in
        (* Proxy 1 splits a leaf on the left side of the tree (updating
           the shared parent); proxy 2 updates an untouched right-side
           leaf concurrently. *)
        Sim.spawn (fun () ->
            for i = 0 to 6 do
              put t1 (key (2 * i + 1)) "split-driver"
            done);
        Sim.spawn (fun () ->
            for _ = 1 to 6 do
              put t2 (key 58) "victim"
            done);
        Sim.delay 60.0;
        check (Alcotest.option Alcotest.string) "victim committed" (Some "victim")
          (get t1 (key 58));
        result :=
          Obs.Counter.value (Obs.btree (Cluster.obs env.cluster)).Obs.op_retries - before);
    !result
  in
  let dirty_retries = run Ops.Dirty_traversal in
  (* The scenario must at least never be WORSE for dirty traversals; in
     the common case the baseline pays extra retries. *)
  let baseline_retries = run Ops.Validated_traversal in
  check Alcotest.bool "dirty needs no more retries than baseline" true
    (dirty_retries <= baseline_retries)

let test_fig3_fence_keys_prevent_wrong_leaf () =
  (* Fig. 3: with dirty reads a traversal can land on a stale path. The
     fence keys must force an abort-and-retry rather than a wrong
     answer. We stage it deterministically: proxy 2 caches internal
     nodes, proxy 1 then drives splits that reshape the tree, and proxy
     2 (stale cache) looks up keys that now live elsewhere. *)
  Sim.run (fun () ->
      let env = make_env ~n:2 () in
      let t1 = make_tree env ~cache:(Objcache.create (Obs.create ())) in
      Ops.Linear.init_tree t1;
      let t2 = make_tree env ~cache:(Objcache.create (Obs.create ())) in
      for i = 0 to 39 do
        put t1 (key i) "v0"
      done;
      (* Warm proxy 2's cache over the whole range. *)
      for i = 0 to 39 do
        check (Alcotest.option Alcotest.string) "warm" (Some "v0") (get t2 (key i))
      done;
      (* Reshape: dense inserts split leaves and internal nodes. *)
      for i = 40 to 400 do
        put t1 (key i) "v0"
      done;
      let fence_aborts_before =
        Obs.Counter.value (Obs.btree (Cluster.obs env.cluster)).Obs.abort_fence
        + Obs.Counter.value (Obs.btree (Cluster.obs env.cluster)).Obs.abort_height
      in
      (* Every stale-cache lookup must still return the right answer. *)
      for i = 0 to 400 do
        check (Alcotest.option Alcotest.string) (key i) (Some "v0") (get t2 (key i))
      done;
      check (Alcotest.option Alcotest.string) "absent key stays absent" None
        (get t2 (key 401));
      let fence_aborts_after =
        Obs.Counter.value (Obs.btree (Cluster.obs env.cluster)).Obs.abort_fence
        + Obs.Counter.value (Obs.btree (Cluster.obs env.cluster)).Obs.abort_height
      in
      (* The safety checks actually fired (the anomaly was reachable and
         was caught), rather than the answers being right by luck. *)
      check Alcotest.bool "safety checks fired" true (fence_aborts_after > fence_aborts_before))

(* ------------------------------------------------------------------ *)
(* What an aborted attempt evicts from the proxy cache                  *)
(* ------------------------------------------------------------------ *)

(* Two proxies over a multi-level tree holding keys 0, 10, ..., 390;
   the second one ([t2], counting into [obs2]) has every internal node
   cached. *)
let with_warm_proxies f =
  Sim.run (fun () ->
      let env = make_env ~n:2 () in
      let t1 = make_tree env ~cache:(Objcache.create (Obs.create ())) in
      Ops.Linear.init_tree t1;
      let obs2 = Obs.create () in
      let cache2 = Objcache.create obs2 in
      let t2 = make_tree env ~cache:cache2 in
      for i = 0 to 39 do
        put t1 (key (10 * i)) "v0"
      done;
      for i = 0 to 39 do
        check (Alcotest.option Alcotest.string) "warm" (Some "v0") (get t2 (key (10 * i)))
      done;
      f env t1 t2 obs2 cache2)

let test_leaf_validation_keeps_cached_path () =
  (* A rival proxy rewrites the leaf between the put's leaf read and
     its commit, so the commit fails validation. That proves the leaf
     stale, not the path above it: the retry finds the tip, the root
     and the internal nodes still cached. *)
  with_warm_proxies (fun env t1 t2 obs2 _ ->
      let k = key 170 in
      let txn_stats = Obs.txn (Cluster.obs env.cluster) in
      let failures0 = Obs.Counter.value txn_stats.Obs.validation_failures in
      let misses () = Obs.Counter.value (Obs.cache obs2).Obs.cache_misses in
      let misses0 = misses () in
      let attempts = ref 0 in
      Ops.run_txn t2 (fun txn ->
          incr attempts;
          Ops.put_in_txn t2 txn (tip t2 txn) k "mine";
          if !attempts = 1 then put t1 k "rival");
      check Alcotest.int "one retry" 2 !attempts;
      check Alcotest.int "first commit failed validation" 1
        (Obs.Counter.value txn_stats.Obs.validation_failures - failures0);
      check Alcotest.int "no cache misses" 0 (misses () - misses0);
      check (Alcotest.option Alcotest.string) "retry committed" (Some "mine") (get t1 k))

(* The height-1 node [tree] routes [k] through, read from the memnodes. *)
let routing_parent tree k =
  let _, root = read_tip tree in
  let txn = Txn.begin_ (Ops.cluster tree) in
  let rec down ptr =
    let node = Ops.read_node_txn tree txn ptr in
    if node.Bnode.height > 1 then down (snd (Bnode.child_for node k)) else ptr
  in
  let parent = down root in
  (match Txn.commit txn with _ -> ());
  parent

let test_fence_abort_evicts_stale_parent () =
  (* The rival proxy fills the gap between keys 200 and 210, splitting
     the leaf that held them: the parent the other proxy cached no
     longer routes every key in the gap to the right leaf. A put routed
     through it fails the leaf's fence check; that abort must evict the
     stale parent, or every retry would route the same way until the
     attempt budget runs out ([Too_contended]). *)
  with_warm_proxies (fun env t1 t2 _ cache2 ->
      let parent = routing_parent t2 (key 200) in
      let stale = Objcache.find cache2 parent in
      check Alcotest.bool "parent cached" true (stale <> None);
      for i = 201 to 209 do
        put t1 (key i) "v1"
      done;
      let stats = Obs.btree (Cluster.obs env.cluster) in
      let fence_aborts () = Obs.Counter.value stats.Obs.abort_fence in
      let aborts0 = fence_aborts () in
      for i = 201 to 209 do
        put t2 (key i) "v2"
      done;
      check Alcotest.bool "a put was misrouted" true (fence_aborts () > aborts0);
      check Alcotest.bool "stale parent evicted" true (Objcache.find cache2 parent <> stale);
      for i = 201 to 209 do
        check (Alcotest.option Alcotest.string) (key i) (Some "v2") (get t1 (key i))
      done)

(* ------------------------------------------------------------------ *)
(* Multi-tree transactions                                              *)
(* ------------------------------------------------------------------ *)

(* One transaction over two trees: [k] in both, read or written
   atomically through the first tree's handle. *)
let multi_get t0 t1 k =
  Ops.run_txn t0 (fun txn ->
      let a = Ops.get_in_txn t0 txn (tip t0 txn) k in
      (a, Ops.get_in_txn t1 txn (tip t1 txn) k))

let multi_put t0 t1 k v0 v1 =
  Ops.run_txn t0 (fun txn ->
      Ops.put_in_txn t0 txn (tip t0 txn) k v0;
      Ops.put_in_txn t1 txn (tip t1 txn) k v1)

let test_multi_tree_ops () =
  Sim.run (fun () ->
      let env = make_env ~n:3 () in
      let t0 = make_tree env ~tree_id:0 in
      let t1 = make_tree env ~tree_id:1 in
      Ops.Linear.init_tree t0;
      Ops.Linear.init_tree t1;
      multi_put t0 t1 (key 1) "zero" "one";
      (match multi_get t0 t1 (key 1) with
      | Some "zero", Some "one" -> ()
      | _ -> Alcotest.fail "multi_get mismatch");
      (* The two trees are independent. *)
      check (Alcotest.option Alcotest.string) "t0 only" None (get t1 (key 2));
      put t0 (key 2) "only-zero";
      check (Alcotest.option Alcotest.string) "t0 has" (Some "only-zero") (get t0 (key 2));
      check (Alcotest.option Alcotest.string) "t1 hasn't" None (get t1 (key 2)))

let test_multi_tree_concurrent_atomicity () =
  (* Writers atomically set (t0[k], t1[k]) to the same tag; readers
     atomically read both and must never observe a mix. *)
  Sim.run (fun () ->
      let env = make_env ~n:3 () in
      let t0 = make_tree env ~tree_id:0 in
      let t1 = make_tree env ~tree_id:1 in
      Ops.Linear.init_tree t0;
      Ops.Linear.init_tree t1;
      multi_put t0 t1 (key 1) "tag0" "tag0";
      let k = key 1 in
      let violations = ref 0 in
      let writers_done = ref 0 in
      for w = 1 to 2 do
        Sim.spawn (fun () ->
            for i = 1 to 15 do
              let tag = Printf.sprintf "tag-w%d-%d" w i in
              multi_put t0 t1 k tag tag
            done;
            incr writers_done)
      done;
      Sim.spawn (fun () ->
          for _ = 1 to 40 do
            (match multi_get t0 t1 k with
            | Some a, Some b -> if not (String.equal a b) then incr violations
            | _ -> incr violations);
            Sim.delay 0.0005
          done);
      Sim.delay 3600.0;
      check Alcotest.int "writers done" 2 !writers_done;
      check Alcotest.int "no torn multi-tree reads" 0 !violations)

(* ------------------------------------------------------------------ *)
(* Batched scans (fence-key continuation)                               *)
(* ------------------------------------------------------------------ *)

let scan_b tree ~batch ~from ~count = Ops.scan ~batch tree ~vctx_of:(tip tree) ~from ~count

let scan_counters env = Obs.scan (Cluster.obs env.cluster)

(* The leftmost deepest parent of the tip, read outside any operation,
   and the [i]th of its leaves. *)
let first_parent tree =
  let _, root = read_tip tree in
  let txn = Txn.begin_ (Ops.cluster tree) in
  let rec down ptr =
    let node = Ops.read_node_txn tree txn ptr in
    match node.Bnode.body with
    | Bnode.Internal { children; _ } when node.Bnode.height > 1 -> down children.(0)
    | Bnode.Internal _ -> node
    | Bnode.Leaf _ -> Alcotest.fail "first_parent: one-level tree"
  in
  let parent = down root in
  (match Txn.commit txn with _ -> ());
  parent

let leaf_of tree parent i =
  let txn = Txn.begin_ (Ops.cluster tree) in
  let leaf = Ops.read_node_txn tree txn (Bnode.child_at parent i) in
  (match Txn.commit txn with _ -> ());
  leaf

let fence_key = function Bkey.Key k -> k | Bkey.Neg_inf -> "" | Bkey.Pos_inf -> assert false

let test_batched_scan_matches_per_leaf mode () =
  (* Every batch size must return exactly the per-leaf sequence, against
     the writable tip (validated batches) and a read-only snapshot (dirty
     batches), and the batched path must actually run (batch rounds +
     continuations). The cases include the edges of the first group,
     which carries the cursor's leaf: [count = 1], counts ending exactly
     at a leaf boundary, a scan entering at a parent's last leaf (its
     first group exhausts the parent, so it continues at once), and a
     one-level tree whose root is its only leaf. *)
  Sim.run (fun () ->
      let env = make_env ~n:3 () in
      let tree = make_tree env ~mode ~max_keys:4 in
      Ops.Linear.init_tree tree;
      let rng = Sim.Rng.create 17 in
      for i = 0 to 249 do
        put tree (key (Sim.Rng.int rng 600)) (value i)
      done;
      let small = make_tree env ~mode ~max_keys:4 ~tree_id:1 in
      Ops.Linear.init_tree small;
      for i = 0 to 2 do
        put small (key (2 * i)) (value i)
      done;
      let parent = first_parent tree in
      let first_leaf = leaf_of tree parent 0 in
      let last_leaf = leaf_of tree parent (Bnode.nkeys parent) in
      let last_from = fence_key last_leaf.Bnode.low in
      let contexts t =
        let sid, root = create_snapshot t in
        [ ("tip", tip t); ("snapshot", fun _txn -> Ops.Linear.at_snapshot t ~sid ~root) ]
      in
      let ss = scan_counters env in
      let batches_before = Obs.Counter.value ss.Obs.scan_batches in
      let agree t cases =
        List.iter
          (fun (ctx, vctx_of) ->
            List.iter
              (fun (from, count) ->
                let oracle = Ops.scan ~batch:1 t ~vctx_of ~from ~count in
                List.iter
                  (fun batch ->
                    let got = Ops.scan ~batch t ~vctx_of ~from ~count in
                    if got <> oracle then
                      Alcotest.fail
                        (Printf.sprintf "%s: batch=%d diverged from per-leaf at from=%S count=%d"
                           ctx batch from count))
                  [ 2; 4; 16; 64 ])
              cases)
          (contexts t)
      in
      let two_leaves = Bnode.nkeys first_leaf + Bnode.nkeys (leaf_of tree parent 1) in
      agree tree
        [
          ("", 1000); ("", 37); (key 100, 80); (key 300, 200); (key 599, 10); (key 600, 5);
          ("", 1); (key 300, 1);
          ("", Bnode.nkeys first_leaf);
          (fence_key first_leaf.Bnode.low, two_leaves);
          (last_from, Bnode.nkeys last_leaf);
          (last_from, 20);
        ];
      agree small [ ("", 10); ("", 1); (key 1, 2); (key 4, 1); (key 5, 3) ];
      (* [remove] never merges leaves, so emptying the first parent's
         leaves drops the keys-per-leaf estimate to one; an unbounded
         count must still size its groups without overflowing. *)
      let parent_high =
        match parent.Bnode.high with
        | Bkey.Key k -> k
        | _ -> Alcotest.fail "first parent is the last"
      in
      List.iter
        (fun (k, _) -> if k < parent_high then ignore (remove tree k : bool))
        (Ops.scan ~batch:1 tree ~vctx_of:(tip tree) ~from:"" ~count:max_int);
      agree tree [ ("", max_int); ("", 3); (key 100, max_int) ];
      check Alcotest.bool "batch rounds ran" true
        (Obs.Counter.value ss.Obs.scan_batches > batches_before);
      check Alcotest.bool "continuations ran" true
        (Obs.Counter.value ss.Obs.scan_continuations > 0))

(* Demand-sized groups: a scan fetches about the leaves it consumes.
   Ascending inserts build 29 leaves under the root, 50 keys each but
   the last; a 1000-key scan from the start needs 20 of them, and its
   first group (the 20 that the half-full prior asks for, plus one for
   the cursor's leaf) covers them in one round trip. A scan that fetched
   every remaining sibling would read all 29. *)
let test_batched_scan_fetch_bound () =
  Sim.run (fun () ->
      let layout = Layout.make ~node_size:4096 ~max_slots:512 ~max_trees:4 ~max_snapshots:256 () in
      let config =
        { Sinfonia.Config.default with heap_capacity = Layout.heap_capacity_needed layout }
      in
      let cluster = Cluster.create ~config ~n:2 () in
      let shared = Node_alloc.Shared.create ~n_memnodes:2 in
      let alloc = Node_alloc.create ~cluster ~layout ~shared () in
      let tree =
        Ops.make_tree ~max_keys_leaf:100 ~max_keys_internal:64 ~cluster ~layout ~tree_id:0 ~alloc
          ~cache:(Objcache.create (Obs.create ()))
          ()
      in
      Ops.Linear.init_tree tree;
      (* Ascending inserts leave every full leaf split in half. *)
      for i = 0 to 1499 do
        put tree (key i) (value i)
      done;
      let sid, root = create_snapshot tree in
      let ss = Obs.scan (Cluster.obs cluster) in
      let counted ~from ~count =
        let v = Obs.Counter.value in
        let b0 = v ss.Obs.scan_batches
        and f0 = v ss.Obs.scan_batched_leaves
        and c0 = v ss.Obs.scan_consumed_leaves in
        let r =
          Ops.scan ~batch:32 tree
            ~vctx_of:(fun _txn -> Ops.Linear.at_snapshot tree ~sid ~root)
            ~from ~count
        in
        (r, v ss.Obs.scan_batches - b0, v ss.Obs.scan_batched_leaves - f0,
         v ss.Obs.scan_consumed_leaves - c0)
      in
      let entries lo n = List.init n (fun i -> (key (lo + i), value (lo + i))) in
      let pairs = Alcotest.(list (pair string string)) in
      let r, batches, fetched, consumed = counted ~from:"" ~count:1000 in
      check pairs "1000 keys" (entries 0 1000) r;
      check Alcotest.int "consumed leaves" 20 consumed;
      check Alcotest.int "one round trip" 1 batches;
      if fetched > consumed + 2 then
        Alcotest.failf "fetched %d leaves for %d consumed" fetched consumed;
      let r, _, fetched, _ = counted ~from:(key 777) ~count:1 in
      check pairs "one key" (entries 777 1) r;
      if fetched > 2 then Alcotest.failf "a one-key scan fetched %d leaves" fetched)

let test_batched_scan_crossing_concurrent_splits mode () =
  (* A batched scan runs while a second proxy splits and empties leaves
     under it. Every scan must return a correct prefix of the tree as of
     some serialization point: sorted, duplicate-free keys with the
     values some committed state held. *)
  Sim.run (fun () ->
      let env = make_env ~n:3 () in
      let t1 = make_tree env ~mode ~max_keys:4 ~cache:(Objcache.create (Obs.create ())) in
      Ops.Linear.init_tree t1;
      let t2 = make_tree env ~mode ~max_keys:4 ~cache:(Objcache.create (Obs.create ())) in
      for i = 0 to 199 do
        put t1 (key i) "base"
      done;
      (* Warm the scanner proxy's cache over the whole range. *)
      ignore (scan_b t2 ~batch:16 ~from:"" ~count:1000 : (string * string) list);
      let writer_done = ref false in
      Sim.spawn (fun () ->
          (* Interleave splits (fresh keys between existing ones) with
             removals that empty whole leaves. *)
          for i = 0 to 199 do
            put t1 (key i ^ "-mid") "split";
            if i mod 3 = 0 then ignore (remove t1 (key i) : bool)
          done;
          writer_done := true);
      let scans_ok = ref 0 in
      Sim.spawn (fun () ->
          while not !writer_done do
            let r = scan_b t2 ~batch:8 ~from:"" ~count:1000 in
            (* Keys strictly sorted (no duplicate, no out-of-order entry
               from a stale sibling) and every value one a committed
               state could hold. *)
            let rec sorted = function
              | (a, _) :: ((b, _) :: _ as tl) -> Bkey.compare a b < 0 && sorted tl
              | _ -> true
            in
            if not (sorted r) then Alcotest.fail "batched scan returned unsorted keys";
            List.iter
              (fun (_, v) ->
                if v <> "base" && v <> "split" then
                  Alcotest.fail ("batched scan saw impossible value " ^ v))
              r;
            incr scans_ok;
            Sim.delay 1e-4
          done);
      Sim.delay 3600.0;
      check Alcotest.bool "writer finished" true !writer_done;
      check Alcotest.bool "scans ran during the storm" true (!scans_ok > 0);
      (* Final state agrees between the reshaping proxy and the scanner
         in both batch modes. *)
      let final_batched = scan_b t2 ~batch:16 ~from:"" ~count:1000 in
      let final_per_leaf = scan_b t1 ~batch:1 ~from:"" ~count:1000 in
      check Alcotest.bool "final scans agree" true (final_batched = final_per_leaf);
      check Alcotest.int "final size" 333 (List.length final_batched))

let test_batched_scan_aborts_when_leaf_moves mode () =
  (* A leaf moving mid-batch: a writer keeps splitting tail leaves while
     a batched read-only scan (pinned at the tip version, so its leaf
     fetches are unvalidated single round trips) is in flight. A sibling
     fetched from the already-traversed parent then no longer starts
     where its left neighbour ended — the scan must abort that batch on
     the fence check (scan_batch_aborts) and retry to a clean result,
     never silently skip or repeat keys from a moved leaf. A wide
     internal fanout with a small batch size keeps many batch rounds in
     flight under one parent, which is exactly the stale window. *)
  Sim.run (fun () ->
      (* Wide internal nodes need room: a private env with 2KiB slots. *)
      let layout = Layout.make ~node_size:2048 ~max_slots:4096 ~max_trees:4 ~max_snapshots:256 () in
      let config =
        { Sinfonia.Config.default with heap_capacity = Layout.heap_capacity_needed layout }
      in
      let cluster = Cluster.create ~config ~n:2 () in
      let shared = Node_alloc.Shared.create ~n_memnodes:2 in
      let env = { cluster; layout; shared; cache = Objcache.create (Obs.create ()) } in
      let mk cache =
        let alloc = Node_alloc.create ~cluster ~layout ~shared () in
        Ops.make_tree ~mode ~max_keys_leaf:4 ~max_keys_internal:32 ~cluster ~layout ~tree_id:0
          ~alloc ~cache ()
      in
      let t1 = mk (Objcache.create (Obs.create ())) in
      Ops.Linear.init_tree t1;
      let t2 = mk (Objcache.create (Obs.create ())) in
      for i = 0 to 149 do
        put t1 (key (2 * i)) "v0"
      done;
      let ss = scan_counters env in
      let aborts_before = Obs.Counter.value ss.Obs.scan_batch_aborts in
      (* Writer: endless splits in the scan's tail region (fresh unique
         keys), so leaves keep moving while the scan is under way. *)
      let stop = ref false in
      let j = ref 0 in
      Sim.spawn (fun () ->
          while not !stop do
            incr j;
            put t1 (Printf.sprintf "%s-%06d" (key (201 + (!j mod 79))) !j) "v1";
            Sim.delay 1e-5
          done);
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as tl) -> Bkey.compare a b < 0 && sorted tl
        | _ -> true
      in
      let scan_pinned () =
        (* Pin the scan at the tip version: read-only, so batched leaf
           fetches take the dirty single-round-trip path in both modes. *)
        let sid, root = read_tip t2 in
        Ops.scan ~batch:4 t2
          ~vctx_of:(fun _txn -> Ops.Linear.at_snapshot t2 ~sid ~root)
          ~from:"" ~count:2000
      in
      let tries = ref 0 in
      while Obs.Counter.value ss.Obs.scan_batch_aborts = aborts_before && !tries < 200 do
        incr tries;
        match scan_pinned () with
        | r ->
            if not (sorted r) then Alcotest.fail "batched scan returned unsorted keys";
            List.iter
              (fun (_, v) ->
                if v <> "v0" && v <> "v1" then
                  Alcotest.fail ("batched scan saw impossible value " ^ v))
              r
        (* The scan can starve under this write rate; retry exhaustion
           is an abort, never a wrong answer. *)
        | exception Ops.Too_contended _ -> ()
      done;
      stop := true;
      check Alcotest.bool "mid-batch abort fired" true
        (Obs.Counter.value ss.Obs.scan_batch_aborts > aborts_before);
      (* Quiesced, both proxies and both batch modes agree exactly. *)
      Sim.delay 1.0;
      let expected = scan_b t1 ~batch:1 ~from:"" ~count:2000 in
      check Alcotest.bool "scan correct after leaf moves" true
        (scan_b t2 ~batch:16 ~from:"" ~count:2000 = expected))

let () =
  Alcotest.run "btree"
    [
      ( "layout",
        [
          Alcotest.test_case "regions disjoint" `Quick test_layout_regions_disjoint;
          Alcotest.test_case "slot mapping" `Quick test_layout_slot_mapping;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "unique round-robin" `Quick test_alloc_unique_and_round_robin;
          Alcotest.test_case "proxies disjoint" `Quick test_alloc_two_proxies_disjoint;
          Alcotest.test_case "free/reuse" `Quick test_alloc_free_reuse;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
        ] );
      ( "ops",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "put/get single" `Quick test_put_get_single;
          Alcotest.test_case "overwrite" `Quick test_put_overwrite;
          Alcotest.test_case "off-home tip put one-phase" `Quick test_tip_put_off_home_one_phase;
          Alcotest.test_case "put on a corrupt leaf aborts" `Quick test_put_on_corrupt_leaf_aborts;
          Alcotest.test_case "many inserts with splits" `Quick test_many_inserts_with_splits;
          Alcotest.test_case "random order inserts" `Quick test_random_order_inserts;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "scan ranges" `Quick test_scan_ranges;
          Alcotest.test_case "model random ops" `Slow test_model_random_ops;
          Alcotest.test_case "scan matches model" `Quick test_scan_matches_model_random;
        ] );
      ( "view memo",
        [
          Alcotest.test_case "one entry per node" `Quick test_memo_one_entry_per_node;
          Alcotest.test_case "skips buffered write" `Quick test_memo_skips_buffered_write;
          Alcotest.test_case "shared across handles" `Quick test_memo_shared_across_handles;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "stable scan" `Quick test_snapshot_scan_stable;
          Alcotest.test_case "snapshot chain" `Quick test_multiple_snapshots_chain;
          Alcotest.test_case "ids monotonic" `Quick test_snapshot_ids_monotonic;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "disjoint inserts" `Quick test_concurrent_disjoint_inserts;
          Alcotest.test_case "same-key updates" `Quick test_concurrent_same_key_updates;
          Alcotest.test_case "updates with snapshot" `Quick test_concurrent_updates_with_snapshot;
        ] );
      ( "modes",
        [
          Alcotest.test_case "validated basic" `Quick test_validated_mode_basic;
          Alcotest.test_case "validated stale cache" `Quick test_validated_mode_detects_stale_internal;
          Alcotest.test_case "modes agree" `Slow test_modes_agree;
        ] );
      ( "paper-anomalies",
        [
          Alcotest.test_case "fig2 unnecessary aborts" `Quick
            test_fig2_no_unnecessary_abort_with_dirty_traversals;
          Alcotest.test_case "fig3 fence keys" `Quick test_fig3_fence_keys_prevent_wrong_leaf;
        ] );
      ( "abort-eviction",
        [
          Alcotest.test_case "leaf validation keeps the cached path" `Quick
            test_leaf_validation_keeps_cached_path;
          Alcotest.test_case "fence abort evicts the stale parent" `Quick
            test_fence_abort_evicts_stale_parent;
        ] );
      ( "multi-tree",
        [
          Alcotest.test_case "basic" `Quick test_multi_tree_ops;
          Alcotest.test_case "atomicity" `Quick test_multi_tree_concurrent_atomicity;
        ] );
      ( "batched-scan",
        [
          Alcotest.test_case "matches per-leaf (dirty)" `Quick
            (test_batched_scan_matches_per_leaf Ops.Dirty_traversal);
          Alcotest.test_case "matches per-leaf (validated)" `Quick
            (test_batched_scan_matches_per_leaf Ops.Validated_traversal);
          Alcotest.test_case "fetches what it consumes" `Quick test_batched_scan_fetch_bound;
          Alcotest.test_case "concurrent splits/merges (dirty)" `Quick
            (test_batched_scan_crossing_concurrent_splits Ops.Dirty_traversal);
          Alcotest.test_case "concurrent splits/merges (validated)" `Quick
            (test_batched_scan_crossing_concurrent_splits Ops.Validated_traversal);
          Alcotest.test_case "mid-batch leaf move aborts (dirty)" `Quick
            (test_batched_scan_aborts_when_leaf_moves Ops.Dirty_traversal);
          Alcotest.test_case "mid-batch leaf move aborts (validated)" `Quick
            (test_batched_scan_aborts_when_leaf_moves Ops.Validated_traversal);
        ] );
    ]
