(* Tests for the snapshot lifecycle: snapshot creation service with
   borrowing, garbage collection, and branching versions. *)

let check = Alcotest.check

open Btree
module Txn = Dyntxn.Txn
module Objcache = Dyntxn.Objcache
module Objref = Dyntxn.Objref
module Cluster = Sinfonia.Cluster
module Scs = Mvcc.Scs
module Gc = Mvcc.Gc
module Branching = Mvcc.Branching

let key i = Printf.sprintf "k%06d" i

let small_layout = Layout.make ~node_size:512 ~max_slots:4096 ~max_trees:4 ~max_snapshots:256 ()

type env = { cluster : Cluster.t; layout : Layout.t; shared : Node_alloc.Shared.t }

let make_env ?(n = 3) () =
  let layout = small_layout in
  let config =
    { Sinfonia.Config.default with heap_capacity = Layout.heap_capacity_needed layout }
  in
  let cluster = Cluster.create ~config ~n () in
  let shared = Node_alloc.Shared.create ~n_memnodes:n in
  { cluster; layout; shared }

let make_tree ?(max_keys = 4) ?(tree_id = 0) env =
  let alloc = Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared () in
  Ops.make_tree ~max_keys_leaf:max_keys ~max_keys_internal:max_keys ~cluster:env.cluster
    ~layout:env.layout ~tree_id ~alloc ~cache:(Objcache.create ()) ()

let with_linear_tree ?n f =
  Sim.run (fun () ->
      let env = make_env ?n () in
      let tree = make_tree env in
      Ops.Linear.init_tree tree;
      f env tree)

let tip tree txn = Ops.Linear.tip tree txn

let put tree k v = Ops.put tree ~vctx_of:(tip tree) k v

let _get tree k = Ops.get tree ~vctx_of:(tip tree) k

(* ------------------------------------------------------------------ *)
(* SCS                                                                  *)
(* ------------------------------------------------------------------ *)

let test_scs_sequential_creates () =
  with_linear_tree (fun _env tree ->
      let scs = Scs.create ~tree () in
      put tree (key 1) "v1";
      let s1, r1 = Scs.request scs in
      put tree (key 2) "v2";
      let s2, _ = Scs.request scs in
      check Alcotest.bool "ids increase" true (Int64.compare s1 s2 < 0);
      check Alcotest.int "two created" 2 (Scs.snapshots_created scs);
      check Alcotest.int "no borrows (sequential)" 0 (Scs.borrows scs);
      (* The first snapshot contains key1 but not key2. *)
      let entries = Ops.audit tree ~sid:s1 ~root:r1 in
      check
        (Alcotest.list Alcotest.string)
        "snapshot 1 contents" [ key 1 ] (List.map fst entries))

let test_scs_concurrent_borrowing () =
  with_linear_tree (fun _env tree ->
      put tree (key 1) "v";
      let scs = Scs.create ~tree () in
      let requesters = 8 in
      let results = ref [] in
      for _ = 1 to requesters do
        Sim.spawn (fun () ->
            let r = Scs.request scs in
            results := r :: !results)
      done;
      Sim.delay 60.0;
      check Alcotest.int "all served" requesters (List.length !results);
      check Alcotest.bool "some borrowed" true (Scs.borrows scs > 0);
      check Alcotest.int "accounting" requesters (Scs.snapshots_created scs + Scs.borrows scs);
      check Alcotest.bool "fewer creations than requests" true
        (Scs.snapshots_created scs < requesters);
      (* Every returned snapshot is readable and contains the key. *)
      List.iter
        (fun (sid, root) ->
          let entries = Ops.audit tree ~sid ~root in
          check Alcotest.int "readable snapshot" 1 (List.length entries))
        !results)

let test_scs_borrowing_strictly_serializable () =
  (* A write completed before a snapshot request must be visible in the
     returned (possibly borrowed) snapshot. *)
  with_linear_tree (fun env tree ->
      let scs = Scs.create ~tree () in
      let violations = ref 0 in
      let finished = ref 0 in
      for p = 1 to 6 do
        Sim.spawn (fun () ->
            let mine = make_tree env in
            Ops.put mine ~vctx_of:(tip mine) (key p) "present";
            let sid, root = Scs.request scs in
            let entries = Ops.audit mine ~sid ~root in
            if not (List.mem_assoc (key p) entries) then incr violations;
            incr finished)
      done;
      Sim.delay 120.0;
      check Alcotest.int "all finished" 6 !finished;
      check Alcotest.int "no staleness violations" 0 !violations)

let test_scs_no_borrowing_mode () =
  with_linear_tree (fun _env tree ->
      put tree (key 1) "v";
      let scs = Scs.create ~borrowing:false ~tree () in
      let served = ref 0 in
      for _ = 1 to 5 do
        Sim.spawn (fun () ->
            let (_ : int64 * Objref.t) = Scs.request scs in
            incr served)
      done;
      Sim.delay 60.0;
      check Alcotest.int "all served" 5 !served;
      check Alcotest.int "each created its own" 5 (Scs.snapshots_created scs);
      check Alcotest.int "no borrows" 0 (Scs.borrows scs))

let test_scs_staleness_bound () =
  with_linear_tree (fun _env tree ->
      put tree (key 1) "v";
      let scs = Scs.create ~min_interval:10.0 ~tree () in
      let s1, _ = Scs.request scs in
      (* Within k seconds: reuse, even though a write happened. *)
      put tree (key 2) "v";
      Sim.delay 1.0;
      let s2, _ = Scs.request scs in
      check Alcotest.int64 "stale reuse" s1 s2;
      check Alcotest.bool "reuse counted" true (Scs.stale_reuses scs > 0);
      (* After k seconds: a fresh snapshot. *)
      Sim.delay 11.0;
      let s3, _ = Scs.request scs in
      check Alcotest.bool "fresh after k" true (Int64.compare s3 s1 > 0);
      check Alcotest.int "two creations total" 2 (Scs.snapshots_created scs))

(* ------------------------------------------------------------------ *)
(* Garbage collection                                                   *)
(* ------------------------------------------------------------------ *)

let create_snapshot tree =
  let txn = Txn.begin_ (Ops.cluster tree) in
  let sid, root = Ops.Linear.create_snapshot tree txn in
  match Txn.commit ~blocking:true txn with
  | Txn.Committed -> (sid, root)
  | _ -> Alcotest.fail "snapshot creation failed"

let test_gc_watermark () =
  with_linear_tree (fun _env tree ->
      check Alcotest.int64 "initial" 0L (Gc.get_lowest tree);
      Gc.set_lowest tree 5L;
      check Alcotest.int64 "set" 5L (Gc.get_lowest tree))

let test_gc_reclaims_superseded_nodes () =
  Sim.run (fun () ->
      let env = make_env () in
      let alloc =
        Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared ()
      in
      let tree =
        Ops.make_tree ~max_keys_leaf:4 ~max_keys_internal:4 ~cluster:env.cluster
          ~layout:env.layout ~tree_id:0 ~alloc ~cache:(Objcache.create ()) ()
      in
      Ops.Linear.init_tree tree;
      for i = 0 to 49 do
        put tree (key i) "v0"
      done;
      let _sid, _root = create_snapshot tree in
      (* Updates copy every touched path; the superseded copies become
         garbage once the watermark passes the snapshot. *)
      for i = 0 to 49 do
        put tree (key i) "v1"
      done;
      check Alcotest.int "nothing collectable yet" 0 (Gc.sweep tree ~alloc);
      Gc.keep_recent tree ~n:0;
      let freed = Gc.sweep tree ~alloc in
      check Alcotest.bool "reclaimed" true (freed > 0);
      (* The tip is untouched. *)
      let sid, root =
        let txn = Txn.begin_ (Ops.cluster tree) in
        let r = Ops.Linear.read_tip tree txn in
        (match Txn.commit txn with _ -> ());
        r
      in
      let entries = Ops.audit tree ~sid ~root in
      check Alcotest.int "tip intact" 50 (List.length entries);
      List.iter (fun (_, v) -> check Alcotest.string "tip values" "v1" v) entries;
      (* Freed slots land on the shared free list and get reused. *)
      let free_total =
        List.init (Cluster.n_memnodes env.cluster) (fun node ->
            Node_alloc.Shared.free_count env.shared ~node)
        |> List.fold_left ( + ) 0
      in
      check Alcotest.bool "free list populated" true (free_total > 0);
      check Alcotest.int "sweep idempotent" 0 (Gc.sweep tree ~alloc))

let test_gc_background_process () =
  Sim.run ~until:100.0 (fun () ->
      let env = make_env () in
      let alloc =
        Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared ()
      in
      let tree =
        Ops.make_tree ~max_keys_leaf:4 ~max_keys_internal:4 ~cluster:env.cluster
          ~layout:env.layout ~tree_id:0 ~alloc ~cache:(Objcache.create ()) ()
      in
      Ops.Linear.init_tree tree;
      Gc.run_background tree ~alloc ~interval:5.0;
      for i = 0 to 29 do
        put tree (key i) "v0"
      done;
      let (_ : int64 * Objref.t) = create_snapshot tree in
      for i = 0 to 29 do
        put tree (key i) "v1"
      done;
      Gc.keep_recent tree ~n:0;
      Sim.spawn (fun () ->
          Sim.delay 20.0;
          check Alcotest.bool "background reclaimed" true
            (Obs.Counter.value (Obs.gc (Cluster.obs env.cluster)).Obs.slots_reclaimed > 0);
          Sim.stop ()))

(* ------------------------------------------------------------------ *)
(* Branching versions                                                   *)
(* ------------------------------------------------------------------ *)

let with_branching ?n ?(beta = 2) f =
  Sim.run (fun () ->
      let env = make_env ?n () in
      let tree = make_tree env in
      let br = Branching.attach ~tree ~beta () in
      Branching.init_tree br;
      f env br)

let audit_version br sid =
  Ops.audit (Branching.tree br) ~sid ~root:(Branching.root_of br ~sid)

let test_branch_basic_snapshot () =
  with_branching (fun _env br ->
      Branching.put br (key 1) "v0";
      check (Alcotest.option Alcotest.string) "tip read" (Some "v0") (Branching.get br (key 1));
      (* Creating the first branch freezes snapshot 0. *)
      let b1 = Branching.create_branch br ~from:0L in
      check Alcotest.int64 "first branch id" 1L b1;
      check Alcotest.bool "0 now read-only" false (Branching.writable br ~sid:0L);
      check Alcotest.bool "1 writable" true (Branching.writable br ~sid:1L);
      (* Mainline writes land in 1. *)
      Branching.put br (key 1) "v1";
      check (Alcotest.option Alcotest.string) "frozen version" (Some "v0")
        (Branching.get br ~at:0L (key 1));
      check (Alcotest.option Alcotest.string) "mainline" (Some "v1") (Branching.get br (key 1)))

let test_branch_parallel_clones_isolated () =
  with_branching (fun _env br ->
      for i = 0 to 19 do
        Branching.put br (key i) "base"
      done;
      let b1 = Branching.create_branch br ~from:0L in
      let b2 = Branching.create_branch br ~from:0L in
      check Alcotest.bool "distinct" true (not (Int64.equal b1 b2));
      (* Divergent writes. *)
      Branching.put br ~at:b1 (key 0) "one";
      Branching.put br ~at:b2 (key 0) "two";
      Branching.put br ~at:b2 (key 100) "only-two";
      check (Alcotest.option Alcotest.string) "b1 sees its write" (Some "one")
        (Branching.get br ~at:b1 (key 0));
      check (Alcotest.option Alcotest.string) "b2 sees its write" (Some "two")
        (Branching.get br ~at:b2 (key 0));
      check (Alcotest.option Alcotest.string) "b1 unaffected by b2 insert" None
        (Branching.get br ~at:b1 (key 100));
      check (Alcotest.option Alcotest.string) "origin frozen" (Some "base")
        (Branching.get br ~at:0L (key 0));
      (* Full audits agree. *)
      check Alcotest.int "b2 has extra key" 21 (List.length (audit_version br b2));
      check Alcotest.int "b1 size" 20 (List.length (audit_version br b1));
      check Alcotest.int "0 size" 20 (List.length (audit_version br 0L)))

let test_branch_ancestry () =
  with_branching ~beta:3 (fun _env br ->
      let b1 = Branching.create_branch br ~from:0L in
      let b2 = Branching.create_branch br ~from:b1 in
      let b3 = Branching.create_branch br ~from:0L in
      check (Alcotest.option Alcotest.int64) "parent of b2" (Some b1)
        (Branching.parent br ~sid:b2);
      check (Alcotest.option Alcotest.int64) "parent of b3" (Some 0L)
        (Branching.parent br ~sid:b3);
      check (Alcotest.option Alcotest.int64) "root has no parent" None
        (Branching.parent br ~sid:0L);
      let txn = Txn.begin_ (Ops.cluster (Branching.tree br)) in
      check Alcotest.bool "0 anc b2" true (Branching.is_ancestor br txn 0L b2);
      check Alcotest.bool "b1 anc b2" true (Branching.is_ancestor br txn b1 b2);
      check Alcotest.bool "b3 not anc b2" false (Branching.is_ancestor br txn b3 b2);
      check Alcotest.bool "b2 not anc b1" false (Branching.is_ancestor br txn b2 b1);
      check Alcotest.bool "reflexive" true (Branching.is_ancestor br txn b2 b2);
      match Txn.commit txn with _ -> ())

let test_branch_mainline_resolution () =
  with_branching (fun _env br ->
      Branching.put br (key 1) "r0";
      let b1 = Branching.create_branch br ~from:0L in
      let b2 = Branching.create_branch br ~from:b1 in
      ignore b2;
      (* put on the default mainline follows first-branch pointers to
         the current tip. *)
      Branching.put br (key 1) "tip";
      let txn = Txn.begin_ (Ops.cluster (Branching.tree br)) in
      let tip = Branching.mainline_tip br txn ~from:0L in
      (match Txn.commit txn with _ -> ());
      check Alcotest.int64 "mainline is b2" b2 tip;
      check (Alcotest.option Alcotest.string) "write went to tip" (Some "tip")
        (Branching.get br ~at:tip (key 1));
      check (Alcotest.option Alcotest.string) "b1 frozen" (Some "r0")
        (Branching.get br ~at:b1 (key 1)))

let test_branch_limit () =
  with_branching ~beta:2 (fun _env br ->
      let (_ : int64) = Branching.create_branch br ~from:0L in
      let (_ : int64) = Branching.create_branch br ~from:0L in
      match Branching.create_branch br ~from:0L with
      | (_ : int64) -> Alcotest.fail "third branch should exceed beta=2"
      | exception Branching.Too_many_branches 0L -> ())

let test_branch_descendant_sets_bounded () =
  (* Force a node to be copied in more than β branches so a
     discretionary copy-on-write must fire, then verify every version
     still reads correctly and stored descendant sets are within β. *)
  with_branching ~beta:2 (fun env br ->
      for i = 0 to 9 do
        Branching.put br (key i) "base"
      done;
      (* Version tree: 0 -> b1 (mainline), b1 -> {b2 (mainline), b3},
         0 -> b4. Writing the same leaf in b2, b3 and b4 gives three
         copies of nodes created at snapshot 0. *)
      let b1 = Branching.create_branch br ~from:0L in
      let b2 = Branching.create_branch br ~from:b1 in
      let b3 = Branching.create_branch br ~from:b1 in
      let b4 = Branching.create_branch br ~from:0L in
      Branching.put br ~at:b2 (key 0) "in-b2";
      Branching.put br ~at:b3 (key 0) "in-b3";
      Branching.put br ~at:b4 (key 0) "in-b4";
      (* All versions read correctly. *)
      check (Alcotest.option Alcotest.string) "b2" (Some "in-b2")
        (Branching.get br ~at:b2 (key 0));
      check (Alcotest.option Alcotest.string) "b3" (Some "in-b3")
        (Branching.get br ~at:b3 (key 0));
      check (Alcotest.option Alcotest.string) "b4" (Some "in-b4")
        (Branching.get br ~at:b4 (key 0));
      check (Alcotest.option Alcotest.string) "0 frozen" (Some "base")
        (Branching.get br ~at:0L (key 0));
      check (Alcotest.option Alcotest.string) "b1 frozen" (Some "base")
        (Branching.get br ~at:b1 (key 0));
      (* A discretionary copy fired and no stored node exceeds β. *)
      check Alcotest.bool "discretionary cow fired" true
        (Obs.Counter.value (Obs.btree (Cluster.obs env.cluster)).Obs.discretionary_cow > 0);
      let layout = env.layout in
      for node = 0 to Cluster.n_memnodes env.cluster - 1 do
        let _, store = Cluster.route env.cluster node in
        for index = 0 to layout.Layout.max_slots - 1 do
          let off = Layout.slot_off layout ~index in
          let slot =
            Sinfonia.Heap.read
              (Sinfonia.Memnode.store_heap store)
              ~off ~len:layout.Layout.node_size
          in
          if Int64.compare (Objref.seq_of_slot slot) 0L <> 0 then
            (* Raw heap sweep: slots that are not B-tree nodes (free
               space, allocator metadata) legitimately fail to decode
               and are skipped — but only for that reason. *)
            match Bnode.decode (Objref.payload_of_slot slot) with
            | exception Codec.Decode_error _ -> ()
            | n ->
                check Alcotest.bool "descendant set within beta" true
                  (Array.length n.Bnode.descendants <= 2)
        done
      done)

let test_branch_randomized_model () =
  (* Random interleaving of branch creations and writes, checked against
     a per-version Map model. *)
  with_branching ~beta:3 (fun _env br ->
      let module M = Map.Make (String) in
      let rng = Sim.Rng.create 2024 in
      let models = Hashtbl.create 16 in
      Hashtbl.replace models 0L M.empty;
      let tips = ref [ 0L ] in
      let frozen = ref [] in
      let random_of lst = List.nth lst (Sim.Rng.int rng (List.length lst)) in
      for _step = 1 to 250 do
        let c = Sim.Rng.int rng 10 in
        if c = 0 && List.length !tips + List.length !frozen < 30 then begin
          (* Branch from any existing version (tip or frozen). *)
          let from = random_of (!tips @ !frozen) in
          match Branching.create_branch br ~from with
          | sid ->
              Hashtbl.replace models sid (Hashtbl.find models from);
              tips := sid :: !tips;
              if List.mem from !tips then begin
                (* First branch freezes a tip. *)
                tips := List.filter (fun s -> not (Int64.equal s from)) !tips;
                frozen := from :: !frozen
              end
          | exception Branching.Too_many_branches _ -> ()
        end
        else begin
          let at = random_of !tips in
          let k = key (Sim.Rng.int rng 30) in
          if c < 8 then begin
            let v = Printf.sprintf "%Ld-%d" at _step in
            Branching.put br ~at k v;
            Hashtbl.replace models at (M.add k v (Hashtbl.find models at))
          end
          else begin
            let removed = Branching.remove br ~at k in
            let m = Hashtbl.find models at in
            check Alcotest.bool "remove agrees" (M.mem k m) removed;
            Hashtbl.replace models at (M.remove k m)
          end
        end
      done;
      (* Every version (frozen and tip) matches its model exactly. *)
      Hashtbl.iter
        (fun sid model ->
          let entries = audit_version br sid in
          if M.bindings model <> entries then
            Alcotest.failf "version %Ld diverged from model (%d vs %d entries)" sid
              (List.length (M.bindings model))
              (List.length entries))
        models)

let test_branch_scan () =
  with_branching (fun _env br ->
      for i = 0 to 29 do
        Branching.put br (key i) "base"
      done;
      let b1 = Branching.create_branch br ~from:0L in
      for i = 0 to 29 do
        if i mod 2 = 0 then Branching.put br ~at:b1 (key i) "updated"
      done;
      let frozen_scan = Branching.scan ~at:0L br ~from:"" ~count:100 in
      check Alcotest.int "frozen count" 30 (List.length frozen_scan);
      List.iter (fun (_, v) -> check Alcotest.string "frozen vals" "base" v) frozen_scan;
      let tip_scan = Branching.scan ~at:b1 br ~from:(key 10) ~count:5 in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "tip scan"
        [
          (key 10, "updated");
          (key 11, "base");
          (key 12, "updated");
          (key 13, "base");
          (key 14, "updated");
        ]
        tip_scan)

let test_branch_multi_version_queries () =
  with_branching ~beta:3 (fun _env br ->
      Branching.put br (key 1) "v0";
      Branching.put br (key 2) "only-in-0";
      let b1 = Branching.create_branch br ~from:0L in
      Branching.put br ~at:b1 (key 1) "v1";
      let b2 = Branching.create_branch br ~from:b1 in
      Branching.put br ~at:b2 (key 1) "v2";
      Branching.put br ~at:b2 (key 3) "new-in-2";
      check Alcotest.bool "removed in b2" true (Branching.remove br ~at:b2 (key 2));
      (* Horizontal: same key across versions, atomically. *)
      (match Branching.get_many br ~at:[ 0L; b1; b2 ] (key 1) with
      | [ (_, Some "v0"); (_, Some "v1"); (_, Some "v2") ] -> ()
      | _ -> Alcotest.fail "get_many mismatch");
      (* Vertical: the key's history along the ancestry of b2. *)
      (match Branching.history br ~from:b2 (key 1) with
      | [ (s0, Some "v0"); (s1, Some "v1"); (s2, Some "v2") ] ->
          check Alcotest.bool "root-first order" true
            (Int64.equal s0 0L && Int64.equal s1 b1 && Int64.equal s2 b2)
      | _ -> Alcotest.fail "history mismatch");
      (* Diff between versions 0 and b2. *)
      let changes = Branching.diff br ~base:0L ~other:b2 in
      check Alcotest.int "three changes" 3 (List.length changes);
      List.iter
        (fun (k, change) ->
          match change with
          | Branching.Changed ("v0", "v2") -> check Alcotest.string "changed key" (key 1) k
          | Branching.Removed "only-in-0" -> check Alcotest.string "removed key" (key 2) k
          | Branching.Added "new-in-2" -> check Alcotest.string "added key" (key 3) k
          | _ -> Alcotest.fail "unexpected change")
        changes;
      check Alcotest.int "self diff empty" 0 (List.length (Branching.diff br ~base:b2 ~other:b2)))

let test_branch_delete_semantics () =
  with_branching ~beta:2 (fun _env br ->
      Branching.put br (key 1) "base";
      let b1 = Branching.create_branch br ~from:0L in
      let b2 = Branching.create_branch br ~from:0L in
      (* 0 is read-only with two branches; cannot delete 0 or it. *)
      (match Branching.delete_branch br 0L with
      | () -> Alcotest.fail "deleted version 0"
      | exception Branching.Not_deletable _ -> ());
      (* Delete the side branch b2: its parent keeps b1 as mainline. *)
      Branching.delete_branch br b2;
      check Alcotest.bool "b2 deleted" true (Branching.is_deleted br ~sid:b2);
      check Alcotest.bool "b1 alive" false (Branching.is_deleted br ~sid:b1);
      (match Branching.get br ~at:b2 (key 1) with
      | (_ : string option) -> Alcotest.fail "read of deleted branch allowed"
      | exception Invalid_argument _ -> ());
      (* Mainline still resolves through b1. *)
      Branching.put br (key 1) "on-b1";
      check (Alcotest.option Alcotest.string) "mainline write" (Some "on-b1")
        (Branching.get br ~at:b1 (key 1));
      (* Deleting b1 too frees version 0: it becomes writable again. *)
      Branching.delete_branch br b1;
      check Alcotest.bool "0 writable again" true (Branching.writable br ~sid:0L);
      Branching.put br (key 9) "direct";
      check (Alcotest.option Alcotest.string) "write to reopened 0" (Some "direct")
        (Branching.get br ~at:0L (key 9));
      (* With a branch slot freed, a new branch may be created. *)
      let b3 = Branching.create_branch br ~from:0L in
      check Alcotest.bool "new branch" true (Int64.compare b3 b2 > 0))

let test_branch_delete_first_of_two () =
  with_branching ~beta:2 (fun _env br ->
      Branching.put br (key 1) "base";
      let b1 = Branching.create_branch br ~from:0L in
      let b2 = Branching.create_branch br ~from:0L in
      Branching.delete_branch br b1;
      (* The parent still has b2: it must NOT become writable, and the
         default mainline is gone. *)
      check Alcotest.bool "parent not writable" false (Branching.writable br ~sid:0L);
      (match Branching.put br (key 2) "via-mainline" with
      | () -> Alcotest.fail "mainline should be broken"
      | exception Branching.No_mainline _ -> ());
      (* Explicit checkout of the surviving branch works. *)
      Branching.put br ~at:b2 (key 2) "explicit";
      check (Alcotest.option Alcotest.string) "b2 write" (Some "explicit")
        (Branching.get br ~at:b2 (key 2));
      (* Deleting b2 too reopens the parent. *)
      Branching.delete_branch br b2;
      check Alcotest.bool "parent writable again" true (Branching.writable br ~sid:0L);
      Branching.put br (key 3) "direct";
      check (Alcotest.option Alcotest.string) "direct" (Some "direct")
        (Branching.get br ~at:0L (key 3)))

let test_branch_gc_reclaims_deleted () =
  with_branching ~beta:2 (fun env br ->
      for i = 0 to 29 do
        Branching.put br (key i) "base"
      done;
      let b1 = Branching.create_branch br ~from:0L in
      let scratch = Branching.create_branch br ~from:0L in
      (* Heavy rewriting on the scratch branch creates many private
         copies. *)
      for round = 1 to 3 do
        for i = 0 to 29 do
          Branching.put br ~at:scratch (key i) (Printf.sprintf "scratch%d" round)
        done
      done;
      Branching.put br ~at:b1 (key 0) "keep";
      Branching.delete_branch br scratch;
      let alloc =
        Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared ()
      in
      let freed =
        Gc.sweep_branching [ Branching.tree br ] ~alloc ~roots:(Branching.live_roots br)
      in
      check Alcotest.bool "reclaimed scratch nodes" true (freed > 0);
      (* Live versions are untouched and fully intact. *)
      check Alcotest.int "v0 intact" 30 (List.length (audit_version br 0L));
      check Alcotest.int "b1 intact" 30 (List.length (audit_version br b1));
      check (Alcotest.option Alcotest.string) "b1 value" (Some "keep")
        (Branching.get br ~at:b1 (key 0));
      (* A second sweep finds nothing more. *)
      check Alcotest.int "idempotent" 0
        (Gc.sweep_branching [ Branching.tree br ] ~alloc ~roots:(Branching.live_roots br)))

let test_branch_gc_concurrent_updates_safe () =
  with_branching ~beta:2 (fun env br ->
      for i = 0 to 19 do
        Branching.put br (key i) "base"
      done;
      let b1 = Branching.create_branch br ~from:0L in
      let scratch = Branching.create_branch br ~from:0L in
      Branching.put br ~at:scratch (key 0) "scratch";
      Branching.delete_branch br scratch;
      let alloc =
        Node_alloc.create ~cluster:env.cluster ~layout:env.layout ~shared:env.shared ()
      in
      (* Writer keeps mutating b1 while the sweep runs. *)
      let writer_done = ref false in
      Sim.spawn (fun () ->
          for i = 0 to 19 do
            Branching.put br ~at:b1 (key i) "during-gc"
          done;
          writer_done := true);
      let (_ : int) =
        Gc.sweep_branching [ Branching.tree br ] ~alloc ~roots:(Branching.live_roots br)
      in
      Sim.delay 600.0;
      check Alcotest.bool "writer finished" true !writer_done;
      let entries = audit_version br b1 in
      check Alcotest.int "b1 intact" 20 (List.length entries);
      List.iter
        (fun (_, v) -> check Alcotest.bool "no lost data" true (v = "during-gc" || v = "base"))
        entries)

let test_branch_concurrent_writers_on_clones () =
  with_branching ~n:3 ~beta:3 (fun env br ->
      for i = 0 to 19 do
        Branching.put br (key i) "base"
      done;
      let b1 = Branching.create_branch br ~from:0L in
      let b2 = Branching.create_branch br ~from:0L in
      (* Two proxies write to the two clones concurrently. *)
      let mk () =
        Branching.attach ~tree:(make_tree env) ~beta:3 ()
      in
      let done_count = ref 0 in
      let w1 = mk () and w2 = mk () in
      Sim.spawn (fun () ->
          for i = 0 to 19 do
            Branching.put w1 ~at:b1 (key i) "clone1"
          done;
          incr done_count);
      Sim.spawn (fun () ->
          for i = 0 to 19 do
            Branching.put w2 ~at:b2 (key i) "clone2"
          done;
          incr done_count);
      Sim.delay 3600.0;
      check Alcotest.int "both writers done" 2 !done_count;
      List.iter (fun (_, v) -> check Alcotest.string "b1" "clone1" v) (audit_version br b1);
      List.iter (fun (_, v) -> check Alcotest.string "b2" "clone2" v) (audit_version br b2);
      List.iter (fun (_, v) -> check Alcotest.string "origin" "base" v) (audit_version br 0L))

let () =
  Alcotest.run "mvcc"
    [
      ( "scs",
        [
          Alcotest.test_case "sequential creates" `Quick test_scs_sequential_creates;
          Alcotest.test_case "concurrent borrowing" `Quick test_scs_concurrent_borrowing;
          Alcotest.test_case "borrowing strictly serializable" `Quick
            test_scs_borrowing_strictly_serializable;
          Alcotest.test_case "no-borrowing mode" `Quick test_scs_no_borrowing_mode;
          Alcotest.test_case "staleness bound" `Quick test_scs_staleness_bound;
        ] );
      ( "gc",
        [
          Alcotest.test_case "watermark" `Quick test_gc_watermark;
          Alcotest.test_case "reclaims superseded nodes" `Quick test_gc_reclaims_superseded_nodes;
          Alcotest.test_case "background process" `Quick test_gc_background_process;
        ] );
      ( "branching",
        [
          Alcotest.test_case "basic snapshot" `Quick test_branch_basic_snapshot;
          Alcotest.test_case "parallel clones isolated" `Quick
            test_branch_parallel_clones_isolated;
          Alcotest.test_case "ancestry" `Quick test_branch_ancestry;
          Alcotest.test_case "mainline resolution" `Quick test_branch_mainline_resolution;
          Alcotest.test_case "branch limit" `Quick test_branch_limit;
          Alcotest.test_case "descendant sets bounded" `Quick
            test_branch_descendant_sets_bounded;
          Alcotest.test_case "randomized model" `Slow test_branch_randomized_model;
          Alcotest.test_case "scan" `Quick test_branch_scan;
          Alcotest.test_case "concurrent clone writers" `Quick
            test_branch_concurrent_writers_on_clones;
          Alcotest.test_case "multi-version queries" `Quick test_branch_multi_version_queries;
          Alcotest.test_case "delete semantics" `Quick test_branch_delete_semantics;
          Alcotest.test_case "delete first of two" `Quick test_branch_delete_first_of_two;
          Alcotest.test_case "gc reclaims deleted" `Quick test_branch_gc_reclaims_deleted;
          Alcotest.test_case "gc concurrent safe" `Quick test_branch_gc_concurrent_updates_safe;
        ] );
    ]
