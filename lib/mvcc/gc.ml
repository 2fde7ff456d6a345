open Sinfonia
module Ops = Btree.Ops
module Layout = Btree.Layout
module Bnode = Btree.Bnode
module Node_alloc = Btree.Node_alloc
module Txn = Dyntxn.Txn
module Objref = Dyntxn.Objref

let lowest_off tree = Layout.lowest_sid_off (Ops.layout tree) ~tree:(Ops.tree_id tree)

(* GC transactions are cache-less and commit through the shared retry
   loop: an outage backs off and retries, and a round that still fails
   raises to the policy loop. *)
let set_lowest tree sid =
  fst
    (Txn.run ~home:(Ops.home tree) ~name:"gc.set_lowest" (Ops.cluster tree) (fun txn ->
         Txn.write_replicated txn ~off:(lowest_off tree) ~len:Layout.slot_len_small
           (Layout.encode_i64 sid)))

let get_lowest tree =
  fst
    (Txn.run ~home:(Ops.home tree) ~name:"gc.get_lowest" (Ops.cluster tree) (fun txn ->
         Layout.decode_i64
           (Txn.dirty_read_replicated txn ~off:(lowest_off tree) ~len:Layout.slot_len_small)))

let keep_recent tree ~n =
  let (tip, _), _ =
    Txn.run ~home:(Ops.home tree) ~name:"gc.keep_recent" (Ops.cluster tree) (fun txn ->
        Ops.Linear.read_tip tree txn)
  in
  let watermark = Int64.sub tip (Int64.of_int n) in
  if Int64.compare watermark 0L > 0 then set_lowest tree watermark

(* Reclaim one slot transactionally: only if it still holds the node
   version we examined (compare on the sequence number) do we zero it.
   A concurrent writer reusing or updating the slot wins the race. *)
let reclaim tree (ref_ : Objref.t) ~observed_seq =
  let cluster = Ops.cluster tree in
  let zeros = String.make ref_.Objref.len '\000' in
  let mtx =
    Mtx.make
      ~compares:[ Mtx.compare_at ref_.Objref.addr (Objref.seq_bytes observed_seq) ]
      ~writes:[ Mtx.write_at ref_.Objref.addr zeros ]
      ()
  in
  match Coordinator.exec cluster mtx with
  | Mtx.Committed _ -> true
  | Mtx.Failed_compare _ | Mtx.Busy | Mtx.Unavailable _ -> false

(* The slot walk both sweeps share. It runs at each memnode itself,
   reading every node slot locally for a small CPU cost per 128 slots,
   and reclaims each live slot that [collectable ref_ ~seq node] accepts
   and that decodes as a B-tree node ([node] decodes it when forced). A
   space with no live copy is skipped: its slots wait for a later round.
   Returns the number of slots reclaimed, each also counted in
   [counter]. *)
let walk tree ~alloc ~counter collectable =
  let cluster = Ops.cluster tree in
  let layout = Ops.layout tree in
  let freed = ref 0 in
  for node = 0 to Cluster.n_memnodes cluster - 1 do
    match Cluster.route cluster node with
    | exception Cluster.Unavailable _ -> ()
    | mn, store ->
        for index = 0 to layout.Layout.max_slots - 1 do
          if index mod 128 = 0 then Memnode.serve mn ~cost:2e-6;
          let off = Layout.slot_off layout ~index in
          let slot = Heap.read (Memnode.store_heap store) ~off ~len:layout.Layout.node_size in
          let seq = Objref.seq_of_slot slot in
          if Int64.compare seq 0L <> 0 then begin
            let ref_ = Layout.node_ref layout ~node ~index in
            let bnode = lazy (Bnode.decode (Objref.payload_of_slot slot)) in
            match if collectable ref_ ~seq bnode then Some (Lazy.force bnode) else None with
            | exception Codec.Decode_error _ ->
                (* Not a B-tree node (or torn): skip it. Anything else —
                   in particular Memnode.Crashed — propagates. *)
                ()
            | None -> ()
            | Some (_ : Bnode.t) ->
                if reclaim tree ref_ ~observed_seq:seq then begin
                  Node_alloc.free alloc ref_;
                  incr freed;
                  Obs.Counter.incr counter
                end
          end
        done
  done;
  !freed

let sweep tree ~alloc =
  let lowest = get_lowest tree in
  if Int64.compare lowest 0L <= 0 then 0
  else
    (* Collectable iff superseded at or below the watermark: no
       snapshot above the watermark can reach it. *)
    walk tree ~alloc ~counter:(Obs.gc (Cluster.obs (Ops.cluster tree))).Obs.slots_reclaimed
      (fun _ ~seq:_ node ->
        Array.exists (fun d -> Int64.compare d lowest <= 0) (Lazy.force node).Bnode.descendants)

let sweep_branching trees ~alloc ~roots =
  let tree = match trees with [] -> invalid_arg "Gc.sweep_branching: no trees" | t :: _ -> t in
  let cluster = Ops.cluster tree in
  (* Anything committed after this point has a sequence number >= floor
     and is spared even if the mark phase cannot see it yet. *)
  let seq_floor = Cluster.owner_watermark cluster in
  let marked : (Objref.t, unit) Hashtbl.t = Hashtbl.create 4096 in
  (* Unlike the walk, the mark gives up on a space with no live copy
     ([Cluster.Unavailable] propagates): children it cannot see would
     be reclaimed. *)
  let read_node (ptr : Objref.t) =
    let mn, store = Cluster.route cluster (Objref.node ptr) in
    Memnode.serve mn ~cost:1e-6;
    let slot =
      Heap.read (Memnode.store_heap store) ~off:ptr.Objref.addr.Address.off ~len:ptr.Objref.len
    in
    if Int64.compare (Objref.seq_of_slot slot) 0L = 0 then None
    else
      match Bnode.decode (Objref.payload_of_slot slot) with
      | n -> Some n
      | exception Codec.Decode_error _ ->
          (* Slot holds something that is not a B-tree node; crashes
             and other exceptions propagate to the GC driver. *)
          None
  in
  let rec mark ptr =
    if not (Hashtbl.mem marked ptr) then begin
      Hashtbl.replace marked ptr ();
      match read_node ptr with
      | None -> ()
      | Some n -> (
          match n.Bnode.body with
          | Bnode.Leaf _ -> ()
          | Bnode.Internal { children; _ } -> Array.iter mark children)
    end
  in
  List.iter mark roots;
  (* Sweep: reclaim unmarked node slots older than the floor. *)
  walk tree ~alloc ~counter:(Obs.gc (Cluster.obs cluster)).Obs.branch_slots_reclaimed
    (fun ref_ ~seq _ -> Int64.compare seq seq_floor < 0 && not (Hashtbl.mem marked ref_))
