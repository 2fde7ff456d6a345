open Sinfonia
module Objref = Dyntxn.Objref
module Txn = Dyntxn.Txn

module Shared = struct
  type t = { free : int Queue.t array }

  let create ~n_memnodes =
    if n_memnodes <= 0 then invalid_arg "Node_alloc.Shared.create: need memnodes";
    { free = Array.init n_memnodes (fun _ -> Queue.create ()) }

  let free_count t ~node = Queue.length t.free.(node)
end

exception Out_of_slots of int

type t = {
  cluster : Cluster.t;
  layout : Layout.t;
  shared : Shared.t;
  chunk : int;
  local : int Queue.t array; (* reserved slot indices per memnode *)
  mutable next_node : int;
}

let create ?(chunk = 64) ?(first_node = 0) ~cluster ~layout ~shared () =
  if chunk <= 0 then invalid_arg "Node_alloc.create: chunk must be positive";
  let n = Cluster.n_memnodes cluster in
  {
    cluster;
    layout;
    shared;
    chunk;
    local = Array.init n (fun _ -> Queue.create ());
    next_node = first_node mod n;
  }

let alloc_ptr_ref t ~node =
  Objref.make
    ~addr:(Address.make ~node ~off:(Layout.alloc_ptr_off t.layout))
    ~len:Layout.slot_len_small

(* Reserve [chunk] fresh slot indices on [node] with a CAS loop on the
   memnode's allocation pointer. *)
let reserve_chunk t ~node =
  let rec attempt tries =
    if tries > 64 then raise (Out_of_slots node);
    let txn = Txn.begin_ t.cluster ~home:node in
    let next = Int64.to_int (Layout.decode_i64 (Txn.read txn (alloc_ptr_ref t ~node))) in
    if next >= t.layout.Layout.max_slots then begin
      (* Nothing left to extend; rely on the free list. The read-only
         commit's outcome cannot change that, but match it exhaustively
         so Memnode.Crashed / Txn.Aborted propagate to the retry loop
         instead of being discarded with the result. *)
      match Txn.commit txn with
      | Txn.Committed | Txn.Validation_failed | Txn.Retry_exhausted | Txn.Unavailable _ ->
          raise (Out_of_slots node)
    end
    else begin
      let take = min t.chunk (t.layout.Layout.max_slots - next) in
      Txn.write txn (alloc_ptr_ref t ~node) (Layout.encode_i64 (Int64.of_int (next + take)));
      match Txn.commit txn with
      | Txn.Committed ->
          for i = next to next + take - 1 do
            Queue.add i t.local.(node)
          done;
          Obs.Counter.incr (Obs.btree (Cluster.obs t.cluster)).Obs.chunk_reservations
      | Txn.Validation_failed | Txn.Retry_exhausted | Txn.Unavailable _ -> attempt (tries + 1)
    end
  in
  attempt 0

let alloc_on t ~node =
  (* Prefer locally reserved slots, then GC'd slots, then a fresh chunk. *)
  if Queue.is_empty t.local.(node) then begin
    match Queue.take_opt t.shared.Shared.free.(node) with
    | Some idx -> Queue.add idx t.local.(node)
    | None -> reserve_chunk t ~node
  end;
  match Queue.take_opt t.local.(node) with
  | Some idx -> Layout.node_ref t.layout ~node ~index:idx
  | None -> raise (Out_of_slots node)

let alloc t =
  let node = t.next_node in
  t.next_node <- (t.next_node + 1) mod Cluster.n_memnodes t.cluster;
  alloc_on t ~node

let free t (ref_ : Objref.t) =
  let node = Objref.node ref_ in
  let index = Layout.slot_index t.layout ~off:ref_.Objref.addr.Address.off in
  Queue.add index t.shared.Shared.free.(node)
