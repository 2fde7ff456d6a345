type entry = { seq : int64; payload : string }

type status = Fresh of entry | Stale of entry | Miss

(* LRU: hashtable keyed by address paired with an intrusive
   doubly-linked recency list. Every node is tagged with the crash
   epoch of its object's address space at insertion time; a crash bumps
   the space's epoch (observed from minitransaction replies), turning
   all older entries Stale without touching them. *)
type lru_node = {
  key : Objref.t;
  mutable value : entry;
  mutable epoch : int;
  mutable prev : lru_node option;
  mutable next : lru_node option;
}

type t = {
  table : (Objref.t, lru_node) Hashtbl.t;
  capacity : int;
  stats : Obs.cache_stats;
  space_epochs : (int, int) Hashtbl.t; (* current crash epoch per space *)
  mutable head : lru_node option; (* most recently used *)
  mutable tail : lru_node option; (* least recently used *)
}

let create ?(capacity = 65536) obs =
  if capacity <= 0 then invalid_arg "Objcache.create: capacity must be positive";
  {
    table = Hashtbl.create 1024;
    capacity;
    stats = Obs.cache obs;
    space_epochs = Hashtbl.create 8;
    head = None;
    tail = None;
  }

let space_epoch t space =
  match Hashtbl.find_opt t.space_epochs space with Some e -> e | None -> 0

let observe_epoch t ~space ~epoch =
  if epoch > space_epoch t space then Hashtbl.replace t.space_epochs space epoch

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let is_fresh t key node = node.epoch = space_epoch t (Objref.node key)

let find_status t key =
  match Hashtbl.find_opt t.table key with
  | None ->
      Obs.Counter.incr t.stats.Obs.cache_misses;
      Miss
  | Some node ->
      unlink t node;
      push_front t node;
      if is_fresh t key node then begin
        Obs.Counter.incr t.stats.Obs.cache_hits;
        Fresh node.value
      end
      else begin
        (* The entry predates a crash of its space. Not counted as a
           hit: the caller must revalidate it before trusting it. *)
        Obs.Counter.incr t.stats.Obs.cache_stale_hits;
        Stale node.value
      end

let find t key =
  match find_status t key with Fresh e -> Some e | Stale _ | Miss -> None

let mem t key =
  match Hashtbl.find_opt t.table key with Some node -> is_fresh t key node | None -> false

(* An epoch-stale entry was re-fetched. It "survived" (the flush would
   have been wasted) when the sequence number is unchanged: promotion
   and replay apply whole slots, sequence number included, so a slot
   that kept its content kept its number. *)
let note_revalidation t ~old ~seq =
  Obs.Counter.incr t.stats.Obs.cache_epoch_revalidations;
  if Int64.equal old.seq seq then Obs.Counter.incr t.stats.Obs.cache_epoch_survived

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      Obs.Counter.incr t.stats.Obs.cache_evictions

let insert t key value =
  let epoch = space_epoch t (Objref.node key) in
  match Hashtbl.find_opt t.table key with
  | Some node ->
      node.value <- value;
      node.epoch <- epoch;
      unlink t node;
      push_front t node
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let node = { key; value; epoch; prev = None; next = None } in
      Hashtbl.add t.table key node;
      push_front t node

let invalidate t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table key;
      Obs.Counter.incr t.stats.Obs.cache_evictions

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  Obs.Counter.incr t.stats.Obs.cache_bulk_evictions

let size t = Hashtbl.length t.table
