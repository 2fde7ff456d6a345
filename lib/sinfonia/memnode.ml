type store = {
  heap : Heap.t;
  mutable locks : Lock_table.t;
  mutable store_serving : int;
  space : int; (* the address space this store is an image of *)
  redo : Redo_log.t; (* stable storage, shared with the space's other image *)
}

let store_heap s = s.heap

let store_locks s = s.locks

let store_serving s = s.store_serving

let store_space s = s.space

let store_redo s = s.redo

exception Crashed

type t = {
  id : int;
  cpu : Sim.Resource.t;
  mutable primary_store : store;
  replicas : (int, store) Hashtbl.t;
  mutable crashed : bool;
  mutable epoch : int; (* bumped on every crash; in-flight ops compare *)
  mutable crash_hook : (unit -> unit) option;
  heap_capacity : int;
}

let make_store ?redo ~space capacity =
  let redo = match redo with Some r -> r | None -> Redo_log.create () in
  { heap = Heap.create ~capacity (); locks = Lock_table.create (); store_serving = 0; space; redo }

let create ?redo ~id ~cores ~heap_capacity () =
  {
    id;
    cpu = Sim.Resource.create ~name:(Printf.sprintf "memnode-%d" id) ~servers:cores ();
    primary_store = make_store ?redo ~space:id heap_capacity;
    replicas = Hashtbl.create 4;
    crashed = false;
    epoch = 0;
    crash_hook = None;
    heap_capacity;
  }

let id t = t.id

let cpu t = t.cpu

let primary t = t.primary_store

let crashed t = t.crashed

let epoch t = t.epoch

let set_crash_hook t f = t.crash_hook <- Some f

(* A mid-request crash: lands immediately, even with requests in
   flight. In-flight participant operations observe the epoch bump at
   their next service-time boundary and raise {!Crashed}; whatever they
   had voted survives in the redo log for the recovery coordinator. *)
let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    t.epoch <- t.epoch + 1;
    (* Volatile lock state dies with the node; the redo log does not. *)
    t.primary_store.locks <- Lock_table.create ();
    match t.crash_hook with None -> () | Some f -> f ()
  end

let begin_serving t store =
  if t.crashed then raise Crashed;
  store.store_serving <- store.store_serving + 1

let end_serving store = store.store_serving <- max 0 (store.store_serving - 1)

let check_alive t ~epoch = if t.crashed || t.epoch <> epoch then raise Crashed

(* Re-acquire exclusive locks over the write set of every in-doubt
   (voted, undecided) transaction in [store]'s log, under the
   transaction's own tid. Called after a crash wipes the volatile lock
   table: nothing may slip under an undecided transaction's writes
   before the recovery coordinator resolves it. *)
let relock_in_doubt store =
  List.iter
    (fun (e : Redo_log.entry) ->
      ignore (Lock_table.try_acquire store.locks ~owner:e.e_tid (Redo_log.write_ranges e)))
    (Redo_log.in_doubt store.redo)

let recover ?(broken = false) t ~from_replica =
  (* Roll the replica image forward first: committed-but-unmirrored redo
     entries are exactly the writes the replica missed. Skipping this
     ([broken] — the falsifiability hook) silently loses them. *)
  let replayed = if broken then 0 else Redo_log.replay t.primary_store.redo ~heap:from_replica.heap in
  Heap.copy_into ~src:from_replica.heap ~dst:t.primary_store.heap;
  t.primary_store.locks <- Lock_table.create ();
  relock_in_doubt t.primary_store;
  (* The replica store carried the in-doubt locks while it was serving;
     the restored primary holds them now. *)
  from_replica.locks <- Lock_table.create ();
  t.crashed <- false;
  replayed

let add_replica t ~of_node ~heap_capacity ~redo =
  match Hashtbl.find_opt t.replicas of_node with
  | Some s -> s
  | None ->
      let s = make_store ~redo ~space:of_node heap_capacity in
      Hashtbl.add t.replicas of_node s;
      s

let replica t ~of_node = Hashtbl.find_opt t.replicas of_node

let recover_orphaned_locks t ~lease =
  let cutoff = Sim.now () -. lease in
  (* Sweep replicas in space order so orphan-release order (and the
     count any report prints) is deterministic per seed. *)
  let stores =
    t.primary_store :: List.map snd (Sim.Det.sorted_bindings t.replicas ~cmp:Int.compare)
  in
  List.fold_left
    (fun count store ->
      (* Owners with a logged vote are not orphans: their transaction is
         in doubt and belongs to the recovery coordinator, which will
         commit or abort it — releasing here could let a conflicting
         write slip under a transaction that later commits. *)
      let orphans =
        Lock_table.owners_older_than store.locks cutoff
        |> List.filter (fun owner -> not (Redo_log.voted store.redo ~tid:owner))
      in
      List.iter (fun owner -> Lock_table.release store.locks ~owner) orphans;
      count + List.length orphans)
    0 stores

let serve t ~cost = if cost > 0.0 then Sim.Resource.use t.cpu ~service_time:cost

(* -------------------------------------------------------------------- *)
(* Participant logic                                                     *)
(* -------------------------------------------------------------------- *)

type part = {
  p_compares : (int * Mtx.compare_item) list;
  p_reads : (int * Mtx.read_item) list;
  p_writes : Mtx.write_item list;
}

let part_of_mtx (mtx : Mtx.t) ~node =
  let on_node addr = addr.Address.node = node in
  {
    p_compares =
      List.mapi (fun i c -> (i, c)) mtx.compares
      |> List.filter (fun (_, c) -> on_node c.Mtx.c_addr);
    p_reads =
      List.mapi (fun i r -> (i, r)) mtx.reads
      |> List.filter (fun (_, r) -> on_node r.Mtx.r_addr);
    p_writes = List.filter (fun w -> on_node w.Mtx.w_addr) mtx.writes;
  }

let part_item_count p = List.length p.p_compares + List.length p.p_reads + List.length p.p_writes

let part_bytes p =
  List.fold_left (fun acc (_, c) -> acc + String.length c.Mtx.c_expected) 0 p.p_compares
  + List.fold_left (fun acc (_, r) -> acc + r.Mtx.r_len) 0 p.p_reads
  + List.fold_left (fun acc w -> acc + String.length w.Mtx.w_data) 0 p.p_writes
  + (Address.encoded_size * part_item_count p)

let part_cost (cfg : Config.t) p =
  cfg.svc_msg
  +. (cfg.svc_item *. float_of_int (part_item_count p))
  +. (cfg.svc_per_kb *. (float_of_int (part_bytes p) /. 1024.0))

let ranges_of_part p =
  let range_of_addr (addr : Address.t) len mode = { Lock_table.start = addr.off; len; mode } in
  List.map
    (fun (_, c) ->
      range_of_addr c.Mtx.c_addr (String.length c.Mtx.c_expected) Lock_table.Shared)
    p.p_compares
  @ List.map (fun (_, r) -> range_of_addr r.Mtx.r_addr r.Mtx.r_len Lock_table.Shared) p.p_reads
  @ List.map
      (fun w -> range_of_addr w.Mtx.w_addr (String.length w.Mtx.w_data) Lock_table.Exclusive)
      p.p_writes

type prepare_result =
  | Prepared of (int * string) list
  | Busy_locks
  | Compare_failed of int list

let evaluate_and_read store ~owner p =
  let failed =
    List.filter_map
      (fun (idx, c) ->
        if Heap.equal_at store.heap ~off:c.Mtx.c_addr.Address.off c.Mtx.c_expected then None
        else Some idx)
      p.p_compares
  in
  if failed <> [] then begin
    Lock_table.release store.locks ~owner;
    Compare_failed failed
  end
  else
    let reads =
      List.map
        (fun (idx, r) ->
          let off = r.Mtx.r_addr.Address.off and len = r.Mtx.r_len in
          (* Trimmed reads reply with the slot's used prefix only; the
             full range was still locked and charged on the request
             side, but the response transfers just the live bytes. *)
          ( idx,
            if r.Mtx.r_trim then Mtx.trimmed_read store.heap ~off ~len
            else Heap.read store.heap ~off ~len ))
        p.p_reads
    in
    Prepared reads

let apply_writes store writes =
  List.iter (fun w -> Heap.write store.heap ~off:w.Mtx.w_addr.Address.off w.Mtx.w_data) writes

(* Participant operations: a small reception cost decides lock
   acquisition; the bulk of the service time is spent holding the
   locks. Each service window is followed by an epoch check: a
   mid-request crash ([crash]) bumps the epoch and the operation raises
   {!Crashed} at its next boundary instead of completing against wiped
   state. *)
let reception_cost cost = Float.min cost 2e-6

(* Evaluate under held locks, then vote. The refusal re-check and the
   vote append are adjacent (no scheduler yield between them): a
   recovery force-abort either lands before — and the prepare votes no —
   or after, in which case it sees the vote and resolves normally. *)
let finish_prepare store ~owner ~participants p =
  match evaluate_and_read store ~owner p with
  | Prepared _ as r ->
      if Redo_log.refused store.redo ~tid:owner then begin
        (* Recovery force-aborted this tid while we held the CPU or
           waited for locks; voting yes now would contradict the
           recorded decision. *)
        Lock_table.release store.locks ~owner;
        Busy_locks
      end
      else begin
        (match participants with
        | Some ps -> Redo_log.append store.redo ~tid:owner ~participants:ps ~writes:p.p_writes
        | None -> ());
        r
      end
  | r -> r

(* [lock_wait] bounds a blocking minitransaction's wait at this memnode
   for busy locks (Sec. 4.1); without it the locks are tried once. *)
let prepare_timed t store ~owner ?participants ?lock_wait p ~cost =
  let ep = t.epoch in
  serve t ~cost:(reception_cost cost);
  check_alive t ~epoch:ep;
  if Redo_log.refused store.redo ~tid:owner then Busy_locks
  else if
    match lock_wait with
    | Some timeout -> Lock_table.acquire_blocking store.locks ~owner (ranges_of_part p) ~timeout
    | None -> Lock_table.try_acquire store.locks ~owner (ranges_of_part p)
  then begin
    (* A crash may have landed while we waited for the locks. *)
    check_alive t ~epoch:ep;
    serve t ~cost:(cost -. reception_cost cost);
    check_alive t ~epoch:ep;
    finish_prepare store ~owner ~participants p
  end
  else Busy_locks

let commit_timed t store ~owner p ~stamp ~cost =
  let ep = t.epoch in
  serve t ~cost;
  check_alive t ~epoch:ep;
  (match Redo_log.decide_commit store.redo ~tid:owner ~stamp with
  | `Apply -> apply_writes store p.p_writes
  | `Skip ->
      (* The recovery coordinator resolved this transaction first; the
         writes are already in place (possibly under later commits). *)
      ());
  Lock_table.release store.locks ~owner

let abort_timed t store ~owner ~cost =
  let ep = t.epoch in
  serve t ~cost;
  check_alive t ~epoch:ep;
  Redo_log.decide_abort store.redo ~tid:owner;
  Lock_table.release store.locks ~owner

(* One-phase execution. The 1PC commit goes through the redo log so a
   crash after the commit but before the write reaches the replica
   image cannot lose it (promotion replays the log). Stamp draw, log
   append, decision and apply happen with no scheduler yield between
   them, so the entry is never observable in the Prepared state. *)
let execute_single_timed t store ~owner ~stamp ?lock_wait p ~cost =
  match prepare_timed t store ~owner ?lock_wait p ~cost with
  | Prepared _ as r ->
      let s = stamp () in
      Redo_log.append store.redo ~tid:owner ~participants:[ store.space ] ~writes:p.p_writes;
      (match Redo_log.decide_commit store.redo ~tid:owner ~stamp:s with
      | `Apply -> apply_writes store p.p_writes
      | `Skip -> ());
      Lock_table.release store.locks ~owner;
      (r, Some s)
  | (Busy_locks | Compare_failed _) as r -> (r, None)
