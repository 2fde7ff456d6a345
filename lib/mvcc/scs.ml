module Ops = Btree.Ops
module Txn = Dyntxn.Txn

type t = {
  tree : Ops.tree;
  obs : Obs.t;
  stats : Obs.scs_stats;
  borrowing : bool;
  min_interval : float;
  mutex : Sim.Semaphore.t; (* one slot: creations are serialised *)
  (* Fig. 7 shared state. [last] is the (sid, root) pair of the most
     recently created read-only snapshot. *)
  mutable num_snapshots : int;
  mutable last : (int64 * Dyntxn.Objref.t) option;
  mutable last_created_at : float;
  (* Streaming checkers subscribe here to learn each creation as it
     happens: (sid, commit stamp of the snapshot-creation transaction),
     the serialization point at which snapshot [sid] froze. *)
  mutable on_create : (sid:int64 -> stamp:int64 -> unit) option;
  (* Chaos: the service is down until this simulated time; requests
     queue until it is back. *)
  mutable outage_until : float;
}

(* The proxy -> service hop, each way. *)
let rpc_one_way = 25e-6

let create ?(borrowing = true) ?(min_interval = 0.0) ~tree () =
  let obs = Sinfonia.Cluster.obs (Ops.cluster tree) in
  {
    tree;
    obs;
    stats = Obs.scs obs;
    borrowing;
    min_interval;
    mutex = Sim.Semaphore.create 1;
    num_snapshots = 0;
    last = None;
    last_created_at = neg_infinity;
    on_create = None;
    outage_until = neg_infinity;
  }

let set_on_create t f = t.on_create <- Some f

let set_outage t ~until = if until > t.outage_until then t.outage_until <- until

(* Execute Fig. 6 to completion with a blocking commit (Sec. 4.1)
   through the shared retry loop. Cache-less: [Txn.read_replicated]
   would otherwise serve the tip from a proxy cache. *)
let create_snapshot_now t =
  Obs.with_span t.obs Obs.Span.Snapshot_create @@ fun () ->
  (* The reuse window counts from the creation's start, not its end:
     every commit that returned before this instant has a stamp below
     the creation stamp, but one returning during a creation slowed by
     lock waits or replica lag may not. *)
  let started = Sim.now () in
  let ((sid, _) as result), stamp =
    Txn.run ~home:(Ops.home t.tree) ~blocking:true ~name:"scs.create_snapshot"
      (Ops.cluster t.tree) (fun txn -> Ops.Linear.create_snapshot t.tree txn)
  in
  (* A snapshot creation always writes the tip objects, so its blocking
     commit always carries a stamp. *)
  let stamp = Option.get stamp in
  Obs.Counter.incr t.stats.Obs.scs_created;
  t.last <- Some result;
  t.last_created_at <- started;
  (match t.on_create with Some f -> f ~sid ~stamp | None -> ());
  result

let request t =
  Obs.with_span t.obs Obs.Span.Scs_request @@ fun () ->
  (* Proxy → service hop. *)
  Sim.delay rpc_one_way;
  (* Chaos: requests arriving during a service outage queue until the
     service is back up. *)
  while Sim.now () < t.outage_until do
    Sim.delay (t.outage_until -. Sim.now ())
  done;
  let result =
    (* Staleness bound (Sec. 6.3): reuse the latest snapshot if it is
       younger than k. Checked again under the lock to serialize
       creations. *)
    let fresh_enough () =
      t.min_interval > 0.0
      && t.last <> None
      && Sim.now () -. t.last_created_at < t.min_interval
    in
    if fresh_enough () then begin
      Obs.Counter.incr t.stats.Obs.scs_stale_reused;
      (* Invariant: fresh_enough just proved t.last <> None. *)
      Option.get t.last
    end
    else begin
      let tmp1 = t.num_snapshots in
      Sim.Semaphore.with_acquired t.mutex (fun () ->
          if fresh_enough () then begin
            Obs.Counter.incr t.stats.Obs.scs_stale_reused;
            (* Invariant: fresh_enough just proved t.last <> None. *)
            Option.get t.last
          end
          else begin
            let tmp2 = t.num_snapshots in
            (* Fig. 7 line 4: if two or more snapshots completed while
               we were waiting, the most recent one was created entirely
               within our request window — borrow it. *)
            if t.borrowing && tmp2 >= tmp1 + 2 then begin
              Obs.Counter.incr t.stats.Obs.scs_borrowed;
              (* Invariant: tmp2 >= tmp1 + 2 means a snapshot completed,
                 so t.last was set by that completion. *)
              Option.get t.last
            end
            else begin
              let result = create_snapshot_now t in
              t.num_snapshots <- t.num_snapshots + 1;
              result
            end
          end)
    end
  in
  (* Service → proxy reply. *)
  Sim.delay rpc_one_way;
  result
