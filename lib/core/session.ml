module Ops = Btree.Ops
module Txn = Dyntxn.Txn

type index = int

module Event = Mvcc.Event

type t = {
  db : Db.t;
  tracer : (Event.t -> unit) option;
  obs : Obs.t;
  trees : Ops.tree array;
  branchings : Mvcc.Branching.t array;
}

let index db i =
  if i < 0 || i >= Db.n_trees db then
    invalid_arg
      (Printf.sprintf "Session.index: %d out of range (database has %d indexes)" i
         (Db.n_trees db));
  i

let attach ?(home = 0) ?client ?tracer db =
  let config = Db.config db in
  if home < 0 || home >= config.Config.hosts then invalid_arg "Session.attach: home out of range";
  let cache =
    Dyntxn.Objcache.create ~capacity:config.Config.cache_capacity
      ~same_content:Btree.Bview.same_stamp (Db.obs db)
  in
  let trees =
    Array.init config.Config.n_trees (fun tree_id ->
        Db.make_tree_handle ?client ~config ~cluster:(Db.cluster db)
          ~shared_alloc:(Db.shared_alloc db) ~view_memo:(Db.view_memo db) ~cache ~home ~tree_id
          ())
  in
  let branchings =
    if config.Config.branching then
      Array.map
        (fun tree ->
          Mvcc.Branching.attach
            ~broken_isolation:config.Config.broken_branch_isolation
            ?tracer ~tree ~beta:config.Config.beta ())
        trees
    else [||]
  in
  { db; tracer; obs = Db.obs db; trees; branchings }

let db t = t.db

let tree_of t index = t.trees.(index)

let check_linear t =
  if (Db.config t.db).Config.branching then
    invalid_arg "Session: linear-snapshot operation on a branching database"

let vctx_of t index txn = Ops.Linear.tip t.trees.(index) txn

let get ?(index = 0) t k =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Get ~path:Obs.Op.Up_to_date @@ fun () ->
  Event.traced t.tracer t.trees.(index)
    (fun () -> Ops.get t.trees.(index) ~vctx_of:(vctx_of t index) k)
    (fun result -> Event.Get { key = k; result })

let put ?(index = 0) t k v =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Put ~path:Obs.Op.Up_to_date @@ fun () ->
  Event.traced_write t.tracer t.trees.(index) ~unknown:()
    (fun () -> Ops.put t.trees.(index) ~vctx_of:(vctx_of t index) k v)
    (fun () -> Event.Put { key = k; value = v })

let remove ?(index = 0) t k =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Remove ~path:Obs.Op.Up_to_date @@ fun () ->
  Event.traced_write t.tracer t.trees.(index) ~unknown:false
    (fun () -> Ops.remove t.trees.(index) ~vctx_of:(vctx_of t index) k)
    (fun removed -> Event.Remove { key = k; removed })

let scan ?(index = 0) t ~from ~count =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Scan ~path:Obs.Op.Up_to_date @@ fun () ->
  Event.traced t.tracer t.trees.(index)
    (fun () -> Ops.scan t.trees.(index) ~vctx_of:(vctx_of t index) ~from ~count)
    (fun result -> Event.Scan { from; count; result })

let multi_get t pairs =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Multi_get ~path:Obs.Op.Up_to_date @@ fun () ->
  Ops.multi_get
    (List.map (fun (index, k) -> (t.trees.(index), k)) pairs)
    ~vctx_of:(fun tree txn -> Ops.Linear.tip tree txn)

let multi_put t triples =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Multi_put ~path:Obs.Op.Up_to_date @@ fun () ->
  Ops.multi_put
    (List.map (fun (index, k, v) -> (t.trees.(index), k, v)) triples)
    ~vctx_of:(fun tree txn -> Ops.Linear.tip tree txn)

type txn = { session : t; raw : Txn.t }

let with_txn t f =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.With_txn ~path:Obs.Op.Up_to_date @@ fun () ->
  Ops.run_txn t.trees.(0) (fun raw -> f { session = t; raw })

let t_vctx txn index = Ops.Linear.tip txn.session.trees.(index) txn.raw

let t_get ?(index = 0) txn k =
  Ops.get_in_txn txn.session.trees.(index) txn.raw (t_vctx txn index) k

let t_put ?(index = 0) txn k v =
  Ops.put_in_txn txn.session.trees.(index) txn.raw (t_vctx txn index) k v

let t_remove ?(index = 0) txn k =
  Ops.remove_in_txn txn.session.trees.(index) txn.raw (t_vctx txn index) k

type snapshot = { index : int; sid : int64; root : Dyntxn.Objref.t }

let snapshot ?(index = 0) t =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Snapshot_req ~path:Obs.Op.Up_to_date @@ fun () ->
  let invoked = Sim.now () in
  let sid, root = Mvcc.Scs.request (Db.scs t.db ~index) in
  Event.emit t.tracer t.trees.(index) ~invoked ~sid Event.Snapshot_taken;
  { index; sid; root }

let snap_vctx t snap _txn = Ops.Linear.at_snapshot t.trees.(snap.index) ~sid:snap.sid ~root:snap.root

let get_at t snap k =
  Obs.time_op t.obs ~op:Obs.Op.Get ~path:Obs.Op.At_snapshot @@ fun () ->
  let tree = t.trees.(snap.index) and invoked = Sim.now () in
  let result = Ops.get tree ~vctx_of:(snap_vctx t snap) k in
  Event.emit t.tracer tree ~invoked ~sid:snap.sid (Event.Get { key = k; result });
  result

let scan_at t snap ~from ~count =
  Obs.time_op t.obs ~op:Obs.Op.Scan ~path:Obs.Op.At_snapshot @@ fun () ->
  let tree = t.trees.(snap.index) and invoked = Sim.now () in
  let result = Ops.scan tree ~vctx_of:(snap_vctx t snap) ~from ~count in
  Event.emit t.tracer tree ~invoked ~sid:snap.sid (Event.Scan { from; count; result });
  result

let branching ?(index = 0) t =
  if not (Db.config t.db).Config.branching then
    invalid_arg "Session.branching: database not started in branching mode";
  t.branchings.(index)
