module Ops = Btree.Ops
module Txn = Dyntxn.Txn

type index = int

module Event = struct
  type operation =
    | Get of { key : string; result : string option }
    | Put of { key : string; value : string }
    | Remove of { key : string; removed : bool }
    | Scan of { from : string; count : int; result : (string * string) list }
    | Snapshot_taken
    | Branch_created of { parent : int64; sid : int64 }
    | Branch_deleted of { sid : int64 }
    | Branch_get of { at : int64; key : string; result : string option }
    | Branch_put of { at : int64; key : string; value : string }
    | Branch_remove of { at : int64; key : string; removed : bool }
    | Branch_scan of { at : int64; from : string; count : int; result : (string * string) list }
    | Get_many of { key : string; results : (int64 * string option) list }
    | History of { from : int64; key : string; results : (int64 * string option) list }

  type t = {
    client : int option;
    index : int;
    op : operation;
    invoked_at : float;
    returned_at : float;
    stamp : int64 option;
    sid : int64 option;
    ambiguous : bool;
  }

  let pp_result fmt r =
    Format.pp_print_option
      ~none:(fun f () -> Format.pp_print_string f "none")
      (fun f v -> Format.fprintf f "%S" v)
      fmt r

  let pp_versioned fmt results =
    Format.pp_print_list
      ~pp_sep:(fun f () -> Format.pp_print_string f " ")
      (fun f (sid, r) -> Format.fprintf f "%Ld:%a" sid pp_result r)
      fmt results

  let pp_operation fmt = function
    | Get { key; result } -> Format.fprintf fmt "get %S -> %a" key pp_result result
    | Put { key; value } -> Format.fprintf fmt "put %S %S" key value
    | Remove { key; removed } -> Format.fprintf fmt "remove %S -> %b" key removed
    | Scan { from; count; result } ->
        Format.fprintf fmt "scan from:%S count:%d -> %d entries" from count (List.length result)
    | Snapshot_taken -> Format.fprintf fmt "snapshot"
    | Branch_created { parent; sid } -> Format.fprintf fmt "branch %Ld -> %Ld" parent sid
    | Branch_deleted { sid } -> Format.fprintf fmt "delete-branch %Ld" sid
    | Branch_get { at; key; result } ->
        Format.fprintf fmt "get@%Ld %S -> %a" at key pp_result result
    | Branch_put { at; key; value } -> Format.fprintf fmt "put@%Ld %S %S" at key value
    | Branch_remove { at; key; removed } ->
        Format.fprintf fmt "remove@%Ld %S -> %b" at key removed
    | Branch_scan { at; from; count; result } ->
        Format.fprintf fmt "scan@%Ld from:%S count:%d -> %d entries" at from count
          (List.length result)
    | Get_many { key; results } ->
        Format.fprintf fmt "get-many %S -> [%a]" key pp_versioned results
    | History { from; key; results } ->
        Format.fprintf fmt "history@%Ld %S -> [%a]" from key pp_versioned results

  let pp fmt t =
    Format.fprintf fmt "@[<h>[%.6f,%.6f]%a%a%a%s idx%d %a@]" t.invoked_at t.returned_at
      (Format.pp_print_option (fun f c -> Format.fprintf f " client%d" c))
      t.client
      (Format.pp_print_option (fun f s -> Format.fprintf f " stamp:%Ld" s))
      t.stamp
      (Format.pp_print_option (fun f s -> Format.fprintf f " sid:%Ld" s))
      t.sid
      (if t.ambiguous then " AMBIGUOUS" else "")
      t.index pp_operation t.op

  (* JSON codec. Int64s travel as decimal strings (JSON numbers are
     doubles and lose precision past 2^53); [None] is [Null]; entry
     lists are lists of two-element lists. *)
  module J = Obs.Json

  let json_of_i64 s = J.String (Int64.to_string s)

  let json_of_opt f = function None -> J.Null | Some v -> f v

  let json_of_str s = J.String s

  let json_of_entries entries =
    J.List (List.map (fun (k, v) -> J.List [ J.String k; J.String v ]) entries)

  let json_of_versioned results =
    J.List
      (List.map (fun (sid, r) -> J.List [ json_of_i64 sid; json_of_opt json_of_str r ]) results)

  let op_to_json = function
    | Get { key; result } ->
        J.Obj [ ("op", J.String "get"); ("key", J.String key); ("result", json_of_opt json_of_str result) ]
    | Put { key; value } ->
        J.Obj [ ("op", J.String "put"); ("key", J.String key); ("value", J.String value) ]
    | Remove { key; removed } ->
        J.Obj [ ("op", J.String "remove"); ("key", J.String key); ("removed", J.Bool removed) ]
    | Scan { from; count; result } ->
        J.Obj
          [
            ("op", J.String "scan");
            ("from", J.String from);
            ("count", J.Int count);
            ("result", json_of_entries result);
          ]
    | Snapshot_taken -> J.Obj [ ("op", J.String "snapshot_taken") ]
    | Branch_created { parent; sid } ->
        J.Obj
          [ ("op", J.String "branch_created"); ("parent", json_of_i64 parent); ("sid", json_of_i64 sid) ]
    | Branch_deleted { sid } ->
        J.Obj [ ("op", J.String "branch_deleted"); ("sid", json_of_i64 sid) ]
    | Branch_get { at; key; result } ->
        J.Obj
          [
            ("op", J.String "branch_get");
            ("at", json_of_i64 at);
            ("key", J.String key);
            ("result", json_of_opt json_of_str result);
          ]
    | Branch_put { at; key; value } ->
        J.Obj
          [
            ("op", J.String "branch_put");
            ("at", json_of_i64 at);
            ("key", J.String key);
            ("value", J.String value);
          ]
    | Branch_remove { at; key; removed } ->
        J.Obj
          [
            ("op", J.String "branch_remove");
            ("at", json_of_i64 at);
            ("key", J.String key);
            ("removed", J.Bool removed);
          ]
    | Branch_scan { at; from; count; result } ->
        J.Obj
          [
            ("op", J.String "branch_scan");
            ("at", json_of_i64 at);
            ("from", J.String from);
            ("count", J.Int count);
            ("result", json_of_entries result);
          ]
    | Get_many { key; results } ->
        J.Obj
          [ ("op", J.String "get_many"); ("key", J.String key); ("results", json_of_versioned results) ]
    | History { from; key; results } ->
        J.Obj
          [
            ("op", J.String "history");
            ("from", json_of_i64 from);
            ("key", J.String key);
            ("results", json_of_versioned results);
          ]

  let to_json t =
    J.Obj
      [
        ("client", json_of_opt (fun c -> J.Int c) t.client);
        ("index", J.Int t.index);
        ("invoked_at", J.Float t.invoked_at);
        ("returned_at", J.Float t.returned_at);
        ("stamp", json_of_opt json_of_i64 t.stamp);
        ("sid", json_of_opt json_of_i64 t.sid);
        ("ambiguous", J.Bool t.ambiguous);
        ("operation", op_to_json t.op);
      ]

  let fail fmt = Format.kasprintf invalid_arg ("Session.Event.of_json: " ^^ fmt)

  let get_field name j = match J.member name j with Some v -> v | None -> fail "missing %s" name

  let as_string name = function J.String s -> s | _ -> fail "%s: expected string" name

  let as_i64 name j =
    match Int64.of_string_opt (as_string name j) with
    | Some v -> v
    | None -> fail "%s: expected int64 string" name

  let as_int name = function J.Int i -> i | _ -> fail "%s: expected int" name

  let as_bool name = function J.Bool b -> b | _ -> fail "%s: expected bool" name

  let as_float name j = match J.number j with Some f -> f | None -> fail "%s: expected number" name

  let as_opt f name = function J.Null -> None | j -> Some (f name j)

  let as_entries name = function
    | J.List l ->
        List.map
          (function
            | J.List [ J.String k; J.String v ] -> (k, v)
            | _ -> fail "%s: expected [key, value] pairs" name)
          l
    | _ -> fail "%s: expected list" name

  let as_versioned name = function
    | J.List l ->
        List.map
          (function
            | J.List [ sid; r ] -> (as_i64 name sid, as_opt as_string name r)
            | _ -> fail "%s: expected [sid, result] pairs" name)
          l
    | _ -> fail "%s: expected list" name

  let op_of_json j =
    let field = get_field in
    match as_string "op" (field "op" j) with
    | "get" -> Get { key = as_string "key" (field "key" j); result = as_opt as_string "result" (field "result" j) }
    | "put" -> Put { key = as_string "key" (field "key" j); value = as_string "value" (field "value" j) }
    | "remove" ->
        Remove { key = as_string "key" (field "key" j); removed = as_bool "removed" (field "removed" j) }
    | "scan" ->
        Scan
          {
            from = as_string "from" (field "from" j);
            count = as_int "count" (field "count" j);
            result = as_entries "result" (field "result" j);
          }
    | "snapshot_taken" -> Snapshot_taken
    | "branch_created" ->
        Branch_created { parent = as_i64 "parent" (field "parent" j); sid = as_i64 "sid" (field "sid" j) }
    | "branch_deleted" -> Branch_deleted { sid = as_i64 "sid" (field "sid" j) }
    | "branch_get" ->
        Branch_get
          {
            at = as_i64 "at" (field "at" j);
            key = as_string "key" (field "key" j);
            result = as_opt as_string "result" (field "result" j);
          }
    | "branch_put" ->
        Branch_put
          {
            at = as_i64 "at" (field "at" j);
            key = as_string "key" (field "key" j);
            value = as_string "value" (field "value" j);
          }
    | "branch_remove" ->
        Branch_remove
          {
            at = as_i64 "at" (field "at" j);
            key = as_string "key" (field "key" j);
            removed = as_bool "removed" (field "removed" j);
          }
    | "branch_scan" ->
        Branch_scan
          {
            at = as_i64 "at" (field "at" j);
            from = as_string "from" (field "from" j);
            count = as_int "count" (field "count" j);
            result = as_entries "result" (field "result" j);
          }
    | "get_many" ->
        Get_many
          { key = as_string "key" (field "key" j); results = as_versioned "results" (field "results" j) }
    | "history" ->
        History
          {
            from = as_i64 "from" (field "from" j);
            key = as_string "key" (field "key" j);
            results = as_versioned "results" (field "results" j);
          }
    | tag -> fail "unknown operation %S" tag

  let of_json j =
    {
      client = as_opt as_int "client" (get_field "client" j);
      index = as_int "index" (get_field "index" j);
      op = op_of_json (get_field "operation" j);
      invoked_at = as_float "invoked_at" (get_field "invoked_at" j);
      returned_at = as_float "returned_at" (get_field "returned_at" j);
      stamp = as_opt as_i64 "stamp" (get_field "stamp" j);
      sid = as_opt as_i64 "sid" (get_field "sid" j);
      ambiguous = as_bool "ambiguous" (get_field "ambiguous" j);
    }
end

type tracer = Event.t -> unit

type t = {
  db : Db.t;
  home : int;
  client : int option;
  tracer : tracer option;
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
            ~tree ~beta:config.Config.beta ())
        trees
    else [||]
  in
  let t = { db; home; client; tracer; obs = Db.obs db; trees; branchings } in
  (match tracer with
  | None -> ()
  | Some f ->
      Array.iteri
        (fun index br ->
          Mvcc.Branching.set_tracer br (fun tr ->
              let op =
                match tr.Mvcc.Branching.Trace.op with
                | Mvcc.Branching.Trace.Branch_created { parent; sid } ->
                    Event.Branch_created { parent; sid }
                | Branch_deleted { sid } -> Event.Branch_deleted { sid }
                | Get { at; key; result } -> Event.Branch_get { at; key; result }
                | Put { at; key; value } -> Event.Branch_put { at; key; value }
                | Remove { at; key; removed } -> Event.Branch_remove { at; key; removed }
                | Scan { at; from; count; result } ->
                    Event.Branch_scan { at; from; count; result }
                | Get_many { key; results } -> Event.Get_many { key; results }
                | History { from; key; results } -> Event.History { from; key; results }
              in
              f
                {
                  Event.client = t.client;
                  index;
                  op;
                  invoked_at = tr.Mvcc.Branching.Trace.invoked_at;
                  returned_at = tr.Mvcc.Branching.Trace.returned_at;
                  stamp = tr.Mvcc.Branching.Trace.stamp;
                  sid = None;
                  ambiguous = tr.Mvcc.Branching.Trace.ambiguous;
                }))
        branchings);
  t

let db t = t.db

let home t = t.home

let client t = t.client

let tree_of t index = t.trees.(index)

let check_linear t =
  if (Db.config t.db).Config.branching then
    invalid_arg "Session: linear-snapshot operation on a branching database"

let vctx_of t index txn = Ops.Linear.tip t.trees.(index) txn

let emit t ~index ~invoked ?stamp ?sid ?(ambiguous = false) op =
  match t.tracer with
  | None -> ()
  | Some f ->
      f
        {
          Event.client = t.client;
          index;
          op;
          invoked_at = invoked;
          returned_at = Sim.now ();
          stamp;
          sid;
          ambiguous;
        }

(* Stamp of the operation that just returned on this index handle
   (cooperative scheduler: nothing else ran on the handle since). *)
let op_stamp t index = Ops.last_commit_stamp t.trees.(index)

let get ?(index = 0) t k =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Get ~path:Obs.Op.Up_to_date @@ fun () ->
  let invoked = Sim.now () in
  let result = Ops.get t.trees.(index) ~vctx_of:(vctx_of t index) k in
  emit t ~index ~invoked ?stamp:(op_stamp t index) (Event.Get { key = k; result });
  result

let put ?(index = 0) t k v =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Put ~path:Obs.Op.Up_to_date @@ fun () ->
  let invoked = Sim.now () in
  try
    Ops.put t.trees.(index) ~vctx_of:(vctx_of t index) k v;
    emit t ~index ~invoked ?stamp:(op_stamp t index) (Event.Put { key = k; value = v })
  with Ops.Ambiguous _ as e ->
    (* The write may or may not have taken effect; record it so the
       checker can resolve it from later reads. *)
    emit t ~index ~invoked ~ambiguous:true (Event.Put { key = k; value = v });
    raise e

let remove ?(index = 0) t k =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Remove ~path:Obs.Op.Up_to_date @@ fun () ->
  let invoked = Sim.now () in
  try
    let removed = Ops.remove t.trees.(index) ~vctx_of:(vctx_of t index) k in
    emit t ~index ~invoked ?stamp:(op_stamp t index) (Event.Remove { key = k; removed });
    removed
  with Ops.Ambiguous _ as e ->
    emit t ~index ~invoked ~ambiguous:true (Event.Remove { key = k; removed = false });
    raise e

let scan ?(index = 0) t ~from ~count =
  check_linear t;
  Obs.time_op t.obs ~op:Obs.Op.Scan ~path:Obs.Op.Up_to_date @@ fun () ->
  let invoked = Sim.now () in
  let result = Ops.scan t.trees.(index) ~vctx_of:(vctx_of t index) ~from ~count in
  emit t ~index ~invoked ?stamp:(op_stamp t index) (Event.Scan { from; count; result });
  result

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
  emit t ~index ~invoked ~sid Event.Snapshot_taken;
  { index; sid; root }

let snap_vctx t snap _txn = Ops.Linear.at_snapshot t.trees.(snap.index) ~sid:snap.sid ~root:snap.root

let get_at t snap k =
  Obs.time_op t.obs ~op:Obs.Op.Get ~path:Obs.Op.At_snapshot @@ fun () ->
  let invoked = Sim.now () in
  let result = Ops.get t.trees.(snap.index) ~vctx_of:(snap_vctx t snap) k in
  emit t ~index:snap.index ~invoked ~sid:snap.sid (Event.Get { key = k; result });
  result

let scan_at t snap ~from ~count =
  Obs.time_op t.obs ~op:Obs.Op.Scan ~path:Obs.Op.At_snapshot @@ fun () ->
  let invoked = Sim.now () in
  let result = Ops.scan t.trees.(snap.index) ~vctx_of:(snap_vctx t snap) ~from ~count in
  emit t ~index:snap.index ~invoked ~sid:snap.sid (Event.Scan { from; count; result });
  result

let branching ?(index = 0) t =
  if not (Db.config t.db).Config.branching then
    invalid_arg "Session.branching: database not started in branching mode";
  t.branchings.(index)

let branch ?(index = 0) t ~from = Mvcc.Branching.create_branch (branching ~index t) ~from
