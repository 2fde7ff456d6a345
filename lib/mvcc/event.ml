module Ops = Btree.Ops

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

let emit tracer tree ~invoked ?stamp ?sid ?(ambiguous = false) op =
  match tracer with
  | None -> ()
  | Some f ->
      f
        {
          client = Ops.client tree;
          index = Ops.tree_id tree;
          op;
          invoked_at = invoked;
          returned_at = Sim.now ();
          stamp;
          sid;
          ambiguous;
        }

let traced tracer tree f op =
  let invoked = Sim.now () in
  let result = f () in
  emit tracer tree ~invoked ?stamp:(Ops.last_commit_stamp tree) (op result);
  result

let traced_write tracer tree ~unknown f op =
  let invoked = Sim.now () in
  match f () with
  | result ->
      emit tracer tree ~invoked ?stamp:(Ops.last_commit_stamp tree) (op result);
      result
  | exception (Ops.Ambiguous _ as e) ->
      emit tracer tree ~invoked ~ambiguous:true (op unknown);
      raise e
