(* One entry per node pointer, holding its newest parsed version (see
   the interface for why older versions never need keeping). *)

module Objref = Dyntxn.Objref

type entry = { mutable seq : int64; mutable view : Bview.t }

type t = { entries : (Objref.t, entry) Hashtbl.t; mutable misses : int }

(* The only bound: a memo this full is emptied before a new pointer
   goes in. *)
let decode_memo_capacity = 16384

let create () = { entries = Hashtbl.create 1024; misses = 0 }

let find t ptr ~seq =
  match Hashtbl.find_opt t.entries ptr with
  | Some e when Int64.equal e.seq seq -> Some e.view
  | _ ->
      t.misses <- t.misses + 1;
      None

let add t ptr ~seq view =
  match Hashtbl.find_opt t.entries ptr with
  | Some e ->
      (* An older version parses for its caller but never evicts the
         newer one. *)
      if Int64.compare seq e.seq > 0 then begin
        e.seq <- seq;
        e.view <- view
      end
  | None ->
      if Hashtbl.length t.entries >= decode_memo_capacity then Hashtbl.reset t.entries;
      Hashtbl.add t.entries ptr { seq; view }

let length t = Hashtbl.length t.entries

let misses t = t.misses
