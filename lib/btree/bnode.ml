module Objref = Dyntxn.Objref

type body =
  | Leaf of (Bkey.t * string) array
  | Internal of { keys : Bkey.t array; children : Objref.t array }

type t = {
  height : int;
  low : Bkey.fence;
  high : Bkey.fence;
  snap_created : int64;
  descendants : int64 array;
  body : body;
}

let is_leaf t = match t.body with Leaf _ -> true | Internal _ -> false

let nkeys t =
  match t.body with Leaf entries -> Array.length entries | Internal { keys; _ } -> Array.length keys

let make_leaf ~low ~high ~snap entries =
  { height = 0; low; high; snap_created = snap; descendants = [||]; body = Leaf entries }

let make_internal ~height ~low ~high ~snap ~keys ~children =
  if height < 1 then invalid_arg "Bnode.make_internal: height must be >= 1";
  if Array.length children <> Array.length keys + 1 then
    invalid_arg "Bnode.make_internal: children/keys arity mismatch";
  { height; low; high; snap_created = snap; descendants = [||]; body = Internal { keys; children } }

let empty_root ~snap = make_leaf ~low:Bkey.Neg_inf ~high:Bkey.Pos_inf ~snap [||]

(* -------------------------------------------------------------------- *)
(* Leaf operations                                                        *)
(* -------------------------------------------------------------------- *)

let as_leaf t =
  match t.body with Leaf entries -> entries | Internal _ -> invalid_arg "Bnode: expected leaf"

let as_internal t =
  match t.body with
  | Internal { keys; children } -> (keys, children)
  | Leaf _ -> invalid_arg "Bnode: expected internal node"

(* Position of [k] in sorted [entries]: Ok i if present at i, Error i
   giving the insertion point otherwise. *)
let leaf_search entries k =
  let rec go lo hi =
    if lo >= hi then Error lo
    else
      let mid = (lo + hi) / 2 in
      let c = Bkey.compare k (fst entries.(mid)) in
      if c = 0 then Ok mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length entries)

let leaf_find t k =
  let entries = as_leaf t in
  match leaf_search entries k with Ok i -> Some (snd entries.(i)) | Error _ -> None

let leaf_insert t k v =
  let entries = as_leaf t in
  let entries' =
    match leaf_search entries k with
    | Ok i ->
        let copy = Array.copy entries in
        copy.(i) <- (k, v);
        copy
    | Error i ->
        let n = Array.length entries in
        let bigger = Array.make (n + 1) (k, v) in
        Array.blit entries 0 bigger 0 i;
        Array.blit entries i bigger (i + 1) (n - i);
        bigger
  in
  { t with body = Leaf entries' }

let leaf_remove t k =
  let entries = as_leaf t in
  match leaf_search entries k with
  | Error _ -> None
  | Ok i ->
      let n = Array.length entries in
      let smaller = Array.make (n - 1) ("", "") in
      Array.blit entries 0 smaller 0 i;
      Array.blit entries (i + 1) smaller i (n - 1 - i);
      Some { t with body = Leaf smaller }

let leaf_entries = as_leaf

let leaf_entries_from t k =
  let entries = as_leaf t in
  match leaf_search entries k with Ok i -> i | Error i -> i

(* -------------------------------------------------------------------- *)
(* Internal-node operations                                               *)
(* -------------------------------------------------------------------- *)

(* Child index responsible for [k]: the smallest [i] with
   k < keys.(i), or |keys| when no such separator exists. *)
let child_index keys k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Bkey.compare k keys.(mid) < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length keys)

let child_for t k =
  let keys, children = as_internal t in
  let i = child_index keys k in
  (i, children.(i))

let child_at t i =
  let _, children = as_internal t in
  children.(i)

let child_fences t i =
  let keys, children = as_internal t in
  if i < 0 || i >= Array.length children then invalid_arg "Bnode.child_fences: index out of range";
  let low = if i = 0 then t.low else Bkey.Key keys.(i - 1) in
  let high = if i = Array.length keys then t.high else Bkey.Key keys.(i) in
  (low, high)

let replace_child t i ptr =
  let keys, children = as_internal t in
  let children' = Array.copy children in
  children'.(i) <- ptr;
  { t with body = Internal { keys; children = children' } }

let insert_sep t ~at ~sep ~right =
  let keys, children = as_internal t in
  let nk = Array.length keys in
  let keys' = Array.make (nk + 1) sep in
  Array.blit keys 0 keys' 0 at;
  Array.blit keys at keys' (at + 1) (nk - at);
  let children' = Array.make (nk + 2) right in
  Array.blit children 0 children' 0 (at + 1);
  Array.blit children (at + 1) children' (at + 2) (nk - at);
  { t with body = Internal { keys = keys'; children = children' } }

(* -------------------------------------------------------------------- *)
(* Copy-on-write metadata                                                 *)
(* -------------------------------------------------------------------- *)

let with_snap t snap = { t with snap_created = snap; descendants = [||] }

let add_descendant t sid = { t with descendants = Array.append t.descendants [| sid |] }

let with_descendants t descendants = { t with descendants }

(* -------------------------------------------------------------------- *)
(* Split                                                                  *)
(* -------------------------------------------------------------------- *)

let needs_split t ~max_keys = nkeys t > max_keys

let split t =
  match t.body with
  | Leaf entries ->
      let n = Array.length entries in
      if n < 2 then invalid_arg "Bnode.split: leaf too small";
      let mid = n / 2 in
      let sep = fst entries.(mid) in
      let left = { t with high = Bkey.Key sep; body = Leaf (Array.sub entries 0 mid) } in
      let right = { t with low = Bkey.Key sep; body = Leaf (Array.sub entries mid (n - mid)) } in
      (left, sep, right)
  | Internal { keys; children } ->
      let nk = Array.length keys in
      if nk < 2 then invalid_arg "Bnode.split: internal node too small";
      let mid = nk / 2 in
      let sep = keys.(mid) in
      let left =
        {
          t with
          high = Bkey.Key sep;
          body = Internal { keys = Array.sub keys 0 mid; children = Array.sub children 0 (mid + 1) };
        }
      in
      let right =
        {
          t with
          low = Bkey.Key sep;
          body =
            Internal
              {
                keys = Array.sub keys (mid + 1) (nk - mid - 1);
                children = Array.sub children (mid + 1) (nk - mid);
              };
        }
      in
      (left, sep, right)

(* -------------------------------------------------------------------- *)
(* Serialization                                                          *)
(* -------------------------------------------------------------------- *)

(* The wire format is the slotted layout ({!Bview}): a zero-copy-
   searchable slot directory with common-prefix-truncated keys and a
   CRC-32 trailer. *)

let encode_into e t =
  let spec =
    match t.body with
    | Leaf entries -> Bview.Leaf_spec entries
    | Internal { keys; children } -> Bview.Internal_spec (keys, children)
  in
  Bview.encode_into e ~height:t.height ~low:t.low ~high:t.high ~snap:t.snap_created
    ~descendants:t.descendants spec

let encode t =
  let e = Codec.Enc.create ~initial_size:512 () in
  encode_into e t;
  Codec.Enc.to_string_with_checksum e

let of_view v =
  let body =
    if Bview.is_leaf v then Leaf (Bview.leaf_entries v)
    else Internal { keys = Bview.internal_keys v; children = Bview.children v }
  in
  {
    height = Bview.height v;
    low = Bview.low v;
    high = Bview.high v;
    snap_created = Bview.snap_created v;
    descendants = Bview.descendants v;
    body;
  }

let decode s =
  let v = Bview.of_string s in
  Bview.verify_crc v;
  of_view v

(* -------------------------------------------------------------------- *)
(* Validation                                                             *)
(* -------------------------------------------------------------------- *)

let check t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let sorted arr = Array.for_all2 (fun a b -> Bkey.compare a b < 0) (Array.sub arr 0 (Array.length arr - 1)) (Array.sub arr 1 (Array.length arr - 1)) in
  let sorted arr = if Array.length arr <= 1 then true else sorted arr in
  if Bkey.fence_compare t.low t.high >= 0 then err "low fence >= high fence"
  else
    match t.body with
    | Leaf entries ->
        if t.height <> 0 then err "leaf with nonzero height"
        else if not (sorted (Array.map fst entries)) then err "leaf keys not sorted"
        else if
          not
            (Array.for_all (fun (k, _) -> Bkey.in_range k ~low:t.low ~high:t.high) entries)
        then err "leaf key out of fence range"
        else Ok ()
    | Internal { keys; children } ->
        if t.height < 1 then err "internal node with height < 1"
        else if Array.length children <> Array.length keys + 1 then
          err "children/keys arity mismatch"
        else if Array.length keys = 0 then err "internal node without separators"
        else if not (sorted keys) then err "separator keys not sorted"
        else if not (Array.for_all (fun k -> Bkey.in_range k ~low:t.low ~high:t.high) keys) then
          err "separator out of fence range"
        else Ok ()

let pp fmt t =
  Format.fprintf fmt "@[<v>%s h=%d [%a, %a) snap=%Ld desc=[%s] keys=%d@]"
    (if is_leaf t then "leaf" else "internal")
    t.height Bkey.pp_fence t.low Bkey.pp_fence t.high t.snap_created
    (String.concat ";" (Array.to_list (Array.map Int64.to_string t.descendants)))
    (nkeys t)
