type memnode_id = int

type t = { node : memnode_id; off : int }

let make ~node ~off =
  if node < 0 || off < 0 then invalid_arg "Address.make: negative component";
  { node; off }

let compare a b =
  match Int.compare a.node b.node with 0 -> Int.compare a.off b.off | c -> c

let equal a b = a.node = b.node && a.off = b.off

(* Wire format: u32 node, i64 offset. The null sentinel encodes node as
   0xffff_ffff. *)
let encoded_size = 12

let null = { node = -1; off = 0 }

let is_null a = a.node < 0

let encode enc a =
  Codec.Enc.u32 enc (if a.node < 0 then 0xffff_ffff else a.node);
  Codec.Enc.int_as_i64 enc a.off

let decode dec =
  let node = Codec.Dec.u32 dec in
  let off = Codec.Dec.int_as_i64 dec in
  if node = 0xffff_ffff then null else { node; off }
