type t = string

let compare = String.compare

type fence = Neg_inf | Key of t | Pos_inf

let fence_compare a b =
  match (a, b) with
  | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Key x, Key y -> String.compare x y

let fence_equal a b = fence_compare a b = 0

let fence_le_key f k =
  match f with Neg_inf -> true | Pos_inf -> false | Key x -> String.compare x k <= 0

let key_lt_fence k f =
  match f with Neg_inf -> false | Pos_inf -> true | Key x -> String.compare k x < 0

let in_range k ~low ~high = fence_le_key low k && key_lt_fence k high

let pp_fence fmt = function
  | Neg_inf -> Format.pp_print_string fmt "-inf"
  | Pos_inf -> Format.pp_print_string fmt "+inf"
  | Key k -> Format.fprintf fmt "%S" k

let encode_fence enc = function
  | Neg_inf -> Codec.Enc.u8 enc 0
  | Pos_inf -> Codec.Enc.u8 enc 1
  | Key k ->
      Codec.Enc.u8 enc 2;
      Codec.Enc.bytes enc k

let decode_fence dec =
  match Codec.Dec.u8 dec with
  | 0 -> Neg_inf
  | 1 -> Pos_inf
  | 2 -> Key (Codec.Dec.bytes dec)
  | b -> raise (Codec.Decode_error (Printf.sprintf "Bkey.decode_fence: bad tag %d" b))
