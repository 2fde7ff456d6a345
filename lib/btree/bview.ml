(* Zero-copy view over the slotted node wire format.

   A view wraps the raw payload string fetched from a memnode and
   answers point lookups, child routing and fence checks by reading
   offsets in place: binary search probes compare byte spans against the
   query key, and no per-key string is materialised. Decoding into a
   {!Bnode.t} happens only on the write/split path ({!Bnode.of_view}).

   Wire layout (all integers little-endian):

   {v
     off  0: u8   magic (0xB5)
     off  1: u8   kind (0 = leaf, 1 = internal)
     off  2: u16  height
     off  4: i64  stamp: FNV-1a-64 over content bytes [12, crc), patched
                  in after encoding, so two encodings of the same
                  logical node always carry the same stamp
     off 12: i64  snap_created
     off 20: u16  ndesc, then ndesc * i64 descendant versions
     then  : low fence, high fence (u8 tag 0/1/2; tag 2: u16 len + bytes)
     then  : u16 prefix_len + the keys' common prefix
     then  : u16 nkeys
     then  : slot directory: nkeys * u16 entry offsets, relative to the
             entries region, in key order
     then  : (internal only) (nkeys + 1) fixed 16-byte child refs
             (u32 memnode, i64 offset, u32 slot length)
     then  : entries region —
             leaf entry:     u16 suffix_len | suffix | varint vlen | value
             internal entry: u16 suffix_len | suffix
     last 4: u32 CRC-32 over everything before it
   v}

   The slot directory and entry bounds are validated once at view
   construction (cheap, O(nkeys) u16 reads), so accessors never read out
   of bounds on corrupt input — they raise {!Codec.Decode_error} at
   construction instead. The CRC trailer is *not* folded on the hot read
   path: dirty traversals are already guarded by fence/height/version
   checks and OCC validation, exactly like every other unvalidated read
   in the system. The write path ({!materialise} via [Bnode.decode])
   verifies the CRC before trusting bytes enough to rewrite them. *)

module Objref = Dyntxn.Objref

let magic = 0xB5

let decode_error fmt = Format.kasprintf (fun s -> raise (Codec.Decode_error s)) fmt

type t = {
  buf : string;  (* whole payload, including the CRC trailer *)
  kind : int;
  height : int;
  stamp : int64;
  snap_created : int64;
  ndesc : int;
  desc_off : int;
  low : Bkey.fence;
  high : Bkey.fence;
  prefix_off : int;
  prefix_len : int;
  nkeys : int;
  dir_off : int;
  children_off : int;  (* -1 for leaves *)
  entries_off : int;
  content_end : int;  (* offset of the CRC trailer *)
}

(* Lexicographic compare of [a.(apos .. apos+alen)] vs
   [b.(bpos .. bpos+blen)] without materialising either span. Bounds are
   the caller's responsibility (validated at construction). *)
let compare_span a apos alen b bpos blen =
  let n = if alen < blen then alen else blen in
  let rec go i =
    if i = n then Int.compare alen blen
    else
      let ca = Char.code (String.unsafe_get a (apos + i))
      and cb = Char.code (String.unsafe_get b (bpos + i)) in
      if ca = cb then go (i + 1) else Int.compare ca cb
  in
  go 0

let read_varint buf pos limit =
  let rec go pos shift acc =
    if pos >= limit then decode_error "Bview: varint past entry region";
    if shift > 62 then decode_error "Bview: varint too long";
    let b = Char.code (String.unsafe_get buf pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let decode_fence d =
  match Codec.Dec.u8 d with
  | 0 -> Bkey.Neg_inf
  | 1 -> Bkey.Pos_inf
  | 2 ->
      let n = Codec.Dec.u16 d in
      Bkey.Key (Codec.Dec.raw d n)
  | b -> decode_error "Bview: invalid fence tag %d" b

let encode_fence e = function
  | Bkey.Neg_inf -> Codec.Enc.u8 e 0
  | Bkey.Pos_inf -> Codec.Enc.u8 e 1
  | Bkey.Key k ->
      Codec.Enc.u8 e 2;
      Codec.Enc.u16 e (String.length k);
      Codec.Enc.raw e k

let entry_off t i = t.entries_off + String.get_uint16_le t.buf (t.dir_off + (2 * i))

(* Validate one entry's spans so accessors can trust them. *)
let validate_entry t i =
  let eoff = entry_off t i in
  if eoff + 2 > t.content_end then decode_error "Bview: slot %d points past entry region" i;
  let slen = String.get_uint16_le t.buf eoff in
  let spos = eoff + 2 in
  if spos + slen > t.content_end then decode_error "Bview: slot %d suffix out of bounds" i;
  if t.kind = 0 then begin
    let vlen, vpos = read_varint t.buf (spos + slen) t.content_end in
    if vpos + vlen > t.content_end then decode_error "Bview: slot %d value out of bounds" i
  end

let of_string s =
  let len = String.length s in
  if len < 28 + 4 then decode_error "Bview: payload too short (%d bytes)" len;
  if Char.code s.[0] <> magic then decode_error "Bview: bad magic %#x" (Char.code s.[0]);
  let kind = Char.code s.[1] in
  if kind <> 0 && kind <> 1 then decode_error "Bview: invalid kind byte %d" kind;
  let content_end = len - 4 in
  let d = Codec.Dec.of_string ~pos:2 s in
  let height = Codec.Dec.u16 d in
  let stamp = Codec.Dec.i64 d in
  let snap_created = Codec.Dec.i64 d in
  let ndesc = Codec.Dec.u16 d in
  let desc_off, _ = Codec.Dec.raw_view d (8 * ndesc) in
  let low = decode_fence d in
  let high = decode_fence d in
  let prefix_len = Codec.Dec.u16 d in
  let prefix_off, _ = Codec.Dec.raw_view d prefix_len in
  let nkeys = Codec.Dec.u16 d in
  let dir_off, _ = Codec.Dec.raw_view d (2 * nkeys) in
  let children_off =
    if kind = 1 then begin
      let off, _ = Codec.Dec.raw_view d (16 * (nkeys + 1)) in
      off
    end
    else -1
  in
  let entries_off = Codec.Dec.pos d in
  if entries_off > content_end then decode_error "Bview: header overruns entry region";
  let t =
    {
      buf = s;
      kind;
      height;
      stamp;
      snap_created;
      ndesc;
      desc_off;
      low;
      high;
      prefix_off;
      prefix_len;
      nkeys;
      dir_off;
      children_off;
      entries_off;
      content_end;
    }
  in
  for i = 0 to nkeys - 1 do
    validate_entry t i
  done;
  t

let verify_crc t = Codec.verify_checksum_in_place t.buf 0 (String.length t.buf)

let payload_length t = String.length t.buf

let is_leaf t = t.kind = 0

let height t = t.height

let stamp t = t.stamp

let snap_created t = t.snap_created

let low t = t.low

let high t = t.high

let in_range t k = Bkey.in_range k ~low:t.low ~high:t.high

let nkeys t = t.nkeys

let n_descendants t = t.ndesc

let exists_descendant t pred =
  let rec go i =
    if i >= t.ndesc then false
    else if pred (String.get_int64_le t.buf (t.desc_off + (8 * i))) then true
    else go (i + 1)
  in
  go 0

let descendants t = Array.init t.ndesc (fun i -> String.get_int64_le t.buf (t.desc_off + (8 * i)))

(* Binary search for [k]: [Ok i] when [k] is the [i]th key, [Error i]
   with the insertion point otherwise (same contract as
   [Bnode.leaf_search]). The query is compared against the common prefix
   exactly once; every probe then compares only suffix spans. *)
let search t k =
  if t.nkeys = 0 then Error 0
  else begin
    let klen = String.length k in
    let plen = t.prefix_len in
    let m = if klen < plen then klen else plen in
    let pc = compare_span k 0 m t.buf t.prefix_off m in
    if pc < 0 then Error 0 (* below the shared prefix: below every key *)
    else if pc > 0 then Error t.nkeys (* above the shared prefix: above every key *)
    else if klen < plen then Error 0 (* proper prefix of the shared prefix *)
    else begin
      let tlen = klen - plen in
      let rec go lo hi =
        if lo >= hi then Error lo
        else begin
          let mid = (lo + hi) / 2 in
          let eoff = entry_off t mid in
          let slen = String.get_uint16_le t.buf eoff in
          let c = compare_span k plen tlen t.buf (eoff + 2) slen in
          if c = 0 then Ok mid else if c < 0 then go lo mid else go (mid + 1) hi
        end
      in
      go 0 t.nkeys
    end
  end

let lower_bound t k = match search t k with Ok i -> i | Error i -> i

let key t i =
  if i < 0 || i >= t.nkeys then invalid_arg "Bview.key: index out of bounds";
  let eoff = entry_off t i in
  let slen = String.get_uint16_le t.buf eoff in
  let b = Bytes.create (t.prefix_len + slen) in
  Bytes.blit_string t.buf t.prefix_off b 0 t.prefix_len;
  Bytes.blit_string t.buf (eoff + 2) b t.prefix_len slen;
  Bytes.unsafe_to_string b

let leaf_value t i =
  if t.kind <> 0 then invalid_arg "Bview.leaf_value: internal node";
  if i < 0 || i >= t.nkeys then invalid_arg "Bview.leaf_value: index out of bounds";
  let eoff = entry_off t i in
  let slen = String.get_uint16_le t.buf eoff in
  let vlen, vpos = read_varint t.buf (eoff + 2 + slen) t.content_end in
  String.sub t.buf vpos vlen

let leaf_entry t i = (key t i, leaf_value t i)

let leaf_find t k =
  if t.kind <> 0 then invalid_arg "Bview.leaf_find: internal node";
  match search t k with Ok i -> Some (leaf_value t i) | Error _ -> None

let leaf_entries t = Array.init t.nkeys (fun i -> leaf_entry t i)

let internal_keys t =
  if t.kind <> 1 then invalid_arg "Bview.internal_keys: leaf node";
  Array.init t.nkeys (fun i -> key t i)

let child_count t = if t.kind = 1 then t.nkeys + 1 else 0

let child_at t i =
  if t.kind <> 1 then invalid_arg "Bview.child_at: leaf node";
  if i < 0 || i > t.nkeys then invalid_arg "Bview.child_at: index out of bounds";
  let d = Codec.Dec.of_string ~pos:(t.children_off + (16 * i)) t.buf in
  Objref.decode d

let children t = Array.init (t.nkeys + 1) (fun i -> child_at t i)

(* Route [k]: index of the child whose subtree covers it (the smallest
   [i] with [k < keys.(i)], else [nkeys]) — matches [Bnode.child_index]
   on the decoded node. A key equal to a separator routes right. *)
let child_index t k = match search t k with Ok i -> i + 1 | Error i -> i

let child_for t k =
  let i = child_index t k in
  (i, child_at t i)

(* Stamp equality straight off two raw payloads — what the object cache
   uses to revalidate epoch-stale entries without decoding either copy.
   Stamps are content hashes, so a collision merely over-counts
   "survived" revalidations; the fresh payload is (re)inserted by the
   cache regardless, so correctness never rests on this. *)
let same_stamp a b =
  String.length a >= 12
  && String.length b >= 12
  && Char.code a.[0] = magic
  && Char.code b.[0] = magic
  && Int64.equal (String.get_int64_le a 4) (String.get_int64_le b 4)

(* Testing hook: byte range of the slot directory, for corruption
   falsifiability checks. *)
let dir_bounds t = (t.dir_off, 2 * t.nkeys)

(* {1 Encoding} *)

let stamp_pos = 4

let stamped_from = 12

(* Whether the slotted format can represent this node: every u16 field
   (suffix lengths, directory offsets, counts, prefix, fences) must fit.
   A node failing this would encode to more than 64 KiB, so it fits no
   slot ([Layout.make] caps node_size at 64 KiB): this is a check, never
   a path real nodes take. *)
let rep_ok ~low ~high ~descendants ~prefix_len ~keys ~entry_extra =
  let fence_ok = function Bkey.Key k -> String.length k <= 0xffff | _ -> true in
  let nkeys = Array.length keys in
  fence_ok low && fence_ok high
  && Array.length descendants <= 0xffff
  && prefix_len <= 0xffff && nkeys <= 0xffff
  &&
  (* Directory offsets are relative to the entries region; the last
     entry's offset is the sum of all previous entry sizes. *)
  let rec go i off =
    if i >= nkeys then true
    else
      let suffix = String.length keys.(i) - prefix_len in
      if suffix > 0xffff || off > 0xffff then false
      else go (i + 1) (off + 2 + suffix + entry_extra i)
  in
  go 0 0

let varint_size v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let common_prefix_len keys =
  let n = Array.length keys in
  if n = 0 then 0
  else begin
    (* Keys are sorted, so the common prefix of all of them is the
       common prefix of the first and last. *)
    let a = keys.(0) and b = keys.(n - 1) in
    let m = min (String.length a) (String.length b) in
    let rec go i = if i < m && a.[i] = b.[i] then go (i + 1) else i in
    go 0
  end

type body_spec =
  | Leaf_spec of (Bkey.t * string) array
  | Internal_spec of Bkey.t array * Objref.t array

(* Append the slotted content (no CRC trailer — the caller frames it
   with [Codec.Enc.to_string_with_checksum]). *)
let encode_into e ~height ~low ~high ~snap ~descendants body =
  let keys =
    match body with
    | Leaf_spec entries -> Array.map fst entries
    | Internal_spec (keys, _) -> keys
  in
  let prefix_len = common_prefix_len keys in
  let entry_extra =
    match body with
    | Leaf_spec entries -> fun i -> varint_size (String.length (snd entries.(i))) + String.length (snd entries.(i))
    | Internal_spec _ -> fun _ -> 0
  in
  if not (rep_ok ~low ~high ~descendants ~prefix_len ~keys ~entry_extra) then
    invalid_arg "Bview.encode_into: node exceeds the slotted format's u16 limits"
  else begin
    let open Codec.Enc in
    let start = length e in
    u8 e magic;
    u8 e (match body with Leaf_spec _ -> 0 | Internal_spec _ -> 1);
    u16 e height;
    i64 e 0L (* stamp, patched below *);
    i64 e snap;
    u16 e (Array.length descendants);
    Array.iter (i64 e) descendants;
    encode_fence e low;
    encode_fence e high;
    u16 e prefix_len;
    if prefix_len > 0 then raw_sub e keys.(0) 0 prefix_len;
    let nkeys = Array.length keys in
    u16 e nkeys;
    (* Slot directory: entry offsets are computed incrementally from the
       entry sizes, so the directory is emitted before the entries
       without patching. *)
    let off = ref 0 in
    Array.iteri
      (fun i k ->
        u16 e !off;
        let suffix = String.length k - prefix_len in
        off := !off + 2 + suffix + entry_extra i)
      keys;
    (match body with
    | Leaf_spec _ -> ()
    | Internal_spec (_, children) -> Array.iter (Objref.encode e) children);
    (match body with
    | Leaf_spec entries ->
        Array.iter
          (fun (k, v) ->
            let suffix = String.length k - prefix_len in
            u16 e suffix;
            raw_sub e k prefix_len suffix;
            varint e (String.length v);
            raw e v)
          entries
    | Internal_spec (keys, _) ->
        Array.iter
          (fun k ->
            let suffix = String.length k - prefix_len in
            u16 e suffix;
            raw_sub e k prefix_len suffix)
          keys);
    patch_i64 e ~pos:(start + stamp_pos) (fnv1a64_from e ~pos:(start + stamped_from))
  end
