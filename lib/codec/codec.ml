exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* CRC-32, IEEE 802.3 reflected polynomial 0xEDB88320, slicing-by-8:
   eight 256-entry tables let the loop fold eight bytes per step with
   eight independent lookups instead of a serial chain of eight. Table
   [k] (at [k * 256]) maps a byte to its CRC contribution when [k] more
   bytes follow it within the step; table 0 is the classic bytewise
   table, which also folds the tail. Everything is plain [int]
   arithmetic (the register fits in 32 bits). *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get64u : string -> int -> int64 = "%caml_string_get64u"

external swap64 : int64 -> int64 = "%bswap_int64"

(* Fold [s.(pos .. pos+len)] into the (pre-inverted) register [crc]. *)
let crc32_update crc s pos len =
  (* Table lookups are written out: a local helper would be a closure
     call per lookup. Every index is a byte plus a table base. *)
  let t = crc_tables in
  let crc = ref crc and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    (* One unaligned little-endian load; the caller bounds [i + 8]. *)
    let w = get64u s !i in
    let w = if Sys.big_endian then swap64 w else w in
    let lo = !crc lxor (Int64.to_int w land 0xffff_ffff)
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
    crc :=
      Array.unsafe_get t (1792 + (lo land 0xff))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xff))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc :=
      Array.unsafe_get t ((!crc lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!crc lsr 8);
    incr i
  done;
  !crc

let crc32_sub s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.crc32_sub: range out of bounds";
  0xFFFFFFFF land lnot (crc32_update 0xFFFFFFFF s pos len)

let crc32 s = Int32.of_int (crc32_sub s 0 (String.length s))

(* FNV-1a 64-bit: the content stamp for slotted B-tree nodes. Cheap, has
   no alignment requirements, and — crucially for stamp-based cache
   revalidation — depends only on the hashed bytes, so two encodings of
   the same logical node always agree. The hash is byte-serial by
   definition; the loop reads bytes directly (no per-byte closure), so
   the [Int64] register stays unboxed. *)
let fnv_offset_basis = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let fnv1a64 s pos len =
  let h = ref fnv_offset_basis in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  !h

module Enc = struct
  (* A growable byte buffer like [Buffer.t], but with [reset] for reuse
     across encodings, in-place patching (version stamps are computed
     over the encoded content and written back into the header), and
     checksummed extraction in a single allocation. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(initial_size = 256) () =
    { buf = Bytes.create (max 16 initial_size); len = 0 }

  let reset t = t.len <- 0

  let length t = t.len

  let to_string t = Bytes.sub_string t.buf 0 t.len

  let grow t needed =
    let cap = ref (Bytes.length t.buf * 2) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let buf = Bytes.create !cap in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf

  (* Inlined: the writers below pay one compare unless the buffer must
     grow. *)
  let[@inline] ensure t n = if t.len + n > Bytes.length t.buf then grow t (t.len + n)

  external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

  external swap16 : int -> int = "%bswap16"

  let u8 t v =
    if v < 0 || v > 0xff then invalid_arg "Codec.Enc.u8: out of range";
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr v);
    t.len <- t.len + 1

  let u16 t v =
    if v < 0 || v > 0xffff then invalid_arg "Codec.Enc.u16: out of range";
    ensure t 2;
    set16u t.buf t.len (if Sys.big_endian then swap16 v else v);
    t.len <- t.len + 2

  let u32 t v =
    if v < 0 || v > 0xffff_ffff then invalid_arg "Codec.Enc.u32: out of range";
    ensure t 4;
    Bytes.set_int32_le t.buf t.len (Int32.of_int v);
    t.len <- t.len + 4

  let i64 t v =
    ensure t 8;
    Bytes.set_int64_le t.buf t.len v;
    t.len <- t.len + 8

  let int_as_i64 t v = i64 t (Int64.of_int v)

  let rec varint t v =
    if v < 0 then invalid_arg "Codec.Enc.varint: negative"
    else if v < 0x80 then u8 t v
    else begin
      u8 t (0x80 lor (v land 0x7f));
      varint t (v lsr 7)
    end

  let bool t v = u8 t (if v then 1 else 0)

  let float t v = i64 t (Int64.bits_of_float v)

  let raw t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let raw_sub t s pos len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Codec.Enc.raw_sub: range out of bounds";
    ensure t len;
    Bytes.blit_string s pos t.buf t.len len;
    t.len <- t.len + len

  let bytes t s =
    varint t (String.length s);
    raw t s

  let list t write items =
    varint t (List.length items);
    List.iter write items

  let array t write items =
    varint t (Array.length items);
    Array.iter write items

  let option t write = function
    | None -> bool t false
    | Some v ->
        bool t true;
        write v

  let patch_i64 t ~pos v =
    if pos < 0 || pos + 8 > t.len then invalid_arg "Codec.Enc.patch_i64: position out of bounds";
    Bytes.set_int64_le t.buf pos v

  let fnv1a64_from t ~pos =
    if pos < 0 || pos > t.len then invalid_arg "Codec.Enc.fnv1a64_from: position out of bounds";
    (* The buffer is only read here, never mutated while hashing. *)
    fnv1a64 (Bytes.unsafe_to_string t.buf) pos (t.len - pos)

  let to_string_with_checksum t =
    (* One allocation for payload + trailer; the old idiom
       [with_checksum (to_string e)] copied the payload twice. *)
    let n = t.len in
    let out = Bytes.create (n + 4) in
    Bytes.blit t.buf 0 out 0 n;
    let crc = crc32_sub (Bytes.unsafe_to_string t.buf) 0 n in
    Bytes.set_int32_le out n (Int32.of_int crc);
    Bytes.unsafe_to_string out
end

module Dec = struct
  type t = { src : string; mutable pos : int }

  let of_string ?(pos = 0) src = { src; pos }

  let pos t = t.pos

  let remaining t = String.length t.src - t.pos

  let at_end t = remaining t = 0

  let need t n =
    if remaining t < n then
      decode_error "Codec.Dec: need %d bytes at offset %d, only %d left" n t.pos (remaining t)

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = String.get_uint16_le t.src t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_le t.src t.pos) land 0xffff_ffff in
    t.pos <- t.pos + 4;
    v

  let i64 t =
    need t 8;
    let v = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let int_as_i64 t = Int64.to_int (i64 t)

  let varint t =
    let rec go shift acc =
      if shift > 62 then decode_error "Codec.Dec.varint: too long";
      let b = u8 t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | b -> decode_error "Codec.Dec.bool: invalid byte %d" b

  let float t = Int64.float_of_bits (i64 t)

  let raw t n =
    if n < 0 then decode_error "Codec.Dec.raw: negative length";
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let raw_view t n =
    if n < 0 then decode_error "Codec.Dec.raw_view: negative length";
    need t n;
    let span = (t.pos, n) in
    t.pos <- t.pos + n;
    span

  let bytes t =
    let n = varint t in
    raw t n

  let bytes_view t =
    let n = varint t in
    raw_view t n

  let list t read =
    let n = varint t in
    List.init n (fun _ -> read t)

  let array t read =
    let n = varint t in
    Array.init n (fun _ -> read t)

  let option t read = if bool t then Some (read t) else None
end

let with_checksum payload =
  let e = Enc.create ~initial_size:(String.length payload + 8) () in
  Enc.raw e payload;
  Enc.to_string_with_checksum e

let check_checksum framed =
  let n = String.length framed in
  if n < 4 then decode_error "Codec.check_checksum: too short";
  let payload = String.sub framed 0 (n - 4) in
  let d = Dec.of_string ~pos:(n - 4) framed in
  let stored = Dec.u32 d in
  let computed = crc32_sub framed 0 (n - 4) in
  if stored <> computed then
    decode_error "Codec.check_checksum: mismatch (stored %#x, computed %#x)" stored computed;
  payload

let verify_checksum_in_place s pos len =
  if len < 4 || pos < 0 || pos + len > String.length s then
    decode_error "Codec.verify_checksum_in_place: bad frame bounds";
  let d = Dec.of_string ~pos:(pos + len - 4) s in
  let stored = Dec.u32 d in
  let computed = crc32_sub s pos (len - 4) in
  if stored <> computed then
    decode_error "Codec.verify_checksum_in_place: mismatch (stored %#x, computed %#x)" stored
      computed
