(* Paged sparse storage: only written 1 KiB pages materialize, so a
   large, mostly-empty address space (e.g. the baseline mode's
   replicated sequence-number table region) costs nothing, and a node
   slot holding a few hundred bytes of a 4 KiB slot materializes about
   that much rather than the slot's zero tail. Pages are found through
   a two-level table: a directory of chunks, each holding the pages of
   1 MiB of address space. A lookup is two array loads instead of a
   hash probe into a table of every page, and an untouched chunk costs
   one directory word. *)

let page_bits = 10

let page_size = 1 lsl page_bits

let chunk_bits = 10

let chunk_pages = 1 lsl chunk_bits

(* A zero-length entry marks an absent page; [[||]] an untouched
   chunk. *)
type t = {
  dir : Bytes.t array array;
  mutable pages : int; (* materialized *)
  mutable high : int;
  capacity : int;
}

exception Out_of_space

let create ?(capacity = 1 lsl 30) () =
  if capacity <= 0 then invalid_arg "Heap.create: capacity must be positive";
  let chunks = ((capacity - 1) lsr (page_bits + chunk_bits)) + 1 in
  { dir = Array.make chunks [||]; pages = 0; high = 0; capacity }

let capacity t = t.capacity

let high_water t = t.high

let resident t = t.pages * page_size

(* The page at index [idx], zero-length when absent. Callers pass
   indices below capacity, which [create] sized the directory for. *)
let find t idx =
  let chunk = t.dir.(idx lsr chunk_bits) in
  if Array.length chunk = 0 then Bytes.empty else chunk.(idx land (chunk_pages - 1))

let page_for t idx =
  (* In range as for [find]. *)
  let chunk =
    match t.dir.(idx lsr chunk_bits) with
    | [||] ->
        let chunk = Array.make chunk_pages Bytes.empty in
        t.dir.(idx lsr chunk_bits) <- chunk;
        chunk
    | chunk -> chunk
  in
  let i = idx land (chunk_pages - 1) in
  let p = chunk.(i) in
  if Bytes.length p > 0 then p
  else begin
    let p = Bytes.make page_size '\000' in
    chunk.(i) <- p;
    t.pages <- t.pages + 1;
    p
  end

(* Iterate over the page-aligned spans of [off, off+len). *)
let iter_spans ~off ~len f =
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let page = !pos lsr page_bits in
    let in_page = !pos land (page_size - 1) in
    let span = min !remaining (page_size - in_page) in
    f ~page ~in_page ~src_off:(!pos - off) ~span;
    pos := !pos + span;
    remaining := !remaining - span
  done

let write t ~off data =
  let len = String.length data in
  if off < 0 then invalid_arg "Heap.write: negative offset";
  if len = 0 then invalid_arg "Heap.write: empty write";
  if off + len > t.capacity then raise Out_of_space;
  iter_spans ~off ~len (fun ~page ~in_page ~src_off ~span ->
      Bytes.blit_string data src_off (page_for t page) in_page span);
  if off + len > t.high then t.high <- off + len

let read t ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Heap.read: negative offset or length";
  if off + len > t.capacity then invalid_arg "Heap.read: beyond capacity";
  if len = 0 then ""
  else begin
    (* Every byte is written exactly once: copied from a resident page
       or zero-filled for an absent one. *)
    let buf = Bytes.create len in
    iter_spans ~off ~len (fun ~page ~in_page ~src_off ~span ->
        let p = find t page in
        if Bytes.length p > 0 then Bytes.blit p in_page buf src_off span
        else Bytes.fill buf src_off span '\000');
    Bytes.unsafe_to_string buf
  end

(* One byte, without copying; an absent page reads as zero. *)
let byte_at t off =
  let p = find t (off lsr page_bits) in
  if Bytes.length p > 0 then Bytes.get_uint8 p (off land (page_size - 1)) else 0

let get_int32_le t ~off =
  if off < 0 || off + 4 > t.capacity then invalid_arg "Heap.get_int32_le: out of range";
  if off land (page_size - 1) <= page_size - 4 then
    let p = find t (off lsr page_bits) in
    if Bytes.length p > 0 then Bytes.get_int32_le p (off land (page_size - 1)) else 0l
  else
    (* The four bytes straddle a page boundary. *)
    Int32.of_int
      (byte_at t off
      lor (byte_at t (off + 1) lsl 8)
      lor (byte_at t (off + 2) lsl 16)
      lor (byte_at t (off + 3) lsl 24))

let equal_at t ~off expected =
  let len = String.length expected in
  if off < 0 || off + len > t.capacity then false
  else begin
    let ok = ref true in
    iter_spans ~off ~len (fun ~page ~in_page ~src_off ~span ->
        if !ok then begin
          let p = find t page in
          if Bytes.length p > 0 then begin
            let rec cmp i =
              if i = span then true
              else if Bytes.get p (in_page + i) <> expected.[src_off + i] then false
              else cmp (i + 1)
            in
            if not (cmp 0) then ok := false
          end
          else begin
            (* An absent page reads as zeros. *)
            let rec zeros i =
              if i = span then true
              else if expected.[src_off + i] <> '\000' then false
              else zeros (i + 1)
            in
            if not (zeros 0) then ok := false
          end
        end);
    !ok
  end

(* Page-wise: only resident pages are copied, so the cost follows what
   was written, not the high-water mark. *)
let copy_into ~src ~dst =
  if src.high > dst.capacity then raise Out_of_space;
  Array.fill dst.dir 0 (Array.length dst.dir) [||];
  (* Every materialized page lies below [src.high], so within [dst]'s
     directory; untouched chunks beyond it are skipped. *)
  Array.iteri
    (fun c chunk ->
      if Array.length chunk > 0 then
        dst.dir.(c) <- Array.map (fun p -> if Bytes.length p > 0 then Bytes.copy p else p) chunk)
    src.dir;
  dst.pages <- src.pages;
  dst.high <- src.high
