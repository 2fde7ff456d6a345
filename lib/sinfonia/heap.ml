(* Paged sparse storage: only written 64 KiB pages materialize, so a
   large, mostly-empty address space (e.g. the baseline mode's
   replicated sequence-number table region) costs nothing. *)

let page_bits = 16

let page_size = 1 lsl page_bits

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable high : int;
  capacity : int;
}

exception Out_of_space

let create ?(capacity = 1 lsl 30) () =
  if capacity <= 0 then invalid_arg "Heap.create: capacity must be positive";
  { pages = Hashtbl.create 64; high = 0; capacity }

let capacity t = t.capacity

let high_water t = t.high

let resident t = Hashtbl.length t.pages * page_size

let page_for t idx =
  match Hashtbl.find_opt t.pages idx with
  | Some p -> p
  | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.add t.pages idx p;
      p

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
        match Hashtbl.find_opt t.pages page with
        | Some p -> Bytes.blit p in_page buf src_off span
        | None -> Bytes.fill buf src_off span '\000');
    Bytes.unsafe_to_string buf
  end

(* One byte, without copying; an absent page reads as zero. *)
let byte_at t off =
  match Hashtbl.find_opt t.pages (off lsr page_bits) with
  | Some p -> Bytes.get_uint8 p (off land (page_size - 1))
  | None -> 0

let get_int32_le t ~off =
  if off < 0 || off + 4 > t.capacity then invalid_arg "Heap.get_int32_le: out of range";
  if off land (page_size - 1) <= page_size - 4 then
    match Hashtbl.find_opt t.pages (off lsr page_bits) with
    | Some p -> Bytes.get_int32_le p (off land (page_size - 1))
    | None -> 0l
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
        if !ok then
          match Hashtbl.find_opt t.pages page with
          | Some p ->
              let rec cmp i =
                if i = span then true
                else if Bytes.get p (in_page + i) <> expected.[src_off + i] then false
                else cmp (i + 1)
              in
              if not (cmp 0) then ok := false
          | None ->
              (* An absent page reads as zeros. *)
              let rec zeros i =
                if i = span then true
                else if expected.[src_off + i] <> '\000' then false
                else zeros (i + 1)
              in
              if not (zeros 0) then ok := false);
    !ok
  end

let snapshot t = read t ~off:0 ~len:t.high

let restore t contents =
  if String.length contents > t.capacity then raise Out_of_space;
  Hashtbl.reset t.pages;
  t.high <- 0;
  if String.length contents > 0 then write t ~off:0 contents
