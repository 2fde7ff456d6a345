type compare_item = { c_addr : Address.t; c_expected : string }

type read_item = { r_addr : Address.t; r_len : int; r_trim : bool }

type write_item = { w_addr : Address.t; w_data : string }

type t = {
  compares : compare_item list;
  reads : read_item list;
  writes : write_item list;
}

let empty = { compares = []; reads = []; writes = [] }

let make ?(compares = []) ?(reads = []) ?(writes = []) () = { compares; reads; writes }

let compare_at addr expected = { c_addr = addr; c_expected = expected }

let read_at ?(trim = false) addr len =
  if len <= 0 then invalid_arg "Mtx.read_at: length must be positive";
  { r_addr = addr; r_len = len; r_trim = trim }

(* Object slots start with a 12-byte header: the i64 sequence number
   and the i32 payload length. *)
let slot_header_size = 12

(* Used prefix of an object slot: the header plus the payload, without
   the zero padding out to the slot size. The length field is read in
   place, so only the bytes replied are copied. An insane length field
   (corruption, or bytes that are not an object slot) falls back to the
   full range, and so does an out-of-range request, which then raises
   from [Heap.read] exactly as an untrimmed one would. *)
let trimmed_read heap ~off ~len =
  if len <= slot_header_size || off < 0 || off + len > Heap.capacity heap then
    Heap.read heap ~off ~len
  else
    let plen = Int32.to_int (Heap.get_int32_le heap ~off:(off + 8)) in
    if plen < 0 || plen > len - slot_header_size then Heap.read heap ~off ~len
    else Heap.read heap ~off ~len:(slot_header_size + plen)

let write_at addr data =
  if String.length data = 0 then invalid_arg "Mtx.write_at: empty write";
  { w_addr = addr; w_data = data }

let is_empty t = t.compares = [] && t.reads = [] && t.writes = []

let is_read_only t = t.writes = []

let memnodes t =
  let nodes =
    List.map (fun c -> c.c_addr.Address.node) t.compares
    @ List.map (fun r -> r.r_addr.Address.node) t.reads
    @ List.map (fun w -> w.w_addr.Address.node) t.writes
  in
  List.sort_uniq Int.compare nodes

let item_count t = List.length t.compares + List.length t.reads + List.length t.writes

type outcome =
  | Committed of {
      stamp : int64;
      reads : (Address.t * string) list;
      epochs : (int * int) list;
          (* (address space, crash epoch) for every participating
             memnode, observed while its locks were held. Proxies use
             these to lazily age out cache entries from before a crash
             instead of flushing wholesale. *)
    }
  | Failed_compare of int list
  | Busy
  | Unavailable of { maybe_applied : bool; partitioned : bool }

let pp_outcome fmt = function
  | Committed { stamp; reads; _ } ->
      Format.fprintf fmt "Committed(stamp=%Ld, %d reads)" stamp (List.length reads)
  | Failed_compare idxs ->
      Format.fprintf fmt "Failed_compare[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f ";")
           Format.pp_print_int)
        idxs
  | Busy -> Format.pp_print_string fmt "Busy"
  | Unavailable { maybe_applied; partitioned } ->
      Format.fprintf fmt "Unavailable(maybe_applied=%b, partitioned=%b)" maybe_applied partitioned
