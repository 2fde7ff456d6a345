type t = { addr : Sinfonia.Address.t; len : int }

let header_size = Sinfonia.Mtx.slot_header_size

let make ~addr ~len =
  if len <= header_size then invalid_arg "Objref.make: slot too small for header";
  { addr; len }

let payload_capacity t = t.len - header_size

let node t = t.addr.Sinfonia.Address.node

let compare a b =
  match Sinfonia.Address.compare a.addr b.addr with
  | 0 -> Int.compare a.len b.len
  | c -> c

let equal a b = compare a b = 0

let encode enc t =
  Sinfonia.Address.encode enc t.addr;
  Codec.Enc.u32 enc t.len

let decode dec =
  let addr = Sinfonia.Address.decode dec in
  let len = Codec.Dec.u32 dec in
  { addr; len }

let seq_of_slot slot =
  if String.length slot < header_size then invalid_arg "Objref.seq_of_slot: slot too short";
  String.get_int64_le slot 0

let seq_bytes seq =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 seq;
  Bytes.unsafe_to_string b

let payload_of_slot slot =
  if String.length slot < header_size then invalid_arg "Objref.payload_of_slot: slot too short";
  let len = Int32.to_int (String.get_int32_le slot 8) in
  if len < 0 || len > String.length slot - header_size then
    raise (Codec.Decode_error "Objref.payload_of_slot: corrupt length field");
  String.sub slot header_size len

let slot_of ~seq ~payload =
  let b = Bytes.create (header_size + String.length payload) in
  Bytes.set_int64_le b 0 seq;
  Bytes.set_int32_le b 8 (Int32.of_int (String.length payload));
  Bytes.blit_string payload 0 b header_size (String.length payload);
  Bytes.unsafe_to_string b
