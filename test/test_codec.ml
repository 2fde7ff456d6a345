(* Tests for the binary codec. *)

let check = Alcotest.check

let roundtrip encode decode v =
  let e = Codec.Enc.create () in
  encode e v;
  let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
  decode d

let test_u8 () =
  List.iter
    (fun v -> check Alcotest.int "u8" v (roundtrip Codec.Enc.u8 Codec.Dec.u8 v))
    [ 0; 1; 127; 128; 255 ];
  (match Codec.Enc.u8 (Codec.Enc.create ()) 256 with
  | () -> Alcotest.fail "u8 out of range accepted"
  | exception Invalid_argument _ -> ());
  match Codec.Enc.u8 (Codec.Enc.create ()) (-1) with
  | () -> Alcotest.fail "u8 negative accepted"
  | exception Invalid_argument _ -> ()

let test_u16_u32 () =
  List.iter
    (fun v -> check Alcotest.int "u16" v (roundtrip Codec.Enc.u16 Codec.Dec.u16 v))
    [ 0; 255; 256; 65535 ];
  List.iter
    (fun v -> check Alcotest.int "u32" v (roundtrip Codec.Enc.u32 Codec.Dec.u32 v))
    [ 0; 65536; 0xffff_ffff ]

let test_i64 () =
  List.iter
    (fun v -> check Alcotest.int64 "i64" v (roundtrip Codec.Enc.i64 Codec.Dec.i64 v))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x0123456789abcdefL ]

let test_varint () =
  List.iter
    (fun v -> check Alcotest.int "varint" v (roundtrip Codec.Enc.varint Codec.Dec.varint v))
    [ 0; 1; 127; 128; 300; 16384; 1 lsl 30; max_int ];
  match Codec.Enc.varint (Codec.Enc.create ()) (-1) with
  | () -> Alcotest.fail "negative varint accepted"
  | exception Invalid_argument _ -> ()

let test_varint_sizes () =
  let size v =
    let e = Codec.Enc.create () in
    Codec.Enc.varint e v;
    Codec.Enc.length e
  in
  check Alcotest.int "1 byte" 1 (size 127);
  check Alcotest.int "2 bytes" 2 (size 128);
  check Alcotest.int "2 bytes max" 2 (size 16383);
  check Alcotest.int "3 bytes" 3 (size 16384)

let test_bool_float () =
  check Alcotest.bool "true" true (roundtrip Codec.Enc.bool Codec.Dec.bool true);
  check Alcotest.bool "false" false (roundtrip Codec.Enc.bool Codec.Dec.bool false);
  List.iter
    (fun v -> check (Alcotest.float 0.0) "float" v (roundtrip Codec.Enc.float Codec.Dec.float v))
    [ 0.0; -1.5; 3.14159; infinity; 1e-300 ]

let test_bytes () =
  List.iter
    (fun v -> check Alcotest.string "bytes" v (roundtrip Codec.Enc.bytes Codec.Dec.bytes v))
    [ ""; "a"; "hello world"; String.make 10000 'x'; "\000\001\255" ]

let test_list_array_option () =
  let enc_list e v = Codec.Enc.list e (Codec.Enc.varint e) v in
  let dec_list d = Codec.Dec.list d Codec.Dec.varint in
  check (Alcotest.list Alcotest.int) "list" [ 1; 2; 3 ] (roundtrip enc_list dec_list [ 1; 2; 3 ]);
  check (Alcotest.list Alcotest.int) "empty list" [] (roundtrip enc_list dec_list []);
  let enc_arr e v = Codec.Enc.array e (Codec.Enc.varint e) v in
  let dec_arr d = Codec.Dec.array d Codec.Dec.varint in
  check (Alcotest.array Alcotest.int) "array" [| 4; 5 |] (roundtrip enc_arr dec_arr [| 4; 5 |]);
  let enc_opt e v = Codec.Enc.option e (Codec.Enc.bytes e) v in
  let dec_opt d = Codec.Dec.option d Codec.Dec.bytes in
  check (Alcotest.option Alcotest.string) "some" (Some "x") (roundtrip enc_opt dec_opt (Some "x"));
  check (Alcotest.option Alcotest.string) "none" None (roundtrip enc_opt dec_opt None)

let test_mixed_sequence () =
  let e = Codec.Enc.create () in
  Codec.Enc.u8 e 7;
  Codec.Enc.bytes e "key";
  Codec.Enc.i64 e 42L;
  Codec.Enc.varint e 1000;
  let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
  check Alcotest.int "u8" 7 (Codec.Dec.u8 d);
  check Alcotest.string "bytes" "key" (Codec.Dec.bytes d);
  check Alcotest.int64 "i64" 42L (Codec.Dec.i64 d);
  check Alcotest.int "varint" 1000 (Codec.Dec.varint d);
  check Alcotest.bool "at end" true (Codec.Dec.at_end d)

let test_truncated_input () =
  let e = Codec.Enc.create () in
  Codec.Enc.i64 e 42L;
  let s = Codec.Enc.to_string e in
  let d = Codec.Dec.of_string (String.sub s 0 4) in
  match Codec.Dec.i64 d with
  | (_ : int64) -> Alcotest.fail "truncated i64 decoded"
  | exception Codec.Decode_error _ -> ()

let test_invalid_bool () =
  let d = Codec.Dec.of_string "\002" in
  match Codec.Dec.bool d with
  | (_ : bool) -> Alcotest.fail "invalid bool decoded"
  | exception Codec.Decode_error _ -> ()

let test_crc32_known () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926. *)
  check Alcotest.int32 "known vector" 0xCBF43926l (Codec.crc32 "123456789");
  check Alcotest.int32 "empty" 0l (Codec.crc32 "")

let test_checksum_roundtrip () =
  let payload = "some payload \000 with binary" in
  let framed = Codec.with_checksum payload in
  check Alcotest.string "roundtrip" payload (Codec.check_checksum framed)

let test_checksum_detects_corruption () =
  let framed = Codec.with_checksum "payload" in
  let corrupted = Bytes.of_string framed in
  Bytes.set corrupted 2 'X';
  match Codec.check_checksum (Bytes.to_string corrupted) with
  | (_ : string) -> Alcotest.fail "corruption not detected"
  | exception Codec.Decode_error _ -> ()

let test_checksum_too_short () =
  match Codec.check_checksum "ab" with
  | (_ : string) -> Alcotest.fail "short input accepted"
  | exception Codec.Decode_error _ -> ()

(* Bytewise references for the word-at-a-time kernels: a table-free,
   bit-at-a-time CRC-32 and the textbook FNV-1a-64 loop. *)
let ref_crc32 s pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let ref_fnv1a64 s pos len =
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

(* [payload] placed at offset [off] behind filler bytes, so the kernels
   see every alignment: the whole-string CRC, the in-place frame check
   at [off], the encoder's FNV from [off] and its CRC trailer must all
   equal the references. *)
let kernels_agree ~off payload =
  let len = String.length payload in
  let filler = String.init off (fun i -> Char.chr ((i * 37) land 0xff)) in
  let crc = ref_crc32 payload 0 len in
  let trailer = Bytes.create 4 in
  Bytes.set_int32_le trailer 0 (Int32.of_int crc);
  let frame = filler ^ payload ^ Bytes.to_string trailer in
  let e = Codec.Enc.create () in
  Codec.Enc.raw e filler;
  Codec.Enc.raw e payload;
  let framed = Codec.Enc.to_string_with_checksum e in
  let whole = filler ^ payload in
  Int32.equal (Codec.crc32 payload) (Int32.of_int crc)
  && (match Codec.verify_checksum_in_place frame off (len + 4) with
     | () -> true
     | exception Codec.Decode_error _ -> false)
  && Int64.equal (Codec.Enc.fnv1a64_from e ~pos:off) (ref_fnv1a64 payload 0 len)
  && Int32.to_int (String.get_int32_le framed (off + len)) land 0xFFFFFFFF
     = ref_crc32 whole 0 (off + len)

let test_kernels_small () =
  for len = 0 to 40 do
    for off = 0 to 8 do
      let payload = String.init len (fun i -> Char.chr ((i * 131 + len) land 0xff)) in
      if not (kernels_agree ~off payload) then Alcotest.failf "len %d off %d disagrees" len off
    done
  done

let prop_kernels_match_reference =
  let gen = QCheck.(pair (int_bound 15) (string_of_size (Gen.int_bound 4100))) in
  QCheck.Test.make ~name:"crc32/fnv1a64 match bytewise references" ~count:300 gen
    (fun (off, payload) -> kernels_agree ~off payload)

let prop_crc_detects_flip =
  let gen = QCheck.(pair (int_bound 15) (string_of_size (Gen.int_range 1 4100))) in
  QCheck.Test.make ~name:"in-place check rejects any flipped payload byte" ~count:200 gen
    (fun (off, payload) ->
      let e = Codec.Enc.create () in
      Codec.Enc.raw e (String.make off 'x');
      Codec.Enc.raw e payload;
      let framed = Bytes.of_string (Codec.Enc.to_string_with_checksum e) in
      let at = off + (Hashtbl.hash payload mod String.length payload) in
      Bytes.set framed at (Char.chr (Char.code (Bytes.get framed at) lxor 0x01));
      match Codec.verify_checksum_in_place (Bytes.to_string framed) 0 (Bytes.length framed) with
      | () -> false
      | exception Codec.Decode_error _ -> true)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:500 QCheck.(string)
    (fun s -> roundtrip Codec.Enc.bytes Codec.Dec.bytes s = s)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun v -> roundtrip Codec.Enc.varint Codec.Dec.varint v = v)

let prop_i64_roundtrip =
  QCheck.Test.make ~name:"i64 roundtrip" ~count:500 QCheck.int64 (fun v ->
      roundtrip Codec.Enc.i64 Codec.Dec.i64 v = v)

let prop_checksum_roundtrip =
  QCheck.Test.make ~name:"checksum roundtrip" ~count:500 QCheck.string (fun s ->
      Codec.check_checksum (Codec.with_checksum s) = s)

let prop_mixed_roundtrip =
  (* A record-like structure: (int, string, int64 option, string list). *)
  let gen = QCheck.(quad small_nat string (option int64) (small_list string)) in
  QCheck.Test.make ~name:"mixed structure roundtrip" ~count:300 gen (fun (a, b, c, d) ->
      let e = Codec.Enc.create () in
      Codec.Enc.varint e a;
      Codec.Enc.bytes e b;
      Codec.Enc.option e (Codec.Enc.i64 e) c;
      Codec.Enc.list e (Codec.Enc.bytes e) d;
      let dec = Codec.Dec.of_string (Codec.Enc.to_string e) in
      let a' = Codec.Dec.varint dec in
      let b' = Codec.Dec.bytes dec in
      let c' = Codec.Dec.option dec Codec.Dec.i64 in
      let d' = Codec.Dec.list dec Codec.Dec.bytes in
      (a, b, c, d) = (a', b', c', d') && Codec.Dec.at_end dec)

let () =
  Alcotest.run "codec"
    [
      ( "primitives",
        [
          Alcotest.test_case "u8" `Quick test_u8;
          Alcotest.test_case "u16/u32" `Quick test_u16_u32;
          Alcotest.test_case "i64" `Quick test_i64;
          Alcotest.test_case "varint" `Quick test_varint;
          Alcotest.test_case "varint sizes" `Quick test_varint_sizes;
          Alcotest.test_case "bool/float" `Quick test_bool_float;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "list/array/option" `Quick test_list_array_option;
          Alcotest.test_case "mixed sequence" `Quick test_mixed_sequence;
        ] );
      ( "errors",
        [
          Alcotest.test_case "truncated" `Quick test_truncated_input;
          Alcotest.test_case "invalid bool" `Quick test_invalid_bool;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "crc32 known vector" `Quick test_crc32_known;
          Alcotest.test_case "roundtrip" `Quick test_checksum_roundtrip;
          Alcotest.test_case "detects corruption" `Quick test_checksum_detects_corruption;
          Alcotest.test_case "too short" `Quick test_checksum_too_short;
          Alcotest.test_case "kernels at every small length and offset" `Quick test_kernels_small;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bytes_roundtrip;
            prop_varint_roundtrip;
            prop_i64_roundtrip;
            prop_checksum_roundtrip;
            prop_kernels_match_reference;
            prop_crc_detects_flip;
            prop_mixed_roundtrip;
          ] );
    ]
