(* Property suite for the slotted node wire format and its zero-copy
   view: encode/decode/view agreement, prefix-truncation edge cases, the
   u16 size limits, corruption detection, stamp stability, and the codec
   span/checksum helpers the view is built on. *)

module Bkey = Btree.Bkey
module Bnode = Btree.Bnode
module Bview = Btree.Bview
module Layout = Btree.Layout
module Objref = Dyntxn.Objref
module Address = Sinfonia.Address

let check = Alcotest.check

let ref_ node off = Objref.make ~addr:(Address.make ~node ~off) ~len:4096

let leaf ?(low = Bkey.Neg_inf) ?(high = Bkey.Pos_inf) ?(snap = 0L) ?(descendants = [||]) entries =
  {
    (Bnode.make_leaf ~low ~high ~snap (Array.of_list entries)) with
    Bnode.descendants;
  }

let internal ?(low = Bkey.Neg_inf) ?(high = Bkey.Pos_inf) ?(snap = 0L) ?(descendants = [||])
    ~height keys children =
  {
    (Bnode.make_internal ~height ~low ~high ~snap ~keys:(Array.of_list keys)
       ~children:(Array.of_list children))
    with
    Bnode.descendants;
  }

let node_equal (a : Bnode.t) (b : Bnode.t) =
  a.Bnode.height = b.Bnode.height
  && Bkey.fence_equal a.Bnode.low b.Bnode.low
  && Bkey.fence_equal a.Bnode.high b.Bnode.high
  && Int64.equal a.Bnode.snap_created b.Bnode.snap_created
  && a.Bnode.descendants = b.Bnode.descendants
  &&
  match (a.Bnode.body, b.Bnode.body) with
  | Bnode.Leaf x, Bnode.Leaf y -> x = y
  | Bnode.Internal x, Bnode.Internal y ->
      x.keys = y.keys && Array.for_all2 Objref.equal x.children y.children
  | _ -> false

let view_of node = Bview.of_string (Bnode.encode node)

(* ------------------------------------------------------------------ *)
(* Unit edge cases: prefix truncation, empty keys, fence boundaries     *)
(* ------------------------------------------------------------------ *)

let test_empty_leaf () =
  let n = leaf [] in
  let v = view_of n in
  check Alcotest.int "nkeys" 0 (Bview.nkeys v);
  check Alcotest.bool "find" true (Bview.leaf_find v "x" = None);
  check Alcotest.int "lower_bound" 0 (Bview.lower_bound v "x");
  check Alcotest.bool "roundtrip" true (node_equal n (Bnode.decode (Bnode.encode n)))

let test_empty_key_entry () =
  (* The empty string is a legal key and always the smallest. *)
  let n = leaf [ ("", "empty"); ("a", "1") ] in
  let v = view_of n in
  check (Alcotest.option Alcotest.string) "empty key" (Some "empty") (Bview.leaf_find v "");
  check (Alcotest.option Alcotest.string) "other key" (Some "1") (Bview.leaf_find v "a");
  check Alcotest.int "lower_bound at empty" 0 (Bview.lower_bound v "");
  check Alcotest.bool "roundtrip" true (node_equal n (Bnode.decode (Bnode.encode n)))

let test_shared_prefix_run () =
  (* All keys share a long prefix: the directory stores 1-2 byte
     suffixes, and queries shorter/outside the prefix take the
     prefix-comparison short-circuit. *)
  let p = "user/profile/2026/" in
  let n = leaf (List.init 9 (fun i -> (p ^ string_of_int i, "v" ^ string_of_int i))) in
  let v = view_of n in
  for i = 0 to 8 do
    let k = p ^ string_of_int i in
    check (Alcotest.option Alcotest.string) k (Some ("v" ^ string_of_int i)) (Bview.leaf_find v k)
  done;
  (* Queries relating to the common prefix in every possible way. *)
  check (Alcotest.option Alcotest.string) "below prefix" None (Bview.leaf_find v "aaa");
  check Alcotest.int "below prefix lb" 0 (Bview.lower_bound v "aaa");
  check (Alcotest.option Alcotest.string) "above prefix" None (Bview.leaf_find v "zzz");
  check Alcotest.int "above prefix lb" 9 (Bview.lower_bound v "zzz");
  check (Alcotest.option Alcotest.string) "proper prefix of prefix" None (Bview.leaf_find v "user/");
  check Alcotest.int "proper prefix lb" 0 (Bview.lower_bound v "user/");
  check (Alcotest.option Alcotest.string) "exactly the prefix" None (Bview.leaf_find v p);
  check Alcotest.bool "roundtrip" true (node_equal n (Bnode.decode (Bnode.encode n)))

let test_fence_boundaries () =
  (* Keys at the fences; in_range is [low, high). *)
  let n = leaf ~low:(Bkey.Key "f") ~high:(Bkey.Key "q") [ ("f", "1"); ("p", "2") ] in
  let v = view_of n in
  check Alcotest.bool "low in range" true (Bview.in_range v "f");
  check Alcotest.bool "high out of range" false (Bview.in_range v "q");
  check Alcotest.bool "below low" false (Bview.in_range v "a");
  check Alcotest.bool "fences decode" true
    (Bkey.fence_equal (Bview.low v) (Bkey.Key "f") && Bkey.fence_equal (Bview.high v) (Bkey.Key "q"))

let test_internal_routing () =
  let kids = [ ref_ 0 4096; ref_ 1 4096; ref_ 2 4096 ] in
  let n = internal ~height:3 ~snap:5L ~descendants:[| 7L; 9L |] [ "g"; "p" ] kids in
  let v = view_of n in
  check Alcotest.int "height" 3 (Bview.height v);
  check Alcotest.int "children" 3 (Bview.child_count v);
  check Alcotest.int "descendants" 2 (Bview.n_descendants v);
  check Alcotest.bool "descendant pred" true (Bview.exists_descendant v (Int64.equal 9L));
  List.iter
    (fun k ->
      let i, p = Bnode.child_for n k in
      let i', p' = Bview.child_for v k in
      check Alcotest.int ("index for " ^ k) i i';
      check Alcotest.bool ("pointer for " ^ k) true (Objref.equal p p'))
    [ "a"; "g"; "m"; "p"; "z"; "" ]

let test_stamp_stability () =
  let n = leaf ~snap:3L [ ("a", "1"); ("b", "2") ] in
  let s1 = Bview.stamp (view_of n) in
  let s2 = Bview.stamp (view_of n) in
  check Alcotest.int64 "same content, same stamp" s1 s2;
  let s3 = Bview.stamp (view_of (leaf ~snap:3L [ ("a", "1"); ("b", "changed") ])) in
  check Alcotest.bool "different content, different stamp" true (not (Int64.equal s1 s3));
  check Alcotest.bool "same_stamp on raw payloads" true
    (Bview.same_stamp (Bnode.encode n) (Bnode.encode n))

let test_u16_limit_raises () =
  (* A key longer than a u16 can count does not fit the format. Such a
     node fits no slot either, so encoding refuses it outright instead
     of writing a different format. *)
  let e = Codec.Enc.create () in
  (match
     Bview.encode_into e ~height:0 ~low:Bkey.Neg_inf ~high:Bkey.Pos_inf ~snap:0L
       ~descendants:[||]
       (Bview.Leaf_spec [| (String.make 70_000 'k', "v") |])
   with
  | () -> Alcotest.fail "a node over the u16 limits was encoded"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "encoder untouched" 0 (Codec.Enc.length e)

let test_layout_caps_node_size () =
  (* Slots above 64 KiB could hold nodes the format cannot address. *)
  ignore (Layout.make ~node_size:65536 () : Layout.t);
  match Layout.make ~node_size:65537 () with
  | (_ : Layout.t) -> Alcotest.fail "node_size 65537 accepted"
  | exception Invalid_argument _ -> ()

let flip_byte s i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x5a) else c) s

let test_corrupt_slot_directory () =
  (* A flipped byte anywhere in the slot directory must fail decode (the
     CRC); the structurally-validated view may accept or reject it, but
     the write path never consumes corrupt bytes. *)
  let n = leaf (List.init 8 (fun i -> (Printf.sprintf "key%02d" i, "v"))) in
  let payload = Bnode.encode n in
  let dir_off, dir_len = Bview.dir_bounds (Bview.of_string payload) in
  check Alcotest.bool "directory nonempty" true (dir_len > 0);
  for i = dir_off to dir_off + dir_len - 1 do
    let corrupt = flip_byte payload i in
    match Bnode.decode corrupt with
    | (_ : Bnode.t) -> Alcotest.failf "corrupt directory byte %d decoded" i
    | exception Codec.Decode_error _ -> ()
  done

let test_truncation_rejected () =
  let payload = Bnode.encode (leaf [ ("a", "1"); ("b", "2") ]) in
  for len = 0 to String.length payload - 1 do
    let cut = String.sub payload 0 len in
    (match Bview.of_string cut with
    | (_ : Bview.t) ->
        (* A shorter prefix can parse structurally only if every span
           still lands in bounds; the CRC must still catch it. *)
        ()
    | exception Codec.Decode_error _ -> ());
    match Bnode.decode cut with
    | (_ : Bnode.t) -> Alcotest.failf "truncation to %d bytes decoded" len
    | exception Codec.Decode_error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Codec helpers under the view                                         *)
(* ------------------------------------------------------------------ *)

let test_enc_checksum_framing () =
  let e = Codec.Enc.create ~initial_size:4 () in
  Codec.Enc.raw e "hello, slotted world";
  let framed = Codec.Enc.to_string_with_checksum e in
  check Alcotest.string "single-alloc framing matches with_checksum"
    (Codec.with_checksum "hello, slotted world")
    framed;
  check Alcotest.string "roundtrip" "hello, slotted world" (Codec.check_checksum framed);
  Codec.verify_checksum_in_place framed 0 (String.length framed);
  match Codec.verify_checksum_in_place (flip_byte framed 2) 0 (String.length framed) with
  | () -> Alcotest.fail "corrupt frame verified"
  | exception Codec.Decode_error _ -> ()

let test_dec_span_accessors () =
  let e = Codec.Enc.create () in
  Codec.Enc.raw e "abc";
  Codec.Enc.bytes e "payload";
  let s = Codec.Enc.to_string e in
  let d = Codec.Dec.of_string s in
  let pos, len = Codec.Dec.raw_view d 3 in
  check Alcotest.string "raw span" "abc" (String.sub s pos len);
  let pos, len = Codec.Dec.bytes_view d in
  check Alcotest.string "bytes span" "payload" (String.sub s pos len);
  check Alcotest.bool "consumed" true (Codec.Dec.at_end d);
  (* Span accessors agree with their copying counterparts. *)
  let d2 = Codec.Dec.of_string s in
  check Alcotest.string "raw agrees" "abc" (Codec.Dec.raw d2 3);
  check Alcotest.string "bytes agrees" "payload" (Codec.Dec.bytes d2)

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let arbitrary_key =
  (* Mix of arbitrary short keys and keys from a shared-prefix family,
     so generated leaves exercise prefix truncation. *)
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (int_range 0 12);
        map (fun (p, s) -> List.nth [ "acct/"; "acct/eu/"; "idx" ] p ^ s)
          (pair (int_range 0 2) (string_size ~gen:printable (int_range 0 6)));
      ])

(* [entries] draws the entry (or separator) list, so the same shapes
   come in small sizes and in sizes that approach a 4 KiB slot. *)
let gen_leaf_node ?(entries = QCheck.Gen.small_list) ?(value_len = 10) () =
  QCheck.Gen.(
    let* entries =
      entries (pair arbitrary_key (string_size ~gen:printable (int_range 0 value_len)))
    in
    let* snap = map Int64.of_int small_nat in
    let* ndesc = int_range 0 3 in
    let* descs = list_repeat ndesc (map Int64.of_int small_nat) in
    let sorted =
      List.sort_uniq (fun (a, _) (b, _) -> Bkey.compare a b) entries |> Array.of_list
    in
    return
      {
        (Bnode.make_leaf ~low:Bkey.Neg_inf ~high:Bkey.Pos_inf ~snap sorted) with
        Bnode.descendants = Array.of_list descs;
      })

let gen_internal_node ?(entries = QCheck.Gen.small_list) () =
  QCheck.Gen.(
    let* keys = entries arbitrary_key in
    let keys = List.sort_uniq Bkey.compare keys in
    let keys = if keys = [] then [ "m" ] else keys in
    let* height = int_range 1 6 in
    let* snap = map Int64.of_int small_nat in
    let children = List.mapi (fun i _ -> ref_ (i mod 3) (4096 * (i + 1))) (() :: List.map ignore keys) in
    return
      (Bnode.make_internal ~height ~low:Bkey.Neg_inf ~high:Bkey.Pos_inf ~snap
         ~keys:(Array.of_list keys) ~children:(Array.of_list children)))

let arbitrary_node gen = QCheck.make ~print:(Format.asprintf "%a" Bnode.pp) gen

let arbitrary_leaf_node = arbitrary_node (gen_leaf_node ())

let arbitrary_internal_node = arbitrary_node (gen_internal_node ())

(* Leaves and internal nodes of up to a few hundred entries: most fit a
   4 KiB slot, some do not. *)
let arbitrary_slot_sized_node =
  let entries g = QCheck.Gen.(list_size (int_range 0 300) g) in
  arbitrary_node
    (QCheck.Gen.oneof [ gen_leaf_node ~entries ~value_len:24 (); gen_internal_node ~entries () ])

let prop_slotted_roundtrip =
  QCheck.Test.make ~name:"slotted encode/decode roundtrip" ~count:500 arbitrary_leaf_node (fun n ->
      node_equal n (Bnode.decode (Bnode.encode n)))

let prop_internal_roundtrip =
  QCheck.Test.make ~name:"internal encode/decode roundtrip" ~count:300 arbitrary_internal_node
    (fun n -> node_equal n (Bnode.decode (Bnode.encode n)))

let prop_view_agrees_with_decode =
  (* The zero-copy view answers every query exactly like the decoded
     node: membership, insertion points, and per-slot entries. *)
  QCheck.Test.make ~name:"view answers = decoded answers" ~count:500
    QCheck.(pair arbitrary_leaf_node (list (QCheck.make arbitrary_key)))
    (fun (n, queries) ->
      let v = Bview.of_string (Bnode.encode n) in
      let decoded = Bnode.decode (Bnode.encode n) in
      Bview.nkeys v = Bnode.nkeys decoded
      && Array.to_list (Bview.leaf_entries v) = Array.to_list (Bnode.leaf_entries decoded)
      && List.for_all
           (fun q ->
             Bview.leaf_find v q = Bnode.leaf_find decoded q
             && Bview.lower_bound v q = Bnode.leaf_entries_from decoded q)
           (queries @ List.map fst (Array.to_list (Bnode.leaf_entries n))))

let prop_view_routes_like_decode =
  QCheck.Test.make ~name:"view routing = decoded routing" ~count:300
    QCheck.(pair arbitrary_internal_node (small_list (QCheck.make arbitrary_key)))
    (fun (n, queries) ->
      let v = Bview.of_string (Bnode.encode n) in
      List.for_all
        (fun q ->
          let i, p = Bnode.child_for n q in
          let i', p' = Bview.child_for v q in
          i = i' && Objref.equal p p')
        ("" :: queries))

let prop_slot_sized_roundtrip =
  (* Every node that fits a 4 KiB slot has exactly one encoding, and
     both read paths give the node back. *)
  QCheck.Test.make ~name:"slot-sized nodes roundtrip through view and decode" ~count:300
    arbitrary_slot_sized_node (fun n ->
      let payload = Bnode.encode n in
      String.length payload > 4096
      || node_equal n (Bnode.of_view (Bview.of_string payload))
         && node_equal n (Bnode.decode payload))

let prop_stamp_stable =
  QCheck.Test.make ~name:"stamp stable across re-encode" ~count:300 arbitrary_leaf_node (fun n ->
      Bview.same_stamp (Bnode.encode n) (Bnode.encode n))

let () =
  Alcotest.run "bview"
    [
      ( "edges",
        [
          Alcotest.test_case "empty leaf" `Quick test_empty_leaf;
          Alcotest.test_case "empty key entry" `Quick test_empty_key_entry;
          Alcotest.test_case "shared prefix run" `Quick test_shared_prefix_run;
          Alcotest.test_case "fence boundaries" `Quick test_fence_boundaries;
          Alcotest.test_case "internal routing" `Quick test_internal_routing;
          Alcotest.test_case "stamp stability" `Quick test_stamp_stability;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "u16 limit raises" `Quick test_u16_limit_raises;
          Alcotest.test_case "layout caps node size" `Quick test_layout_caps_node_size;
          Alcotest.test_case "corrupt slot directory" `Quick test_corrupt_slot_directory;
          Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
        ] );
      ( "codec",
        [
          Alcotest.test_case "checksum framing" `Quick test_enc_checksum_framing;
          Alcotest.test_case "span accessors" `Quick test_dec_span_accessors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_slotted_roundtrip;
            prop_internal_roundtrip;
            prop_view_agrees_with_decode;
            prop_view_routes_like_decode;
            prop_slot_sized_roundtrip;
            prop_stamp_stable;
          ] );
    ]
