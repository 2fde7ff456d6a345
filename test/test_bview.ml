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

let test_negative_value_length_rejected () =
  (* A 9-byte length varint whose top group sets bit 62 wraps to a
     negative int; the view must reject it as a decode error (what the
     read path aborts and retries on), not fail a String.sub later. *)
  let value = "VVVVVVVVVVVV" in
  let payload = Bnode.encode (leaf [ ("k", value) ]) in
  let rec find i =
    if String.equal (String.sub payload i (String.length value)) value then i else find (i + 1)
  in
  let len_pos = find 0 - 1 in
  let corrupt = Bytes.of_string payload in
  List.iteri
    (fun j b -> Bytes.set corrupt (len_pos + j) (Char.chr b))
    [ 0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x40 ];
  match Bview.leaf_find (Bview.of_string (Bytes.to_string corrupt)) "k" with
  | (_ : string option) -> Alcotest.fail "negative value length accepted"
  | exception Codec.Decode_error _ -> ()

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

(* ------------------------------------------------------------------ *)
(* Leaf splice: one-pass rewrite against the decode/edit/encode oracle  *)
(* ------------------------------------------------------------------ *)

(* The oracle is the decoded path: [Bnode.leaf_insert] /
   [Bnode.leaf_remove] on the materialised leaf, then the full encoder.
   Returns the splice's outcome, its framed bytes (when it spliced) and
   the oracle's bytes (when the edit changes the leaf). *)
let splice_vs_oracle ?(max_keys = max_int) node k edit =
  let v = Bview.of_string (Bnode.encode node) in
  Bview.verify_crc v;
  let e = Codec.Enc.create () in
  let outcome = Bview.leaf_splice e v ~max_keys k edit in
  let spliced = Codec.Enc.to_string_with_checksum e in
  let decoded = Bnode.of_view v in
  let oracle =
    match edit with
    | Some value -> Some (Bnode.leaf_insert decoded k value)
    | None -> Bnode.leaf_remove decoded k
  in
  (outcome, spliced, Option.map Bnode.encode oracle)

let common_prefix_len (n : Bnode.t) =
  let keys = Array.map fst (Bnode.leaf_entries n) in
  let len = Array.length keys in
  if len = 0 then 0
  else begin
    let a = keys.(0) and b = keys.(len - 1) in
    let m = min (String.length a) (String.length b) in
    let rec go i = if i < m && a.[i] = b.[i] then go (i + 1) else i in
    go 0
  end

let expect_spliced what node k edit =
  match splice_vs_oracle node k edit with
  | Bview.Spliced, spliced, Some oracle -> check Alcotest.string what oracle spliced
  | Bview.Spliced, _, None -> Alcotest.failf "%s: spliced a no-op edit" what
  | Bview.Absent, _, _ -> Alcotest.failf "%s: reported absent" what
  | Bview.Fallback, _, _ -> Alcotest.failf "%s: fell back" what

let expect_fallback what node k edit =
  match splice_vs_oracle node k edit with
  | Bview.Fallback, spliced, _ ->
      (* The encoder is untouched: only the empty content's trailer. *)
      check Alcotest.int (what ^ ": encoder untouched") 4 (String.length spliced)
  | (Bview.Spliced | Bview.Absent), _, _ -> Alcotest.failf "%s: did not fall back" what

let user i = Printf.sprintf "user%04d" i

let five = leaf (List.init 5 (fun i -> (user (10 * (i + 1)), "v" ^ string_of_int i)))

let test_splice_positions () =
  expect_spliced "insert at 0" five (user 5) (Some "first");
  expect_spliced "insert in the middle" five (user 25) (Some "mid");
  expect_spliced "insert at the end" five (user 99) (Some "last");
  expect_spliced "replace first" five (user 10) (Some "new first value");
  expect_spliced "replace middle" five (user 30) (Some "");
  expect_spliced "replace last" five (user 50) (Some "x");
  expect_spliced "remove middle" five (user 30) None;
  (match splice_vs_oracle five (user 31) None with
  | Bview.Absent, _, None -> ()
  | _ -> Alcotest.fail "removing an absent key is not Absent");
  (* Removing the first or last key keeps the prefix when the new ends
     still part at their first suffix byte ("0020" vs "0050"). *)
  expect_spliced "remove first" five (user 10) None;
  expect_spliced "remove last" five (user 50) None

let test_splice_one_key () =
  let one = leaf [ ("solo", "1") ] in
  (* A one-key leaf's prefix is the whole key. *)
  expect_spliced "replace the only key" one "solo" (Some "2");
  expect_spliced "insert an extension of the only key" one "solo+" (Some "3");
  expect_fallback "insert a key that shrinks the prefix" one "sold" (Some "4");
  expect_fallback "remove the only key" one "solo" None;
  expect_fallback "insert into an empty leaf" (leaf []) "a" (Some "1");
  expect_spliced "remove the empty key" (leaf [ ("", "e") ]) "" None

let test_splice_varint_boundary () =
  let v127 = String.make 127 'a' and v128 = String.make 128 'b' in
  let node = leaf [ ("k1", "x"); ("k2", v127); ("k3", "y") ] in
  expect_spliced "127 -> 128 byte value" node "k2" (Some v128);
  expect_spliced "insert a 128-byte value" node "k25" (Some v128);
  let node = leaf [ ("k1", "x"); ("k2", v128); ("k3", "y") ] in
  expect_spliced "128 -> 127 byte value" node "k2" (Some v127);
  expect_spliced "remove a 128-byte value" node "k2" None

let test_splice_prefix_changes_fall_back () =
  expect_fallback "prefix-shrinking insert below" five "use" (Some "z");
  expect_fallback "prefix-shrinking insert above" five "uses" (Some "z");
  (* Removing an end key can grow the prefix: "user0020".."user0050"
     without "user0010" still parts at byte 6, but these two do not. *)
  let node = leaf [ ("ab1", "1"); ("b1", "2"); ("b2", "3") ] in
  expect_fallback "prefix-growing removal" node "ab1" None

let test_splice_capacity () =
  match splice_vs_oracle ~max_keys:5 five (user 25) (Some "six") with
  | Bview.Fallback, _, _ -> ()
  | _ -> Alcotest.fail "an insert past max_keys must fall back to the split path"

(* Edits draw their key from the leaf (replace / remove) or fresh, and
   their values across the 1-to-2-byte varint boundary. *)
let arbitrary_splice_case =
  let open QCheck.Gen in
  let gen =
    let* node = gen_leaf_node ~value_len:200 () in
    let keys = Array.map fst (Bnode.leaf_entries node) in
    let* k =
      if Array.length keys = 0 then arbitrary_key
      else oneof [ arbitrary_key; map (fun i -> keys.(i)) (int_bound (Array.length keys - 1)) ]
    in
    let* edit = opt (string_size ~gen:printable (int_range 0 200)) in
    return (node, k, edit)
  in
  QCheck.make
    ~print:(fun (n, k, edit) ->
      Format.asprintf "%a key=%S edit=%s" Bnode.pp n k
        (match edit with None -> "remove" | Some v -> Printf.sprintf "%S" v))
    gen

let prop_splice_matches_oracle =
  (* Where the splice runs, its bytes are the oracle's; it falls back
     exactly when the edit changes the keys' common prefix. *)
  QCheck.Test.make ~name:"leaf splice = decode/edit/encode" ~count:1000 arbitrary_splice_case
    (fun (node, k, edit) ->
      let oracle_node =
        match edit with
        | Some value -> Some (Bnode.leaf_insert node k value)
        | None -> Bnode.leaf_remove node k
      in
      match (splice_vs_oracle node k edit, oracle_node) with
      | (Bview.Spliced, spliced, Some oracle), Some _ -> String.equal spliced oracle
      | (Bview.Absent, _, None), None -> true
      | (Bview.Fallback, spliced, _), Some o ->
          String.length spliced = 4 && common_prefix_len o <> common_prefix_len node
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* View memo: newest parsed version per node pointer                    *)
(* ------------------------------------------------------------------ *)

module View_memo = Btree.View_memo

let value_in v k = Bview.leaf_find v k

let test_memo_seq_change_shows_new_content () =
  let memo = View_memo.create () in
  let p = ref_ 0 4096 in
  let v1 = view_of (leaf [ ("k", "old") ]) and v2 = view_of (leaf [ ("k", "new") ]) in
  View_memo.add memo p ~seq:1L v1;
  (match View_memo.find memo p ~seq:1L with
  | Some v -> check Alcotest.bool "held version hits" true (v == v1)
  | None -> Alcotest.fail "held version missed");
  View_memo.add memo p ~seq:2L v2;
  (match View_memo.find memo p ~seq:2L with
  | Some v -> check (Alcotest.option Alcotest.string) "new content" (Some "new") (value_in v "k")
  | None -> Alcotest.fail "newer version not held");
  check Alcotest.bool "superseded version gone" true (View_memo.find memo p ~seq:1L = None);
  check Alcotest.int "one entry per pointer" 1 (View_memo.length memo)

let test_memo_older_seq_keeps_newer () =
  let memo = View_memo.create () in
  let p = ref_ 1 8192 in
  let v5 = view_of (leaf [ ("k", "five") ]) and v3 = view_of (leaf [ ("k", "three") ]) in
  View_memo.add memo p ~seq:5L v5;
  (* A stale proxy-cache entry brings back an older version: it is
     parsed for its reader but must not evict the newer view. *)
  check Alcotest.bool "older version misses" true (View_memo.find memo p ~seq:3L = None);
  View_memo.add memo p ~seq:3L v3;
  (match View_memo.find memo p ~seq:5L with
  | Some v -> check Alcotest.bool "newer view kept" true (v == v5)
  | None -> Alcotest.fail "older seq evicted the newer view");
  check Alcotest.int "still one entry" 1 (View_memo.length memo);
  check Alcotest.int "only the older lookup missed" 1 (View_memo.misses memo)

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
          Alcotest.test_case "negative value length rejected" `Quick
            test_negative_value_length_rejected;
        ] );
      ( "view memo",
        [
          Alcotest.test_case "seq change shows new content" `Quick
            test_memo_seq_change_shows_new_content;
          Alcotest.test_case "older seq keeps newer view" `Quick test_memo_older_seq_keeps_newer;
        ] );
      ( "splice",
        [
          Alcotest.test_case "insert, replace, remove positions" `Quick test_splice_positions;
          Alcotest.test_case "one-key and empty leaves" `Quick test_splice_one_key;
          Alcotest.test_case "127- and 128-byte values" `Quick test_splice_varint_boundary;
          Alcotest.test_case "prefix changes fall back" `Quick test_splice_prefix_changes_fall_back;
          Alcotest.test_case "capacity falls back" `Quick test_splice_capacity;
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
            prop_splice_matches_oracle;
          ] );
    ]
