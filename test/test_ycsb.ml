(* Tests for the YCSB-style workload generator and driver. *)

let check = Alcotest.check

let rng () = Sim.Rng.create 11

(* ------------------------------------------------------------------ *)
(* Keygen                                                               *)
(* ------------------------------------------------------------------ *)

let test_key_format () =
  check Alcotest.int "14 bytes" 14 (String.length (Ycsb.Keygen.key_of_int 0));
  check Alcotest.int "14 bytes big" 14 (String.length (Ycsb.Keygen.key_of_int 999_999_999));
  check Alcotest.bool "order preserved" true
    (Ycsb.Keygen.key_of_int 5 < Ycsb.Keygen.key_of_int 50);
  check Alcotest.int "hashed 14 bytes" 14 (String.length (Ycsb.Keygen.hashed_key_of_int 123))

let test_hashed_keys_distinct () =
  let seen = Hashtbl.create 1000 in
  for i = 0 to 9999 do
    let k = Ycsb.Keygen.hashed_key_of_int i in
    if Hashtbl.mem seen k then Alcotest.failf "collision at %d" i;
    Hashtbl.add seen k ()
  done

let test_uniform_range_and_coverage () =
  let g = Ycsb.Keygen.uniform ~n:50 in
  let r = rng () in
  let seen = Array.make 50 false in
  for _ = 1 to 5000 do
    let v = Ycsb.Keygen.next g r in
    if v < 0 || v >= 50 then Alcotest.fail "out of range";
    seen.(v) <- true
  done;
  Array.iteri (fun i b -> check Alcotest.bool (string_of_int i) true b) seen

let test_zipfian_skew () =
  let g = Ycsb.Keygen.zipfian ~n:1000 () in
  let r = rng () in
  let counts = Hashtbl.create 64 in
  let samples = 50_000 in
  for _ = 1 to samples do
    let v = Ycsb.Keygen.next g r in
    if v < 0 || v >= 1000 then Alcotest.fail "out of range";
    Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
  done;
  (* Popularity concentrates: the hottest item vastly exceeds the
     uniform share, and a small set of items covers a large share. *)
  let sorted = Hashtbl.fold (fun _ c acc -> c :: acc) counts [] |> List.sort (fun a b -> b - a) in
  let hottest = List.hd sorted in
  check Alcotest.bool "hot item is hot" true (hottest > 10 * (samples / 1000));
  let top20 = List.filteri (fun i _ -> i < 20) sorted |> List.fold_left ( + ) 0 in
  check Alcotest.bool "top 20 items >25% of traffic" true
    (float_of_int top20 /. float_of_int samples > 0.25)

let test_zipfian_grows () =
  let g = Ycsb.Keygen.zipfian ~n:100 () in
  let r = rng () in
  Ycsb.Keygen.set_n g 200;
  check Alcotest.int "n updated" 200 (Ycsb.Keygen.current_n g);
  for _ = 1 to 1000 do
    let v = Ycsb.Keygen.next g r in
    if v < 0 || v >= 200 then Alcotest.fail "out of grown range"
  done

let test_hotspot_concentration () =
  (* 80% of ops must land in the leading 10% of the ordinal space (the
     hot set sits at the front so it maps to a contiguous key range). *)
  let n = 1000 in
  let g = Ycsb.Keygen.hotspot ~op_frac:0.8 ~key_frac:0.1 ~n () in
  let r = rng () in
  let hot = ref 0 and total = 20_000 in
  for _ = 1 to total do
    let v = Ycsb.Keygen.next g r in
    if v < 0 || v >= n then Alcotest.fail "out of range";
    if v < 100 then incr hot
  done;
  let hot_share = float_of_int !hot /. float_of_int total in
  (* Cold draws are uniform over the whole space, so they add another
     ~0.2 * 0.1 = 2% to the hot range on top of the 80%. *)
  check Alcotest.bool "hot share near 82%" true (abs_float (hot_share -. 0.82) < 0.03)

let test_hotspot_validation () =
  let raises f =
    match f () with
    | (_ : Ycsb.Keygen.t) -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "op_frac > 1 rejected" true
    (raises (fun () -> Ycsb.Keygen.hotspot ~op_frac:1.5 ~n:10 ()));
  check Alcotest.bool "key_frac = 0 rejected" true
    (raises (fun () -> Ycsb.Keygen.hotspot ~key_frac:0.0 ~n:10 ()))

let test_hotspot_grows () =
  let g = Ycsb.Keygen.hotspot ~op_frac:0.9 ~key_frac:0.1 ~n:100 () in
  let r = rng () in
  Ycsb.Keygen.set_n g 400;
  let max_seen = ref 0 in
  for _ = 1 to 2000 do
    let v = Ycsb.Keygen.next g r in
    if v < 0 || v >= 400 then Alcotest.fail "out of grown range";
    if v > !max_seen then max_seen := v
  done;
  (* The hot set grew with n: cold draws reach past the old n. *)
  check Alcotest.bool "draws reach the grown space" true (!max_seen >= 100)

(* Two zipfian generators over the same (theta, n) draw identical
   streams from identical RNGs — and construction hits the process-wide
   zeta memo, so building many generators over a large space is cheap
   (the zeta sum is extended incrementally, never recomputed). *)
let test_zipfian_zeta_memo_consistent () =
  let n = 200_000 in
  let g1 = Ycsb.Keygen.zipfian ~n () in
  let g2 = Ycsb.Keygen.zipfian ~n () in
  let r1 = Sim.Rng.create 77 and r2 = Sim.Rng.create 77 in
  for _ = 1 to 1000 do
    check Alcotest.int "same stream" (Ycsb.Keygen.next g1 r1) (Ycsb.Keygen.next g2 r2)
  done;
  (* Growing then re-growing must keep agreeing: set_n recomputes the
     cached constants through the same memo. *)
  Ycsb.Keygen.set_n g1 (n + 1000);
  Ycsb.Keygen.set_n g2 (n + 1000);
  for _ = 1 to 1000 do
    check Alcotest.int "same stream after set_n" (Ycsb.Keygen.next g1 r1)
      (Ycsb.Keygen.next g2 r2)
  done

let test_latest_skews_recent () =
  let g = Ycsb.Keygen.latest ~n:1000 in
  let r = rng () in
  let recent = ref 0 and total = 5000 in
  for _ = 1 to total do
    if Ycsb.Keygen.next g r >= 900 then incr recent
  done;
  check Alcotest.bool "recent tenth gets most traffic" true
    (float_of_int !recent /. float_of_int total > 0.5)

let test_sequence () =
  let g = Ycsb.Keygen.sequence ~start:5 in
  let r = rng () in
  check Alcotest.int "first" 5 (Ycsb.Keygen.next g r);
  check Alcotest.int "second" 6 (Ycsb.Keygen.next g r);
  check Alcotest.int "third" 7 (Ycsb.Keygen.next g r)

(* ------------------------------------------------------------------ *)
(* Workload                                                             *)
(* ------------------------------------------------------------------ *)

let test_mix_proportions () =
  let w =
    Ycsb.Workload.create ~record_count:1000
      ~mix:{ Ycsb.Workload.read = 0.7; update = 0.3; insert = 0.0; scan = 0.0 }
      ()
  in
  let r = rng () in
  let reads = ref 0 and updates = ref 0 and others = ref 0 in
  for _ = 1 to 10_000 do
    match Ycsb.Workload.next_op w r with
    | Ycsb.Workload.Read _ -> incr reads
    | Ycsb.Workload.Update _ -> incr updates
    | _ -> incr others
  done;
  check Alcotest.int "no other ops" 0 !others;
  let frac = float_of_int !reads /. 10_000.0 in
  check Alcotest.bool "read fraction ~0.7" true (abs_float (frac -. 0.7) < 0.03)

let test_inserts_fresh_keys () =
  let w = Ycsb.Workload.create ~record_count:100 ~mix:Ycsb.Workload.insert_only () in
  let r = rng () in
  let seen = Hashtbl.create 64 in
  for i = 0 to 99 do
    Hashtbl.add seen (Ycsb.Workload.key_of w i) ()
  done;
  for _ = 1 to 200 do
    match Ycsb.Workload.next_op w r with
    | Ycsb.Workload.Insert (k, v) ->
        if Hashtbl.mem seen k then Alcotest.fail "insert reused a key";
        Hashtbl.add seen k ();
        check Alcotest.int "value size" 8 (String.length v)
    | _ -> Alcotest.fail "expected insert"
  done;
  check Alcotest.int "record count grew" 300 (Ycsb.Workload.record_count w)

let test_scan_ops () =
  let w =
    Ycsb.Workload.create ~scan_length:42 ~record_count:100 ~mix:Ycsb.Workload.scan_only ()
  in
  let r = rng () in
  match Ycsb.Workload.next_op w r with
  | Ycsb.Workload.Scan (_, n) -> check Alcotest.int "scan length" 42 n
  | _ -> Alcotest.fail "expected scan"

let test_driver_closed_loop () =
  Sim.run (fun () ->
      let workload_of _ = Ycsb.Workload.create ~record_count:100 ~mix:Ycsb.Workload.read_only () in
      (* Each op takes exactly 1 ms => each client completes ~1000 ops in
         1 s of measurement. *)
      let exec ~client:_ _op = Sim.delay 0.001 in
      let r = Ycsb.Driver.run ~clients:4 ~duration:1.0 ~workload_of ~exec () in
      check Alcotest.bool "op count" true (abs (r.Ycsb.Driver.ops - 4000) <= 4);
      check Alcotest.bool "throughput ~4000" true (abs_float (r.Ycsb.Driver.throughput -. 4000.0) < 50.0);
      check Alcotest.int "no failures" 0 r.Ycsb.Driver.failures;
      let h = Ycsb.Driver.overall_latency r in
      check Alcotest.bool "latency ~1ms" true
        (abs_float (Sim.Stats.Hist.mean h -. 0.001) < 1e-5))

let test_driver_warmup_excluded () =
  Sim.run (fun () ->
      let workload_of _ = Ycsb.Workload.create ~record_count:10 ~mix:Ycsb.Workload.read_only () in
      let exec ~client:_ _ = Sim.delay 0.01 in
      let r = Ycsb.Driver.run ~warmup:0.5 ~clients:1 ~duration:1.5 ~workload_of ~exec () in
      (* 1 s of measurement at 100 ops/s. *)
      check Alcotest.bool "measured ops" true (abs (r.Ycsb.Driver.ops - 100) <= 2;);
      check Alcotest.bool "series covers warmup too" true
        (Array.length r.Ycsb.Driver.series >= 1))

let test_driver_failures_counted () =
  Sim.run (fun () ->
      let workload_of _ = Ycsb.Workload.create ~record_count:10 ~mix:Ycsb.Workload.read_only () in
      let n = ref 0 in
      let exec ~client:_ _ =
        Sim.delay 0.01;
        incr n;
        if !n mod 2 = 0 then failwith "injected"
      in
      let r = Ycsb.Driver.run ~clients:1 ~duration:1.0 ~workload_of ~exec () in
      check Alcotest.bool "failures counted" true (r.Ycsb.Driver.failures > 0);
      check Alcotest.bool "successes counted" true (r.Ycsb.Driver.ops > 0))

let () =
  Alcotest.run "ycsb"
    [
      ( "keygen",
        [
          Alcotest.test_case "key format" `Quick test_key_format;
          Alcotest.test_case "hashed distinct" `Quick test_hashed_keys_distinct;
          Alcotest.test_case "uniform coverage" `Quick test_uniform_range_and_coverage;
          Alcotest.test_case "zipfian skew" `Quick test_zipfian_skew;
          Alcotest.test_case "zipfian grows" `Quick test_zipfian_grows;
          Alcotest.test_case "hotspot concentration" `Quick test_hotspot_concentration;
          Alcotest.test_case "hotspot validation" `Quick test_hotspot_validation;
          Alcotest.test_case "hotspot grows" `Quick test_hotspot_grows;
          Alcotest.test_case "zipfian zeta memo" `Quick test_zipfian_zeta_memo_consistent;
          Alcotest.test_case "latest skew" `Quick test_latest_skews_recent;
          Alcotest.test_case "sequence" `Quick test_sequence;
        ] );
      ( "workload",
        [
          Alcotest.test_case "mix proportions" `Quick test_mix_proportions;
          Alcotest.test_case "inserts fresh keys" `Quick test_inserts_fresh_keys;
          Alcotest.test_case "scan ops" `Quick test_scan_ops;
        ] );
      ( "driver",
        [
          Alcotest.test_case "closed loop" `Quick test_driver_closed_loop;
          Alcotest.test_case "warmup excluded" `Quick test_driver_warmup_excluded;
          Alcotest.test_case "failures counted" `Quick test_driver_failures_counted;
        ] );
    ]
