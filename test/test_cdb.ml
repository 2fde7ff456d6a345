(* Tests for the CDB baseline engine. *)

let check = Alcotest.check

let key i = Printf.sprintf "k%06d" i

let with_cdb ?(hosts = 3) f = Sim.run (fun () -> f (Cdb.create ~hosts))

let test_basic_crud () =
  with_cdb (fun db ->
      check (Alcotest.option Alcotest.string) "miss" None (Cdb.read db (key 1));
      Cdb.insert db (key 1) "v1";
      check (Alcotest.option Alcotest.string) "hit" (Some "v1") (Cdb.read db (key 1));
      Cdb.update db (key 1) "v2";
      check (Alcotest.option Alcotest.string) "updated" (Some "v2") (Cdb.read db (key 1));
      check Alcotest.bool "removed" true (Cdb.remove db (key 1));
      check Alcotest.bool "already gone" false (Cdb.remove db (key 1));
      check (Alcotest.option Alcotest.string) "gone" None (Cdb.read db (key 1)))

let test_many_keys () =
  with_cdb (fun db ->
      for i = 0 to 499 do
        Cdb.insert db (key i) (string_of_int i)
      done;
      check Alcotest.int "size" 500 (Cdb.size db);
      for i = 0 to 499 do
        check (Alcotest.option Alcotest.string) (key i) (Some (string_of_int i))
          (Cdb.read db (key i))
      done)

let test_ops_take_time () =
  with_cdb (fun db ->
      let t0 = Sim.now () in
      Cdb.insert db (key 1) "v";
      let insert_time = Sim.now () -. t0 in
      check Alcotest.bool "insert costs time" true (insert_time > 0.0);
      let t1 = Sim.now () in
      let (_ : string option list) = Cdb.multi_read db [ key 1; key 2 ] in
      let multi_time = Sim.now () -. t1 in
      check Alcotest.bool "multi slower than single" true (multi_time > insert_time))

let test_multi_atomicity () =
  with_cdb (fun db ->
      Cdb.multi_write db [ (key 1, "a"); (key 2, "a") ];
      let writers_done = ref 0 in
      let violations = ref 0 in
      for w = 1 to 2 do
        Sim.spawn (fun () ->
            for i = 1 to 10 do
              let tag = Printf.sprintf "w%d-%d" w i in
              Cdb.multi_write db [ (key 1, tag); (key 2, tag) ]
            done;
            incr writers_done)
      done;
      Sim.spawn (fun () ->
          for _ = 1 to 30 do
            (match Cdb.multi_read db [ key 1; key 2 ] with
            | [ Some a; Some b ] -> if a <> b then incr violations
            | _ -> incr violations);
            Sim.delay 0.001
          done);
      Sim.delay 600.0;
      check Alcotest.int "writers done" 2 !writers_done;
      check Alcotest.int "no torn multi reads" 0 !violations)

let test_partition_serialization () =
  (* A partition executes one request at a time: ops on the same
     partition serialize, so 10 concurrent single-key ops on one key
     take >= 10 service times of partition time. *)
  with_cdb ~hosts:1 (fun db ->
      let finished = ref 0 in
      let t0 = Sim.now () in
      for _ = 1 to 10 do
        Sim.spawn (fun () ->
            let (_ : string option) = Cdb.read db (key 1) in
            incr finished)
      done;
      Sim.delay 600.0;
      check Alcotest.int "all finished" 10 !finished;
      ignore t0)

let test_scan_merges_partitions () =
  with_cdb (fun db ->
      for i = 0 to 99 do
        Cdb.insert db (key i) (string_of_int i)
      done;
      let r = Cdb.scan db ~from:(key 10) ~count:20 in
      check Alcotest.int "count" 20 (List.length r);
      List.iteri (fun j (k, _) -> check Alcotest.string "order" (key (10 + j)) k) r)

let test_scan_limit () =
  with_cdb (fun db ->
      Cdb.insert db (key 1) "v";
      match Cdb.scan db ~from:"" ~count:1_000_000 with
      | (_ : (string * string) list) -> Alcotest.fail "expected Scan_too_large"
      | exception Cdb.Scan_too_large 1_000_000 -> ())

let test_multi_blocks_singles () =
  (* While a multi-partition transaction runs, single-partition ops
     queue behind it — total time reflects the serialization. *)
  with_cdb ~hosts:2 (fun db ->
      Cdb.insert db (key 1) "v";
      let single_latency_idle =
        let t0 = Sim.now () in
        let (_ : string option) = Cdb.read db (key 1) in
        Sim.now () -. t0
      in
      let single_latency_contended = ref 0.0 in
      Sim.spawn (fun () ->
          for _ = 1 to 20 do
            let (_ : string option list) = Cdb.multi_read db [ key 1; key 2; key 3 ] in
            ()
          done);
      Sim.spawn (fun () ->
          Sim.delay 0.005;
          let t0 = Sim.now () in
          let (_ : string option) = Cdb.read db (key 1) in
          single_latency_contended := Sim.now () -. t0);
      Sim.delay 600.0;
      check Alcotest.bool "contention visible" true
        (!single_latency_contended > single_latency_idle))

let () =
  Alcotest.run "cdb"
    [
      ( "cdb",
        [
          Alcotest.test_case "basic crud" `Quick test_basic_crud;
          Alcotest.test_case "many keys" `Quick test_many_keys;
          Alcotest.test_case "ops take time" `Quick test_ops_take_time;
          Alcotest.test_case "multi atomicity" `Quick test_multi_atomicity;
          Alcotest.test_case "partition serialization" `Quick test_partition_serialization;
          Alcotest.test_case "scan merges partitions" `Quick test_scan_merges_partitions;
          Alcotest.test_case "scan limit" `Quick test_scan_limit;
          Alcotest.test_case "multi blocks singles" `Quick test_multi_blocks_singles;
        ] );
    ]
