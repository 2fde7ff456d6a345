(* Tests for the Sinfonia substrate: heaps, range locks,
   minitransactions, the commit protocol, and replication. *)

let check = Alcotest.check

open Sinfonia

let addr node off = Address.make ~node ~off

(* ------------------------------------------------------------------ *)
(* Address                                                              *)
(* ------------------------------------------------------------------ *)

let test_address_basics () =
  let a = addr 2 100 and b = addr 2 200 and c = addr 3 0 in
  check Alcotest.bool "order within node" true (Address.compare a b < 0);
  check Alcotest.bool "order across nodes" true (Address.compare b c < 0);
  check Alcotest.bool "equal" true (Address.equal a (addr 2 100));
  check Alcotest.bool "null" true (Address.is_null Address.null);
  check Alcotest.bool "not null" false (Address.is_null a);
  match Address.make ~node:(-1) ~off:0 with
  | (_ : Address.t) -> Alcotest.fail "negative node accepted"
  | exception Invalid_argument _ -> ()

let test_address_codec () =
  let roundtrip a =
    let e = Codec.Enc.create () in
    Address.encode e a;
    check Alcotest.int "fixed size" Address.encoded_size (Codec.Enc.length e);
    Address.decode (Codec.Dec.of_string (Codec.Enc.to_string e))
  in
  let a = addr 5 123456 in
  check Alcotest.bool "roundtrip" true (Address.equal a (roundtrip a));
  check Alcotest.bool "null roundtrip" true (Address.is_null (roundtrip Address.null))

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)
(* ------------------------------------------------------------------ *)

let test_heap_read_write () =
  let h = Heap.create ~capacity:1024 () in
  Heap.write h ~off:10 "hello";
  check Alcotest.string "read back" "hello" (Heap.read h ~off:10 ~len:5);
  check Alcotest.string "unwritten is zero" "\000\000" (Heap.read h ~off:100 ~len:2);
  check Alcotest.int "high water" 15 (Heap.high_water h)

let test_heap_overwrite () =
  let h = Heap.create ~capacity:1024 () in
  Heap.write h ~off:0 "aaaa";
  Heap.write h ~off:2 "bb";
  check Alcotest.string "partial overwrite" "aabb" (Heap.read h ~off:0 ~len:4)

let test_heap_capacity () =
  let h = Heap.create ~capacity:16 () in
  Heap.write h ~off:0 (String.make 16 'x');
  (match Heap.write h ~off:8 (String.make 16 'y') with
  | () -> Alcotest.fail "overflow accepted"
  | exception Heap.Out_of_space -> ());
  match Heap.read h ~off:8 ~len:16 with
  | (_ : string) -> Alcotest.fail "read past capacity accepted"
  | exception Invalid_argument _ -> ()

let test_heap_equal_at () =
  let h = Heap.create ~capacity:1024 () in
  Heap.write h ~off:4 "data";
  check Alcotest.bool "match" true (Heap.equal_at h ~off:4 "data");
  check Alcotest.bool "mismatch" false (Heap.equal_at h ~off:4 "datX");
  check Alcotest.bool "zeros match" true (Heap.equal_at h ~off:500 "\000\000\000");
  check Alcotest.bool "straddling boundary" true (Heap.equal_at h ~off:6 "ta\000")

let test_heap_snapshot_restore () =
  let h = Heap.create ~capacity:1024 () in
  Heap.write h ~off:0 "state one";
  let image = Heap.snapshot h in
  Heap.write h ~off:0 "state two";
  Heap.restore h image;
  check Alcotest.string "restored" "state one" (Heap.read h ~off:0 ~len:9)

let test_heap_page_boundaries () =
  (* Writes and reads straddling the 64 KiB page boundary. *)
  let h = Heap.create ~capacity:(1 lsl 20) () in
  let off = 65536 - 3 in
  Heap.write h ~off "abcdefgh";
  check Alcotest.string "straddling read" "abcdefgh" (Heap.read h ~off ~len:8);
  check Alcotest.bool "straddling equal_at" true (Heap.equal_at h ~off "abcdefgh");
  check Alcotest.string "partial" "cdefgh\000\000" (Heap.read h ~off:(off + 2) ~len:8)

let test_heap_sparse_high_offset () =
  (* A write far into the address space must not materialize the
     prefix. *)
  let h = Heap.create ~capacity:(1 lsl 29) () in
  Heap.write h ~off:((1 lsl 28) + 5) "sparse";
  check Alcotest.string "read back" "sparse" (Heap.read h ~off:((1 lsl 28) + 5) ~len:6);
  check Alcotest.string "prefix zero" "\000" (Heap.read h ~off:1234 ~len:1);
  check Alcotest.bool "resident is one page despite high water" true
    (Heap.resident h <= 65536 && Heap.high_water h > 1 lsl 28)

let prop_heap_matches_reference =
  (* Random writes against a reference Bytes model. *)
  let gen =
    QCheck.(small_list (pair (int_bound 4000) (string_of_size (Gen.int_range 1 200))))
  in
  QCheck.Test.make ~name:"heap matches byte-array model" ~count:200 gen (fun writes ->
      let h = Heap.create ~capacity:8192 () in
      let model = Bytes.make 8192 '\000' in
      List.iter
        (fun (off, data) ->
          if String.length data > 0 && off + String.length data <= 8192 then begin
            Heap.write h ~off data;
            Bytes.blit_string data 0 model off (String.length data)
          end)
        writes;
      Heap.read h ~off:0 ~len:8192 = Bytes.to_string model)

(* ------------------------------------------------------------------ *)
(* Lock table                                                           *)
(* ------------------------------------------------------------------ *)

let range ?(mode = Lock_table.Exclusive) start len = { Lock_table.start; len; mode }

let test_locks_basic () =
  let t = Lock_table.create () in
  check Alcotest.bool "acquire" true (Lock_table.try_acquire t ~owner:1L [ range 0 10 ]);
  check Alcotest.bool "conflict" false (Lock_table.try_acquire t ~owner:2L [ range 5 10 ]);
  check Alcotest.bool "disjoint ok" true (Lock_table.try_acquire t ~owner:2L [ range 10 10 ]);
  Lock_table.release t ~owner:1L;
  check Alcotest.bool "after release" true (Lock_table.try_acquire t ~owner:3L [ range 0 10 ])

let test_locks_all_or_nothing () =
  let t = Lock_table.create () in
  check Alcotest.bool "setup" true (Lock_table.try_acquire t ~owner:1L [ range 100 10 ]);
  (* Owner 2 wants two ranges; the second conflicts, so neither is taken. *)
  check Alcotest.bool "rejected" false
    (Lock_table.try_acquire t ~owner:2L [ range 0 10; range 105 10 ]);
  check Alcotest.bool "first range untouched" true
    (Lock_table.try_acquire t ~owner:3L [ range 0 10 ])

let test_locks_same_owner_overlap () =
  let t = Lock_table.create () in
  check Alcotest.bool "first" true (Lock_table.try_acquire t ~owner:1L [ range 0 10 ]);
  check Alcotest.bool "same owner overlap ok" true
    (Lock_table.try_acquire t ~owner:1L [ range 5 10 ]);
  check Alcotest.bool "holds" true (Lock_table.holds t ~owner:1L);
  Lock_table.release t ~owner:1L;
  check Alcotest.bool "released" false (Lock_table.holds t ~owner:1L);
  check Alcotest.int "empty" 0 (Lock_table.held_ranges t)

let test_locks_adjacent_no_conflict () =
  let t = Lock_table.create () in
  check Alcotest.bool "a" true (Lock_table.try_acquire t ~owner:1L [ range 0 10 ]);
  check Alcotest.bool "adjacent" true (Lock_table.try_acquire t ~owner:2L [ range 10 10 ])

let test_locks_shared_modes () =
  let t = Lock_table.create () in
  let shared = Lock_table.Shared in
  check Alcotest.bool "s1" true (Lock_table.try_acquire t ~owner:1L [ range ~mode:shared 0 10 ]);
  check Alcotest.bool "s2 shared ok" true
    (Lock_table.try_acquire t ~owner:2L [ range ~mode:shared 5 10 ]);
  check Alcotest.bool "writer blocked by readers" false
    (Lock_table.try_acquire t ~owner:3L [ range 5 2 ]);
  Lock_table.release t ~owner:1L;
  check Alcotest.bool "still blocked by reader 2" false
    (Lock_table.try_acquire t ~owner:3L [ range 5 2 ]);
  Lock_table.release t ~owner:2L;
  check Alcotest.bool "writer proceeds" true (Lock_table.try_acquire t ~owner:3L [ range 5 2 ]);
  check Alcotest.bool "reader blocked by writer" false
    (Lock_table.try_acquire t ~owner:4L [ range ~mode:shared 5 2 ])

let test_locks_invalid_range () =
  let t = Lock_table.create () in
  match Lock_table.try_acquire t ~owner:1L [ range 0 0 ] with
  | (_ : bool) -> Alcotest.fail "zero-length range accepted"
  | exception Invalid_argument _ -> ()

let test_locks_blocking_success () =
  Sim.run (fun () ->
      let t = Lock_table.create () in
      assert (Lock_table.try_acquire t ~owner:1L [ range 0 10 ]);
      let acquired_at = ref (-1.0) in
      Sim.spawn (fun () ->
          let ok = Lock_table.acquire_blocking t ~owner:2L [ range 0 10 ] ~timeout:10.0 in
          check Alcotest.bool "eventually acquired" true ok;
          acquired_at := Sim.now ());
      Sim.delay 2.0;
      Lock_table.release t ~owner:1L;
      Sim.delay 0.1;
      check (Alcotest.float 1e-9) "acquired at release time" 2.0 !acquired_at)

let test_locks_blocking_timeout () =
  Sim.run (fun () ->
      let t = Lock_table.create () in
      assert (Lock_table.try_acquire t ~owner:1L [ range 0 10 ]);
      let start = Sim.now () in
      let ok = Lock_table.acquire_blocking t ~owner:2L [ range 0 10 ] ~timeout:1.5 in
      check Alcotest.bool "timed out" false ok;
      check (Alcotest.float 1e-6) "waited full timeout" 1.5 (Sim.now () -. start);
      check Alcotest.bool "holds nothing" false (Lock_table.holds t ~owner:2L))

let test_locks_blocking_queue () =
  (* Two blocked acquirers; both eventually succeed one after another. *)
  Sim.run (fun () ->
      let t = Lock_table.create () in
      assert (Lock_table.try_acquire t ~owner:1L [ range 0 10 ]);
      let acquired = ref [] in
      for i = 2 to 3 do
        let owner = Int64.of_int i in
        Sim.spawn (fun () ->
            if Lock_table.acquire_blocking t ~owner [ range 0 10 ] ~timeout:60.0 then begin
              acquired := i :: !acquired;
              Sim.delay 1.0;
              Lock_table.release t ~owner
            end)
      done;
      Sim.delay 5.0;
      Lock_table.release t ~owner:1L;
      Sim.delay 10.0;
      check Alcotest.int "both acquired" 2 (List.length !acquired))

(* ------------------------------------------------------------------ *)
(* Minitransactions                                                     *)
(* ------------------------------------------------------------------ *)

let test_mtx_memnodes () =
  let mtx =
    Mtx.make
      ~compares:[ Mtx.compare_at (addr 1 0) "x" ]
      ~reads:[ Mtx.read_at (addr 0 0) 4 ]
      ~writes:[ Mtx.write_at (addr 1 8) "y"; Mtx.write_at (addr 2 0) "z" ]
      ()
  in
  check (Alcotest.list Alcotest.int) "memnodes" [ 0; 1; 2 ] (Mtx.memnodes mtx);
  check Alcotest.int "items" 4 (Mtx.item_count mtx);
  check Alcotest.bool "not read only" false (Mtx.is_read_only mtx);
  check Alcotest.bool "not empty" false (Mtx.is_empty mtx);
  check Alcotest.bool "empty" true (Mtx.is_empty Mtx.empty)

let with_cluster ?(n = 3) ?config f =
  Sim.run (fun () ->
      let cluster = Cluster.create ?config ~n () in
      f cluster)

let exec = Coordinator.exec

let expect_committed outcome =
  match outcome with
  | Mtx.Committed { reads; _ } -> reads
  | o -> Alcotest.failf "expected commit, got %a" Mtx.pp_outcome o

let test_mtx_single_write_read () =
  with_cluster (fun cluster ->
      let w = Mtx.make ~writes:[ Mtx.write_at (addr 0 100) "payload" ] () in
      let (_ : (Address.t * string) list) = expect_committed (exec cluster w) in
      let r = Mtx.make ~reads:[ Mtx.read_at (addr 0 100) 7 ] () in
      match expect_committed (exec cluster r) with
      | [ (a, data) ] ->
          check Alcotest.bool "address" true (Address.equal a (addr 0 100));
          check Alcotest.string "data" "payload" data
      | other -> Alcotest.failf "unexpected read results: %d" (List.length other))

let test_mtx_compare_success_and_failure () =
  with_cluster (fun cluster ->
      let (_ : (Address.t * string) list) =
        expect_committed
          (exec cluster (Mtx.make ~writes:[ Mtx.write_at (addr 1 0) "abc" ] ()))
      in
      (* Matching compare commits and applies the write. *)
      let ok =
        exec cluster
          (Mtx.make
             ~compares:[ Mtx.compare_at (addr 1 0) "abc" ]
             ~writes:[ Mtx.write_at (addr 1 0) "xyz" ]
             ())
      in
      let (_ : (Address.t * string) list) = expect_committed ok in
      (* Stale compare fails and reports the failing index; write is not
         applied. *)
      (match
         exec cluster
           (Mtx.make
              ~compares:
                [ Mtx.compare_at (addr 1 0) "xyz"; Mtx.compare_at (addr 1 0) "abc" ]
              ~writes:[ Mtx.write_at (addr 1 0) "nope" ]
              ())
       with
      | Mtx.Failed_compare [ 1 ] -> ()
      | o -> Alcotest.failf "expected Failed_compare [1], got %a" Mtx.pp_outcome o);
      match expect_committed (exec cluster (Mtx.make ~reads:[ Mtx.read_at (addr 1 0) 3 ] ())) with
      | [ (_, data) ] -> check Alcotest.string "write not applied" "xyz" data
      | _ -> Alcotest.fail "read failed")

let test_mtx_multi_node_atomic () =
  with_cluster (fun cluster ->
      let mtx =
        Mtx.make
          ~writes:[ Mtx.write_at (addr 0 0) "AA"; Mtx.write_at (addr 2 0) "BB" ]
          ()
      in
      let (_ : (Address.t * string) list) = expect_committed (exec cluster mtx) in
      let reads =
        expect_committed
          (exec cluster
             (Mtx.make ~reads:[ Mtx.read_at (addr 0 0) 2; Mtx.read_at (addr 2 0) 2 ] ()))
      in
      check
        (Alcotest.list Alcotest.string)
        "both applied" [ "AA"; "BB" ]
        (List.map snd reads))

let test_mtx_multi_node_compare_abort () =
  with_cluster (fun cluster ->
      (* Compare on node 0 fails => write on node 2 must not be applied. *)
      (match
         exec cluster
           (Mtx.make
              ~compares:[ Mtx.compare_at (addr 0 0) "nonzero" ]
              ~writes:[ Mtx.write_at (addr 2 0) "XX" ]
              ())
       with
      | Mtx.Failed_compare _ -> ()
      | o -> Alcotest.failf "expected compare failure, got %a" Mtx.pp_outcome o);
      match expect_committed (exec cluster (Mtx.make ~reads:[ Mtx.read_at (addr 2 0) 2 ] ())) with
      | [ (_, data) ] -> check Alcotest.string "atomic abort" "\000\000" data
      | _ -> Alcotest.fail "read failed")

let test_mtx_reads_ordered () =
  with_cluster (fun cluster ->
      let (_ : (Address.t * string) list) =
        expect_committed
          (exec cluster
             (Mtx.make
                ~writes:
                  [
                    Mtx.write_at (addr 0 0) "n0";
                    Mtx.write_at (addr 1 0) "n1";
                    Mtx.write_at (addr 2 0) "n2";
                  ]
                ()))
      in
      let reads =
        expect_committed
          (exec cluster
             (Mtx.make
                ~reads:
                  [
                    Mtx.read_at (addr 2 0) 2; Mtx.read_at (addr 0 0) 2; Mtx.read_at (addr 1 0) 2;
                  ]
                ()))
      in
      check
        (Alcotest.list Alcotest.string)
        "declaration order" [ "n2"; "n0"; "n1" ]
        (List.map snd reads))

let test_mtx_concurrent_counter () =
  (* Classic OCC increment loop: N workers × M increments each, on a
     shared counter, using compare to detect races. Total must be N*M. *)
  with_cluster (fun cluster ->
      let counter_addr = addr 0 0 in
      let encode v =
        let e = Codec.Enc.create () in
        Codec.Enc.i64 e v;
        Codec.Enc.to_string e
      in
      let decode s = Codec.Dec.i64 (Codec.Dec.of_string s) in
      let (_ : (Address.t * string) list) =
        expect_committed
          (exec cluster (Mtx.make ~writes:[ Mtx.write_at counter_addr (encode 0L) ] ()))
      in
      let workers = 8 and increments = 10 in
      let done_count = ref 0 in
      for _ = 1 to workers do
        Sim.spawn (fun () ->
            for _ = 1 to increments do
              let rec attempt () =
                let current =
                  match
                    expect_committed
                      (exec cluster (Mtx.make ~reads:[ Mtx.read_at counter_addr 8 ] ()))
                  with
                  | [ (_, data) ] -> decode data
                  | _ -> Alcotest.fail "read failed"
                in
                match
                  exec cluster
                    (Mtx.make
                       ~compares:[ Mtx.compare_at counter_addr (encode current) ]
                       ~writes:[ Mtx.write_at counter_addr (encode (Int64.add current 1L)) ]
                       ())
                with
                | Mtx.Committed _ -> ()
                | Mtx.Failed_compare _ -> attempt ()
                | o -> Alcotest.failf "unexpected: %a" Mtx.pp_outcome o
              in
              attempt ()
            done;
            incr done_count)
      done;
      Sim.delay 120.0;
      check Alcotest.int "all workers finished" workers !done_count;
      match
        expect_committed (exec cluster (Mtx.make ~reads:[ Mtx.read_at counter_addr 8 ] ()))
      with
      | [ (_, data) ] ->
          check Alcotest.int64 "no lost updates" (Int64.of_int (workers * increments))
            (decode data)
      | _ -> Alcotest.fail "final read failed")

let test_mtx_lock_contention_retries () =
  (* Two writers to the same location retry on busy locks and both
     eventually commit. *)
  with_cluster (fun cluster ->
      let finished = ref 0 in
      for i = 1 to 4 do
        Sim.spawn (fun () ->
            let data = Printf.sprintf "%04d" i in
            let (_ : (Address.t * string) list) =
              expect_committed
                (exec cluster (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) data ] ()))
            in
            incr finished)
      done;
      Sim.delay 10.0;
      check Alcotest.int "all committed" 4 !finished)

let test_mtx_takes_time () =
  with_cluster (fun cluster ->
      let t0 = Sim.now () in
      let (_ : (Address.t * string) list) =
        expect_committed (exec cluster (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "x" ] ()))
      in
      let single = Sim.now () -. t0 in
      check Alcotest.bool "nonzero latency" true (single > 0.0);
      let t1 = Sim.now () in
      let (_ : (Address.t * string) list) =
        expect_committed
          (exec cluster
             (Mtx.make
                ~writes:[ Mtx.write_at (addr 0 8) "x"; Mtx.write_at (addr 1 8) "x" ]
                ()))
      in
      let multi = Sim.now () -. t1 in
      check Alcotest.bool "2PC slower than 1PC" true (multi > single))

let test_mtx_blocking_mode () =
  (* A blocking minitransaction waits out a short-lived lock instead of
     abort-retrying. *)
  with_cluster (fun cluster ->
      let store = Memnode.primary (Cluster.memnode cluster 0) in
      let locks = Memnode.store_locks store in
      assert (Lock_table.try_acquire locks ~owner:999L [ range 0 16 ]);
      Sim.spawn (fun () ->
          Sim.delay 0.002;
          Lock_table.release locks ~owner:999L);
      let outcome =
        exec cluster ~mode:Coordinator.Blocking
          (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "held" ] ())
      in
      let (_ : (Address.t * string) list) = expect_committed outcome in
      check Alcotest.bool "no abort-retry happened" true
        (Obs.Counter.value (Obs.mtx (Cluster.obs cluster)).Obs.busy_retries = 0))

(* ------------------------------------------------------------------ *)
(* Replication and failover                                             *)
(* ------------------------------------------------------------------ *)

let test_replication_mirrors_writes () =
  with_cluster (fun cluster ->
      let (_ : (Address.t * string) list) =
        expect_committed
          (exec cluster (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "replicated" ] ()))
      in
      check Alcotest.bool "mirror happened" true
        (Obs.Counter.value (Obs.mtx (Cluster.obs cluster)).Obs.mirrors > 0);
      (* The replica hosted on the backup node holds the data. *)
      match Cluster.backup_of cluster 0 with
      | None -> Alcotest.fail "replication should be on"
      | Some b -> (
          match Memnode.replica (Cluster.memnode cluster b) ~of_node:0 with
          | None -> Alcotest.fail "no replica store"
          | Some store ->
              check Alcotest.string "replica contents" "replicated"
                (Heap.read (Memnode.store_heap store) ~off:0 ~len:10)))

let test_failover_serves_from_backup () =
  with_cluster (fun cluster ->
      let (_ : (Address.t * string) list) =
        expect_committed
          (exec cluster (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "before" ] ()))
      in
      Cluster.crash cluster 0;
      (* Reads of node 0's space still succeed, served by the backup. *)
      (match expect_committed (exec cluster (Mtx.make ~reads:[ Mtx.read_at (addr 0 0) 6 ] ())) with
      | [ (_, data) ] -> check Alcotest.string "failover read" "before" data
      | _ -> Alcotest.fail "read failed");
      (* Writes during failover hit the replica. *)
      let (_ : (Address.t * string) list) =
        expect_committed
          (exec cluster (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "during" ] ()))
      in
      (match Cluster.try_recover cluster 0 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "recovery refused: %s" (Cluster.recover_error_to_string e));
      match expect_committed (exec cluster (Mtx.make ~reads:[ Mtx.read_at (addr 0 0) 6 ] ())) with
      | [ (_, data) ] -> check Alcotest.string "state recovered" "during" data
      | _ -> Alcotest.fail "read failed")

let test_unavailable_without_replication () =
  let config = { Config.default with replication = false } in
  with_cluster ~config (fun cluster ->
      Cluster.crash cluster 0;
      match exec cluster (Mtx.make ~reads:[ Mtx.read_at (addr 0 0) 1 ] ()) with
      | Mtx.Unavailable { maybe_applied = false; partitioned = false } -> ()
      | o -> Alcotest.failf "expected Unavailable, got %a" Mtx.pp_outcome o)

let test_recovery_releases_orphans () =
  (* A coordinator "crashes" after phase one: its locks are stranded at
     a memnode until the recovery daemon releases them, after which
     blocked minitransactions proceed. *)
  with_cluster (fun cluster ->
      Cluster.start_recovery ~lease:0.25 ~interval:0.1 cluster;
      (* Strand locks at node 0 by preparing and never finishing. *)
      let mn = Cluster.memnode cluster 0 in
      let store = Memnode.primary mn in
      let part =
        Memnode.part_of_mtx (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "stranded" ] ()) ~node:0
      in
      (match Memnode.prepare store ~owner:424242L part with
      | Memnode.Prepared _ -> ()
      | _ -> Alcotest.fail "prepare failed");
      check Alcotest.bool "locks held" true (Lock_table.holds (Memnode.store_locks store) ~owner:424242L);
      (* A competing write keeps retrying until recovery clears the way. *)
      let committed_at = ref nan in
      Sim.spawn (fun () ->
          match Coordinator.exec cluster (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "winner!!" ] ()) with
          | Mtx.Committed _ -> committed_at := Sim.now ()
          | o -> Alcotest.failf "expected commit, got %a" Mtx.pp_outcome o);
      Sim.delay 5.0;
      check Alcotest.bool "competitor committed" true (Float.is_finite !committed_at);
      check Alcotest.bool "after the lease" true (!committed_at >= 0.25);
      check Alcotest.bool "orphan released" false
        (Lock_table.holds (Memnode.store_locks store) ~owner:424242L);
      check Alcotest.bool "recovery counted" true
        (Obs.Counter.value (Obs.mtx (Cluster.obs cluster)).Obs.orphans_released > 0);
      (* The recovery daemon loops forever; end the simulation. *)
      Sim.stop ())

(* ------------------------------------------------------------------ *)
(* Orphaned-lock recovery lease boundaries                              *)
(* ------------------------------------------------------------------ *)

let range start len mode = { Lock_table.start; len; mode }

let test_lease_exact_boundary_not_stolen () =
  (* The cutoff is strict: a lock held for *exactly* the lease is still
     within its lease and must not be stolen. Only strictly older locks
     are orphan candidates. *)
  Sim.run (fun () ->
      let mn = Memnode.create ~id:0 ~cores:1 ~heap_capacity:4096 () in
      let locks = Memnode.store_locks (Memnode.primary mn) in
      check Alcotest.bool "acquired" true
        (Lock_table.try_acquire locks ~owner:1L [ range 0 16 Lock_table.Exclusive ]);
      Sim.delay 0.25;
      let stolen = Memnode.recover_orphaned_locks mn ~lease:0.25 in
      check Alcotest.int "exact-lease lock kept" 0 stolen;
      check Alcotest.bool "still held" true (Lock_table.holds locks ~owner:1L);
      (* One tick past the lease it becomes an orphan. *)
      Sim.delay 1e-6;
      let stolen = Memnode.recover_orphaned_locks mn ~lease:0.25 in
      check Alcotest.int "expired lock stolen" 1 stolen;
      check Alcotest.bool "released" false (Lock_table.holds locks ~owner:1L))

let test_lease_reacquire_after_release () =
  (* An owner whose locks were reaped can come back: a fresh acquisition
     under the same owner id starts a fresh lease. *)
  Sim.run (fun () ->
      let mn = Memnode.create ~id:0 ~cores:1 ~heap_capacity:4096 () in
      let locks = Memnode.store_locks (Memnode.primary mn) in
      check Alcotest.bool "first acquire" true
        (Lock_table.try_acquire locks ~owner:9L [ range 0 16 Lock_table.Exclusive ]);
      Sim.delay 0.3;
      check Alcotest.int "reaped" 1 (Memnode.recover_orphaned_locks mn ~lease:0.25);
      check Alcotest.bool "second acquire succeeds" true
        (Lock_table.try_acquire locks ~owner:9L [ range 0 16 Lock_table.Exclusive ]);
      (* The fresh lock is inside its own lease, not tainted by history. *)
      check Alcotest.int "fresh lock kept" 0 (Memnode.recover_orphaned_locks mn ~lease:0.25);
      check Alcotest.bool "held" true (Lock_table.holds locks ~owner:9L))

let test_lease_live_coordinator_not_stolen () =
  (* Recovery is selective: only locks past the lease go. A concurrent
     live coordinator (fresh locks, even overlapping key space on other
     ranges) keeps everything. *)
  Sim.run (fun () ->
      let mn = Memnode.create ~id:0 ~cores:1 ~heap_capacity:4096 () in
      let locks = Memnode.store_locks (Memnode.primary mn) in
      check Alcotest.bool "stale owner" true
        (Lock_table.try_acquire locks ~owner:100L [ range 0 16 Lock_table.Exclusive ]);
      Sim.delay 0.2;
      check Alcotest.bool "live owner" true
        (Lock_table.try_acquire locks ~owner:200L [ range 32 16 Lock_table.Exclusive ]);
      Sim.delay 0.1;
      (* Stale is now 0.3 old (> lease), live is 0.1 old (< lease). *)
      check Alcotest.int "only the stale owner reaped" 1
        (Memnode.recover_orphaned_locks mn ~lease:0.25);
      check Alcotest.bool "stale released" false (Lock_table.holds locks ~owner:100L);
      check Alcotest.bool "live untouched" true (Lock_table.holds locks ~owner:200L))

(* ------------------------------------------------------------------ *)
(* Redo log and crash recovery                                          *)
(* ------------------------------------------------------------------ *)

let test_redo_replay_idempotent () =
  Sim.run (fun () ->
      let log = Redo_log.create () in
      Redo_log.append log ~tid:7L ~participants:[ 0 ]
        ~writes:[ Mtx.write_at (addr 0 0) "abcd" ];
      check Alcotest.bool "in doubt after prepare" true (Redo_log.voted log ~tid:7L);
      (match Redo_log.decide_commit log ~tid:7L ~stamp:10L with
      | `Apply -> ()
      | `Skip -> Alcotest.fail "first decision must apply");
      (* Duplicate decision — a live coordinator racing the recovery
         coordinator — must not re-apply over later state. *)
      (match Redo_log.decide_commit log ~tid:7L ~stamp:10L with
      | `Skip -> ()
      | `Apply -> Alcotest.fail "duplicate decision must not re-apply");
      let heap = Heap.create ~capacity:1024 () in
      check Alcotest.int "one commit replayed" 1 (Redo_log.replay log ~heap);
      check Alcotest.string "writes applied" "abcd" (Heap.read heap ~off:0 ~len:4);
      (* Replay is idempotent: a second pass finds nothing new and
         leaves the heap untouched. *)
      check Alcotest.int "second replay empty" 0 (Redo_log.replay log ~heap);
      check Alcotest.string "heap unchanged" "abcd" (Heap.read heap ~off:0 ~len:4))

let test_mid_crash_raises () =
  (* A crash lands under an in-flight timed operation: the operation
     raises Crashed at its next service boundary, before it could log a
     vote against wiped lock state. *)
  Sim.run (fun () ->
      let mn = Memnode.create ~id:0 ~cores:1 ~heap_capacity:4096 () in
      let store = Memnode.primary mn in
      let part =
        Memnode.part_of_mtx (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "torn" ] ()) ~node:0
      in
      let raised = ref false in
      Sim.spawn (fun () ->
          match Memnode.prepare_timed mn store ~owner:1L ~participants:[ 0 ] part ~cost:0.01 with
          | (_ : Memnode.prepare_result) -> ()
          | exception Memnode.Crashed -> raised := true);
      Sim.delay 0.005;
      Memnode.crash mn;
      Sim.delay 0.1;
      check Alcotest.bool "raised mid-request" true !raised;
      check Alcotest.bool "epoch bumped" true (Memnode.epoch mn > 0);
      check Alcotest.bool "no vote logged" false (Redo_log.voted (Memnode.store_redo store) ~tid:1L))

let test_try_recover_typed_errors () =
  with_cluster (fun cluster ->
      (match Cluster.try_recover cluster 0 with
      | Error Cluster.Not_crashed -> ()
      | Ok () -> Alcotest.fail "recovered an alive node"
      | Error e -> Alcotest.failf "wrong error: %s" (Cluster.recover_error_to_string e));
      Cluster.crash cluster 0;
      check Alcotest.bool "crash lands at once" true (Memnode.crashed (Cluster.memnode cluster 0));
      (match Cluster.try_recover cluster 0 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "recovery refused: %s" (Cluster.recover_error_to_string e));
      check Alcotest.bool "alive again" false (Memnode.crashed (Cluster.memnode cluster 0)))

let test_try_recover_no_replica () =
  let config = { Config.default with replication = false } in
  with_cluster ~config (fun cluster ->
      Cluster.crash cluster 0;
      match Cluster.try_recover cluster 0 with
      | Error Cluster.No_replica -> ()
      | Ok () -> Alcotest.fail "recovered without a replica"
      | Error e -> Alcotest.failf "wrong error: %s" (Cluster.recover_error_to_string e))

let test_blocking_race_immediate_crash () =
  (* A blocking minitransaction waiting on a busy lock is in flight when
     its node crashes. The crash lands at once — the wait does not hold
     it off — and the waiter still gets a clean outcome: served by the
     replica after failover or reported unavailable, never a torn
     one. *)
  with_cluster (fun cluster ->
      let store = Memnode.primary (Cluster.memnode cluster 0) in
      let locks = Memnode.store_locks store in
      assert
        (Lock_table.try_acquire locks ~owner:777L [ range 0 16 Lock_table.Exclusive ]);
      let outcome = ref None in
      Sim.spawn (fun () ->
          outcome :=
            Some
              (exec cluster ~mode:Coordinator.Blocking
                 (Mtx.make ~writes:[ Mtx.write_at (addr 0 0) "blocked!" ] ())));
      Sim.delay 1e-3;
      check Alcotest.bool "waiter still blocked" true (!outcome = None);
      Cluster.crash cluster 0;
      check Alcotest.bool "crash landed at once" true (Memnode.crashed (Cluster.memnode cluster 0));
      let rec wait n =
        if n = 0 then Alcotest.fail "blocking wait never resolved after the crash";
        if !outcome = None then begin
          Sim.delay 0.01;
          wait (n - 1)
        end
      in
      wait 10_000;
      match !outcome with
      | Some (Mtx.Committed _) -> (
          (* Served by the promoted replica: the write is whole there. *)
          match expect_committed (exec cluster (Mtx.make ~reads:[ Mtx.read_at (addr 0 0) 8 ] ())) with
          | [ (_, data) ] -> check Alcotest.string "write landed whole" "blocked!" data
          | _ -> Alcotest.fail "read failed")
      | Some (Mtx.Unavailable _) -> ()
      | Some o -> Alcotest.failf "torn outcome: %a" Mtx.pp_outcome o
      | None -> assert false)

let test_mid_crash_in_doubt_resolved () =
  (* End to end: 2PC traffic over two spaces, a mid-2PC crash of node 0,
     retried recovery, then quiescence. The in-doubt set must drain and
     both cells of the pair — always written under one lock set — must
     agree, whatever subset of transactions the crash cut short. *)
  with_cluster (fun cluster ->
      Cluster.start_recovery ~lease:0.05 ~interval:0.01 cluster;
      let pair data =
        Mtx.make ~writes:[ Mtx.write_at (addr 0 0) data; Mtx.write_at (addr 1 0) data ] ()
      in
      let (_ : (Address.t * string) list) = expect_committed (exec cluster (pair "0000")) in
      let finished = ref 0 in
      for w = 1 to 6 do
        Sim.spawn (fun () ->
            for i = 1 to 5 do
              let (_ : Mtx.outcome) = exec cluster (pair (Printf.sprintf "%d%03d" w i)) in
              ()
            done;
            incr finished)
      done;
      Sim.delay 0.01;
      Cluster.crash cluster 0;
      Sim.delay 0.05;
      let rec recover_retry () =
        match Cluster.try_recover cluster 0 with
        | Ok () -> ()
        | Error _ ->
            Sim.delay 0.01;
            recover_retry ()
      in
      recover_retry ();
      while !finished < 6 do
        Sim.delay 0.01
      done;
      (* Let the resolver pass the in-doubt grace period. *)
      Sim.delay 1.0;
      check Alcotest.int "in-doubt drained" 0 (Cluster.in_doubt_total cluster);
      (match
         expect_committed
           (exec cluster
              (Mtx.make ~reads:[ Mtx.read_at (addr 0 0) 4; Mtx.read_at (addr 1 0) 4 ] ()))
       with
      | [ (_, a); (_, b) ] -> check Alcotest.string "atomic pair" a b
      | _ -> Alcotest.fail "final read failed");
      (* Decision records must agree across the two spaces. *)
      let by_tid = Hashtbl.create 64 in
      List.iter
        (fun (_, tid, d) ->
          match Hashtbl.find_opt by_tid tid with
          | None -> Hashtbl.replace by_tid tid d
          | Some d' ->
              if d <> d' then
                Alcotest.failf "split decision for tid %Ld" tid)
        (Cluster.redo_decisions cluster);
      (* The recovery daemon loops forever; end the simulation. *)
      Sim.stop ())

let () =
  Alcotest.run "sinfonia"
    [
      ( "address",
        [
          Alcotest.test_case "basics" `Quick test_address_basics;
          Alcotest.test_case "codec" `Quick test_address_codec;
        ] );
      ( "heap",
        [
          Alcotest.test_case "read/write" `Quick test_heap_read_write;
          Alcotest.test_case "overwrite" `Quick test_heap_overwrite;
          Alcotest.test_case "capacity" `Quick test_heap_capacity;
          Alcotest.test_case "equal_at" `Quick test_heap_equal_at;
          Alcotest.test_case "snapshot/restore" `Quick test_heap_snapshot_restore;
          Alcotest.test_case "page boundaries" `Quick test_heap_page_boundaries;
          Alcotest.test_case "sparse high offset" `Quick test_heap_sparse_high_offset;
          QCheck_alcotest.to_alcotest prop_heap_matches_reference;
        ] );
      ( "locks",
        [
          Alcotest.test_case "basic" `Quick test_locks_basic;
          Alcotest.test_case "all or nothing" `Quick test_locks_all_or_nothing;
          Alcotest.test_case "same owner overlap" `Quick test_locks_same_owner_overlap;
          Alcotest.test_case "adjacent no conflict" `Quick test_locks_adjacent_no_conflict;
          Alcotest.test_case "shared modes" `Quick test_locks_shared_modes;
          Alcotest.test_case "invalid range" `Quick test_locks_invalid_range;
          Alcotest.test_case "blocking success" `Quick test_locks_blocking_success;
          Alcotest.test_case "blocking timeout" `Quick test_locks_blocking_timeout;
          Alcotest.test_case "blocking queue" `Quick test_locks_blocking_queue;
        ] );
      ( "minitransactions",
        [
          Alcotest.test_case "memnodes/items" `Quick test_mtx_memnodes;
          Alcotest.test_case "single write/read" `Quick test_mtx_single_write_read;
          Alcotest.test_case "compare success/failure" `Quick test_mtx_compare_success_and_failure;
          Alcotest.test_case "multi-node atomic" `Quick test_mtx_multi_node_atomic;
          Alcotest.test_case "multi-node compare abort" `Quick test_mtx_multi_node_compare_abort;
          Alcotest.test_case "reads ordered" `Quick test_mtx_reads_ordered;
          Alcotest.test_case "concurrent counter (no lost updates)" `Quick
            test_mtx_concurrent_counter;
          Alcotest.test_case "lock contention retries" `Quick test_mtx_lock_contention_retries;
          Alcotest.test_case "latency model" `Quick test_mtx_takes_time;
          Alcotest.test_case "blocking mode" `Quick test_mtx_blocking_mode;
        ] );
      ( "replication",
        [
          Alcotest.test_case "recovery releases orphans" `Quick test_recovery_releases_orphans;
          Alcotest.test_case "lease boundary strict" `Quick test_lease_exact_boundary_not_stolen;
          Alcotest.test_case "reacquire after reap" `Quick test_lease_reacquire_after_release;
          Alcotest.test_case "live coordinator kept" `Quick
            test_lease_live_coordinator_not_stolen;
          Alcotest.test_case "mirrors writes" `Quick test_replication_mirrors_writes;
          Alcotest.test_case "failover" `Quick test_failover_serves_from_backup;
          Alcotest.test_case "unavailable without replication" `Quick
            test_unavailable_without_replication;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "redo replay idempotent" `Quick test_redo_replay_idempotent;
          Alcotest.test_case "mid-crash raises" `Quick test_mid_crash_raises;
          Alcotest.test_case "try_recover typed errors" `Quick test_try_recover_typed_errors;
          Alcotest.test_case "try_recover no replica" `Quick test_try_recover_no_replica;
          Alcotest.test_case "blocking vs immediate crash" `Quick test_blocking_race_immediate_crash;
          Alcotest.test_case "mid-crash in-doubt resolved" `Quick
            test_mid_crash_in_doubt_resolved;
        ] );
    ]
