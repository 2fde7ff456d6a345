(* Tests for the dynamic transaction layer: read/write sets, OCC
   validation, dirty reads, replicated objects, and the proxy cache. *)

let check = Alcotest.check

open Sinfonia
open Dyntxn

let slot node off = Objref.make ~addr:(Address.make ~node ~off) ~len:64

(* Object slots live above the replicated-object region used in the
   replicated tests. *)
let base = 4096

let with_cluster ?(n = 3) f = Sim.run (fun () -> f (Cluster.create ~n ()))

let commit_ok t =
  match Txn.commit t with
  | Txn.Committed -> ()
  | Txn.Validation_failed -> Alcotest.fail "unexpected validation failure"
  | Txn.Retry_exhausted -> Alcotest.fail "unexpected retry exhaustion"
  | Txn.Unavailable _ -> Alcotest.fail "unexpected unavailability"

let expect_validation_failure t =
  match Txn.commit t with
  | Txn.Validation_failed -> ()
  | Txn.Committed -> Alcotest.fail "expected validation failure, committed"
  | Txn.Retry_exhausted -> Alcotest.fail "expected validation failure, got retry exhaustion"
  | Txn.Unavailable _ -> Alcotest.fail "expected validation failure, got unavailability"

(* ------------------------------------------------------------------ *)
(* Objref                                                               *)
(* ------------------------------------------------------------------ *)

let test_objref_slot_roundtrip () =
  let s = Objref.slot_of ~seq:42L ~payload:"data" in
  check Alcotest.int64 "seq" 42L (Objref.seq_of_slot s);
  check Alcotest.string "payload" "data" (Objref.payload_of_slot s);
  check Alcotest.int "slot length" 16 (String.length s);
  check Alcotest.string "seq bytes are the slot's prefix" (String.sub s 0 8) (Objref.seq_bytes 42L)

let test_objref_capacity () =
  let r = slot 0 base in
  check Alcotest.int "payload capacity" 52 (Objref.payload_capacity r);
  match Objref.make ~addr:(Address.make ~node:0 ~off:0) ~len:12 with
  | (_ : Objref.t) -> Alcotest.fail "slot without payload room accepted"
  | exception Invalid_argument _ -> ()

let test_objref_zero_slot_seq () =
  (* A never-written slot reads as zeros => sequence number 0. *)
  check Alcotest.int64 "zero slot" 0L (Objref.seq_of_slot (String.make 64 '\000'))

(* ------------------------------------------------------------------ *)
(* Objcache                                                             *)
(* ------------------------------------------------------------------ *)

let entry seq payload = { Objcache.seq; payload }

(* The cache counts into an [Obs.t]; these read its counters. *)
let cache_count obs f = Obs.Counter.value (f (Obs.cache obs))

let test_cache_basic () =
  let c = Objcache.create ~capacity:10 (Obs.create ()) in
  let r = slot 0 base in
  check Alcotest.bool "miss" true (Objcache.find c r = None);
  Objcache.insert c r (entry 1L "v1");
  (match Objcache.find c r with
  | Some { Objcache.seq = 1L; payload = "v1" } -> ()
  | _ -> Alcotest.fail "hit expected");
  Objcache.insert c r (entry 2L "v2");
  (match Objcache.find c r with
  | Some { Objcache.seq = 2L; payload = "v2" } -> ()
  | _ -> Alcotest.fail "overwrite expected");
  check Alcotest.int "size" 1 (Objcache.size c);
  Objcache.invalidate c r;
  check Alcotest.bool "invalidated" true (Objcache.find c r = None)

let test_cache_lru_eviction () =
  let c = Objcache.create ~capacity:3 (Obs.create ()) in
  let refs = Array.init 4 (fun i -> slot 0 (base + (i * 64))) in
  for i = 0 to 2 do
    Objcache.insert c refs.(i) (entry (Int64.of_int i) "x")
  done;
  (* Touch refs.(0) so refs.(1) becomes LRU; inserting refs.(3) evicts it. *)
  ignore (Objcache.find c refs.(0));
  Objcache.insert c refs.(3) (entry 3L "x");
  check Alcotest.int "capacity respected" 3 (Objcache.size c);
  check Alcotest.bool "lru evicted" true (Objcache.find c refs.(1) = None);
  check Alcotest.bool "recently used kept" true (Objcache.find c refs.(0) <> None);
  check Alcotest.bool "newest kept" true (Objcache.find c refs.(3) <> None)

let test_cache_stats () =
  let obs = Obs.create () in
  let c = Objcache.create obs in
  let r = slot 0 base in
  ignore (Objcache.find c r);
  Objcache.insert c r (entry 1L "v");
  ignore (Objcache.find c r);
  check Alcotest.int "hits" 1 (cache_count obs (fun s -> s.Obs.cache_hits));
  check Alcotest.int "misses" 1 (cache_count obs (fun s -> s.Obs.cache_misses));
  (* [mem] answers like [find] but counts nothing. *)
  check Alcotest.bool "mem hit" true (Objcache.mem c r);
  check Alcotest.bool "mem miss" false (Objcache.mem c (slot 0 (base + 64)));
  check Alcotest.int "mem counts no hit" 1 (cache_count obs (fun s -> s.Obs.cache_hits));
  check Alcotest.int "mem counts no miss" 1 (cache_count obs (fun s -> s.Obs.cache_misses))

let test_cache_clear () =
  let obs = Obs.create () in
  let c = Objcache.create obs in
  Objcache.insert c (slot 0 base) (entry 1L "v");
  Objcache.clear c;
  check Alcotest.int "cleared" 0 (Objcache.size c);
  check Alcotest.int "bulk eviction counted" 1
    (cache_count obs (fun s -> s.Obs.cache_bulk_evictions))

let test_cache_epoch_staleness () =
  let obs = Obs.create () in
  let c = Objcache.create obs in
  let r0 = slot 0 base and r1 = slot 1 base in
  Objcache.insert c r0 (entry 1L "space0");
  Objcache.insert c r1 (entry 2L "space1");
  (* A crash of space 0 turns only space-0 entries stale. *)
  Objcache.observe_epoch c ~space:0 ~epoch:1;
  (match Objcache.find_status c r0 with
  | Objcache.Stale { Objcache.seq = 1L; payload = "space0" } -> ()
  | _ -> Alcotest.fail "space-0 entry should be stale after its epoch bump");
  (match Objcache.find_status c r1 with
  | Objcache.Fresh { Objcache.payload = "space1"; _ } -> ()
  | _ -> Alcotest.fail "space-1 entry must stay fresh");
  check Alcotest.int "stale hit counted" 1 (cache_count obs (fun s -> s.Obs.cache_stale_hits));
  (* find treats stale as a miss but keeps the entry for revalidation. *)
  check Alcotest.bool "find skips stale" true (Objcache.find c r0 = None);
  check Alcotest.bool "mem skips stale" false (Objcache.mem c r0);
  check Alcotest.int "entry retained" 2 (Objcache.size c);
  (* Epoch observations are monotonic: an older epoch changes nothing. *)
  Objcache.observe_epoch c ~space:0 ~epoch:0;
  (match Objcache.find_status c r0 with
  | Objcache.Stale _ -> ()
  | _ -> Alcotest.fail "stale regression: old epoch observation un-staled the entry");
  (* Revalidation accounting, then a re-insert is fresh at the new
     epoch. A same-seq re-fetch survives; a changed seq does not. *)
  let stale_entry = entry 1L "space0" in
  Objcache.note_revalidation c ~old:stale_entry ~seq:1L;
  Objcache.note_revalidation c ~old:stale_entry ~seq:9L;
  check Alcotest.int "revalidations" 2
    (cache_count obs (fun s -> s.Obs.cache_epoch_revalidations));
  check Alcotest.int "survived" 1 (cache_count obs (fun s -> s.Obs.cache_epoch_survived));
  Objcache.insert c r0 (entry 1L "space0");
  (match Objcache.find_status c r0 with
  | Objcache.Fresh _ -> ()
  | _ -> Alcotest.fail "re-inserted entry must carry the current epoch");
  check Alcotest.int "no bulk eviction anywhere" 0
    (cache_count obs (fun s -> s.Obs.cache_bulk_evictions))

(* ------------------------------------------------------------------ *)
(* Transactions                                                         *)
(* ------------------------------------------------------------------ *)

let test_txn_write_then_read_back () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let t1 = Txn.begin_ cluster in
      Txn.write t1 r "hello";
      check Alcotest.string "read own write" "hello" (Txn.read t1 r);
      commit_ok t1;
      let t2 = Txn.begin_ cluster in
      check Alcotest.string "persisted" "hello" (Txn.read t2 r);
      commit_ok t2)

let test_txn_read_only_free_commit () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "v";
      commit_ok t0;
      let before = Obs.Counter.value (Obs.txn (Cluster.obs cluster)).Obs.free_commits in
      let t = Txn.begin_ cluster in
      check Alcotest.string "value" "v" (Txn.read t r);
      check Alcotest.int "one fetch" 1 (Txn.fetches t);
      commit_ok t;
      let after = Obs.Counter.value (Obs.txn (Cluster.obs cluster)).Obs.free_commits in
      check Alcotest.int "free commit" (before + 1) after)

let test_txn_occ_conflict () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "initial";
      commit_ok t0;
      (* t1 reads, then t2 updates, then t1 tries to write based on its
         stale read: validation must fail. *)
      let t1 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t1 r in
      let t2 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t2 r in
      Txn.write t2 r "t2 wins";
      commit_ok t2;
      Txn.write t1 r "t1 late";
      expect_validation_failure t1;
      let t3 = Txn.begin_ cluster in
      check Alcotest.string "t2's write survived" "t2 wins" (Txn.read t3 r))

let test_txn_dirty_read_not_validated () =
  with_cluster (fun cluster ->
      let a = slot 0 base and b = slot 0 (base + 64) in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 a "a0";
      Txn.write t0 b "b0";
      commit_ok t0;
      (* t1 dirty-reads [a]; a concurrent update to [a] must NOT abort
         t1's commit, because dirty reads are not validated. *)
      let t1 = Txn.begin_ cluster in
      check Alcotest.string "dirty value" "a0" (Txn.dirty_read t1 a);
      let t2 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t2 a in
      Txn.write t2 a "a1";
      commit_ok t2;
      Txn.write t1 b "b1";
      commit_ok t1)

let test_txn_dirty_read_promoted_on_write () =
  with_cluster (fun cluster ->
      let a = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 a "a0";
      commit_ok t0;
      (* t1 dirty-reads [a], then [a] changes, then t1 writes [a]: the
         dirty read joins the read set, so validation must fail. *)
      let t1 = Txn.begin_ cluster in
      check Alcotest.string "dirty value" "a0" (Txn.dirty_read t1 a);
      let t2 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t2 a in
      Txn.write t2 a "a1";
      commit_ok t2;
      Txn.write t1 a "t1 stale write";
      expect_validation_failure t1;
      let t3 = Txn.begin_ cluster in
      check Alcotest.string "winner kept" "a1" (Txn.read t3 a))

let test_txn_piggyback_aborts_stale_read_set () =
  with_cluster (fun cluster ->
      let a = slot 0 base and b = slot 0 (base + 64) in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 a "a0";
      Txn.write t0 b "b0";
      commit_ok t0;
      let t1 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t1 a in
      (* Concurrent update to [a]. *)
      let t2 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t2 a in
      Txn.write t2 a "a1";
      commit_ok t2;
      (* t1's next transactional read on the same memnode piggy-backs
         validation of [a] and must abort. *)
      match Txn.read t1 b with
      | (_ : string) -> Alcotest.fail "expected Aborted"
      | exception Txn.Aborted _ -> check Alcotest.bool "aborted" true (Txn.is_aborted t1))

let test_txn_multi_node_commit () =
  with_cluster (fun cluster ->
      let a = slot 0 base and b = slot 2 base in
      let t = Txn.begin_ cluster in
      Txn.write t a "node0";
      Txn.write t b "node2";
      commit_ok t;
      let t2 = Txn.begin_ cluster in
      check Alcotest.string "node0 data" "node0" (Txn.read t2 a);
      check Alcotest.string "node2 data" "node2" (Txn.read t2 b);
      commit_ok t2)

let test_txn_multi_node_read_validated_commit () =
  (* A read-only transaction spanning two memnodes cannot rely on
     piggy-backed validation and must issue a commit-time validation. *)
  with_cluster (fun cluster ->
      let a = slot 0 base and b = slot 2 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 a "A";
      Txn.write t0 b "B";
      commit_ok t0;
      let t1 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t1 a in
      let (_ : string) = Txn.read t1 b in
      (* Concurrent update of [a] after t1 read it. *)
      let t2 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t2 a in
      Txn.write t2 a "A'";
      commit_ok t2;
      (* Hmm: t1 is read-only; its reads were individually atomic but the
         pair is not a consistent snapshot anymore. Commit must detect it. *)
      expect_validation_failure t1)

let test_txn_abort_explicit () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let t = Txn.begin_ cluster in
      Txn.write t r "doomed";
      (match Txn.abort t with
      | (_ : unit) -> Alcotest.fail "abort should raise"
      | exception Txn.Aborted _ -> ());
      (match Txn.commit t with
      | (_ : Txn.commit_result) -> Alcotest.fail "commit after abort should raise"
      | exception Txn.Aborted _ -> ());
      let t2 = Txn.begin_ cluster in
      check Alcotest.string "write discarded" "" (Txn.read t2 r))

let test_txn_payload_capacity_checked () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let t = Txn.begin_ cluster in
      match Txn.write t r (String.make 100 'x') with
      | () -> Alcotest.fail "oversized payload accepted"
      | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Cache interaction                                                    *)
(* ------------------------------------------------------------------ *)

let test_txn_dirty_read_uses_cache () =
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "cached-value";
      commit_ok t0;
      (* First dirty read fetches and fills the cache... *)
      let t1 = Txn.begin_ cluster ~cache in
      check Alcotest.string "fetch" "cached-value" (Txn.dirty_read t1 r);
      check Alcotest.int "one fetch" 1 (Txn.fetches t1);
      commit_ok t1;
      (* ...second transaction is served locally. *)
      let t2 = Txn.begin_ cluster ~cache in
      check Alcotest.string "cache hit" "cached-value" (Txn.dirty_read t2 r);
      check Alcotest.int "no fetch" 0 (Txn.fetches t2);
      commit_ok t2)

let test_txn_stale_cache_detected_on_write () =
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "v1";
      commit_ok t0;
      (* Warm the cache. *)
      let t1 = Txn.begin_ cluster ~cache in
      let (_ : string) = Txn.dirty_read t1 r in
      commit_ok t1;
      (* Remote update makes the cache stale (incoherent by design). *)
      let t2 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t2 r in
      Txn.write t2 r "v2";
      commit_ok t2;
      (* A cached dirty read + write must fail validation, and the stale
         entry must be evicted so the retry succeeds. *)
      let t3 = Txn.begin_ cluster ~cache in
      check Alcotest.string "stale cache served" "v1" (Txn.dirty_read t3 r);
      Txn.write t3 r "v3";
      expect_validation_failure t3;
      let t4 = Txn.begin_ cluster ~cache in
      check Alcotest.string "refetched fresh" "v2" (Txn.dirty_read t4 r);
      Txn.write t4 r "v3";
      commit_ok t4)

let test_txn_evict_dirty () =
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "v";
      commit_ok t0;
      let t1 = Txn.begin_ cluster ~cache in
      let (_ : string) = Txn.dirty_read t1 r in
      Txn.evict_dirty t1;
      check Alcotest.bool "evicted" true (Objcache.find cache r = None))

let test_txn_commit_refreshes_cached_objects () =
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "old";
      commit_ok t0;
      let t1 = Txn.begin_ cluster ~cache in
      let (_ : string) = Txn.dirty_read t1 r in
      Txn.write t1 r "new";
      commit_ok t1;
      (* The proxy's own cache reflects its committed write. *)
      match Objcache.find cache r with
      | Some { Objcache.payload = "new"; _ } -> ()
      | Some { Objcache.payload; _ } -> Alcotest.failf "cache has %S" payload
      | None -> Alcotest.fail "cache entry missing")

let test_txn_blind_write_commit_counts_no_lookup () =
  (* Refreshing the cache after a commit is bookkeeping, not a lookup:
     blind writes (every leaf a put writes) must not show up as cache
     misses, nor refreshes of cached objects as hits. *)
  with_cluster (fun cluster ->
      let obs = Cluster.obs cluster in
      let cache = Objcache.create obs in
      let lookups () =
        (cache_count obs (fun s -> s.Obs.cache_hits), cache_count obs (fun s -> s.Obs.cache_misses))
      in
      let uncached = slot 0 base and cached = slot 0 (base + 64) in
      Objcache.insert cache cached (entry 1L "old");
      let before = lookups () in
      let t = Txn.begin_ cluster ~cache in
      Txn.write t uncached "blind";
      Txn.write t cached "new";
      commit_ok t;
      check Alcotest.(pair int int) "no hit or miss counted" before (lookups ());
      check Alcotest.bool "uncached object stays uncached" false (Objcache.mem cache uncached);
      match Objcache.find cache cached with
      | Some { Objcache.payload = "new"; _ } -> ()
      | _ -> Alcotest.fail "cached object not refreshed")

let test_txn_read_many_single_round_trip () =
  with_cluster (fun cluster ->
      (* Three slots on three memnodes: one read_many, one fetch. *)
      let refs = [ slot 0 base; slot 1 base; slot 2 base ] in
      let t0 = Txn.begin_ cluster in
      List.iteri (fun i r -> Txn.write t0 r (Printf.sprintf "m%d" i)) refs;
      commit_ok t0;
      let t1 = Txn.begin_ cluster in
      (match Txn.read_many_with_seq t1 refs with
      | [ (_, "m0"); (_, "m1"); (_, "m2") ] -> ()
      | _ -> Alcotest.fail "read_many: wrong values or order");
      check Alcotest.int "one coalesced fetch" 1 (Txn.fetches t1);
      (* Re-reading (plus a duplicate) is served from the read set. *)
      (match Txn.read_many_with_seq t1 (refs @ [ List.hd refs ]) with
      | [ (_, "m0"); (_, "m1"); (_, "m2"); (_, "m0") ] -> ()
      | _ -> Alcotest.fail "read_many: duplicate handling");
      check Alcotest.int "no extra fetch" 1 (Txn.fetches t1);
      commit_ok t1;
      (* The dirty variant coalesces the same way. *)
      let t2 = Txn.begin_ cluster in
      (match Txn.dirty_read_many_with_seq t2 refs with
      | [ (_, "m0"); (_, "m1"); (_, "m2") ] -> ()
      | _ -> Alcotest.fail "dirty_read_many: wrong values or order");
      check Alcotest.int "one dirty coalesced fetch" 1 (Txn.fetches t2);
      commit_ok t2)

(* Committed minitransactions so far: (one-phase, two-phase). *)
let commit_counts cluster =
  let m = Obs.mtx (Cluster.obs cluster) in
  (Obs.Counter.value m.Obs.committed_1pc, Obs.Counter.value m.Obs.committed_2pc)

(* Lock ranges held and serving pins taken at the store serving space
   [i]. *)
let residue cluster i =
  let _, store = Cluster.route cluster i in
  (Lock_table.held_ranges (Memnode.store_locks store), Memnode.store_serving store)

let write_three cluster refs =
  let t0 = Txn.begin_ cluster in
  List.iteri (fun i r -> Txn.write t0 r (Printf.sprintf "m%d" i)) refs;
  commit_ok t0

let test_txn_dirty_batch_per_memnode () =
  with_cluster (fun cluster ->
      (* A dirty batch over three memnodes runs three one-phase reads; a
         validated batch over the same objects is still one 2PC. *)
      let refs = [ slot 0 base; slot 1 base; slot 2 base ] in
      write_three cluster refs;
      let ones, twos = commit_counts cluster in
      let t = Txn.begin_ cluster in
      (match Txn.dirty_read_many_with_seq t refs with
      | [ (_, "m0"); (_, "m1"); (_, "m2") ] -> ()
      | _ -> Alcotest.fail "dirty batch: wrong values or order");
      check Alcotest.int "one fetch" 1 (Txn.fetches t);
      check
        Alcotest.(pair int int)
        "one 1PC per memnode, no 2PC" (ones + 3, twos) (commit_counts cluster);
      List.iter
        (fun i -> check Alcotest.(pair int int) "no lock or pin left" (0, 0) (residue cluster i))
        [ 0; 1; 2 ];
      commit_ok t;
      let ones, twos = commit_counts cluster in
      let t = Txn.begin_ cluster in
      (match Txn.read_many_with_seq t refs with
      | [ (_, "m0"); (_, "m1"); (_, "m2") ] -> ()
      | _ -> Alcotest.fail "validated batch: wrong values or order");
      check
        Alcotest.(pair int int)
        "validated batch is one 2PC" (ones, twos + 1) (commit_counts cluster);
      commit_ok t)

(* A dirty batch over three memnodes, one of which [fault] takes away,
   aborts with [msg] and leaves the two healthy memnodes clean. *)
let dirty_batch_outage ~fault ~msg () =
  with_cluster ~n:4 (fun cluster ->
      let refs = [ slot 0 base; slot 1 base; slot 2 base ] in
      write_three cluster refs;
      let client = 100 in
      fault cluster ~client 2;
      let t = Txn.begin_ cluster ~client in
      (match Txn.dirty_read_many_with_seq t refs with
      | _ -> Alcotest.fail "dirty batch read an unreachable memnode"
      | exception Txn.Aborted m -> check Alcotest.string "outage message" msg m);
      List.iter
        (fun i -> check Alcotest.(pair int int) "no lock or pin left" (0, 0) (residue cluster i))
        [ 0; 1 ])

let crash_with_backup cluster ~client:_ i =
  Cluster.crash cluster (Option.get (Cluster.backup_of cluster i));
  Cluster.crash cluster i

let partition cluster ~client i =
  Sim.Net.set_fault (Cluster.net cluster) ~src:client ~dst:(Cluster.serving_host cluster i)
    ~blocked:true ()

(* Every 2PC outcome releases every participant's locks and serving
   pins: a committed one, a compare failure, a lock-busy attempt that
   backs off and then commits, and one refused by a partitioned
   participant. A leaked pin would make [Cluster.try_recover] answer
   [Replica_busy] for good. *)
let test_2pc_leaves_no_residue () =
  with_cluster (fun cluster ->
      let addr node = Address.make ~node ~off:base in
      let writes v = List.map (fun n -> Mtx.write_at (addr n) v) [ 0; 1; 2 ] in
      let clean what =
        List.iter
          (fun i ->
            check Alcotest.(pair int int) (what ^ ": no lock or pin left") (0, 0)
              (residue cluster i))
          [ 0; 1; 2 ]
      in
      let committed what = function
        | Mtx.Committed _ -> clean what
        | _ -> Alcotest.failf "%s: expected a commit" what
      in
      let twos () = snd (commit_counts cluster) in
      let n = twos () in
      committed "committed" (Coordinator.exec cluster (Mtx.make ~writes:(writes "aaaa") ()));
      check Alcotest.int "one 2PC" (n + 1) (twos ());
      let stale =
        Mtx.make ~compares:[ Mtx.compare_at (addr 0) "zzzz" ] ~writes:(writes "bbbb") ()
      in
      (match Coordinator.exec cluster stale with
      | Mtx.Failed_compare [ 0 ] -> clean "compare failed"
      | _ -> Alcotest.fail "expected the compare to fail");
      (* A rival holds memnode 1's range for 1 ms: the first attempts
         find it busy, back off and retry. *)
      let locks = Memnode.store_locks (snd (Cluster.route cluster 1)) in
      let range = { Lock_table.start = base; len = 4; mode = Lock_table.Exclusive } in
      check Alcotest.bool "rival locks" true (Lock_table.try_acquire locks ~owner:(-1L) [ range ]);
      Sim.spawn (fun () ->
          Sim.delay 1e-3;
          Lock_table.release locks ~owner:(-1L));
      let busy = Obs.Counter.value (Obs.mtx (Cluster.obs cluster)).Obs.busy_retries in
      committed "busy then committed"
        (Coordinator.exec cluster (Mtx.make ~writes:(writes "cccc") ()));
      check Alcotest.bool "retried after busy locks" true
        (Obs.Counter.value (Obs.mtx (Cluster.obs cluster)).Obs.busy_retries > busy);
      let client = 100 in
      partition cluster ~client 2;
      (match Coordinator.exec cluster ~client (Mtx.make ~writes:(writes "dddd") ()) with
      | Mtx.Unavailable { partitioned = true; maybe_applied = false } -> clean "partitioned"
      | _ -> Alcotest.fail "expected the partition to refuse the 2PC"))

let test_txn_read_many_validates_read_set () =
  with_cluster (fun cluster ->
      (* Same memnode: the compare for r0 can piggy-back on r1's fetch. *)
      let r0 = slot 0 base and r1 = slot 0 (base + 64) in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r0 "a";
      Txn.write t0 r1 "b";
      commit_ok t0;
      (* t1 reads r0 (validated), a rival then rewrites it; the next
         read_many must piggy-back the compare and abort. *)
      let t1 = Txn.begin_ cluster in
      check Alcotest.string "r0" "a" (Txn.read t1 r0);
      let rival = Txn.begin_ cluster in
      check Alcotest.string "rival reads" "a" (Txn.read rival r0);
      Txn.write rival r0 "a2";
      commit_ok rival;
      (match Txn.read_many_with_seq t1 [ r1 ] with
      | (_ : (int64 * string) list) -> Alcotest.fail "stale read set not caught"
      | exception Txn.Aborted _ -> ()))

let test_txn_negative_entries_not_cached () =
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 0 base in
      (* Dirty-reading an unallocated (empty-payload) slot must not
         create a cache entry: negative entries would mask later
         allocations of the slot. *)
      let t0 = Txn.begin_ cluster ~cache in
      check Alcotest.string "empty slot" "" (Txn.dirty_read t0 r);
      commit_ok t0;
      check Alcotest.int "no negative entry" 0 (Objcache.size cache);
      (* And a stale positive entry is dropped when a fetch comes back
         empty. *)
      Objcache.insert cache r { Objcache.seq = 9L; payload = "ghost" };
      let t1 = Txn.begin_ cluster ~cache in
      check Alcotest.string "ghost served dirty" "ghost" (Txn.dirty_read t1 r);
      Txn.evict_dirty t1;
      let t2 = Txn.begin_ cluster ~cache in
      check Alcotest.string "refetched empty" "" (Txn.dirty_read t2 r);
      commit_ok t2;
      check Alcotest.bool "ghost not re-cached" true (Objcache.find cache r = None))

let test_txn_evict_dirty_drops_negative_read () =
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 0 base in
      (* The cache holds a positive entry; a validated read then shows
         the slot is actually empty (deleted). evict_dirty must drop the
         contradicted cache entry along with the dirty set. *)
      Objcache.insert cache r { Objcache.seq = 3L; payload = "ghost" };
      let t = Txn.begin_ cluster ~cache in
      check Alcotest.string "slot is empty" "" (Txn.read t r);
      Txn.evict_dirty t;
      check Alcotest.bool "negative read evicts entry" true (Objcache.find cache r = None))

let test_txn_cache_epoch_revalidation_after_crash () =
  with_cluster ~n:2 (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 1 base and r2 = slot 1 (base + 64) in
      let t0 = Txn.begin_ cluster ~cache in
      Txn.write t0 r "epoch-v";
      Txn.write t0 r2 "other";
      commit_ok t0;
      (* Warm the cache for r. *)
      let t1 = Txn.begin_ cluster ~cache in
      check Alcotest.string "warm" "epoch-v" (Txn.dirty_read t1 r);
      commit_ok t1;
      (* Crash memnode 1 and recover it: its space's epoch is bumped. *)
      Cluster.crash cluster 1;
      (match Cluster.try_recover cluster 1 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "recovery failed");
      (* The proxy has not heard about the crash yet: the cached entry
         still serves (incoherent by design, same as any stale entry). *)
      let count f = cache_count (Cluster.obs cluster) f in
      check Alcotest.int "no revalidation yet" 0 (count (fun s -> s.Obs.cache_epoch_revalidations));
      (* Any minitransaction touching the space teaches the cache the
         new epoch via the reply... *)
      let t2 = Txn.begin_ cluster ~cache in
      check Alcotest.string "unrelated fetch" "other" (Txn.dirty_read t2 ~use_cache:false r2);
      commit_ok t2;
      (* ...so the next dirty read of r revalidates the stale-epoch
         entry with a single fetch instead of trusting or flushing it. *)
      let t3 = Txn.begin_ cluster ~cache in
      check Alcotest.string "revalidated value" "epoch-v" (Txn.dirty_read t3 r);
      check Alcotest.int "revalidation fetch" 1 (Txn.fetches t3);
      commit_ok t3;
      check Alcotest.int "one revalidation" 1 (count (fun s -> s.Obs.cache_epoch_revalidations));
      check Alcotest.int "entry survived" 1 (count (fun s -> s.Obs.cache_epoch_survived));
      check Alcotest.int "no bulk eviction" 0 (count (fun s -> s.Obs.cache_bulk_evictions));
      (* Fully revalidated: a further dirty read is a plain cache hit. *)
      let t4 = Txn.begin_ cluster ~cache in
      check Alcotest.string "fresh again" "epoch-v" (Txn.dirty_read t4 r);
      check Alcotest.int "served locally" 0 (Txn.fetches t4);
      commit_ok t4)

(* ------------------------------------------------------------------ *)
(* Replicated objects                                                   *)
(* ------------------------------------------------------------------ *)

let repl_off = 0

let repl_len = 24

let test_replicated_write_updates_all () =
  with_cluster (fun cluster ->
      let t = Txn.begin_ cluster in
      Txn.write_replicated t ~off:repl_off ~len:repl_len "tip=1";
      commit_ok t;
      (* Every memnode's heap holds the same slot bytes. *)
      let slot0 =
        Heap.read (Memnode.store_heap (Memnode.primary (Cluster.memnode cluster 0))) ~off:repl_off
          ~len:repl_len
      in
      for i = 1 to Cluster.n_memnodes cluster - 1 do
        let s =
          Heap.read
            (Memnode.store_heap (Memnode.primary (Cluster.memnode cluster i)))
            ~off:repl_off ~len:repl_len
        in
        check Alcotest.string (Printf.sprintf "replica %d" i) slot0 s
      done;
      (* Readable from any home. *)
      let t1 = Txn.begin_ cluster ~home:2 in
      check Alcotest.string "read via home 2" "tip=1"
        (Txn.read_replicated t1 ~off:repl_off ~len:repl_len);
      commit_ok t1)

let test_replicated_read_validates () =
  with_cluster (fun cluster ->
      let t0 = Txn.begin_ cluster in
      Txn.write_replicated t0 ~off:repl_off ~len:repl_len "tip=1";
      commit_ok t0;
      let r = slot 0 base in
      (* t1 reads the replicated object, then someone bumps it; t1's
         write must fail validation. *)
      let t1 = Txn.begin_ cluster in
      check Alcotest.string "tip" "tip=1" (Txn.read_replicated t1 ~off:repl_off ~len:repl_len);
      let t2 = Txn.begin_ cluster in
      Txn.write_replicated t2 ~off:repl_off ~len:repl_len "tip=2";
      commit_ok t2;
      Txn.write t1 r "based on old tip";
      expect_validation_failure t1)

let test_replicated_dirty_read () =
  with_cluster (fun cluster ->
      let t0 = Txn.begin_ cluster in
      Txn.write_replicated t0 ~off:repl_off ~len:repl_len "tip=7";
      commit_ok t0;
      let t1 = Txn.begin_ cluster in
      check Alcotest.string "dirty replicated" "tip=7"
        (Txn.dirty_read_replicated t1 ~off:repl_off ~len:repl_len);
      (* Not in the read set: a concurrent bump does not fail t1. *)
      let t2 = Txn.begin_ cluster in
      Txn.write_replicated t2 ~off:repl_off ~len:repl_len "tip=8";
      commit_ok t2;
      Txn.write t1 (slot 1 base) "independent";
      commit_ok t1)

let test_replicated_blocking_commit () =
  with_cluster (fun cluster ->
      let t = Txn.begin_ cluster in
      Txn.write_replicated t ~off:repl_off ~len:repl_len "tip=1";
      (match Txn.commit ~blocking:true t with
      | Txn.Committed -> ()
      | _ -> Alcotest.fail "blocking commit failed");
      let t1 = Txn.begin_ cluster ~home:1 in
      check Alcotest.string "visible" "tip=1"
        (Txn.read_replicated t1 ~off:repl_off ~len:repl_len))

let test_replicated_cached_then_validated () =
  (* A replicated read served from the proxy cache is still validated at
     commit: stale cache => validation failure => eviction => retry ok. *)
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let t0 = Txn.begin_ cluster in
      Txn.write_replicated t0 ~off:repl_off ~len:repl_len "tip=1";
      commit_ok t0;
      (* Warm the proxy cache. *)
      let t1 = Txn.begin_ cluster ~cache in
      let (_ : string) = Txn.read_replicated t1 ~off:repl_off ~len:repl_len in
      commit_ok t1;
      (* Tip bumped elsewhere. *)
      let t2 = Txn.begin_ cluster in
      Txn.write_replicated t2 ~off:repl_off ~len:repl_len "tip=2";
      commit_ok t2;
      (* Cached (stale) tip + a write => validation failure. *)
      let t3 = Txn.begin_ cluster ~cache in
      check Alcotest.string "stale tip from cache" "tip=1"
        (Txn.read_replicated t3 ~off:repl_off ~len:repl_len);
      Txn.write t3 (slot 0 base) "x";
      expect_validation_failure t3;
      (* Retry refetches the fresh tip. *)
      let t4 = Txn.begin_ cluster ~cache in
      check Alcotest.string "fresh tip" "tip=2"
        (Txn.read_replicated t4 ~off:repl_off ~len:repl_len);
      Txn.write t4 (slot 0 base) "x";
      commit_ok t4)

(* ------------------------------------------------------------------ *)
(* Baseline-mode primitives                                             *)
(* ------------------------------------------------------------------ *)

let test_write_linked_echoes_seq () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let echo_off = 1024 in
      let t = Txn.begin_ cluster in
      Txn.write_linked t r "payload" ~repl_off:echo_off;
      commit_ok t;
      (* Every memnode's replicated slot carries the object's fresh
         sequence number. *)
      let obj_slot =
        Heap.read (Memnode.store_heap (Memnode.primary (Cluster.memnode cluster 0))) ~off:base
          ~len:64
      in
      let obj_seq = Dyntxn.Objref.seq_of_slot obj_slot in
      for node = 0 to Cluster.n_memnodes cluster - 1 do
        let echo_slot =
          Heap.read
            (Memnode.store_heap (Memnode.primary (Cluster.memnode cluster node)))
            ~off:echo_off ~len:16
        in
        check Alcotest.int64
          (Printf.sprintf "echo on node %d" node)
          obj_seq
          (Dyntxn.Objref.seq_of_slot echo_slot)
      done)

let test_validate_replicated_catches_stale () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let echo_off = 1024 in
      (* Publish version 1. *)
      let t0 = Txn.begin_ cluster in
      Txn.write_linked t0 r "v1" ~repl_off:echo_off;
      commit_ok t0;
      let seq1, _ = Txn.dirty_read_with_seq (Txn.begin_ cluster) r in
      (* A transaction validating against seq1 succeeds... *)
      let ta = Txn.begin_ cluster in
      Txn.validate_replicated ta ~off:echo_off ~seq:seq1 ~obj:r;
      Txn.write ta (slot 1 base) "x";
      commit_ok ta;
      (* ...the object is republished (seq changes)... *)
      let t1 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t1 r in
      Txn.write_linked t1 r "v2" ~repl_off:echo_off;
      commit_ok t1;
      (* ...and now the stale expectation fails validation. *)
      let tb = Txn.begin_ cluster in
      Txn.validate_replicated tb ~off:echo_off ~seq:seq1 ~obj:r;
      Txn.write tb (slot 1 base) "y";
      expect_validation_failure tb)

let test_read_with_seq () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "v";
      commit_ok t0;
      let t1 = Txn.begin_ cluster in
      let seq, payload = Txn.read_with_seq t1 r in
      check Alcotest.string "payload" "v" payload;
      check Alcotest.bool "nonzero seq" true (Int64.compare seq 0L > 0);
      check Alcotest.bool "in_write_set false" false (Txn.in_write_set t1 r);
      Txn.write t1 r "w";
      check Alcotest.bool "in_write_set true" true (Txn.in_write_set t1 r))

(* ------------------------------------------------------------------ *)
(* Concurrency property: lost-update freedom                            *)
(* ------------------------------------------------------------------ *)

let test_txn_concurrent_increments () =
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "0";
      commit_ok t0;
      let workers = 6 and per_worker = 8 in
      let finished = ref 0 in
      for _ = 1 to workers do
        Sim.spawn (fun () ->
            for _ = 1 to per_worker do
              let rec attempt () =
                let t = Txn.begin_ cluster in
                let v = int_of_string (Txn.read t r) in
                Txn.write t r (string_of_int (v + 1));
                match Txn.commit t with
                | Txn.Committed -> ()
                | Txn.Validation_failed -> attempt ()
                | Txn.Retry_exhausted -> Alcotest.fail "retry exhausted"
                | Txn.Unavailable _ -> Alcotest.fail "unexpected unavailability"
              in
              attempt ()
            done;
            incr finished)
      done;
      Sim.delay 300.0;
      check Alcotest.int "workers done" workers !finished;
      let t = Txn.begin_ cluster in
      check Alcotest.string "no lost updates"
        (string_of_int (workers * per_worker))
        (Txn.read t r))

(* ------------------------------------------------------------------ *)
(* The shared retry loop (Txn.run)                                      *)
(* ------------------------------------------------------------------ *)

(* A body that aborts every attempt: the loop makes exactly 64 attempts,
   then raises Too_contended naming the operation. *)
let run_always_aborting ~blocking =
  let attempts = ref 0 in
  let outcome = ref "" in
  let elapsed = ref 0.0 in
  with_cluster (fun cluster ->
      match
        Txn.run ~blocking ~name:"probe" cluster (fun txn ->
            incr attempts;
            Txn.abort txn)
      with
      | (_ : unit * int64 option) -> Alcotest.fail "an always-aborting body committed"
      | exception Txn.Too_contended msg ->
          outcome := msg;
          elapsed := Sim.now ());
  (!attempts, !outcome, !elapsed)

let test_run_blocking_budget () =
  let attempts, msg, elapsed = run_always_aborting ~blocking:true in
  check Alcotest.int "exactly 64 attempts" 64 attempts;
  check Alcotest.string "names the operation" "probe: 64 attempts" msg;
  (* A blocking transaction's locks were already waited for at the
     memnode: contention retries at once. *)
  check (Alcotest.float 0.0) "no backoff sleeps" 0.0 elapsed

let test_run_nonblocking_backs_off () =
  let attempts, msg, elapsed = run_always_aborting ~blocking:false in
  check Alcotest.int "exactly 64 attempts" 64 attempts;
  check Alcotest.string "names the operation" "probe: 64 attempts" msg;
  check Alcotest.bool "jittered contention backoff" true (elapsed > 0.0)

let test_run_lock_busy_keeps_cache () =
  (* A commit that finds a write lock held past the coordinator's retry
     budget ends Retry_exhausted. A busy lock says nothing about what
     the attempt read, so the retry starts from the cache the first
     attempt left. *)
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 0 base and w = slot 1 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "cached";
      Txn.write t0 w "w0";
      commit_ok t0;
      let warm = Txn.begin_ cluster ~cache in
      check Alcotest.string "warm" "cached" (Txn.dirty_read warm r);
      commit_ok warm;
      let locks = Memnode.store_locks (Memnode.primary (Cluster.memnode cluster 1)) in
      let owner = -1L in
      let range =
        { Lock_table.start = w.Objref.addr.Address.off; len = w.Objref.len; mode = Lock_table.Exclusive }
      in
      check Alcotest.bool "lock taken" true (Lock_table.try_acquire locks ~owner [ range ]);
      let exhausted () = Obs.Counter.value (Obs.txn (Cluster.obs cluster)).Obs.retry_exhausted in
      let exhausted0 = exhausted () in
      let seen = ref [] in
      let (), _ =
        Txn.run ~cache ~name:"busy" cluster (fun txn ->
            seen := (Objcache.size cache, Objcache.find cache r) :: !seen;
            ignore (Txn.dirty_read txn r : string);
            Txn.write txn w "w1";
            if List.length !seen = 2 then Lock_table.release locks ~owner)
      in
      check Alcotest.int "one commit ran out of retries" 1 (exhausted () - exhausted0);
      match !seen with
      | [ retry; first ] ->
          check Alcotest.bool "cache unchanged across the abort" true (retry = first);
          check Alcotest.bool "entry still cached" true (snd retry <> None)
      | _ -> Alcotest.failf "%d attempts, expected 2" (List.length !seen))

let test_validate_replicated_failure_evicts_object () =
  (* The baseline mode validates a cached internal node through its
     replicated sequence-number entry. When that compare fails, the
     node's cached copy is what proved stale and is evicted. *)
  with_cluster (fun cluster ->
      let cache = Objcache.create (Cluster.obs cluster) in
      let r = slot 0 base in
      let echo_off = 1024 in
      let t0 = Txn.begin_ cluster in
      Txn.write_linked t0 r "v1" ~repl_off:echo_off;
      commit_ok t0;
      let seq1, _ = Txn.dirty_read_with_seq (Txn.begin_ cluster ~cache) r in
      let t1 = Txn.begin_ cluster in
      let (_ : string) = Txn.read t1 r in
      Txn.write_linked t1 r "v2" ~repl_off:echo_off;
      commit_ok t1;
      let tb = Txn.begin_ cluster ~cache in
      check Alcotest.string "stale copy served" "v1" (Txn.dirty_read tb r);
      Txn.validate_replicated tb ~off:echo_off ~seq:seq1 ~obj:r;
      Txn.write tb (slot 1 base) "y";
      expect_validation_failure tb;
      check Alcotest.bool "stale copy evicted" true (Objcache.find cache r = None))

let test_run_outage_waits_for_recovery () =
  (* Space 0 loses its primary and its backup (memnode 1), so a read of
     it fails as an outage until memnode 0 is restored from the replica
     memnode 1 still holds. The loop backs off on the millisecond scale
     and the transaction commits once the space is back. *)
  with_cluster (fun cluster ->
      let r = slot 0 base in
      let t0 = Txn.begin_ cluster in
      Txn.write t0 r "before";
      commit_ok t0;
      Cluster.crash cluster 1;
      Cluster.crash cluster 0;
      Sim.spawn (fun () ->
          Sim.delay 0.05;
          match Cluster.try_recover cluster 0 with
          | Ok () -> ()
          | Error e -> Alcotest.failf "recovery: %s" (Cluster.recover_error_to_string e));
      let attempts = ref 0 in
      let v, stamp =
        Txn.run ~name:"outage" cluster (fun txn ->
            incr attempts;
            let v = Txn.read txn r in
            Txn.write txn r "after";
            v)
      in
      check Alcotest.string "read the pre-outage value" "before" v;
      check Alcotest.bool "write commit carries a stamp" true (stamp <> None);
      check Alcotest.bool "retried through the outage" true (!attempts > 1);
      check Alcotest.bool "waited for the recovery" true (Sim.now () >= 0.05))

let () =
  Alcotest.run "dyntxn"
    [
      ( "objref",
        [
          Alcotest.test_case "slot roundtrip" `Quick test_objref_slot_roundtrip;
          Alcotest.test_case "capacity" `Quick test_objref_capacity;
          Alcotest.test_case "zero slot seq" `Quick test_objref_zero_slot_seq;
        ] );
      ( "objcache",
        [
          Alcotest.test_case "basic" `Quick test_cache_basic;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "clear" `Quick test_cache_clear;
          Alcotest.test_case "epoch staleness" `Quick test_cache_epoch_staleness;
        ] );
      ( "txn",
        [
          Alcotest.test_case "write then read back" `Quick test_txn_write_then_read_back;
          Alcotest.test_case "read-only free commit" `Quick test_txn_read_only_free_commit;
          Alcotest.test_case "occ conflict" `Quick test_txn_occ_conflict;
          Alcotest.test_case "dirty read not validated" `Quick test_txn_dirty_read_not_validated;
          Alcotest.test_case "dirty read promoted on write" `Quick
            test_txn_dirty_read_promoted_on_write;
          Alcotest.test_case "piggyback aborts stale read set" `Quick
            test_txn_piggyback_aborts_stale_read_set;
          Alcotest.test_case "multi-node commit" `Quick test_txn_multi_node_commit;
          Alcotest.test_case "multi-node read validation" `Quick
            test_txn_multi_node_read_validated_commit;
          Alcotest.test_case "explicit abort" `Quick test_txn_abort_explicit;
          Alcotest.test_case "payload capacity" `Quick test_txn_payload_capacity_checked;
          Alcotest.test_case "concurrent increments" `Quick test_txn_concurrent_increments;
        ] );
      ( "cache-interaction",
        [
          Alcotest.test_case "dirty read uses cache" `Quick test_txn_dirty_read_uses_cache;
          Alcotest.test_case "stale cache detected" `Quick test_txn_stale_cache_detected_on_write;
          Alcotest.test_case "evict dirty" `Quick test_txn_evict_dirty;
          Alcotest.test_case "commit refreshes cache" `Quick
            test_txn_commit_refreshes_cached_objects;
          Alcotest.test_case "blind write counts no lookup" `Quick
            test_txn_blind_write_commit_counts_no_lookup;
          Alcotest.test_case "read_many single round trip" `Quick
            test_txn_read_many_single_round_trip;
          Alcotest.test_case "read_many validates read set" `Quick
            test_txn_read_many_validates_read_set;
          Alcotest.test_case "dirty batch reads per memnode" `Quick
            test_txn_dirty_batch_per_memnode;
          Alcotest.test_case "dirty batch with a crashed memnode" `Quick
            (dirty_batch_outage ~fault:crash_with_backup ~msg:"memnode unavailable");
          Alcotest.test_case "dirty batch with a partitioned memnode" `Quick
            (dirty_batch_outage ~fault:partition ~msg:"memnode partitioned");
          Alcotest.test_case "2PC outcomes leave no lock or pin" `Quick test_2pc_leaves_no_residue;
          Alcotest.test_case "negative entries not cached" `Quick
            test_txn_negative_entries_not_cached;
          Alcotest.test_case "evict_dirty drops negative read" `Quick
            test_txn_evict_dirty_drops_negative_read;
          Alcotest.test_case "epoch revalidation after crash" `Quick
            test_txn_cache_epoch_revalidation_after_crash;
        ] );
      ( "baseline-primitives",
        [
          Alcotest.test_case "write_linked echoes seq" `Quick test_write_linked_echoes_seq;
          Alcotest.test_case "validate_replicated staleness" `Quick
            test_validate_replicated_catches_stale;
          Alcotest.test_case "read_with_seq" `Quick test_read_with_seq;
          Alcotest.test_case "validate_replicated failure evicts" `Quick
            test_validate_replicated_failure_evicts_object;
        ] );
      ( "retry-loop",
        [
          Alcotest.test_case "blocking gives up after 64 attempts" `Quick test_run_blocking_budget;
          Alcotest.test_case "non-blocking backs off" `Quick test_run_nonblocking_backs_off;
          Alcotest.test_case "outage waits for recovery" `Quick test_run_outage_waits_for_recovery;
          Alcotest.test_case "lock-busy abort keeps the cache" `Quick test_run_lock_busy_keeps_cache;
        ] );
      ( "replicated",
        [
          Alcotest.test_case "write updates all replicas" `Quick test_replicated_write_updates_all;
          Alcotest.test_case "read validates" `Quick test_replicated_read_validates;
          Alcotest.test_case "dirty read" `Quick test_replicated_dirty_read;
          Alcotest.test_case "blocking commit" `Quick test_replicated_blocking_commit;
          Alcotest.test_case "cached then validated" `Quick test_replicated_cached_then_validated;
        ] );
    ]
