(* Bechamel micro-benchmarks of the core data structures: wall-clock
   costs of the building blocks the simulation runs on. The paper's
   figures, the gated benches and the observability smoke run through
   `bin/minuet_bench` (e.g. `dune exec bin/minuet_bench.exe -- all`). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)
(* ------------------------------------------------------------------ *)

let bench_node_encode =
  let node =
    Btree.Bnode.make_leaf ~low:Btree.Bkey.Neg_inf ~high:Btree.Bkey.Pos_inf ~snap:3L
      (Array.init 64 (fun i -> (Printf.sprintf "u%013d" i, "valuebyte")))
  in
  Test.make ~name:"bnode encode (64-key leaf)" (Staged.stage (fun () -> Btree.Bnode.encode node))

let bench_node_decode =
  let payload =
    Btree.Bnode.encode
      (Btree.Bnode.make_leaf ~low:Btree.Bkey.Neg_inf ~high:Btree.Bkey.Pos_inf ~snap:3L
         (Array.init 64 (fun i -> (Printf.sprintf "u%013d" i, "valuebyte"))))
  in
  Test.make ~name:"bnode decode (64-key leaf)" (Staged.stage (fun () -> Btree.Bnode.decode payload))

let bench_leaf_insert =
  let node =
    Btree.Bnode.make_leaf ~low:Btree.Bkey.Neg_inf ~high:Btree.Bkey.Pos_inf ~snap:0L
      (Array.init 64 (fun i -> (Printf.sprintf "u%013d" (2 * i), "v")))
  in
  Test.make ~name:"bnode leaf_insert"
    (Staged.stage (fun () -> Btree.Bnode.leaf_insert node "u0000000000033" "w"))

let bench_crc32 =
  let payload = String.make 1024 'x' in
  Test.make ~name:"codec crc32 (1KiB)" (Staged.stage (fun () -> Codec.crc32 payload))

let bench_rng =
  let rng = Sim.Rng.create 42 in
  Test.make ~name:"rng bits64" (Staged.stage (fun () -> Sim.Rng.bits64 rng))

let bench_hist =
  let h = Sim.Stats.Hist.create () in
  Test.make ~name:"stats hist add" (Staged.stage (fun () -> Sim.Stats.Hist.add h 0.00042))

let bench_cache =
  let cache = Dyntxn.Objcache.create ~capacity:1024 (Obs.create ()) in
  let refs =
    Array.init 512 (fun i ->
        Dyntxn.Objref.make ~addr:(Sinfonia.Address.make ~node:0 ~off:(i * 1024)) ~len:1024)
  in
  Array.iter
    (fun r -> Dyntxn.Objcache.insert cache r { Dyntxn.Objcache.seq = 1L; payload = "x" })
    refs;
  let i = ref 0 in
  Test.make ~name:"objcache find (hit)"
    (Staged.stage (fun () ->
         i := (!i + 1) land 511;
         Dyntxn.Objcache.find cache refs.(!i)))

let bench_sim_event_queue =
  Test.make ~name:"event queue push+pop (64)"
    (Staged.stage (fun () ->
         let q = Sim.Event_queue.create () in
         for i = 0 to 63 do
           Sim.Event_queue.push q ~time:(float_of_int (i * 7 mod 13)) i
         done;
         let rec drain () = match Sim.Event_queue.pop q with Some _ -> drain () | None -> () in
         drain ()))

let bench_simulated_op =
  (* End-to-end: boot a small simulated cluster and run one put+get
     (includes scheduler, codec, protocol stack). *)
  let counter = ref 0 in
  Test.make ~name:"simulated cluster put+get"
    (Staged.stage (fun () ->
         incr counter;
         let config = Minuet.Config.small_tree { Minuet.Config.default with hosts = 2 } in
         Minuet.Harness.run ~seed:!counter ~config (fun db ->
             let s = Minuet.Session.attach db in
             Minuet.Session.put s "key" "value";
             ignore (Minuet.Session.get s "key" : string option))))

let () =
  print_endline "=== micro-benchmarks (bechamel, wall-clock) ===";
  let tests =
    [
      bench_node_encode;
      bench_node_decode;
      bench_leaf_insert;
      bench_crc32;
      bench_rng;
      bench_hist;
      bench_cache;
      bench_sim_event_queue;
      bench_simulated_op;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-36s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
        results)
    tests
