(* The benchmark harness.

   Part 1 — bechamel micro-benchmarks of the core data structures
   (wall-clock costs of the building blocks the simulation runs on).

   Part 2 — the paper's evaluation: every figure of Sec. 6, reproduced
   at scaled-down "fast" parameters. `bin/minuet_bench` exposes the same
   experiments with full parameter control (including --full). *)

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
  let cache = Dyntxn.Objcache.create ~capacity:1024 () in
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

let run_micro_benchmarks () =
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

(* ------------------------------------------------------------------ *)
(* Streaming serializability checker                                    *)
(* ------------------------------------------------------------------ *)

(* Million-event synthetic histories through Check.Stream (DESIGN.md
   §14): wall-clock throughput and peak live heap, linear and
   branching. The CI-gated variant with heap budget and falsifiability
   injection lives in `minuet-bench checker`. *)
let run_checker_bench () =
  print_endline "\n=== streaming serializability checker (Check.Stream) ===";
  List.iter
    (fun branching ->
      let cfg = { Chaos.Histgen.default with Chaos.Histgen.branching } in
      let stream = Check.Stream.create Check.Stream.Config.default in
      let peak = ref 0 in
      let fed = ref 0 in
      let elapsed_ms = Obs.Bench.stopwatch () in
      let gen =
        Chaos.Histgen.generate
          ~on_creation:(fun ~index ~sid ~stamp ->
            Check.Stream.add_creation stream ~index ~sid ~stamp)
          cfg
          (fun ev ->
            Check.Stream.feed stream ev;
            incr fed;
            if !fed mod 100_000 = 0 then begin
              Gc.full_major ();
              peak := max !peak (Gc.stat ()).Gc.live_words
            end)
      in
      let verdict = Check.Stream.finish ~final:gen.Chaos.Histgen.gen_final stream in
      let dt = elapsed_ms () /. 1e3 in
      if not (Check.Stream.ok verdict) then
        failwith "clean synthetic history failed the streaming checker";
      Printf.printf "%-10s %7d events in %5.2fs  %8.0f ops/sec  peak live %9d words\n%!"
        (if branching then "branching" else "linear")
        !fed dt
        (float_of_int !fed /. dt)
        !peak)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* The paper's figures                                                  *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  print_endline "\n=== paper experiments (simulated cluster, fast parameters) ===";
  print_endline
    "(regenerate any figure with full control: dune exec bin/minuet_bench.exe -- <figN> --help)";
  let params = Experiments.Exp_common.fast in
  List.iter
    (fun ((name, _, run) :
           string
           * string
           * (?params:Experiments.Exp_common.params -> unit -> Experiments.Exp_common.row list)) ->
      (* Host-side progress timing for the operator, outside any
         simulation; nothing seeded depends on it. *)
      let elapsed_ms = Obs.Bench.stopwatch () in
      let (_ : Experiments.Exp_common.row list) = run ~params () in
      Printf.printf "[%s done in %.0fs]\n%!" name (elapsed_ms () /. 1e3))
    Experiments.all

let () =
  let micro_only = Array.exists (( = ) "--micro-only") Sys.argv in
  let figures_only = Array.exists (( = ) "--figures-only") Sys.argv in
  if not figures_only then run_micro_benchmarks ();
  if not figures_only then run_checker_bench ();
  if not micro_only then run_figures ();
  (* End-to-end observability report: latency quantiles per operation
     and the abort taxonomy, as machine-readable JSON. *)
  print_newline ();
  Experiments.Exp_common.run_observed ~name:"main" ()
