(* Figure 10: aggregate throughput of the YCSB load phase (uniformly
   random inserts into an initially empty tree), dirty traversals
   enabled vs the baseline of Aguilera et al., for 5-35 hosts.

   Expected shape: dirty traversals scale much better — up to ~2x at 35
   hosts — because baseline splits must update the replicated
   sequence-number table at every memnode and whole-path validation
   aborts more transactions under contention (Sec. 6.2). *)

open Exp_common

let title = "Load throughput: dirty traversals vs baseline (Aguilera et al.)"

let mode_name = function
  | Btree.Ops.Dirty_traversal -> "dirty"
  | Btree.Ops.Validated_traversal -> "baseline"

let point ~params ~hosts ~mode =
  in_sim ~seed:params.seed (fun () ->
      let d = deploy ~mode ~hosts () in
      (* The paper runs the YCSB load phase for a fixed time (60 s) from
         an empty tree; >99% of that time is spent loading an
         already-large tree. At our scaled duration we pre-grow the tree
         (untimed) and measure the steady loading regime: all clients
         insert fresh keys from one shared stream as fast as they can. *)
      preload d ~records:params.records;
      let shared =
        Ycsb.Workload.create ~record_count:params.records ~mix:Ycsb.Workload.insert_only ()
      in
      let result =
        closed_loop params
          ~clients:(params.clients_per_host * hosts)
          ~workload_of:(fun _ -> shared)
          ~exec:(minuet_exec d)
      in
      let lat = Ycsb.Driver.overall_latency result in
      {
        label = [ ("hosts", string_of_int hosts); ("mode", mode_name mode) ];
        metrics =
          [
            ("tput_ops_s", result.Ycsb.Driver.throughput);
            ("mean_ms", ms (Sim.Stats.Hist.mean lat));
            ("p95_ms", ms (Sim.Stats.Hist.quantile lat 0.95));
            ("failures", float_of_int result.Ycsb.Driver.failures);
          ];
      })

let compute params =
  List.concat_map
    (fun hosts ->
      List.map
        (fun mode -> point ~params ~hosts ~mode)
        [ Btree.Ops.Dirty_traversal; Btree.Ops.Validated_traversal ])
    params.hosts
