(* Figure 18: average scan latency as a function of the staleness bound
   k, with the 100% update workload of Fig. 17 running concurrently.
   The text also reports the corresponding update latency curve
   (~16 ms at k=0 falling toward ~2 ms at k=60) and notes scan latency
   with concurrent updates stays within 1.4x of the no-update case.

   Expected shape: a shallow curve — small k means many scans pay for
   snapshot creation; large k means updates run faster and compete for
   memnode CPU. *)

open Exp_common

let title = "Scan latency vs staleness bound k (with concurrent updates)"

(* The paper's k in seconds of a 60 s run, scaled to [params.duration]. *)
let scaled_k params k = k *. params.duration /. 60.0

let k_sweep params =
  List.map (fun k -> (Printf.sprintf "%g" k, scaled_k params k)) [ 0.0; 5.0; 15.0; 30.0; 60.0 ]

let measure ~params ~hosts ~label ~k ~with_updates =
  in_sim ~seed:params.seed (fun () ->
      let d = deploy ~hosts ~k () in
      preload d ~records:params.records;
      let updaters = if with_updates then params.clients_per_host * hosts else 0 in
      let clients = updaters + 1 in
      let workload_of i =
        if i = updaters then
          Ycsb.Workload.create ~record_count:params.records ~scan_length:params.scan_count
            ~mix:Ycsb.Workload.scan_only ()
        else Ycsb.Workload.create ~record_count:params.records ~mix:Ycsb.Workload.update_only ()
      in
      let result = closed_loop params ~clients ~workload_of ~exec:(minuet_exec d) in
      let scan_hist = Ycsb.Driver.kind_latency result "scan" in
      let update_hist = Ycsb.Driver.kind_latency result "update" in
      {
        label =
          [
            ("hosts", string_of_int hosts);
            ("k", label);
            ("updates", if with_updates then "on" else "off");
          ];
        metrics =
          [
            ("scan_mean_ms", ms (Sim.Stats.Hist.mean scan_hist));
            ("scan_p95_ms", ms (Sim.Stats.Hist.quantile scan_hist 0.95));
            ("update_mean_ms", ms (Sim.Stats.Hist.mean update_hist));
            ("scans", float_of_int (Sim.Stats.Hist.count scan_hist));
          ];
      })

let compute params =
  let hosts = min 15 (List.fold_left max 1 params.hosts) in
  (* Reference point: scan latency without any updates, at the k=30
     sweep value. *)
  let baseline =
    measure ~params ~hosts ~label:"30(idle)" ~k:(scaled_k params 30.0) ~with_updates:false
  in
  baseline
  :: List.map (fun (label, k) -> measure ~params ~hosts ~label ~k ~with_updates:true)
       (k_sweep params)
