(* Figure 16: scalability of long scans. 80% of clients run updates,
   20% run long snapshot scans; the snapshot staleness bound k is large
   enough (paper: 30 s) that snapshot creation is not a bottleneck.
   Reported metric: scan throughput in keys/s vs cluster size.

   Expected shape: near-perfectly linear scaling (Sec. 6.3). *)

open Exp_common

let title = "Scan scalability (keys/s), 80% update / 20% scan clients"

(* The paper's k = 30 s against 60 s runs; keep the same ratio. *)
let k_for params = Float.max 0.5 (params.duration /. 2.0)

let measure ~params ~hosts =
  in_sim ~seed:params.seed (fun () ->
      let d = deploy ~hosts ~k:(k_for params) () in
      preload d ~records:params.records;
      let clients = params.clients_per_host * hosts in
      let scanners = max 1 (clients / 5) in
      let workload_of i =
        if i < scanners then
          Ycsb.Workload.create ~record_count:params.records ~scan_length:params.scan_count
            ~mix:Ycsb.Workload.scan_only ()
        else Ycsb.Workload.create ~record_count:params.records ~mix:Ycsb.Workload.update_only ()
      in
      let result = closed_loop params ~clients ~workload_of ~exec:(minuet_exec d) in
      let scan_hist = Ycsb.Driver.kind_latency result "scan" in
      let scans = Sim.Stats.Hist.count scan_hist in
      let keys_per_s =
        float_of_int (scans * params.scan_count) /. result.Ycsb.Driver.measured_seconds
      in
      {
        label = [ ("hosts", string_of_int hosts) ];
        metrics =
          [
            ("scan_keys_s", keys_per_s);
            ("scans", float_of_int scans);
            ("scan_mean_ms", ms (Sim.Stats.Hist.mean scan_hist));
          ];
      })

let compute params = List.map (fun hosts -> measure ~params ~hosts) params.hosts
