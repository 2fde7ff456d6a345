(* Figure 17: impact of long-running scans on update throughput for
   several snapshot staleness bounds k, vs cluster size. A 100% update
   workload runs alongside one dedicated scan client; k controls how
   often scans force a fresh snapshot (k = 0: one snapshot per scan,
   strictly serializable).

   Expected shape: the no-scans line on top; large k costs 30-50%; as k
   shrinks snapshot creation (and the copy-on-write churn it induces)
   eats throughput, with k = 0 below 10% of the no-scan line
   (Sec. 6.3). *)

open Exp_common

let title = "Update throughput with concurrent scans, for staleness bounds k"

(* Paper k values 0/5/30/60 against 60 s runs, rescaled to the measured
   duration. *)
let k_values params =
  let scale = params.duration /. 60.0 in
  [ ("none", None); ("0", Some 0.0); ("5", Some (5.0 *. scale)); ("30", Some (30.0 *. scale));
    ("60", Some (60.0 *. scale)) ]

let measure ~params ~hosts ~label ~k =
  in_sim ~seed:params.seed (fun () ->
      let d = deploy ~hosts ?k () in
      preload d ~records:params.records;
      let updaters = params.clients_per_host * hosts in
      let clients = match k with None -> updaters | Some _ -> updaters + 1 in
      let workload_of i =
        if i = updaters then
          (* The dedicated scan client (present unless k = none). *)
          Ycsb.Workload.create ~record_count:params.records ~scan_length:params.scan_count
            ~mix:Ycsb.Workload.scan_only ()
        else Ycsb.Workload.create ~record_count:params.records ~mix:Ycsb.Workload.update_only ()
      in
      let result = closed_loop params ~clients ~workload_of ~exec:(minuet_exec d) in
      let update_hist = Ycsb.Driver.kind_latency result "update" in
      let updates = Sim.Stats.Hist.count update_hist in
      {
        label = [ ("hosts", string_of_int hosts); ("k", label) ];
        metrics =
          [
            ( "update_tput_s",
              float_of_int updates /. result.Ycsb.Driver.measured_seconds );
            ("update_mean_ms", ms (Sim.Stats.Hist.mean update_hist));
          ];
      })

let compute params =
  List.concat_map
    (fun hosts ->
      List.map (fun (label, k) -> measure ~params ~hosts ~label ~k) (k_values params))
    params.hosts
