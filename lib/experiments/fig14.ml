(* Figure 14: time series of update throughput around a single snapshot
   creation (100% update workload; the paper issues the snapshot at
   t = 20 s on 25 hosts and plots 1-second buckets).

   Expected shape: a visible dip when the snapshot is created — every
   subsequent update must copy its whole path — recovering to the
   pre-snapshot level once the hot paths have been copied (Sec. 6.3). *)

open Exp_common

let title = "Update throughput around one snapshot creation (time series)"

let choose_hosts params =
  (* The paper uses 25 hosts. *)
  let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> 25 in
  min 25 (last params.hosts)

let compute ?(snapshot_at = 4.0) ?(total = 14.0) params =
  let hosts = choose_hosts params in
  (* The dip's duration is the time to first-touch-copy every hot leaf
     (the paper's 100M-key tree takes 20-30 s at ~200k updates/s). Scale
     the tree so the recovery spans several buckets at our rates: at
     least 150k keys at the fast and full sizes, and a proportionate
     floor (6x) when [--records] asks for a toy tree. *)
  let records = max params.records (min 150_000 (6 * params.records)) in
  in_sim ~seed:params.seed (fun () ->
      let d = deploy ~hosts () in
      preload d ~records;
      let start = Sim.now () in
      (* Fire a single snapshot request mid-run. *)
      Sim.spawn (fun () ->
          Sim.delay snapshot_at;
          let s = d.sessions.(0) in
          ignore (Minuet.Session.snapshot s : Minuet.Session.snapshot));
      let workload_of _ =
        Ycsb.Workload.create ~record_count:records ~mix:Ycsb.Workload.update_only ()
      in
      let result =
        Ycsb.Driver.run ~seed:params.seed
          ~clients:(params.clients_per_host * hosts)
          ~duration:total ~workload_of ~exec:(minuet_exec d) ()
      in
      let buckets = Array.to_list result.Ycsb.Driver.series in
      (* Series timestamps are absolute simulation time (the preload
         phase included); rebase onto the measurement start and drop the
         ramp-up and trailing partial buckets. *)
      let buckets =
        List.filteri (fun i _ -> i < List.length buckets - 1) buckets
        |> List.filter_map (fun (t, n) ->
               let rel = t -. Float.of_int (int_of_float start) in
               if rel < 0.0 then None else Some (rel, n))
      in
      buckets
      |> List.map (fun (t, n) ->
             {
               label =
                 [
                   ("hosts", string_of_int hosts);
                   ("t", Printf.sprintf "%.0f" t);
                   ("snapshot_at", Printf.sprintf "%.0f" snapshot_at);
                 ];
               metrics = [ ("tput_ops_s", float_of_int n) ];
             }))
