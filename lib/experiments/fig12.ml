(* Figure 12: peak throughput scalability for single-key transactions
   (100% read / update / insert), Minuet vs CDB, 5-35 hosts.

   Expected shape: both systems scale near-linearly; Minuet reads are up
   to ~50% faster than its writes, CDB's read/write gap is <10%
   (Sec. 6.2). *)

open Exp_common

let title = "Single-key throughput scalability, Minuet vs CDB"

let mixes =
  [
    ("read", Ycsb.Workload.read_only);
    ("update", Ycsb.Workload.update_only);
    ("insert", Ycsb.Workload.insert_only);
  ]

let measure ~params ~hosts ~mix_name ~mix ~system =
  in_sim ~seed:params.seed (fun () ->
      let exec =
        match system with
        | `Minuet ->
            let d = deploy ~hosts () in
            preload d ~records:params.records;
            minuet_exec d
        | `Cdb ->
            let cdb = Cdb.create ~hosts in
            preload_cdb cdb ~records:params.records;
            cdb_exec cdb
      in
      let shared = Ycsb.Workload.create ~record_count:params.records ~mix () in
      let clients =
        params.clients_per_host * hosts
        * (match system with `Minuet -> 1 | `Cdb -> cdb_client_factor)
      in
      let result = closed_loop params ~clients ~workload_of:(fun _ -> shared) ~exec in
      let lat = Ycsb.Driver.overall_latency result in
      {
        label =
          [
            ("system", match system with `Minuet -> "minuet" | `Cdb -> "cdb");
            ("op", mix_name);
            ("hosts", string_of_int hosts);
          ];
        metrics =
          [
            ("tput_ops_s", result.Ycsb.Driver.throughput);
            ("mean_ms", ms (Sim.Stats.Hist.mean lat));
          ];
      })

let compute params =
  List.concat_map
    (fun hosts ->
      List.concat_map
        (fun (mix_name, mix) ->
          [
            measure ~params ~hosts ~mix_name ~mix ~system:`Minuet;
            measure ~params ~hosts ~mix_name ~mix ~system:`Cdb;
          ])
        mixes)
    params.hosts
