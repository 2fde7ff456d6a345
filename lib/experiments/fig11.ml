(* Figure 11: latency-throughput trade-off of Minuet and CDB for reads,
   updates and inserts, varying offered load (closed-loop client count)
   on a fixed-size cluster.

   Expected shape: Minuet latency stays flat (sub-millisecond) until
   ~90% of peak throughput; CDB latency is roughly an order of magnitude
   higher throughout (Sec. 6.2). *)

open Exp_common

let title = "Latency vs throughput, Minuet and CDB (fixed cluster)"

let default_hosts params =
  (* The paper uses 10-15 hosts for this figure. *)
  let rec mid = function
    | [ x ] -> x
    | _ :: ([ _ ] as tl) -> List.hd tl
    | _ :: tl -> mid tl
    | [] -> 15
  in
  min 15 (mid params.hosts)

let mixes = [ ("read", Ycsb.Workload.read_only); ("update", Ycsb.Workload.update_only);
              ("insert", Ycsb.Workload.insert_only) ]

let client_sweep = [ 2; 8; 24; 64; 128 ]

let measure ~params ~hosts ~mix_name ~mix ~clients ~system =
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
      let result =
        closed_loop params
          ~clients:(clients * match system with `Minuet -> 1 | `Cdb -> cdb_client_factor)
          ~workload_of:(fun _ -> shared)
          ~exec
      in
      let lat = Ycsb.Driver.overall_latency result in
      {
        label =
          [
            ("system", match system with `Minuet -> "minuet" | `Cdb -> "cdb");
            ("op", mix_name);
            ("hosts", string_of_int hosts);
            ("clients", string_of_int clients);
          ];
        metrics =
          [
            ("tput_ops_s", result.Ycsb.Driver.throughput);
            ("mean_ms", ms (Sim.Stats.Hist.mean lat));
            ("p95_ms", ms (Sim.Stats.Hist.quantile lat 0.95));
          ];
      })

let compute params =
  let hosts = default_hosts params in
  List.concat_map
    (fun (mix_name, mix) ->
      List.concat_map
        (fun clients ->
          [
            measure ~params ~hosts ~mix_name ~mix ~clients ~system:`Minuet;
            measure ~params ~hosts ~mix_name ~mix ~clients ~system:`Cdb;
          ])
        client_sweep)
    mixes
