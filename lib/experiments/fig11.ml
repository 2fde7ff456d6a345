(* Figure 11: latency-throughput trade-off of Minuet and CDB for reads,
   updates and inserts, varying offered load (closed-loop client count)
   on a fixed-size cluster.

   Expected shape: Minuet latency stays flat (sub-millisecond) until
   ~90% of peak throughput; CDB latency is roughly an order of magnitude
   higher throughout (Sec. 6.2). *)

open Exp_common

let figure = "fig11"

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

let measure_minuet ~params ~hosts ~mix_name ~mix ~clients =
  in_sim ~seed:params.seed (fun () ->
      let d = deploy ~hosts () in
      preload d ~records:params.records;
      let shared = Ycsb.Workload.create ~record_count:params.records ~mix () in
      let workload_of _ = shared in
      let result =
        Ycsb.Driver.run ~seed:params.seed ~warmup:params.warmup ~clients
          ~duration:(params.warmup +. params.duration)
          ~workload_of
          ~exec:(fun ~client op -> minuet_exec d ~client op)
          ()
      in
      let lat = Ycsb.Driver.overall_latency result in
      {
        label =
          [
            ("system", "minuet"); ("op", mix_name); ("hosts", string_of_int hosts);
            ("clients", string_of_int clients);
          ];
        metrics =
          [
            ("tput_ops_s", result.Ycsb.Driver.throughput);
            ("mean_ms", ms (Sim.Stats.Hist.mean lat));
            ("p95_ms", ms (Sim.Stats.Hist.quantile lat 0.95));
          ];
      })

let measure_cdb ~params ~hosts ~mix_name ~mix ~clients =
  in_sim ~seed:params.seed (fun () ->
      let cdb = Cdb.create ~hosts in
      preload_cdb cdb ~records:params.records;
      let shared = Ycsb.Workload.create ~record_count:params.records ~mix () in
      let workload_of _ = shared in
      let result =
        Ycsb.Driver.run ~seed:params.seed ~warmup:params.warmup
          ~clients:(clients * cdb_client_factor)
          ~duration:(params.warmup +. params.duration)
          ~workload_of
          ~exec:(fun ~client op -> cdb_exec cdb ~client op)
          ()
      in
      let lat = Ycsb.Driver.overall_latency result in
      {
        label =
          [
            ("system", "cdb"); ("op", mix_name); ("hosts", string_of_int hosts);
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
            measure_minuet ~params ~hosts ~mix_name ~mix ~clients;
            measure_cdb ~params ~hosts ~mix_name ~mix ~clients;
          ])
        client_sweep)
    mixes

let run ?(params = fast) () =
  print_header figure title;
  let rows = compute params in
  List.iter (print_row ~figure) rows;
  rows
