(* Figure 15: borrowed snapshots. 15 YCSB clients, 3 running a 100%
   scan workload and 12 a 100% update workload; scan throughput as a
   function of scan size, with snapshot borrowing enabled vs disabled.

   Expected shape: with short scans the snapshot creation rate is the
   bottleneck and borrowing wins by an order of magnitude; with long
   scans the scan itself dominates and the two modes converge
   (Sec. 6.3). *)

open Exp_common

let title = "Borrowed snapshots: scan throughput vs scan size"

(* The paper partitions 15 YCSB client processes 3:12; each process
   drives many threads. *)
let scan_clients params = 3 * params.clients_per_host

let update_clients params = 12 * params.clients_per_host

let default_sizes params =
  [ params.scan_count / 10; params.scan_count; params.scan_count * 10 ]
  |> List.filter (fun s -> s > 0)

let measure ~params ~hosts ~scan_size ~borrowing =
  in_sim ~seed:params.seed (fun () ->
      let d = deploy ~hosts ~borrowing () in
      preload d ~records:params.records;
      let workload_of i =
        if i < scan_clients params then
          Ycsb.Workload.create ~record_count:params.records ~scan_length:scan_size
            ~mix:Ycsb.Workload.scan_only ()
        else Ycsb.Workload.create ~record_count:params.records ~mix:Ycsb.Workload.update_only ()
      in
      let result =
        closed_loop params
          ~clients:(scan_clients params + update_clients params)
          ~workload_of ~exec:(minuet_exec d)
      in
      let scans = Sim.Stats.Hist.count (Ycsb.Driver.kind_latency result "scan") in
      let scs = Obs.scs (Minuet.Db.obs d.db) in
      let count c = float_of_int (Obs.Counter.value c) in
      {
        label =
          [
            ("hosts", string_of_int hosts);
            ("scan_size", string_of_int scan_size);
            ("borrowing", if borrowing then "on" else "off");
          ];
        metrics =
          [
            ("scan_tput_s", float_of_int scans /. result.Ycsb.Driver.measured_seconds);
            ("snapshots_created", count scs.Obs.scs_created);
            ("borrows", count scs.Obs.scs_borrowed);
          ];
      })

let compute params =
  let hosts = min 15 (List.fold_left max 1 params.hosts) in
  List.concat_map
    (fun scan_size ->
      [
        measure ~params ~hosts ~scan_size ~borrowing:true;
        measure ~params ~hosts ~scan_size ~borrowing:false;
      ])
    (default_sizes params)
