(* Figure 13: multi-index (dual-key) transaction throughput, Minuet vs
   CDB, 5-35 hosts. Each transaction atomically touches one key in each
   of two independent B-trees / tables.

   Expected shape: Minuet scales near-linearly (a dual-key transaction
   engages at most a few memnodes); CDB collapses below ~1.2k tx/s and
   degrades with scale because every transaction engages every
   partition (Sec. 6.2). *)

open Exp_common

let title = "Dual-key (multi-index) transaction throughput"

(* Second key for a dual operation, derived deterministically from the
   first so that it names a preloaded record of the other table. *)
let second_key ~records k =
  Ycsb.Keygen.hashed_key_of_int (Hashtbl.hash k mod records)

let minuet_dual d ~records ~client op =
  let s = d.sessions.(client mod Array.length d.sessions) in
  match op with
  | Ycsb.Workload.Read k ->
      ignore
        (Minuet.Session.multi_get s [ (0, k); (1, second_key ~records k) ]
          : string option list)
  | Ycsb.Workload.Update (k, v) ->
      Minuet.Session.multi_put s [ (0, k, v); (1, second_key ~records k, v) ]
  | Ycsb.Workload.Insert (k, v) ->
      (* Fresh keys in both trees. *)
      Minuet.Session.multi_put s [ (0, k, v); (1, "x" ^ k, v) ]
  | Ycsb.Workload.Scan _ -> invalid_arg "fig13: no scans"

let cdb_dual cdb ~records op =
  match op with
  | Ycsb.Workload.Read k ->
      ignore (Cdb.multi_read cdb [ k; second_key ~records k ] : string option list)
  | Ycsb.Workload.Update (k, v) -> Cdb.multi_write cdb [ (k, v); (second_key ~records k, v) ]
  | Ycsb.Workload.Insert (k, v) -> Cdb.multi_write cdb [ (k, v); ("x" ^ k, v) ]
  | Ycsb.Workload.Scan _ -> invalid_arg "fig13: no scans"

let mixes =
  [
    ("read2", Ycsb.Workload.read_only);
    ("update2", Ycsb.Workload.update_only);
    ("insert2", Ycsb.Workload.insert_only);
  ]

let measure ~params ~hosts ~mix_name ~mix ~system =
  (* The paper preloads each table with 10M keys — large enough that
     concurrent clients rarely collide on a leaf. Keep the keyspace
     proportionally large relative to the client count. *)
  let records = max params.records (100 * params.clients_per_host * hosts) in
  in_sim ~seed:params.seed (fun () ->
      let exec =
        match system with
        | `Minuet ->
            let d = deploy ~n_trees:2 ~hosts () in
            (* Preload both trees with the same hashed key space. *)
            preload d ~records;
            let s0 = d.sessions.(0) in
            let idx1 = Minuet.Session.index d.db 1 in
            for i = 0 to records - 1 do
              Minuet.Session.put ~index:idx1 s0 (Ycsb.Keygen.hashed_key_of_int i) "init"
            done;
            fun ~client op -> minuet_dual d ~records ~client op
        | `Cdb ->
            let cdb = Cdb.create ~hosts in
            preload_cdb cdb ~records;
            fun ~client:_ op -> cdb_dual cdb ~records op
      in
      let shared = Ycsb.Workload.create ~record_count:records ~mix () in
      let result =
        closed_loop params
          ~clients:(params.clients_per_host * hosts)
          ~workload_of:(fun _ -> shared)
          ~exec
      in
      {
        label =
          [
            ("system", match system with `Minuet -> "minuet" | `Cdb -> "cdb");
            ("op", mix_name);
            ("hosts", string_of_int hosts);
          ];
        metrics =
          [
            ("tput_tx_s", result.Ycsb.Driver.throughput);
            ("mean_ms", ms (Sim.Stats.Hist.mean (Ycsb.Driver.overall_latency result)));
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
