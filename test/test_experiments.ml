(* Shape tests for the experiment harness: each figure's qualitative
   claim from the paper must hold even at tiny test parameters. These
   are the repository's regression net for the cost model. *)

let check = Alcotest.check

module P = Experiments.Exp_common

(* Tiny but not degenerate: enough records that leaves outnumber
   clients, enough time that warmup effects wash out. *)
let tiny =
  {
    P.hosts = [ 4; 12 ];
    records = 12_000;
    duration = 0.6;
    warmup = 0.2;
    clients_per_host = 4;
    scan_count = 300;
    seed = 0x7E57;
  }

let find rows label_matches =
  match
    List.find_opt
      (fun (r : P.row) -> List.for_all (fun kv -> List.mem kv r.P.label) label_matches)
      rows
  with
  | Some r -> r
  | None ->
      Alcotest.failf "row not found: %s"
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) label_matches))

let metric rows label_matches name = P.row_value (find rows label_matches) name

let test_fig10_dirty_beats_baseline () =
  let rows = Experiments.Fig10.compute tiny in
  List.iter
    (fun hosts ->
      let h = string_of_int hosts in
      let dirty = metric rows [ ("hosts", h); ("mode", "dirty") ] "tput_ops_s" in
      let baseline = metric rows [ ("hosts", h); ("mode", "baseline") ] "tput_ops_s" in
      check Alcotest.bool
        (Printf.sprintf "dirty >= baseline at %d hosts" hosts)
        true (dirty >= baseline))
    tiny.P.hosts;
  (* The gap grows with scale (the paper's headline for Fig. 10). *)
  let ratio hosts =
    let h = string_of_int hosts in
    metric rows [ ("hosts", h); ("mode", "dirty") ] "tput_ops_s"
    /. metric rows [ ("hosts", h); ("mode", "baseline") ] "tput_ops_s"
  in
  check Alcotest.bool "gap grows with scale" true (ratio 12 > ratio 4)

let test_fig12_shapes () =
  let rows = Experiments.Fig12.compute tiny in
  (* Minuet scales: read throughput grows with hosts. *)
  let m op hosts name = metric rows [ ("system", "minuet"); ("op", op); ("hosts", string_of_int hosts) ] name in
  let c op hosts name = metric rows [ ("system", "cdb"); ("op", op); ("hosts", string_of_int hosts) ] name in
  check Alcotest.bool "minuet reads scale" true (m "read" 12 "tput_ops_s" > 2.0 *. m "read" 4 "tput_ops_s");
  check Alcotest.bool "cdb reads scale" true (c "read" 12 "tput_ops_s" > 2.0 *. c "read" 4 "tput_ops_s");
  (* Latency: Minuet is several times lower than CDB for every op. *)
  List.iter
    (fun op ->
      check Alcotest.bool (op ^ " latency gap") true
        (c op 12 "mean_ms" > 4.0 *. m op 12 "mean_ms"))
    [ "read"; "update"; "insert" ];
  (* Minuet reads are faster than its writes. *)
  check Alcotest.bool "reads faster than writes" true
    (m "read" 12 "tput_ops_s" > m "update" 12 "tput_ops_s")

let test_fig13_cdb_collapses () =
  let rows = Experiments.Fig13.compute tiny in
  let m hosts = metric rows [ ("system", "minuet"); ("op", "read2"); ("hosts", string_of_int hosts) ] "tput_tx_s" in
  let c hosts = metric rows [ ("system", "cdb"); ("op", "read2"); ("hosts", string_of_int hosts) ] "tput_tx_s" in
  check Alcotest.bool "minuet dual-key scales" true (m 12 > 1.5 *. m 4);
  check Alcotest.bool "cdb does not scale" true (c 12 < 1.2 *. c 4);
  check Alcotest.bool "minuet >> cdb" true (m 12 > 5.0 *. c 12)

let test_fig15_borrowing_helps_short_scans () =
  let rows = Experiments.Fig15.compute tiny in
  let smallest = string_of_int (tiny.P.scan_count / 10) in
  let on = metric rows [ ("scan_size", smallest); ("borrowing", "on") ] "scan_tput_s" in
  let off = metric rows [ ("scan_size", smallest); ("borrowing", "off") ] "scan_tput_s" in
  check Alcotest.bool "borrowing wins on short scans" true (on > 1.3 *. off);
  let borrows = metric rows [ ("scan_size", smallest); ("borrowing", "on") ] "borrows" in
  check Alcotest.bool "borrows happened" true (borrows > 0.0)

let test_fig17_k_ordering () =
  let params = { tiny with P.hosts = [ 8 ] } in
  let rows = Experiments.Fig17.compute params in
  let t k = metric rows [ ("hosts", "8"); ("k", k) ] "update_tput_s" in
  check Alcotest.bool "k=0 is the worst" true (t "0" < t "5" && t "0" < t "30");
  check Alcotest.bool "no scans is the best" true (t "none" >= t "60" && t "none" >= t "30");
  check Alcotest.bool "k=0 below half of no-scan" true (t "0" < 0.5 *. t "none")

let test_fig18_k_tradeoff () =
  (* Small k makes updates pay for frequent snapshot creation (the
     copy-on-write churn after each one) and makes scans wait for fresh
     snapshots; the largest k relieves both. *)
  let rows = Experiments.Fig18.compute tiny in
  let k0 = find rows [ ("k", "0") ] and k60 = find rows [ ("k", "60") ] in
  check Alcotest.bool "update latency at the largest k below a quarter of k=0's" true
    (P.row_value k60 "update_mean_ms" < 0.25 *. P.row_value k0 "update_mean_ms");
  List.iter
    (fun (r : P.row) ->
      if not (List.mem ("k", "0") r.P.label) then
        check Alcotest.bool
          ("k=0 scan latency above "
          ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.P.label))
          true
          (P.row_value k0 "scan_mean_ms" > P.row_value r "scan_mean_ms"))
    rows

let test_fig16_scans_scale () =
  let rows = Experiments.Fig16.compute tiny in
  let s hosts = metric rows [ ("hosts", string_of_int hosts) ] "scan_keys_s" in
  check Alcotest.bool "scan keys/s scale" true (s 12 > 1.8 *. s 4)

let test_ablation_proxy_cache_pays () =
  (* The no-proxy-cache variant (capacity 1, the only run that evicts
     from the proxy cache) fetches every internal node from the
     memnodes: slower and higher latency than the default. *)
  let module A = Experiments.Ablations in
  let measure name =
    A.measure ~params:tiny ~hosts:4 (List.find (fun v -> String.equal v.A.name name) A.variants)
  in
  let default = measure "default" and uncached = measure "no-proxy-cache" in
  check Alcotest.bool "cache-less throughput well below default" true
    (P.row_value uncached "tput_ops_s" < 0.75 *. P.row_value default "tput_ops_s");
  check Alcotest.bool "cache-less latency above default" true
    (P.row_value uncached "mean_ms" > P.row_value default "mean_ms")

let test_fig11_cdb_latency_gap () =
  (* One point of Fig. 11: at the same offered load CDB's synchronous
     client path keeps its read latency several times Minuet's. *)
  let point system =
    Experiments.Fig11.measure ~params:tiny ~hosts:4 ~mix_name:"read" ~mix:Ycsb.Workload.read_only
      ~clients:8 ~system
  in
  let minuet = point `Minuet and cdb = point `Cdb in
  check Alcotest.bool "cdb read latency several times minuet's" true
    (P.row_value cdb "mean_ms" > 4.0 *. P.row_value minuet "mean_ms")

let test_fig14_dip_and_recovery () =
  (* Use a smaller tree than the defaults so the test stays fast, but
     still big enough to see the dip. *)
  let params = { tiny with P.hosts = [ 6 ]; records = 30_000; clients_per_host = 5 } in
  let rows = Experiments.Fig14.compute ~snapshot_at:3.0 ~total:10.0 params in
  let tput t = P.row_value (find rows [ ("t", string_of_int t) ]) "tput_ops_s" in
  (* Steady state before the snapshot (skip warm-up buckets). *)
  let before = tput 2 in
  let dip = Float.min (tput 3) (tput 4) in
  let after = tput 8 in
  check Alcotest.bool "visible dip" true (dip < 0.9 *. before);
  check Alcotest.bool "recovery" true (after > 0.95 *. before)

let () =
  Alcotest.run "experiments"
    [
      ( "shapes",
        [
          Alcotest.test_case "fig10 dirty beats baseline" `Slow test_fig10_dirty_beats_baseline;
          Alcotest.test_case "fig12 minuet vs cdb" `Slow test_fig12_shapes;
          Alcotest.test_case "fig13 cdb collapses" `Slow test_fig13_cdb_collapses;
          Alcotest.test_case "fig14 dip and recovery" `Slow test_fig14_dip_and_recovery;
          Alcotest.test_case "fig15 borrowing" `Slow test_fig15_borrowing_helps_short_scans;
          Alcotest.test_case "fig16 scan scaling" `Slow test_fig16_scans_scale;
          Alcotest.test_case "fig17 k ordering" `Slow test_fig17_k_ordering;
          Alcotest.test_case "fig18 k trade-off" `Slow test_fig18_k_tradeoff;
          Alcotest.test_case "fig11 cdb latency gap" `Slow test_fig11_cdb_latency_gap;
          Alcotest.test_case "ablation proxy cache pays" `Slow test_ablation_proxy_cache_pays;
        ] );
    ]
