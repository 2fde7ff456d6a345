(* Ablations of Minuet's design choices (not a paper figure; DESIGN.md
   calls these out). Each variant runs the same mixed workload and
   reports throughput and latency against the default configuration:

   - no-replication:   synchronous primary-backup off (paper Sec. 6.1
                       runs with it on).
   - no-proxy-cache:   internal nodes are fetched from memnodes every
                       time (kills the "traverse in cache" fast path of
                       Sec. 2.3).
   - alloc-chunk-1:    proxies reserve one slot at a time, so every
                       allocation is a CAS transaction on the memnode's
                       allocation pointer.
   - zipfian-keys:     skewed request distribution (the paper notes
                       skew re-introduces contention, Sec. 6.2).
   - hotspot-keys:     80% of operations on the first 5% of the key
                       space — one contiguous key range, so a handful
                       of leaves (and the memnodes holding them) absorb
                       most of the load.
   - no-backoff:       retry immediately on busy locks. *)

open Exp_common

let figure = "ablate"

let title = "Design-choice ablations (50/50 read-update mix)"

type variant = {
  name : string;
  replication : bool;
  cache_capacity : int;
  alloc_chunk : int;
  distribution : [ `Uniform | `Zipfian | `Latest | `Hotspot of float * float ];
  retry_backoff : float;
}

let default_variant =
  {
    name = "default";
    replication = true;
    cache_capacity = 65536;
    alloc_chunk = 64;
    distribution = `Uniform;
    retry_backoff = Sinfonia.Config.default.Sinfonia.Config.retry_backoff;
  }

let variants =
  [
    default_variant;
    { default_variant with name = "no-replication"; replication = false };
    { default_variant with name = "no-proxy-cache"; cache_capacity = 1 };
    { default_variant with name = "alloc-chunk-1"; alloc_chunk = 1 };
    { default_variant with name = "zipfian-keys"; distribution = `Zipfian };
    { default_variant with name = "hotspot-keys"; distribution = `Hotspot (0.8, 0.05) };
    { default_variant with name = "no-backoff"; retry_backoff = 1e-9 };
  ]

let measure ~params ~hosts variant =
  in_sim ~seed:params.seed (fun () ->
      let d =
        deploy ~replication:variant.replication ~cache_capacity:variant.cache_capacity
          ~alloc_chunk:variant.alloc_chunk ~retry_backoff:variant.retry_backoff ~hosts ()
      in
      preload d ~records:params.records;
      let shared =
        Ycsb.Workload.create ~distribution:variant.distribution ~record_count:params.records
          ~mix:Ycsb.Workload.update_heavy ()
      in
      let result =
        Ycsb.Driver.run ~seed:params.seed ~warmup:params.warmup
          ~clients:(params.clients_per_host * hosts)
          ~duration:(params.warmup +. params.duration)
          ~workload_of:(fun _ -> shared)
          ~exec:(fun ~client op -> minuet_exec d ~client op)
          ()
      in
      let lat = Ycsb.Driver.overall_latency result in
      let obs = Minuet.Db.obs d.db in
      let count c = float_of_int (Obs.Counter.value c) in
      {
        label = [ ("hosts", string_of_int hosts); ("variant", variant.name) ];
        metrics =
          [
            ("tput_ops_s", result.Ycsb.Driver.throughput);
            ("mean_ms", ms (Sim.Stats.Hist.mean lat));
            ("p95_ms", ms (Sim.Stats.Hist.quantile lat 0.95));
            ("busy_retries", count (Obs.mtx obs).Obs.busy_retries);
            ("validation_failures", count (Obs.txn obs).Obs.validation_failures);
          ];
      })

let compute params =
  let hosts = min 15 (List.fold_left max 1 params.hosts) in
  List.map (fun v -> measure ~params ~hosts v) variants

let run ?(params = fast) () =
  print_header figure title;
  let rows = compute params in
  List.iter (print_row ~figure) rows;
  rows
