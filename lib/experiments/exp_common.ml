module W = Ycsb.Workload

type params = {
  hosts : int list;
  records : int;
  duration : float;
  warmup : float;
  clients_per_host : int;
  scan_count : int;
  seed : int;
}

let fast =
  {
    hosts = [ 5; 15; 25; 35 ];
    records = 25_000;
    duration = 0.8;
    warmup = 0.2;
    clients_per_host = 6;
    scan_count = 1_000;
    seed = 0xF16;
  }

let full =
  {
    hosts = [ 5; 10; 15; 20; 25; 30; 35 ];
    records = 200_000;
    duration = 5.0;
    warmup = 1.0;
    clients_per_host = 8;
    scan_count = 10_000;
    seed = 0xF16;
  }

(* Cost model calibrated so per-host operation rates land in the tens of
   thousands per second (the paper's regime) and idle read latency is a
   few hundred microseconds. *)
let experiment_sinfonia =
  {
    Sinfonia.Config.default with
    Sinfonia.Config.svc_msg = 8e-6;
    svc_item = 1e-6;
    svc_per_kb = 12e-6;
  }

type deployment = {
  db : Minuet.Db.t;
  sessions : Minuet.Session.t array;
  proxies : Sim.Resource.t array;
      (* Proxy CPU, three cores per host (Fig. 9): charged per operation
         by the executors so that proxy-side work bounds throughput the
         way it does on the paper's testbed. *)
}

let experiment_layout =
  (* 4 KiB nodes as in the paper (Sec. 6.1): with 14-byte keys this
     gives a fanout near 100, which sets how rarely splits propagate to
     upper levels — the baseline mode's Achilles heel (root updates
     engage every memnode). Heaps are paged and sparse, so the large
     reserved regions (catalog, baseline seqnum table) cost memory only
     when actually written. *)
  Btree.Layout.make ~node_size:4096 ~max_slots:262144 ~max_trees:4 ~max_snapshots:16384
    ~max_memnodes:64 ()

let deploy ?(mode = Btree.Ops.Dirty_traversal) ?(n_trees = 1) ?(k = 0.0) ?(borrowing = true)
    ?(replication = true) ?cache_capacity ?alloc_chunk ?retry_backoff ~hosts () =
  let sinfonia =
    {
      experiment_sinfonia with
      Sinfonia.Config.replication;
      retry_backoff =
        Option.value retry_backoff ~default:experiment_sinfonia.Sinfonia.Config.retry_backoff;
    }
  in
  let config =
    {
      Minuet.Config.default with
      Minuet.Config.hosts;
      sinfonia;
      layout = experiment_layout;
      mode;
      n_trees;
      scs_borrowing = borrowing;
      scs_min_interval = k;
      cache_capacity =
        Option.value cache_capacity ~default:Minuet.Config.default.Minuet.Config.cache_capacity;
      alloc_chunk =
        Option.value alloc_chunk ~default:Minuet.Config.default.Minuet.Config.alloc_chunk;
    }
  in
  let db = Minuet.Db.start ~config () in
  let sessions = Array.init hosts (fun h -> Minuet.Session.attach ~home:h db) in
  let proxies =
    Array.init hosts (fun h ->
        Sim.Resource.create ~name:(Printf.sprintf "proxy-%d" h) ~servers:3 ())
  in
  { db; sessions; proxies }

(* Load [records] hashed keys through [hosts] parallel clients: client
   [h] puts keys h, h + hosts, ..., each with 8 random bytes from its own
   split of [seed]'s stream. *)
let parallel_load ~hosts ~seed ~records put =
  let finished = Sim.Ivar.create () in
  let remaining = ref hosts in
  let rng = Sim.Rng.create seed in
  for h = 0 to hosts - 1 do
    let value_rng = Sim.Rng.split rng in
    Sim.spawn (fun () ->
        let i = ref h in
        while !i < records do
          put h (Ycsb.Keygen.hashed_key_of_int !i) (Sim.Rng.bytes value_rng 8);
          i := !i + hosts
        done;
        decr remaining;
        if !remaining = 0 then Sim.Ivar.fill finished ())
  done;
  Sim.Ivar.read finished

let preload d ~records =
  parallel_load ~hosts:(Array.length d.sessions) ~seed:0x42 ~records (fun h k v ->
      Minuet.Session.put d.sessions.(h) k v)

(* CDB loads through parallel clients too (cost charged to its
   partitions), one per host. *)
let preload_cdb cdb ~records =
  parallel_load ~hosts:(Cdb.hosts cdb) ~seed:0x43 ~records (fun _ k v -> Cdb.insert cdb k v)

let session_of d ~client = d.sessions.(client mod Array.length d.sessions)

(* Proxy CPU per operation (request parsing, traversal, marshalling). *)
let proxy_cost = function
  | W.Read _ -> 35e-6
  | W.Update _ | W.Insert _ -> 45e-6
  | W.Scan (_, n) -> 60e-6 +. (0.4e-6 *. float_of_int n)

let charge_proxy d ~client op =
  let proxy = d.proxies.(client mod Array.length d.proxies) in
  Sim.Resource.use proxy ~service_time:(proxy_cost op)

let minuet_exec d ~client op =
  let s = session_of d ~client in
  charge_proxy d ~client op;
  match op with
  | W.Read k -> ignore (Minuet.Session.get s k : string option)
  | W.Update (k, v) | W.Insert (k, v) -> Minuet.Session.put s k v
  | W.Scan (k, n) ->
      (* Scans run against a snapshot from the SCS (Sec. 6.3). *)
      let snap = Minuet.Session.snapshot s in
      ignore (Minuet.Session.scan_at s snap ~from:k ~count:n : (string * string) list)

let cdb_client_factor = 8

let cdb_exec cdb ~client:_ op =
  match op with
  | W.Read k -> ignore (Cdb.read cdb k : string option)
  | W.Update (k, v) -> Cdb.update cdb k v
  | W.Insert (k, v) -> Cdb.insert cdb k v
  | W.Scan (k, n) -> ignore (Cdb.scan cdb ~from:k ~count:n : (string * string) list)

(* Run one simulated experiment point and hand back its result. *)
let in_sim ?(seed = 1) f =
  let r = ref None in
  Sim.run ~seed (fun () -> r := Some (f ()));
  match !r with Some v -> v | None -> failwith "Exp_common.in_sim: did not complete"

let closed_loop params ~clients ~workload_of ~exec =
  Ycsb.Driver.run ~seed:params.seed ~warmup:params.warmup ~clients
    ~duration:(params.warmup +. params.duration)
    ~workload_of ~exec ()

(* Exercise every observable code path against a small deployment and
   write the observability report to BENCH_<name>.json: up-to-date and
   snapshot reads, scans, cross-index transactions, and enough
   concurrent writers on a hot key range to produce aborts. *)
let run_observed ?dir ~name () =
  let seed = 0xB0B in
  let wall_ms = Obs.Bench.stopwatch () in
  in_sim ~seed (fun () ->
      let d = deploy ~hosts:3 ~n_trees:2 () in
      let records = 2_000 in
      preload d ~records;
      let key i = Ycsb.Keygen.hashed_key_of_int (i mod records) in
      let workers = Array.length d.sessions * 2 in
      let remaining = ref workers in
      let finished = Sim.Ivar.create () in
      for w = 0 to workers - 1 do
        let s = d.sessions.(w mod Array.length d.sessions) in
        let idx1 = Minuet.Session.index d.db 1 in
        Sim.spawn (fun () ->
            for i = 0 to 199 do
              (* Hot range: all workers collide on the same few keys so
                 validation failures and lock retries show up in the
                 abort taxonomy. *)
              let k = key ((i mod 16) + (w land 1)) in
              match i mod 10 with
              | 0 | 1 | 2 | 3 -> ignore (Minuet.Session.get s k : string option)
              | 4 | 5 | 6 -> Minuet.Session.put s k (string_of_int i)
              | 7 ->
                  let snap = Minuet.Session.snapshot s in
                  ignore (Minuet.Session.get_at s snap k : string option);
                  ignore
                    (Minuet.Session.scan_at s snap ~from:(key 0) ~count:10
                      : (string * string) list)
              | 8 ->
                  Minuet.Session.with_txn s (fun tx ->
                      let v = Minuet.Session.t_get tx k in
                      Minuet.Session.t_put tx k (Option.value v ~default:"0" ^ "!"))
              | _ -> Minuet.Session.put ~index:idx1 s k (string_of_int i)
            done;
            decr remaining;
            if !remaining = 0 then Sim.Ivar.fill finished ())
      done;
      Sim.Ivar.read finished;
      let fields = Obs.Report.fields (Minuet.Db.obs d.db) in
      ignore
        (Obs.Bench.write ?dir
           { Obs.Bench.bench = name; seed = Some seed; wall_ms = wall_ms (); gates = []; fields }
          : bool))

type row = { label : (string * string) list; metrics : (string * float) list }

let row_value r name = List.assoc name r.metrics

let print_header figure title =
  Printf.printf "\n=== %s: %s ===\n%!" figure title

let print_row ~figure r =
  let labels = List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) r.label in
  let metrics =
    List.map
      (fun (k, v) ->
        if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%s=%.0f" k v
        else Printf.sprintf "%s=%.3f" k v)
      r.metrics
  in
  Printf.printf "%-6s %s | %s\n%!" figure (String.concat " " labels) (String.concat " " metrics)

let run_figure params (figure, title, compute) =
  print_header figure title;
  let rows = compute params in
  List.iter (print_row ~figure) rows;
  rows

let ms s = s *. 1e3
