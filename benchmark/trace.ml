(* Per-layer accounting for the traced run.

   Every layer already records spans into the cluster's [Obs] ring; a
   drain process empties the ring every 2 ms of simulated time and
   folds each finished operation tree into per-kind counts and self
   times. Memnode and proxy CPU queues are sampled every 100 us, and
   counters are read as deltas over the window. None of this draws
   randomness or touches the system's state, so a traced run
   reproduces the untraced run's simulated metrics exactly. *)

module Span = Obs.Span
module Cluster = Sinfonia.Cluster
module Memnode = Sinfonia.Memnode
module Exp = Experiments.Exp_common
module Samples = Stats.Samples

let drain_every = 2e-3

let sample_every = 100e-6

(* Obs.create's default ring size, which Sinfonia.Cluster uses. A drain
   that comes back full may have lost spans to wrap-around. *)
let ring_capacity = 65_536

type t = {
  obs : Obs.t;
  cluster : Cluster.t;
  cpus : Sim.Resource.t array;  (** Memnode CPUs. *)
  proxies : Sim.Resource.t array;
  mutable active : bool;
  mutable w0 : float;
  mutable w1 : float;
  children : (int, Span.info list) Hashtbl.t;  (** Finished spans awaiting their root. *)
  self : (string, float ref) Hashtbl.t;  (** Self seconds per span kind. *)
  counts : (string, int ref) Hashtbl.t;  (** Spans per kind. *)
  mutable spans : int;
  mutable root_inclusive : float;
  mutable self_total : float;
  mutable clipped : float;  (** Child time outside its parent or under an earlier sibling. *)
  mutable aborted_attempt_s : float;
  scs_request : Samples.t;
  scs_create : Samples.t;
  mutable queue_sum : int;
  mutable queue_samples : int;
  mutable counters0 : (string * int) list;
  mutable counters1 : (string * int) list;
  mutable busy0 : float array * float array;  (** Busy time of memnode CPUs, proxies. *)
  mutable busy1 : float array * float array;
}

let create (d : Exp.deployment) =
  let cluster = Minuet.Db.cluster d.Exp.db in
  {
    obs = Minuet.Db.obs d.Exp.db;
    cluster;
    cpus = Array.init (Cluster.n_memnodes cluster) (fun i -> Memnode.cpu (Cluster.memnode cluster i));
    proxies = d.Exp.proxies;
    active = false;
    w0 = 0.0;
    w1 = 0.0;
    children = Hashtbl.create 4096;
    self = Hashtbl.create 32;
    counts = Hashtbl.create 32;
    spans = 0;
    root_inclusive = 0.0;
    self_total = 0.0;
    clipped = 0.0;
    aborted_attempt_s = 0.0;
    scs_request = Samples.create ();
    scs_create = Samples.create ();
    queue_sum = 0;
    queue_samples = 0;
    counters0 = [];
    counters1 = [];
    busy0 = ([||], [||]);
    busy1 = ([||], [||]);
  }

let counters t =
  let o = t.obs and net = Cluster.net t.cluster in
  let v = Obs.Counter.value in
  let mtx = Obs.mtx o and txn = Obs.txn o and bt = Obs.btree o and cache = Obs.cache o in
  let scan = Obs.scan o and node = Obs.node o and scs = Obs.scs o in
  [
    ("net.msgs", Sim.Net.messages_sent net);
    ("net.bytes", Sim.Net.bytes_sent net);
    ("mtx.1pc", v mtx.Obs.committed_1pc);
    ("mtx.2pc", v mtx.Obs.committed_2pc);
    ("mtx.busy", v mtx.Obs.busy_retries);
    ("mtx.compare_failed", v mtx.Obs.compare_failed);
    ("mtx.mirrors", v mtx.Obs.mirrors);
    ("txn.validation_failures", v txn.Obs.validation_failures);
    ("cache.hits", v cache.Obs.cache_hits);
    ("cache.misses", v cache.Obs.cache_misses);
    ( "btree.aborts",
      v bt.Obs.abort_fence + v bt.Obs.abort_height + v bt.Obs.abort_version + v bt.Obs.abort_copied
    );
    ("btree.splits", v bt.Obs.splits);
    ("btree.cow", v bt.Obs.cow);
    ("node.materialisations", v node.Obs.materialisations);
    ("node.bytes_copied", v node.Obs.node_bytes_copied);
    ("scan.batches", v scan.Obs.scan_batches);
    ("scan.leaves", v scan.Obs.scan_batched_leaves);
    ("scan.batch_aborts", v scan.Obs.scan_batch_aborts);
    ( "scs.requests",
      v scs.Obs.scs_created + v scs.Obs.scs_borrowed + v scs.Obs.scs_stale_reused );
    ("scs.stale_reuses", v scs.Obs.scs_stale_reused);
  ]

let busy t = (Array.map Sim.Resource.busy_time t.cpus, Array.map Sim.Resource.busy_time t.proxies)

let bump_count t k =
  match Hashtbl.find_opt t.counts k with Some r -> incr r | None -> Hashtbl.add t.counts k (ref 1)

let add_self t k v =
  match Hashtbl.find_opt t.self k with Some r -> r := !r +. v | None -> Hashtbl.add t.self k (ref v)

let take_children t id =
  match Hashtbl.find_opt t.children id with
  | None -> []
  | Some l ->
      Hashtbl.remove t.children id;
      l

let rec discard t (i : Span.info) = List.iter (discard t) (take_children t i.Span.id)

let by_start (a : Span.info) (b : Span.info) =
  match Float.compare a.Span.start b.Span.start with 0 -> Int.compare a.Span.id b.Span.id | c -> c

(* Attribute the window [lo, hi] of span [i]. Children are clipped to
   the window and to each other in start order, so time covered by
   overlapping children (scan prefetches) is charged once, to the
   earlier one, and the self times of a tree sum exactly to its root's
   duration. *)
let rec attribute t (i : Span.info) ~lo ~hi =
  let kind = Span.kind_to_string i.Span.kind in
  bump_count t kind;
  t.spans <- t.spans + 1;
  (match (i.Span.kind, i.Span.outcome) with
  | Span.Attempt, Span.Aborted _ ->
      t.aborted_attempt_s <- t.aborted_attempt_s +. (i.Span.stop -. i.Span.start)
  | Span.Scs_request, _ -> Samples.add t.scs_request (i.Span.stop -. i.Span.start)
  | Span.Snapshot_create, _ -> Samples.add t.scs_create (i.Span.stop -. i.Span.start)
  | _ -> ());
  let kids = List.sort by_start (take_children t i.Span.id) in
  let covered =
    List.fold_left
      (fun (cursor, covered) (k : Span.info) ->
        let s = Float.min hi (Float.max k.Span.start cursor) in
        let e = Float.max s (Float.min k.Span.stop hi) in
        t.clipped <- t.clipped +. (k.Span.stop -. k.Span.start -. (e -. s));
        attribute t k ~lo:s ~hi:e;
        (e, covered +. (e -. s)))
      (lo, 0.0) kids
    |> snd
  in
  let self = hi -. lo -. covered in
  add_self t kind self;
  t.self_total <- t.self_total +. self

let root t (i : Span.info) =
  if t.active && i.Span.start >= t.w0 then begin
    t.root_inclusive <- t.root_inclusive +. (i.Span.stop -. i.Span.start);
    attribute t i ~lo:i.Span.start ~hi:i.Span.stop
  end
  else discard t i

let drain t =
  let spans = Obs.spans t.obs in
  Obs.clear_spans t.obs;
  if List.length spans >= ring_capacity then
    failwith "trace: span ring came back full between drains; spans were lost";
  List.iter
    (fun (i : Span.info) ->
      if i.Span.parent = 0 then root t i
      else
        let siblings = Option.value (Hashtbl.find_opt t.children i.Span.parent) ~default:[] in
        Hashtbl.replace t.children i.Span.parent (i :: siblings))
    spans

(* Open the layer window at the current simulated time. Spans finished
   before it are dropped; operation trees rooted before it are skipped
   whole. *)
let start t =
  Obs.clear_spans t.obs;
  Hashtbl.reset t.children;
  t.active <- true;
  t.w0 <- Sim.now ();
  t.counters0 <- counters t;
  t.busy0 <- busy t;
  Sim.spawn ~name:"bench-trace-drain" (fun () ->
      while t.active do
        Sim.delay drain_every;
        if t.active then drain t
      done);
  Sim.spawn ~name:"bench-trace-sample" (fun () ->
      while t.active do
        Array.iter (fun r -> t.queue_sum <- t.queue_sum + Sim.Resource.queue_length r) t.cpus;
        t.queue_samples <- t.queue_samples + 1;
        Sim.delay sample_every
      done)

(* Close the window once the workload has quiesced. *)
let stop t =
  drain t;
  t.w1 <- Sim.now ();
  t.counters1 <- counters t;
  t.busy1 <- busy t;
  t.active <- false

let delta t k = List.assoc k t.counters1 - List.assoc k t.counters0

(* Work off every operation's latency path: the clipped overlap plus
   the spans still waiting for a parent that had already finished, such
   as the last prefetch batch of a scan that returned without it. *)
let detached_s t =
  let waiting = Hashtbl.create 64 in
  Hashtbl.iter (fun _ l -> List.iter (fun (i : Span.info) -> Hashtbl.replace waiting i.Span.id ()) l) t.children;
  Hashtbl.fold
    (fun parent l acc ->
      if Hashtbl.mem waiting parent then acc
      else List.fold_left (fun acc (i : Span.info) -> acc +. (i.Span.stop -. i.Span.start)) acc l)
    t.children t.clipped

let self_s t k = match Hashtbl.find_opt t.self k with Some r -> !r | None -> 0.0

let count t k = match Hashtbl.find_opt t.counts k with Some r -> !r | None -> 0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let util t resources b0 b1 =
  let dt = t.w1 -. t.w0 in
  Array.mapi
    (fun i r -> ratio (b1.(i) -. b0.(i)) (float_of_int (Sim.Resource.servers r) *. dt))
    resources

let mean a = ratio (Array.fold_left ( +. ) 0.0 a) (float_of_int (Array.length a))

(* Bytes materialised in every memnode heap, primaries and replicas. *)
let resident_bytes cluster =
  let n = Cluster.n_memnodes cluster in
  let heap store = Sinfonia.Heap.resident (Memnode.store_heap store) in
  List.init n (fun i ->
      let primary = heap (Memnode.primary (Cluster.memnode cluster i)) in
      let replica =
        match Cluster.backup_of cluster i with
        | None -> 0
        | Some b -> (
            match Memnode.replica (Cluster.memnode cluster b) ~of_node:i with
            | Some s -> heap s
            | None -> 0)
      in
      primary + replica)
  |> List.fold_left ( + ) 0

(* Per-layer metrics for [ops] operations completed in the window. *)
let metrics t ~ops ~scans ~scan_keys ~user_bytes =
  let fops = float_of_int (max ops 1) in
  let per_op k = float_of_int (delta t k) /. fops in
  let ms_per_op s = s *. 1e3 /. fops in
  let nm = Array.length t.cpus in
  let (c0, p0), (c1, p1) = (t.busy0, t.busy1) in
  let mem_util = util t t.cpus c0 c1 and proxy_util = util t t.proxies p0 p1 in
  let committed = float_of_int (delta t "mtx.1pc" + delta t "mtx.2pc") in
  let hits = float_of_int (delta t "cache.hits") in
  let resident = float_of_int (resident_bytes t.cluster) in
  let dt = t.w1 -. t.w0 in
  [
    ("net.msgs_per_op", per_op "net.msgs");
    ("net.bytes_per_op", per_op "net.bytes");
    ("memnode.util_mean", mean mem_util);
    ("memnode.util_max", Array.fold_left Float.max 0.0 mem_util);
    ( "memnode.queue_mean",
      ratio (float_of_int t.queue_sum) (float_of_int (t.queue_samples * max nm 1)) );
    ("proxy.util_mean", mean proxy_util);
    ( "mtx.per_op",
      float_of_int (count t "mtx.exec" + count t "mtx.prepare") /. fops );
    ("mtx.2pc_share", ratio (float_of_int (delta t "mtx.2pc")) committed);
    ("mtx.busy_retries_per_op", per_op "mtx.busy");
    ("mtx.compare_failed_per_op", per_op "mtx.compare_failed");
    ("mtx.mirrors_per_op", per_op "mtx.mirrors");
    ( "mtx.self_ms_per_op",
      ms_per_op (self_s t "mtx.exec" +. self_s t "mtx.prepare" +. self_s t "mtx.commit") );
    ("heap.resident_mb", resident /. 1e6);
    ("heap.bytes_per_user_byte", ratio resident (float_of_int user_bytes));
    ("txn.attempts_per_txn", ratio (float_of_int (count t "txn.attempt")) (float_of_int (count t "txn")));
    ("txn.aborted_ms_per_op", ms_per_op t.aborted_attempt_s);
    ("txn.validation_failures_per_op", per_op "txn.validation_failures");
    ("txn.commit_self_ms_per_op", ms_per_op (self_s t "txn.commit"));
    ("cache.hit_rate", ratio hits (hits +. float_of_int (delta t "cache.misses")));
    ("btree.traversal_self_ms_per_op", ms_per_op (self_s t "btree.traversal"));
    ("btree.aborts_per_op", per_op "btree.aborts");
    ("btree.splits_per_kop", 1e3 *. per_op "btree.splits");
    ("node.materialisations_per_op", per_op "node.materialisations");
    ("btree.cow_per_op", per_op "btree.cow");
    ( "scan.leaves_per_batch",
      ratio (float_of_int (delta t "scan.leaves")) (float_of_int (delta t "scan.batches")) );
    ( "scan.batch_aborts_per_scan",
      ratio (float_of_int (delta t "scan.batch_aborts")) (float_of_int scans) );
    ("scan.keys_per_s", ratio (float_of_int scan_keys) dt);
    ("node.bytes_copied_per_op", per_op "node.bytes_copied");
    ( "scs.stale_reuse_ratio",
      ratio (float_of_int (delta t "scs.stale_reuses")) (float_of_int (delta t "scs.requests")) );
    ("scs.request_ms_p99", 1e3 *. Stats.quantile t.scs_request 0.99);
    ("scs.create_ms_p50", 1e3 *. Stats.quantile t.scs_create 0.5);
    ("trace.spans_per_op", float_of_int t.spans /. fops);
    ("trace.detached_ms_per_op", ms_per_op (detached_s t));
  ]
