module Cluster = Sinfonia.Cluster
module Memnode = Sinfonia.Memnode
module Lock_table = Sinfonia.Lock_table

type kind =
  | Crash
  | Partition
  | Delay
  | Stall
  | Scs_outage
  | Mirror_partition
  | Replica_lag

(* New kinds are appended, never inserted: [start] splits one RNG per
   kind in list order, so preserving the prefix keeps old seeds
   byte-reproducible for the old fault mix. *)
let all_kinds = [ Crash; Partition; Delay; Stall; Scs_outage; Mirror_partition; Replica_lag ]

let kind_to_string = function
  | Crash -> "crash"
  | Partition -> "partition"
  | Delay -> "delay"
  | Stall -> "stall"
  | Scs_outage -> "scs"
  | Mirror_partition -> "mpartition"
  | Replica_lag -> "replag"

let counter (s : Obs.chaos_stats) = function
  | Crash -> s.Obs.crashes_injected
  | Partition -> s.Obs.partitions_injected
  | Delay -> s.Obs.delay_faults_injected
  | Stall -> s.Obs.stalls_injected
  | Scs_outage -> s.Obs.scs_outages_injected
  | Mirror_partition -> s.Obs.mirror_partitions_injected
  | Replica_lag -> s.Obs.replica_lags_injected

(* The injected-fault counters a run reports: the total, then one per
   kind in [all_kinds] order. *)
let fault_counts obs =
  let s = Obs.chaos obs in
  ("total", Obs.Counter.value s.Obs.faults_injected)
  :: List.map (fun k -> (kind_to_string k, Obs.Counter.value (counter s k))) all_kinds

let kind_of_string = function
  | "crash" -> Some Crash
  | "partition" -> Some Partition
  | "delay" -> Some Delay
  | "stall" -> Some Stall
  | "scs" -> Some Scs_outage
  | "mpartition" -> Some Mirror_partition
  | "replag" -> Some Replica_lag
  | _ -> None

type t = {
  cluster : Cluster.t;
  obs : Obs.t;
  stats : Obs.chaos_stats;
  scs : Mvcc.Scs.t array;
  n_clients : int;
  (* Links currently faulted by some nemesis process. A process only
     sets faults on links it claimed here and only heals those, so
     concurrent fault kinds never heal each other's links. *)
  owned_links : (int * int, unit) Hashtbl.t;
  mutable stop : bool;
  mutable active : int;
}

let create ~cluster ~scs ~n_clients =
  let obs = Cluster.obs cluster in
  {
    cluster;
    obs;
    stats = Obs.chaos obs;
    scs;
    n_clients;
    owned_links = Hashtbl.create 64;
    stop = false;
    active = 0;
  }

let n t = Cluster.n_memnodes t.cluster

(* Client host ids live above the memnode id range, so client-facing
   faults never touch memnode-to-memnode (mirror) links. *)
let client_host t k = n t + k

let claim_link t ~src ~dst =
  if Hashtbl.mem t.owned_links (src, dst) then false
  else begin
    Hashtbl.replace t.owned_links (src, dst) ();
    true
  end

let heal_links t links =
  let net = Cluster.net t.cluster in
  List.iter
    (fun (src, dst) ->
      Sim.Net.clear_fault net ~src ~dst;
      Hashtbl.remove t.owned_links (src, dst))
    links

(* Count one injected fault of [kind] and open its span. *)
let inject t kind =
  let span = Obs.span_begin t.obs (Obs.Span.Fault (kind_to_string kind)) in
  Obs.Counter.incr t.stats.Obs.faults_injected;
  Obs.Counter.incr (counter t.stats kind);
  span

(* ------------------------------------------------------------------ *)
(* Fault cycles: each injects one fault, holds it, and heals it         *)
(* (or leaves healing to the lease daemon, for stalls).                 *)
(* ------------------------------------------------------------------ *)

let poll = 0.5e-3

(* Bring memnode [i] back, waiting out a replica serving in-flight
   failover requests, and retrying while another nemesis process has
   crashed the node's backup. Loops until the node is alive again —
   possibly recovered by a concurrent process (Not_crashed). *)
let rec recover_with_retry t i =
  if Memnode.crashed (Cluster.memnode t.cluster i) then
    match Cluster.recover_when_idle ~poll t.cluster i with
    | Ok () | Error Cluster.Not_crashed -> ()
    | Error (Cluster.No_replica | Cluster.Replica_busy) ->
        Sim.delay poll;
        recover_with_retry t i

(* Pick one memnode that is up and has a backup to fail over to. *)
let pick_backed_node t rng =
  let candidates =
    List.filter
      (fun i ->
        (not (Memnode.crashed (Cluster.memnode t.cluster i)))
        && Cluster.backup_of t.cluster i <> None)
      (List.init (n t) Fun.id)
  in
  match candidates with
  | [] -> None
  | _ :: _ -> Some (List.nth candidates (Sim.Rng.int rng (List.length candidates)))

(* Crash one memnode immediately — the crash lands mid-2PC whenever a
   minitransaction is in flight: yes votes already logged stay in doubt
   until the recovery coordinator resolves them. Promotion (redo replay
   + in-doubt relock on the replica) runs synchronously in the crash
   hook, so the hold window exercises failover traffic against the
   promoted replica; then the node is recovered from it. *)
let crash_cycle t rng =
  match pick_backed_node t rng with
  | None -> ()
  | Some i ->
      let span = inject t Crash in
      Cluster.crash t.cluster i;
      Sim.delay (0.02 +. Sim.Rng.float rng 0.08);
      recover_with_retry t i;
      Obs.span_end t.obs span

(* Block both directions between one client host and a subset of
   memnodes. In-flight exchanges complete (the fault model only blocks
   at protocol boundaries), so no minitransaction is cut in half. *)
let partition_cycle t rng =
  if t.n_clients = 0 then ()
  else begin
    let c = client_host t (Sim.Rng.int rng t.n_clients) in
    let subset_size = 1 + Sim.Rng.int rng (max 1 (n t / 2)) in
    let nodes = Array.init (n t) Fun.id in
    Sim.Rng.shuffle rng nodes;
    let net = Cluster.net t.cluster in
    let links = ref [] in
    for s = 0 to subset_size - 1 do
      let m = nodes.(s) in
      List.iter
        (fun (src, dst) ->
          if claim_link t ~src ~dst then begin
            Sim.Net.set_fault net ~src ~dst ~blocked:true ();
            links := (src, dst) :: !links
          end)
        [ (c, m); (m, c) ]
    done;
    if !links <> [] then begin
      let span = inject t Partition in
      Sim.delay (0.05 +. Sim.Rng.float rng 0.15);
      heal_links t !links;
      Obs.span_end t.obs span
    end
  end

(* Latency spike plus loss on every client link of one memnode. *)
let delay_cycle t rng =
  if t.n_clients = 0 then ()
  else begin
    let m = Sim.Rng.int rng (n t) in
    let extra = 0.2e-3 +. Sim.Rng.float rng 1.8e-3 in
    let drop = Sim.Rng.float rng 0.3 in
    let net = Cluster.net t.cluster in
    let links = ref [] in
    for k = 0 to t.n_clients - 1 do
      let c = client_host t k in
      List.iter
        (fun (src, dst) ->
          if claim_link t ~src ~dst then begin
            Sim.Net.set_fault net ~src ~dst ~extra_latency:extra ~drop ();
            links := (src, dst) :: !links
          end)
        [ (c, m); (m, c) ]
    done;
    if !links <> [] then begin
      let span = inject t Delay in
      Sim.delay (0.05 +. Sim.Rng.float rng 0.15);
      heal_links t !links;
      Obs.span_end t.obs span
    end
  end

(* A coordinator that stalls mid-2PC leaves its locks behind. Model the
   worst case: an exclusive range over a whole memnode's address space
   under a fresh owner that never completes. Only the lease daemon
   ({!Cluster.start_recovery}) can steal these, so the runner must have
   it started. *)
let stall_cycle t rng =
  match Cluster.route t.cluster (Sim.Rng.int rng (n t)) with
  | exception Cluster.Unavailable _ -> ()
  | _, store ->
      let owner = Cluster.fresh_owner t.cluster in
      let range = { Lock_table.start = 0; len = max_int / 2; mode = Lock_table.Exclusive } in
      if Lock_table.try_acquire (Memnode.store_locks store) ~owner [ range ] then begin
        let span = inject t Stall in
        (* Wait out roughly a lease period before the next stall; the
           orphaned locks are healed by the recovery daemon, not us. *)
        Sim.delay (0.05 +. Sim.Rng.float rng 0.1);
        Obs.span_end t.obs span
      end

(* Set a symmetric fault on the memnode<->backup mirror link of one
   space, hold it, heal it. [mk_fault] installs whatever fault the
   caller wants on each claimed direction. *)
let mirror_link_cycle t rng ~kind ~hold mk_fault =
  let i = Sim.Rng.int rng (n t) in
  match Cluster.backup_of t.cluster i with
  | None -> ()
  | Some b ->
      let net = Cluster.net t.cluster in
      let links = ref [] in
      List.iter
        (fun (src, dst) ->
          if claim_link t ~src ~dst then begin
            mk_fault net ~src ~dst;
            links := (src, dst) :: !links
          end)
        [ (i, b); (b, i) ];
      if !links <> [] then begin
        let span = inject t kind in
        Sim.delay (hold rng);
        heal_links t !links;
        Obs.span_end t.obs span
      end

(* Cut the mirror link during phase two: commits succeed (the all-yes
   rule binds once every participant voted) but their mirrors are
   skipped, leaving committed-but-unmirrored redo entries that the flush
   daemon — or a promotion replay, if the primary then crashes — must
   deliver. *)
let mirror_partition_cycle t rng =
  mirror_link_cycle t rng ~kind:Mirror_partition
    ~hold:(fun rng -> 0.05 +. Sim.Rng.float rng 0.15)
    (fun net ~src ~dst -> Sim.Net.set_fault net ~src ~dst ~blocked:true ())

(* Loss and latency on the mirror link: replicas lag behind their
   primary, so a crash during the window promotes a stale image that the
   redo-log replay must roll forward. *)
let replica_lag_cycle t rng =
  let extra = 0.5e-3 +. Sim.Rng.float rng 2e-3 in
  let drop = 0.2 +. Sim.Rng.float rng 0.5 in
  mirror_link_cycle t rng ~kind:Replica_lag
    ~hold:(fun rng -> 0.05 +. Sim.Rng.float rng 0.15)
    (fun net ~src ~dst -> Sim.Net.set_fault net ~src ~dst ~extra_latency:extra ~drop ())

let scs_outage_cycle t rng =
  if Array.length t.scs = 0 then ()
  else begin
    let scs = t.scs.(Sim.Rng.int rng (Array.length t.scs)) in
    let dur = 0.02 +. Sim.Rng.float rng 0.08 in
    let span = inject t Scs_outage in
    Mvcc.Scs.set_outage scs ~until:(Sim.now () +. dur);
    Sim.delay dur;
    Obs.span_end t.obs span
  end

let cycle t kind rng =
  match kind with
  | Crash -> crash_cycle t rng
  | Partition -> partition_cycle t rng
  | Delay -> delay_cycle t rng
  | Stall -> stall_cycle t rng
  | Scs_outage -> scs_outage_cycle t rng
  | Mirror_partition -> mirror_partition_cycle t rng
  | Replica_lag -> replica_lag_cycle t rng

(* ------------------------------------------------------------------ *)
(* Storm control                                                        *)
(* ------------------------------------------------------------------ *)

let start t ~rng kinds =
  t.stop <- false;
  List.iter
    (fun kind ->
      (* Per-kind streams make each nemesis process deterministic
         regardless of how the scheduler interleaves them. *)
      let krng = Sim.Rng.split rng in
      t.active <- t.active + 1;
      Sim.spawn ~name:("nemesis-" ^ kind_to_string kind) (fun () ->
          let rec loop () =
            if t.stop then ()
            else begin
              Sim.delay (0.01 +. Sim.Rng.float krng 0.05);
              if not t.stop then begin
                cycle t kind krng;
                loop ()
              end
            end
          in
          loop ();
          t.active <- t.active - 1))
    kinds

(* Stop injecting and wait until every in-flight fault cycle has healed
   what it owns (crash cycles recover their node; link cycles clear
   their links). Orphaned stall locks are left for the lease daemon. *)
let stop_and_drain t =
  t.stop <- true;
  while t.active > 0 do
    Sim.delay poll
  done;
  Sim.Net.clear_all_faults (Cluster.net t.cluster);
  Hashtbl.reset t.owned_links

(* Recover any memnode still down (e.g. crashed right as the storm was
   stopped), polling for failover quiescence. *)
let recover_all t =
  for i = 0 to n t - 1 do
    recover_with_retry t i
  done
