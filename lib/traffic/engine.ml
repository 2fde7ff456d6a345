(* The open-loop scenario runner.

   Architecture (per tenant): a dispatcher process walks the tenant's
   precomputed arrival schedule and enqueues each operation into a FIFO
   at its scheduled instant; a fixed pool of [concurrency] worker
   sessions drains the queue. Latency is measured from the *scheduled
   arrival*, not from the moment a worker picked the op up, so the
   reported quantiles include queueing delay: a tenant whose provisioned
   capacity can't keep up with its arrival curve shows the backlog as
   tail latency instead of silently slowing the generator down
   (coordinated omission, the closed-loop failure mode).

   Every session is traced into a streaming serializability checker
   ({!Check.Stream}), so a scenario doesn't just measure the system
   under production-shaped load — it verifies it. *)

module Session = Minuet.Session
module Db = Minuet.Db
module Harness = Minuet.Harness
module Mconfig = Minuet.Config
module Cluster = Sinfonia.Cluster
module Ops = Btree.Ops
module Hist = Sim.Stats.Hist
module Checked = Chaos.Checked

type config = {
  name : string;
  seed : int;
  duration : float;  (** Seconds of simulated time arrivals are scheduled over. *)
  hosts : int;
  tenants : Tenant.t list;
  scs_k : float;  (** Snapshot staleness bound (checker relaxed by exactly k). *)
  chaos : Chaos.Nemesis.kind list;  (** Empty = no fault injection. *)
  chaos_phases : int;
  branching : bool;  (** Run the database in branching mode (Sec. 5). *)
}

let default =
  {
    name = "traffic";
    seed = 1;
    duration = 1.0;
    hosts = 4;
    tenants = [];
    scs_k = 0.0;
    chaos = [];
    chaos_phases = 2;
    branching = false;
  }

type tenant_result = {
  tenant : Tenant.t;
  offered : int;  (** Scheduled arrivals. *)
  completed : int;
  errors : int;  (** Contention give-ups and ambiguous outcomes. *)
  branch_blocked : int;  (** Catalog refusals under the β bound (not errors). *)
  latency : Hist.t;  (** Open loop: scheduled arrival -> completion, seconds. *)
  service : Hist.t;  (** Issue -> completion. *)
  queueing : Hist.t;  (** Scheduled arrival -> issue. *)
  throughput : float;  (** Completed ops per second of traffic window. *)
  slo : Slo.verdict;
}

type report = {
  config : config;
  tenants : tenant_result list;
  verdict : Check.Stream.verdict;
  audits : int;
  audit_failures : string list;
  events : int;  (** History events fed to the checker. *)
  fault_counts : (string * int) list;
  sim_time : float;
}

let slo_ok r = List.for_all (fun t -> Slo.ok t.slo) r.tenants

let passed r = Check.Stream.ok r.verdict && r.audit_failures = [] && slo_ok r

let pp_tenant_result fmt t =
  Format.fprintf fmt
    "@[<h>%-12s offered=%-6d done=%-6d err=%-4d tput=%-7.0f lat p50=%.3fms p99=%.3fms \
     p999=%.3fms queue p99=%.3fms | %a@]"
    t.tenant.Tenant.name t.offered t.completed t.errors t.throughput
    (Hist.quantile t.latency 0.5 *. 1e3)
    (Hist.quantile t.latency 0.99 *. 1e3)
    (Hist.p999 t.latency *. 1e3)
    (Hist.quantile t.queueing 0.99 *. 1e3)
    Slo.pp_verdict t.slo

let pp_report fmt r =
  Format.fprintf fmt "@[<v>scenario %s (seed %d, %d tenants%s):@," r.config.name r.config.seed
    (List.length r.config.tenants)
    (if r.config.chaos = [] then "" else ", chaos");
  List.iter (fun t -> Format.fprintf fmt "%a@," pp_tenant_result t) r.tenants;
  Format.fprintf fmt "history: %d events@,audits: %d passed" r.events r.audits;
  List.iter (fun msg -> Format.fprintf fmt "@,AUDIT FAILED: %s" msg) r.audit_failures;
  if r.fault_counts <> [] then begin
    Format.fprintf fmt "@,faults:";
    List.iter (fun (name, v) -> if v > 0 then Format.fprintf fmt " %s=%d" name v) r.fault_counts
  end;
  Format.fprintf fmt "@,%a@,simulated time: %.3fs@]" Check.Stream.pp_verdict r.verdict
    r.sim_time

(* Per-tenant mutable measurement state shared between its workers. *)
type meter = {
  mutable m_completed : int;
  mutable m_errors : int;
  mutable m_blocked : int;
  m_latency : Hist.t;
  m_service : Hist.t;
  m_queueing : Hist.t;
}

type queue_msg = Arrive of float | Stop

let key_of ~offset ordinal = Ycsb.Keygen.key_of_int (offset + ordinal)

let run (cfg : config) =
  if cfg.tenants = [] then invalid_arg "Traffic.Engine.run: no tenants";
  if cfg.duration <= 0.0 then invalid_arg "Traffic.Engine.run: duration must be positive";
  if cfg.chaos <> [] && cfg.chaos_phases <= 0 then
    invalid_arg "Traffic.Engine.run: chaos_phases must be positive";
  let mconfig =
    Checked.config
      {
        Mconfig.default with
        Mconfig.hosts = cfg.hosts;
        branching = cfg.branching;
        scs_min_interval = cfg.scs_k;
      }
  in
  Harness.run ~seed:cfg.seed ~until:((cfg.duration *. 6.) +. 30.) ~config:mconfig @@ fun db ->
  let n = Cluster.n_memnodes (Db.cluster db) in
  let workers =
    List.fold_left (fun acc (t : Tenant.t) -> acc + t.Tenant.concurrency) 0 cfg.tenants
  in
  let checked = Checked.start db ~n_clients:workers in
  let tracer = Checked.feed checked in
  (* Slice the ordinal space: tenant i owns [offsets.(i), offsets.(i) +
     keys), mapped through the order-preserving key format. *)
  let tenants = Array.of_list cfg.tenants in
  let offsets = Array.make (Array.length tenants) 0 in
  let _ =
    Array.fold_left
      (fun (i, off) (t : Tenant.t) ->
        offsets.(i) <- off;
        (i + 1, off + t.Tenant.keys))
      (0, 0) tenants
  in
  (* Preload half of every slice through a traced session so the
     checker's model includes the initial state. *)
  let loader = Session.attach ~tracer db in
  let branch_handle session = Session.branching session in
  Array.iteri
    (fun i (t : Tenant.t) ->
      for o = 0 to t.Tenant.keys - 1 do
        if o mod 2 = 0 then begin
          let k = key_of ~offset:offsets.(i) o and v = Printf.sprintf "init-%d-%d" i o in
          if cfg.branching then Mvcc.Branching.put (branch_handle loader) k v
          else Session.put loader k v
        end
      done)
    tenants;
  (* Per-tenant schedules, meters, queues and RNG streams. *)
  let op_rng_root = Sim.Rng.create (Arrival.stream_seed ~seed:cfg.seed ~tenant_id:0x0ddba11) in
  let finished = Sim.Ivar.create () in
  let live_workers = ref workers in
  let worker_seq = ref 0 in
  let meters = Array.map (fun _ -> {
        m_completed = 0;
        m_errors = 0;
        m_blocked = 0;
        m_latency = Hist.create ();
        m_service = Hist.create ();
        m_queueing = Hist.create ();
      }) tenants
  in
  let schedules =
    Array.mapi
      (fun i (t : Tenant.t) ->
        Arrival.schedule t.Tenant.arrival ~seed:cfg.seed ~tenant_id:i ~until:cfg.duration)
      tenants
  in
  let registries = Array.map (fun _ -> Checked.Registry.create ~capacity:16) tenants in
  (* Schedules are offsets from the start of traffic, not from sim time
     zero: the preload above consumed simulated time, and anchoring at
     zero would make every arrival scheduled during it instantly late. *)
  let traffic_start = Sim.now () in
  Array.iteri
    (fun ti (tenant : Tenant.t) ->
      let offset = offsets.(ti) in
      let meter = meters.(ti) in
      let queue : queue_msg Sim.Mailbox.t = Sim.Mailbox.create () in
      let keygen = Tenant.keygen tenant in
      let rng = Sim.Rng.split op_rng_root in
      let registry = registries.(ti) in
      let pick_key () = key_of ~offset (Ycsb.Keygen.next keygen rng) in
      let exec_linear session op_id kind =
        let k = pick_key () in
        match (kind : Tenant.op_kind) with
        | Tenant.Read -> ignore (Session.get session k : string option)
        | Tenant.Update ->
            Session.put session k (Printf.sprintf "t%d-%d" ti op_id)
        | Tenant.Scan ->
            ignore
              (Session.scan session ~from:k ~count:tenant.Tenant.scan_count
                : (string * string) list)
        | Tenant.Snapshot_read ->
            let snap = Session.snapshot session in
            ignore (Session.get_at session snap k : string option);
            ignore
              (Session.scan_at session snap ~from:k ~count:tenant.Tenant.scan_count
                : (string * string) list)
        | Tenant.Branch_op ->
            (* Linear database: downgrade to a snapshot read. *)
            let snap = Session.snapshot session in
            ignore (Session.get_at session snap k : string option)
      in
      let exec_branching session tips op_id kind =
        let module B = Mvcc.Branching in
        let br = branch_handle session in
        let k = pick_key () in
        let value () = Printf.sprintf "t%d-%d" ti op_id in
        match (kind : Tenant.op_kind) with
        | Tenant.Read -> ignore (B.get br k : string option)
        | Tenant.Update -> B.put br k (value ())
        | Tenant.Scan -> (
            (* Pin scans to a frozen version when one exists: immutable,
               so they never abort under concurrent updates (the
               branching-mode analogue of scan_at, Sec. 6.3). *)
            match Checked.Registry.frozen registry with
            | [] ->
                ignore (B.scan br ~from:k ~count:tenant.Tenant.scan_count : (string * string) list)
            | sid :: _ ->
                ignore
                  (B.scan br ~at:sid ~from:k ~count:tenant.Tenant.scan_count
                    : (string * string) list))
        | Tenant.Snapshot_read -> (
            (* Version-pinned read: the frozen-ancestor rule checks it. *)
            match Checked.Registry.frozen registry with
            | [] -> ignore (B.get br k : string option)
            | sid :: _ ->
                ignore (B.get br ~at:sid k : string option);
                ignore
                  (B.scan br ~at:sid ~from:k ~count:tenant.Tenant.scan_count
                    : (string * string) list))
        | Tenant.Branch_op -> (
            match Sim.Rng.int rng 8 with
            | 0 | 1 ->
                (* A tip we branch from freezes; on an ambiguous outcome
                   drop it from the writable set — writing to a
                   maybe-frozen version would be a real isolation bug,
                   not injected noise. *)
                let from = match !tips with tip :: _ -> tip | [] -> 0L in
                let cleanup () =
                  tips := List.filter (fun t -> not (Int64.equal t from)) !tips;
                  Checked.Registry.note registry from
                in
                let sid =
                  try B.create_branch br ~from
                  with Ops.Ambiguous _ as e ->
                    cleanup ();
                    raise e
                in
                cleanup ();
                tips := sid :: !tips
            | 2 -> (
                match List.rev !tips with
                | [] -> ignore (B.get br k : string option)
                | oldest :: _ ->
                    tips := List.filter (fun t -> not (Int64.equal t oldest)) !tips;
                    B.delete_branch br oldest)
            | _ -> (
                match !tips with
                | [] -> B.put br k (value ())
                | tip :: _ -> B.put br ~at:tip k (value ())))
      in
      let exec session tips op_id kind =
        if cfg.branching then exec_branching session tips op_id kind
        else exec_linear session op_id kind
      in
      (* Dispatcher: offer each op at its scheduled instant. *)
      Sim.spawn ~name:(Printf.sprintf "traffic-dispatch-%s" tenant.Tenant.name) (fun () ->
          Array.iter
            (fun at ->
              let scheduled = traffic_start +. at in
              let gap = scheduled -. Sim.now () in
              if gap > 0.0 then Sim.delay gap;
              Sim.Mailbox.send queue (Arrive scheduled))
            schedules.(ti);
          for _ = 1 to tenant.Tenant.concurrency do
            Sim.Mailbox.send queue Stop
          done);
      (* Worker pool: the tenant's provisioned capacity. *)
      for _w = 0 to tenant.Tenant.concurrency - 1 do
        let wid = !worker_seq in
        incr worker_seq;
        let session = Session.attach ~home:(wid mod n) ~client:(n + wid) ~tracer db in
        let op_count = ref 0 in
        let tips = ref [] in
        Sim.spawn ~name:(Printf.sprintf "traffic-%s-w%d" tenant.Tenant.name wid) (fun () ->
            let rec loop () =
              match Sim.Mailbox.recv queue with
              | Stop ->
                  decr live_workers;
                  if !live_workers = 0 then Sim.Ivar.fill finished ()
              | Arrive scheduled ->
                  let issued = Sim.now () in
                  Hist.add meter.m_queueing (issued -. scheduled);
                  incr op_count;
                  let kind = Tenant.draw_op tenant rng in
                  (match exec session tips !op_count kind with
                  | () ->
                      let now = Sim.now () in
                      meter.m_completed <- meter.m_completed + 1;
                      Hist.add meter.m_latency (now -. scheduled);
                      Hist.add meter.m_service (now -. issued)
                  | exception Ops.Too_contended _ -> meter.m_errors <- meter.m_errors + 1
                  | exception Ops.Ambiguous _ -> meter.m_errors <- meter.m_errors + 1
                  | exception
                      ( Mvcc.Branching.Too_many_branches _ | Mvcc.Branching.Not_deletable _
                      | Mvcc.Branching.No_mainline _ ) ->
                      meter.m_blocked <- meter.m_blocked + 1);
                  loop ()
            in
            loop ())
      done)
    tenants;
  (* Optional chaos overlap: phased storms while the traffic runs. *)
  if cfg.chaos <> [] then
    Checked.storm checked
      ~rng:(Sim.Rng.create (cfg.seed lxor 0xc4a05))
      cfg.chaos ~phases:cfg.chaos_phases ~duration:cfg.duration;
  Sim.Ivar.read finished;
  if cfg.chaos <> [] then Checked.quiesce checked;
  (* No meaningful tip in branching mode: audit every frozen version the
     tenants created instead (immutable, so safe to walk). *)
  if cfg.branching then
    Array.iteri
      (fun ti registry ->
        List.iter
          (fun sid ->
            Checked.audit checked
              ~label:(Printf.sprintf "tenant %d version %Ld audit" ti sid)
              (fun () -> Checked.audit_version checked ~index:0 sid))
          (Checked.Registry.frozen registry))
      registries;
  let o = Checked.finish checked in
  let tenant_results =
    List.of_seq
      (Seq.mapi
         (fun ti (tenant : Tenant.t) ->
           let meter = meters.(ti) in
           let offered = Array.length schedules.(ti) in
           let slo =
             Slo.evaluate tenant.Tenant.slo ~latency:meter.m_latency ~offered
               ~errors:meter.m_errors
           in
           {
             tenant;
             offered;
             completed = meter.m_completed;
             errors = meter.m_errors;
             branch_blocked = meter.m_blocked;
             latency = meter.m_latency;
             service = meter.m_service;
             queueing = meter.m_queueing;
             throughput = float_of_int meter.m_completed /. cfg.duration;
             slo;
           })
         (Array.to_seq tenants))
  in
  {
    config = cfg;
    tenants = tenant_results;
    verdict = o.Checked.verdict;
    audits = o.Checked.audits;
    audit_failures = o.Checked.audit_failures;
    events = o.Checked.events;
    fault_counts = (if cfg.chaos = [] then [] else o.Checked.fault_counts);
    sim_time = o.Checked.sim_time;
  }
