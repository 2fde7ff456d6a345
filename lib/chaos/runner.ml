module Session = Minuet.Session
module Db = Minuet.Db
module Harness = Minuet.Harness
module Mconfig = Minuet.Config
module Cluster = Sinfonia.Cluster
module Ops = Btree.Ops

type config = {
  seed : int;
  duration : float;  (** Total traffic time, split evenly over phases. *)
  hosts : int;
  clients : int;
  keys : int;
  hot_keys : int;
  think : float;
  kinds : Nemesis.kind list;
  phases : int;
  mode : Ops.mode;  (** Concurrency-control mode the trees run under. *)
  scan_heavy : bool;
      (** Scan-dominated op mix (long ranges, batched-scan stress);
        every snapshot scan is double-checked against the per-leaf
        path. *)
  broken : bool;  (** Enable [unsafe_dirty_leaf_reads] (checker must fail). *)
  broken_recovery : bool;
      (** Skip the redo-log replay on replica promotion and recovery
          ({!Sinfonia.Config.broken_recovery}) — committed-but-unmirrored
          writes are silently lost, and the checker must catch it. *)
  branching : bool;
      (** Run the database in branching mode (Sec. 5): clients drive
          writable clones, frozen-version reads and multi-version
          queries instead of linear snapshots. *)
  broken_branch : bool;
      (** Deliberately break branch isolation
          ({!Minuet.Config.broken_branch_isolation}): reads at read-only
          versions leak the mainline tip's writes. Implies [branching];
          the checker's frozen-ancestor rule must fail the run. *)
  scs_k : float;
      (** Snapshot staleness bound [k] in seconds; [0] keeps strict SCS.
          When positive, the checker's SCS rule is relaxed by exactly
          [k] ([?scs_staleness]) instead of switched off. *)
  trace_out : string option;
      (** Tee every traced event to this file as JSON lines
          ({!Minuet.Session.Event.to_json}), for debugging. *)
}

let default =
  {
    seed = 42;
    duration = 2.0;
    hosts = 4;
    clients = 6;
    keys = 160;
    hot_keys = 8;
    think = 1e-3;
    kinds = Nemesis.all_kinds;
    phases = 2;
    mode = Ops.Dirty_traversal;
    scan_heavy = false;
    broken = false;
    broken_recovery = false;
    branching = false;
    broken_branch = false;
    scs_k = 0.0;
    trace_out = None;
  }

type report = {
  verdict : Check.Stream.verdict;
  totals : Workload.totals;
  events : int;
  audits : int;
  audit_failures : string list;
  fault_counts : (string * int) list;
  sim_time : float;
}

let passed r = Check.Stream.ok r.verdict && r.audit_failures = []

let pp_report fmt r =
  Format.fprintf fmt "@[<v>workload: %a@,history: %d events@,faults:" Workload.pp_totals
    r.totals r.events;
  List.iter (fun (name, v) -> Format.fprintf fmt " %s=%d" name v) r.fault_counts;
  Format.fprintf fmt "@,audits: %d passed" r.audits;
  List.iter (fun msg -> Format.fprintf fmt "@,AUDIT FAILED: %s" msg) r.audit_failures;
  Format.fprintf fmt "@,%a" Check.Stream.pp_verdict r.verdict;
  Format.fprintf fmt "@,simulated time: %.3fs@]" r.sim_time

let run_exn cfg =
  if cfg.phases <= 0 then invalid_arg "Chaos.Runner.run: phases must be positive";
  if cfg.clients <= 0 then invalid_arg "Chaos.Runner.run: need at least one client";
  let branching = cfg.branching || cfg.broken_branch in
  let mconfig =
    Checked.config
      {
        Mconfig.default with
        Mconfig.hosts = cfg.hosts;
        mode = cfg.mode;
        branching;
        broken_branch_isolation = cfg.broken_branch;
        unsafe_dirty_leaf_reads = cfg.broken;
        scs_min_interval = cfg.scs_k;
        sinfonia =
          { Sinfonia.Config.default with Sinfonia.Config.broken_recovery = cfg.broken_recovery };
      }
  in
  Harness.run ~seed:cfg.seed ~until:((cfg.duration *. 3.) +. 10.) ~config:mconfig @@ fun db ->
  let n = Cluster.n_memnodes (Db.cluster db) in
  let checked = Checked.start db ~n_clients:cfg.clients in
  let trace_tee =
    match cfg.trace_out with
    | None -> None
    | Some path -> Some (open_out path)
  in
  let tracer ev =
    (match trace_tee with
    | Some oc ->
        output_string oc (Obs.Json.to_string (Session.Event.to_json ev));
        output_char oc '\n'
    | None -> ());
    Checked.feed checked ev
  in
  let rng = Sim.Rng.create (cfg.seed lxor 0x1ee7) in
  let sessions =
    Array.init cfg.clients (fun k -> Session.attach ~home:(k mod n) ~client:(n + k) ~tracer db)
  in
  let registry = Checked.Registry.create ~capacity:24 in
  (* Preload every other key of the lower half of the key space (a
     quarter of the keys) through a traced session so the checker model
     includes the initial state. *)
  for i = 0 to (cfg.keys / 2) - 1 do
    if i mod 2 = 0 then begin
      let k = Workload.key_of i and v = Printf.sprintf "init-%d" i in
      if branching then Mvcc.Branching.put (Session.branching sessions.(0)) k v
      else Session.put sessions.(0) k v
    end
  done;
  let totals = Workload.totals () in
  let remaining = ref cfg.clients in
  let deadline = Sim.now () +. cfg.duration in
  Array.iteri
    (fun k session ->
      let crng = Sim.Rng.split rng in
      let body =
        if branching then
          Workload.run_branch_client ~branching:(Session.branching session) ~rng:crng
            ~client_id:k ~registry ~keys:cfg.keys ~hot_keys:cfg.hot_keys ~think:cfg.think
            ~deadline ~stats:totals
            ~on_done:(fun () -> decr remaining)
        else
          Workload.run_client ~scan_heavy:cfg.scan_heavy ~session ~rng:crng ~client_id:k
            ~keys:cfg.keys ~hot_keys:cfg.hot_keys ~think:cfg.think ~deadline ~stats:totals
            ~on_done:(fun () -> decr remaining)
      in
      Sim.spawn ~name:(Printf.sprintf "client-%d" k) body)
    sessions;
  (* In branching mode, per-version audits stand in for snapshot and tip
     audits: every surviving read-only version must still walk cleanly. *)
  let audit_phase () =
    if branching then Checked.audit_versions checked registry
    else Checked.audit_snapshots checked
  in
  Checked.storm checked ~rng cfg.kinds ~phases:cfg.phases ~duration:cfg.duration
    ~after_phase:audit_phase;
  while !remaining > 0 do
    Sim.delay 1e-3
  done;
  Checked.quiesce checked;
  if branching then Checked.audit_versions checked registry;
  let o = Checked.finish checked in
  Option.iter close_out trace_tee;
  (* Batched-vs-per-leaf scan equivalence: any snapshot scan whose two
     paths disagreed is as fatal as a structural audit failure. *)
  let scan_failures =
    if totals.Workload.scan_mismatches > 0 then
      [
        Printf.sprintf "%d of %d dual scans: batched result differed from per-leaf scan"
          totals.Workload.scan_mismatches totals.Workload.dual_scans;
      ]
    else []
  in
  {
    verdict = o.Checked.verdict;
    totals;
    events = o.Checked.events;
    audits = o.Checked.audits;
    audit_failures = o.Checked.audit_failures @ scan_failures;
    fault_counts = o.Checked.fault_counts;
    sim_time = o.Checked.sim_time;
  }

(* In the deliberately-broken falsifiability modes the injected bug can
   corrupt the system badly enough that the run itself crashes (a lost
   committed write can wedge a traversal or starve snapshot creation)
   before the checker ever sees the history. That is still the bug being
   caught — report it as a failure instead of escaping with a backtrace.
   Honest configurations propagate exceptions unchanged: a crash there
   is a harness bug we must not swallow. *)
let run cfg =
  if not (cfg.broken || cfg.broken_recovery || cfg.broken_branch) then run_exn cfg
  else
    match run_exn cfg with
    | report -> report
    | exception (Failure _ as e) ->
        let msg = Printexc.to_string e in
        {
          verdict =
            {
              Check.Stream.violations =
                [
                  {
                    Check.Stream.v_index = -1;
                    v_message =
                      Printf.sprintf
                        "run crashed before the checker could complete: %s" msg;
                    v_event = None;
                    v_context = [];
                  };
                ];
              inconclusive = [];
              ops_checked = 0;
              snapshot_reads_checked = 0;
              branch_reads_checked = 0;
              candidates_resolved = 0;
              twopc_checked = 0;
            };
          totals = Workload.totals ();
          events = 0;
          audits = 0;
          audit_failures = [];
          fault_counts = [];
          sim_time = 0.0;
        }
