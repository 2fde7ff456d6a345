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
          ({!Minuet.Session.Event.to_json}), for offline re-checking and
          debugging. *)
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

(* Audit one index at a frozen snapshot (safe under concurrent traffic:
   snapshots are immutable and GC is off during chaos runs). *)
let audit_at_snapshot admin idx =
  let index = Session.index (Session.db admin) idx in
  let snap = Session.snapshot ~index admin in
  let tree = Session.tree_of admin index in
  ignore (Ops.audit tree ~sid:snap.Session.sid ~root:snap.Session.root : (string * string) list)

let audit_tip admin idx =
  let tree = Session.tree_of admin (Session.index (Session.db admin) idx) in
  let sid, root = Ops.run_txn tree (fun txn -> Ops.Linear.read_tip tree txn) in
  Ops.audit tree ~sid ~root

(* Branching mode: structurally audit every frozen version the workload
   discovered (read-only versions are immutable in content, and GC is
   off during chaos runs, so this is safe under concurrent traffic). *)
let audit_branch_versions admin registry idx =
  let index = Session.index (Session.db admin) idx in
  let br = Session.branching ~index admin in
  List.iter
    (fun sid ->
      ignore
        (Ops.audit (Mvcc.Branching.tree br) ~sid ~root:(Mvcc.Branching.root_of br ~sid)
          : (string * string) list))
    registry.Workload.frozen

let lease = 0.05

let run_exn cfg =
  if cfg.phases <= 0 then invalid_arg "Chaos.Runner.run: phases must be positive";
  if cfg.clients <= 0 then invalid_arg "Chaos.Runner.run: need at least one client";
  let branching = cfg.branching || cfg.broken_branch in
  let mconfig =
    Mconfig.small_tree
      {
        Mconfig.default with
        Mconfig.hosts = cfg.hosts;
        mode = cfg.mode;
        branching;
        broken_branch_isolation = cfg.broken_branch;
        unsafe_dirty_leaf_reads = cfg.broken;
        scs_min_interval = cfg.scs_k;
        sinfonia =
          {
            Sinfonia.Config.default with
            Sinfonia.Config.broken_recovery = cfg.broken_recovery;
            (* Short in-doubt grace so the resolver actually fires within
               a chaos phase; infinite decision retention so the final
               2PC-atomicity cross-check sees every decision record. *)
            in_doubt_grace = 0.06;
            decision_retention = infinity;
          };
      }
  in
  Harness.run ~seed:cfg.seed ~until:((cfg.duration *. 3.) +. 10.) ~config:mconfig @@ fun db ->
  let cluster = Db.cluster db in
  let n = Cluster.n_memnodes cluster in
  (* Orphaned-lock recovery must be running: stall faults are healed
     only by the lease daemon. *)
  Cluster.start_recovery ~lease ~interval:0.02 cluster;
  (* The history is never materialized: every traced event feeds the
     streaming checker the moment it is emitted, so a run's memory
     footprint is the checker's bounded state, not its op count. *)
  let scs_staleness = if cfg.scs_k > 0.0 then Some cfg.scs_k else None in
  let stream =
    Check.Stream.create { Check.Stream.Config.default with Check.Stream.Config.scs_staleness }
  in
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
    Check.Stream.feed stream ev
  in
  let rng = Sim.Rng.create (cfg.seed lxor 0x1ee7) in
  let sessions =
    Array.init cfg.clients (fun k -> Session.attach ~home:(k mod n) ~client:(n + k) ~tracer db)
  in
  let admin = Session.attach db in
  (* Snapshot creations reach the stream as they happen, so snapshot
     reads never wait for a post-run creation log. *)
  for idx = 0 to Db.n_trees db - 1 do
    Mvcc.Scs.set_on_create (Db.scs db ~index:idx) (fun ~sid ~stamp ->
        Check.Stream.add_creation stream ~index:idx ~sid ~stamp)
  done;
  let registry = Workload.branch_registry () in
  (* Preload half the key space through a traced session so the checker
     model includes the initial state. *)
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
  let scs = Array.init (Db.n_trees db) (fun i -> Db.scs db ~index:i) in
  let nemesis = Nemesis.create ~cluster ~scs ~n_clients:cfg.clients in
  let audits = ref 0 in
  let audit_failures = ref [] in
  let audit_all f =
    for idx = 0 to Db.n_trees db - 1 do
      match f idx with
      | () -> incr audits
      | exception Failure msg ->
          audit_failures := !audit_failures @ [ Printf.sprintf "index %d: %s" idx msg ]
    done
  in
  let phase_dur = cfg.duration /. float_of_int cfg.phases in
  for _phase = 1 to cfg.phases do
    Nemesis.start nemesis ~rng cfg.kinds;
    Sim.delay phase_dur;
    Nemesis.stop_and_drain nemesis;
    Nemesis.recover_all nemesis;
    (* Let the lease daemon reap any orphaned stall locks and the
       in-doubt resolver pass its grace period (0.06s) at least once. *)
    Sim.delay (lease +. 0.12);
    audit_all (fun idx ->
        if branching then audit_branch_versions admin registry idx
        else audit_at_snapshot admin idx)
  done;
  while !remaining > 0 do
    Sim.delay 1e-3
  done;
  Nemesis.recover_all nemesis;
  Sim.delay (lease +. 0.12);
  (* Quiesce the in-doubt set: every fault is healed, so the resolver
     must drain it. Bounded wait; a nonzero residue fails the checker. *)
  let rec drain tries =
    if tries > 0 && Cluster.in_doubt_total cluster > 0 then begin
      Sim.delay 0.05;
      drain (tries - 1)
    end
  in
  drain 40;
  let final =
    if branching then begin
      (* Per-version structural audits stand in for the tip audit: every
         surviving read-only version must still walk cleanly. *)
      audit_all (fun idx -> audit_branch_versions admin registry idx);
      []
    end
    else
      List.init (Db.n_trees db) (fun idx ->
          match audit_tip admin idx with
          | entries ->
              incr audits;
              [ (idx, entries) ]
          | exception Failure msg ->
              audit_failures := !audit_failures @ [ Printf.sprintf "index %d: %s" idx msg ];
              [])
      |> List.concat
  in
  Option.iter close_out trace_tee;
  let events_fed = Check.Stream.fed stream in
  let verdict =
    Check.Stream.finish ~final
      ~twopc:(Cluster.redo_decisions cluster)
      ~in_doubt:(Cluster.in_doubt_total cluster)
      stream
  in
  (* Batched-vs-per-leaf scan equivalence: any snapshot scan whose two
     paths disagreed is as fatal as a structural audit failure. *)
  if totals.Workload.scan_mismatches > 0 then
    audit_failures :=
      !audit_failures
      @ [
          Printf.sprintf "%d of %d dual scans: batched result differed from per-leaf scan"
            totals.Workload.scan_mismatches totals.Workload.dual_scans;
        ];
  {
    verdict;
    totals;
    events = events_fed;
    audits = !audits;
    audit_failures = !audit_failures;
    fault_counts = Nemesis.fault_counts (Db.obs db);
    sim_time = Sim.now ();
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
