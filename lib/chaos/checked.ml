module Session = Minuet.Session
module Db = Minuet.Db
module Mconfig = Minuet.Config
module Cluster = Sinfonia.Cluster
module Ops = Btree.Ops

module Registry = struct
  type t = { capacity : int; mutable frozen : int64 list }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Checked.Registry.create: capacity must be positive";
    { capacity; frozen = [] }

  let note t sid =
    if not (List.mem sid t.frozen) then
      t.frozen <-
        sid
        :: (if List.length t.frozen >= t.capacity then
              List.filteri (fun i _ -> i < t.capacity - 1) t.frozen
            else t.frozen)

  let frozen t = t.frozen
end

let config base =
  let c = Mconfig.small_tree base in
  {
    c with
    Mconfig.sinfonia =
      {
        c.Mconfig.sinfonia with
        Sinfonia.Config.in_doubt_grace = 0.06;
        decision_retention = infinity;
      };
  }

type t = {
  db : Db.t;
  cluster : Cluster.t;
  admin : Session.t;
  stream : Check.Stream.t;
  nemesis : Nemesis.t;
  mutable audits : int;
  mutable failures : string list;  (** Newest first. *)
}

let lease = 0.05

(* Long enough for the lease daemon to reap orphaned stall locks and for
   the in-doubt resolver to pass its 0.06 s grace at least once. *)
let settle () = Sim.delay (lease +. 0.12)

let start db ~n_clients =
  let cluster = Db.cluster db in
  (* Stall faults are healed only by the lease daemon. *)
  Cluster.start_recovery ~lease ~interval:0.02 cluster;
  (* The history is never materialized: every traced event feeds the
     checker as it is emitted, so a run's memory is the checker's
     bounded state, not its op count. *)
  let k = (Db.config db).Mconfig.scs_min_interval in
  let scs_staleness = if k > 0.0 then Some k else None in
  let stream =
    Check.Stream.create { Check.Stream.Config.default with Check.Stream.Config.scs_staleness }
  in
  (* Snapshot creations reach the stream as they happen, so snapshot
     reads never wait for a post-run creation log. *)
  for index = 0 to Db.n_trees db - 1 do
    Mvcc.Scs.set_on_create (Db.scs db ~index) (fun ~sid ~stamp ->
        Check.Stream.add_creation stream ~index ~sid ~stamp)
  done;
  let scs = Array.init (Db.n_trees db) (fun index -> Db.scs db ~index) in
  {
    db;
    cluster;
    admin = Session.attach db;
    stream;
    nemesis = Nemesis.create ~cluster ~scs ~n_clients;
    audits = 0;
    failures = [];
  }

let feed t ev = Check.Stream.feed t.stream ev

let storm ?(after_phase = ignore) t ~rng kinds ~phases ~duration =
  let phase_dur = duration /. float_of_int phases in
  for _phase = 1 to phases do
    Nemesis.start t.nemesis ~rng kinds;
    Sim.delay phase_dur;
    Nemesis.stop_and_drain t.nemesis;
    Nemesis.recover_all t.nemesis;
    settle ();
    after_phase ()
  done

let quiesce t =
  Nemesis.recover_all t.nemesis;
  settle ();
  (* Every fault is healed, so the resolver must drain the in-doubt set. *)
  let rec drain tries =
    if tries > 0 && Cluster.in_doubt_total t.cluster > 0 then begin
      Sim.delay 0.05;
      drain (tries - 1)
    end
  in
  drain 40

let attempt t ~label f =
  match f () with
  | v ->
      t.audits <- t.audits + 1;
      Some v
  | exception (Failure msg | Ops.Too_contended msg | Ops.Ambiguous msg) ->
      (* A structural audit failed, or the audit's own transaction (the
         snapshot it reads at) gave up. *)
      t.failures <- Printf.sprintf "%s: %s" label msg :: t.failures;
      None

let audit t ~label f = ignore (attempt t ~label f : unit option)

let per_index t f =
  for idx = 0 to Db.n_trees t.db - 1 do
    audit t ~label:(Printf.sprintf "index %d" idx) (fun () -> f idx)
  done

let audit_snapshots t =
  per_index t (fun idx ->
      let index = Session.index t.db idx in
      let snap = Session.snapshot ~index t.admin in
      let tree = Session.tree_of t.admin index in
      ignore (Ops.audit tree ~sid:snap.Session.sid ~root:snap.Session.root : (string * string) list))

let audit_version t ~index sid =
  let br = Session.branching ~index:(Session.index t.db index) t.admin in
  ignore
    (Ops.audit (Mvcc.Branching.tree br) ~sid ~root:(Mvcc.Branching.root_of br ~sid)
      : (string * string) list)

let audit_versions t registry =
  per_index t (fun index -> List.iter (audit_version t ~index) (Registry.frozen registry))

type outcome = {
  verdict : Check.Stream.verdict;
  events : int;
  audits : int;
  audit_failures : string list;
  fault_counts : (string * int) list;
  sim_time : float;
}

let audit_tip t idx =
  let tree = Session.tree_of t.admin (Session.index t.db idx) in
  let sid, root = Ops.run_txn tree (fun txn -> Ops.Linear.read_tip tree txn) in
  Ops.audit tree ~sid ~root

let finish t =
  let final =
    if (Db.config t.db).Mconfig.branching then []
    else
      List.init (Db.n_trees t.db) (fun idx ->
          attempt t ~label:(Printf.sprintf "index %d" idx) (fun () -> (idx, audit_tip t idx)))
      |> List.filter_map Fun.id
  in
  let events = Check.Stream.fed t.stream in
  let verdict =
    Check.Stream.finish ~final
      ~twopc:(Cluster.redo_decisions t.cluster)
      ~in_doubt:(Cluster.in_doubt_total t.cluster)
      t.stream
  in
  {
    verdict;
    events;
    audits = t.audits;
    audit_failures = List.rev t.failures;
    fault_counts = Nemesis.fault_counts (Db.obs t.db);
    sim_time = Sim.now ();
  }
