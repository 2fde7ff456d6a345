(* One benchmark run: boot and preload the cluster, drive one workload,
   gate the run on the streaming serializability checker plus a
   structural audit, and measure.

   Every workload uses the experiment cost model
   (Exp_common.experiment_sinfonia, 4 KiB nodes, proxies with three
   cores per host) on 15 hosts preloaded with 50,000 hashed YCSB keys.
   The workload seed only shapes the generated operations; the
   simulator's own seed is pinned, so set-up is identical across
   seeds. *)

module Session = Minuet.Session
module Db = Minuet.Db
module Exp = Experiments.Exp_common
module W = Ycsb.Workload
module Ops = Btree.Ops
module Cluster = Sinfonia.Cluster
module Samples = Stats.Samples

type scale = Full | Tiny

type opts = {
  workload : string;
  seed : int;
  scale : scale;
  traced : bool;
  unsafe : bool;  (** Minuet.Config.unsafe_dirty_leaf_reads: the gate must fail. *)
}

type result = {
  opts : opts;
  correct : bool;
  violations : string list;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  samples : (string * int) list;  (** Sample count behind each latency. *)
  steps : (float * float * int * bool) list;
      (** read-open: offered ops/s, read p99 s, backlog, passed. *)
  root_inclusive_s : float;  (** Traced: summed root-span durations ... *)
  self_total_s : float;  (** ... and the self times they split into. *)
}

let sim_seed = 0x5EED

let hosts = function Full -> 15 | Tiny -> 3

let records = function Full -> 50_000 | Tiny -> 48

let scan_count = function Full -> 1000 | Tiny -> 16

let clients_per_host = 6

(* Host timings sit outside the simulation; nothing seeded reads them. *)
let wall () = Unix.gettimeofday () (* lint: allow wallclock-rng *)

let cpu () = Sys.time ()

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* The correctness gate                                                 *)
(* ------------------------------------------------------------------ *)

(* History events are buffered and fed to the checker in batches so
   the host time spent inside Check.Stream can be measured cheaply and
   kept out of host_us_per_op. *)
type gate = {
  stream : Check.Stream.t;
  pending : Session.Event.t Queue.t;
  mutable check_s : float;
  mutable check_words : float;
  mutable events : int;
}

let flush g =
  if not (Queue.is_empty g.pending) then begin
    let t0 = cpu () and w0 = allocated_words () in
    Queue.iter (Check.Stream.feed g.stream) g.pending;
    Queue.clear g.pending;
    g.check_s <- g.check_s +. (cpu () -. t0);
    g.check_words <- g.check_words +. (allocated_words () -. w0)
  end

let trace_event g ev =
  Queue.add ev g.pending;
  g.events <- g.events + 1;
  if Queue.length g.pending >= 256 then flush g

let layout =
  Btree.Layout.make ~node_size:4096 ~max_slots:262144 ~max_trees:4 ~max_snapshots:16384
    ~max_memnodes:64 ()

(* Exp_common.deploy takes no tracer, so the deployment record is built
   here with the same configuration and traced sessions. *)
let setup ~scale ~k ~unsafe =
  let config =
    {
      Minuet.Config.default with
      Minuet.Config.hosts = hosts scale;
      sinfonia = Exp.experiment_sinfonia;
      layout;
      scs_min_interval = k;
      unsafe_dirty_leaf_reads = unsafe;
    }
  in
  let db = Db.start ~config () in
  let scs_staleness = if k > 0.0 then Some k else None in
  let g =
    {
      stream = Check.Stream.create { Check.Stream.Config.default with scs_staleness };
      pending = Queue.create ();
      check_s = 0.0;
      check_words = 0.0;
      events = 0;
    }
  in
  Mvcc.Scs.set_on_create (Db.scs db ~index:0) (fun ~sid ~stamp ->
      flush g;
      let t0 = cpu () in
      Check.Stream.add_creation g.stream ~index:0 ~sid ~stamp;
      g.check_s <- g.check_s +. (cpu () -. t0));
  let sessions = Array.init (hosts scale) (fun h -> Session.attach ~home:h ~tracer:(trace_event g) db) in
  let proxies =
    Array.init (hosts scale) (fun h ->
        Sim.Resource.create ~name:(Printf.sprintf "proxy-%d" h) ~servers:3 ())
  in
  let d = { Exp.db; sessions; proxies } in
  Exp.preload d ~records:(records scale);
  (d, g)

(* Audit the tip, then close the checker over the final state, every
   retained 2PC decision and the in-doubt count. *)
let final_gate (d : Exp.deployment) g =
  flush g;
  let admin = Session.attach d.Exp.db in
  let tree = Session.tree_of admin (Session.index d.Exp.db 0) in
  let audit =
    match
      let sid, root = Ops.run_txn tree (fun txn -> Ops.Linear.read_tip tree txn) in
      Ops.audit tree ~sid ~root
    with
    | entries -> Ok entries
    | exception Failure msg -> Error ("tip audit: " ^ msg)
  in
  let cluster = Db.cluster d.Exp.db in
  let verdict =
    Check.Stream.finish
      ?final:(match audit with Ok entries -> Some [ (0, entries) ] | Error _ -> None)
      ~twopc:(Cluster.redo_decisions cluster) ~in_doubt:(Cluster.in_doubt_total cluster) g.stream
  in
  let violations =
    (match audit with Ok _ -> [] | Error msg -> [ msg ])
    @ List.map (Format.asprintf "%a" Check.Stream.pp_violation) verdict.Check.Stream.violations
  in
  let user_bytes =
    match audit with
    | Ok entries -> List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v) 0 entries
    | Error _ -> 0
  in
  (violations, user_bytes)

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

type recorder = {
  reads : Samples.t;  (** Seconds; on snapshot-scan these are the scans. *)
  writes : Samples.t;
  mutable ok : int;
  mutable failed : int;
  mutable failed_reads : int;
  mutable scans : int;
  mutable exec_s : float;  (** Issue-to-completion time of ops issued in the window. *)
}

let recorder () =
  {
    reads = Samples.create ();
    writes = Samples.create ();
    ok = 0;
    failed = 0;
    failed_reads = 0;
    scans = 0;
    exec_s = 0.0;
  }

let is_read = function W.Read _ | W.Scan _ -> true | W.Update _ | W.Insert _ -> false

let record r op latency =
  r.ok <- r.ok + 1;
  (match op with W.Scan _ -> r.scans <- r.scans + 1 | _ -> ());
  Samples.add (if is_read op then r.reads else r.writes) latency

let record_failure r op =
  r.failed <- r.failed + 1;
  if is_read op then r.failed_reads <- r.failed_reads + 1

(* Host cost is read at the simulated instants the measured window
   opens and closes. *)
type mark = {
  m_cpu : float;
  m_check : float;
  m_words : float;
  m_check_words : float;
  m_majors : int;
  m_events : int;
}

let mark g =
  {
    m_cpu = cpu ();
    m_check = g.check_s;
    m_words = allocated_words ();
    m_check_words = g.check_words;
    m_majors = (Gc.quick_stat ()).Gc.major_collections;
    m_events = g.events;
  }

type env = { o : opts; d : Exp.deployment; g : gate; trace : Trace.t option }

(* What a workload hands back. [lat] holds the ops of the latency and
   per-layer window; the host window (between [m0] and [m1]) may be
   wider. *)
type phase = {
  lat : recorder;
  tput : float;
  host_ops : int;  (** Ops completed in the host window. *)
  attempted : int;
  failed : int;
  m0 : mark;
  m1 : mark;
  extra : (string * float) list;
  steps : (float * float * int * bool) list;
}

(* Closed loop through Ycsb.Driver and Exp_common.minuet_exec with six
   clients per host, timing each op around the executor. [warmup] and
   [measured] are the full-scale windows; tiny scale shortens both. *)
let closed env ~warmup ~measured ~workload_of =
  let warmup, measured = match env.o.scale with Full -> (warmup, measured) | Tiny -> (0.01, 0.1) in
  let r = recorder () in
  let w0 = Sim.now () +. warmup in
  let m0 = ref None in
  Sim.spawn ~name:"bench-window-open" (fun () ->
      Sim.delay warmup;
      m0 := Some (mark env.g);
      Option.iter Trace.start env.trace);
  let exec ~client op =
    let t0 = Sim.now () in
    match Exp.minuet_exec env.d ~client op with
    | () ->
        let t1 = Sim.now () in
        if t1 >= w0 then record r op (t1 -. t0);
        if t0 >= w0 then r.exec_s <- r.exec_s +. (t1 -. t0)
    | exception e ->
        if Sim.now () >= w0 then record_failure r op;
        raise e
  in
  let res =
    Ycsb.Driver.run ~warmup ~seed:env.o.seed
      ~clients:(clients_per_host * hosts env.o.scale)
      ~duration:(warmup +. measured) ~workload_of ~exec ()
  in
  Option.iter Trace.stop env.trace;
  let m1 = mark env.g in
  {
    lat = r;
    tput = float_of_int r.ok /. res.Ycsb.Driver.measured_seconds;
    host_ops = r.ok;
    attempted = r.ok + r.failed;
    failed = r.failed;
    m0 = Option.get !m0;
    m1;
    extra = [];
    steps = [];
  }

let uniform mix scale = W.create ~record_count:(records scale) ~mix ()

let update_zipf env =
  closed env ~warmup:0.2 ~measured:2.0 ~workload_of:(fun _ ->
      W.create ~distribution:`Zipfian ~record_count:(records env.o.scale) ~mix:W.update_heavy ())

(* One workload object shared by every client, so inserts draw fresh
   ordinals from one sequence (as Fig. 10 does). *)
let insert_grow env =
  let shared = uniform { W.read = 0.5; update = 0.0; insert = 0.5; scan = 0.0 } env.o.scale in
  closed env ~warmup:0.2 ~measured:1.0 ~workload_of:(fun _ -> shared)

(* 84 update clients and 6 scanners at full scale (one in fifteen). *)
let snapshot_scan env =
  let scanners = max 1 (clients_per_host * hosts env.o.scale / 15) in
  let scans =
    W.create ~record_count:(records env.o.scale) ~scan_length:(scan_count env.o.scale)
      ~mix:W.scan_only ()
  in
  closed env ~warmup:0.2 ~measured:1.5 ~workload_of:(fun i ->
      if i < scanners then scans else uniform W.update_only env.o.scale)

(* ------------------------------------------------------------------ *)
(* Open loop                                                            *)
(* ------------------------------------------------------------------ *)

type step = {
  rate : float;
  r : recorder;  (** Latency from the scheduled arrival. *)
  queueing : Samples.t;  (** Scheduled arrival to issue. *)
  mutable arrivals : int;
  mutable finished : int;
  mutable dispatching : int;
  mutable backlog : int;  (** Queued arrivals when the step's window closed. *)
  mutable backlog_max : int;  (** Longest per-host queue seen at a dispatch. *)
  mutable late_max : float;  (** Dispatcher lateness against the schedule. *)
  drained : unit Sim.Ivar.t;
}

type msg = Arrive of float * W.op * step

let slo = 1e-3

let workers_per_host = 16

let drained st = st.dispatching = 0 && st.finished = st.arrivals

let maybe_fill st = if drained st && not (Sim.Ivar.is_filled st.drained) then Sim.Ivar.fill st.drained ()

(* Read p99 with every failed read counted as a miss. *)
let read_p99 st =
  let a = Samples.sorted st.r.reads in
  let a = Array.append a (Array.make st.r.failed_reads infinity) in
  Stats.quantile_sorted a 0.99

let passes st =
  read_p99 st <= slo && float_of_int st.backlog <= 0.01 *. float_of_int st.arrivals

(* The step plan. After a 0.1 s warm-up at 100 k ops/s, a ladder
   climbs from the 250 k reference step in 50 k increments. The
   reference step sits at about two thirds of the knee, where the tail
   is steady, and runs for 0.4 s so that its write p99 (5 % of the ops)
   rests on some 5,000 samples; at 300 k, windows that long sometimes
   catch a queueing excursion that breaks the SLO. The other steps run
   for 0.1 s. The first failing step brackets the knee, and two
   bisection steps narrow the bracket to 12.5 k, so the reported rate
   moves smoothly between seeds instead of by whole ladder steps. Tiny
   scale keeps the shape at toy rates. *)
type plan = {
  warm_s : float;
  warm_rate : float;
  step_s : float;
  ref_s : float;
  ref_rate : float;
  ladder : float list;
  bisections : int;
}

let plan = function
  | Full ->
      {
        warm_s = 0.1;
        warm_rate = 100e3;
        step_s = 0.1;
        ref_s = 0.4;
        ref_rate = 250e3;
        ladder = List.init 8 (fun i -> 250e3 +. (50e3 *. float_of_int i));
        bisections = 2;
      }
  | Tiny ->
      {
        warm_s = 0.01;
        warm_rate = 5e3;
        step_s = 0.02;
        ref_s = 0.03;
        ref_rate = 15e3;
        ladder = List.init 8 (fun i -> 10e3 +. (5e3 *. float_of_int i));
        bisections = 1;
      }

let read_open env =
  let scale = env.o.scale in
  let n = hosts scale in
  let queues = Array.init n (fun _ -> Sim.Mailbox.create ()) in
  let root = Sim.Rng.create env.o.seed in
  let rngs = Array.init n (fun _ -> Sim.Rng.split root) in
  let wls = Array.init n (fun _ -> uniform W.read_mostly scale) in
  for h = 0 to n - 1 do
    for _ = 1 to workers_per_host do
      Sim.spawn ~name:"bench-open-worker" (fun () ->
          while true do
            let (Arrive (due, op, st)) = Sim.Mailbox.recv queues.(h) in
            let issued = Sim.now () in
            Samples.add st.queueing (issued -. due);
            (match Exp.minuet_exec env.d ~client:h op with
            | () ->
                let now = Sim.now () in
                record st.r op (now -. due);
                st.r.exec_s <- st.r.exec_s +. (now -. issued)
            | exception (Ops.Too_contended _ | Ops.Ambiguous _) -> record_failure st.r op);
            st.finished <- st.finished + 1;
            maybe_fill st
          done)
    done
  done;
  let step_no = ref 0 in
  let run_step ~rate ~duration ~traced =
    incr step_no;
    let st =
      {
        rate;
        r = recorder ();
        queueing = Samples.create ();
        arrivals = 0;
        finished = 0;
        dispatching = n;
        backlog = 0;
        backlog_max = 0;
        late_max = 0.0;
        drained = Sim.Ivar.create ();
      }
    in
    if traced then Option.iter Trace.start env.trace;
    let start = Sim.now () in
    for h = 0 to n - 1 do
      let schedule =
        Traffic.Arrival.schedule
          (Traffic.Arrival.constant (rate /. float_of_int n))
          ~seed:env.o.seed ~tenant_id:((!step_no * 64) + h) ~until:duration
      in
      Sim.spawn ~name:"bench-open-dispatch" (fun () ->
          Array.iter
            (fun at ->
              let due = start +. at in
              Sim.delay (due -. Sim.now ());
              st.late_max <- Float.max st.late_max (Sim.now () -. due);
              st.arrivals <- st.arrivals + 1;
              Sim.Mailbox.send queues.(h) (Arrive (due, W.next_op wls.(h) rngs.(h), st));
              st.backlog_max <- max st.backlog_max (Sim.Mailbox.length queues.(h)))
            schedule;
          st.dispatching <- st.dispatching - 1;
          maybe_fill st)
    done;
    Sim.delay (start +. duration -. Sim.now ());
    st.backlog <- Array.fold_left (fun acc q -> acc + Sim.Mailbox.length q) 0 queues;
    if not (drained st) then Sim.Ivar.read st.drained;
    if traced then Option.iter Trace.stop env.trace;
    st
  in
  let pl = plan scale in
  ignore (run_step ~rate:pl.warm_rate ~duration:pl.warm_s ~traced:false : step);
  let m0 = mark env.g in
  let steps = ref [] in
  let step rate =
    let is_ref = Float.equal rate pl.ref_rate in
    let st = run_step ~rate ~duration:(if is_ref then pl.ref_s else pl.step_s) ~traced:is_ref in
    steps := st :: !steps;
    st
  in
  (* Climb until a step misses the SLO, always covering the reference
     step; [lo] is the best passing step so far, as (rate, read p99). *)
  let rec climb lo = function
    | [] -> (lo, None)
    | rate :: rest ->
        let st = step rate in
        if passes st then climb (if rate > fst lo then (rate, read_p99 st) else lo) rest
        else if rate < pl.ref_rate then climb lo rest
        else (lo, Some (rate, read_p99 st))
  in
  let rec bisect n lo hi =
    if n = 0 then (lo, hi)
    else
      let mid = (fst lo +. fst hi) /. 2.0 in
      let st = step mid in
      if passes st then bisect (n - 1) (mid, read_p99 st) hi else bisect (n - 1) lo (mid, read_p99 st)
  in
  let lo, first_fail = climb (pl.warm_rate, 0.0) pl.ladder in
  (* Highest sustainable rate: the final bracket, interpolated on read
     p99 when the failing end's p99 is finite. *)
  let tput =
    match first_fail with
    | None -> fst lo
    | Some hi ->
        let (r1, p1), (r2, p2) = bisect pl.bisections lo hi in
        if p2 > slo && Float.is_finite p2 then r1 +. ((r2 -. r1) *. (slo -. p1) /. (p2 -. p1)) else r1
  in
  let m1 = mark env.g in
  let steps = List.rev !steps in
  let ref_step = List.find (fun st -> Float.equal st.rate pl.ref_rate) steps in
  let sum f = List.fold_left (fun acc st -> acc + f st.r) 0 steps in
  {
    lat = ref_step.r;
    tput;
    host_ops = sum (fun r -> r.ok);
    attempted = sum (fun r -> r.ok + r.failed);
    failed = sum (fun r -> r.failed);
    m0;
    m1;
    extra =
      [
        ("open.queue_p99_ms", 1e3 *. Stats.quantile ref_step.queueing 0.99);
        ("open.backlog_max", float_of_int ref_step.backlog_max);
        ("open.gen_late_max_ms", 1e3 *. List.fold_left (fun acc st -> Float.max acc st.late_max) 0.0 steps);
      ];
    steps = List.map (fun st -> (st.rate, read_p99 st, st.backlog, passes st)) steps;
  }

(* ------------------------------------------------------------------ *)
(* A whole run                                                          *)
(* ------------------------------------------------------------------ *)

let staleness o = if String.equal o.workload "snapshot-scan" then 0.1 else 0.0

let drive env =
  match env.o.workload with
  | "read-open" -> read_open env
  | "update-zipf" -> update_zipf env
  | "insert-grow" -> insert_grow env
  | "snapshot-scan" -> snapshot_scan env
  | w -> invalid_arg ("unknown workload " ^ w)

let setups = 3

let run o =
  if not (List.mem o.workload Catalog.workloads) then invalid_arg ("unknown workload " ^ o.workload);
  let k = staleness o in
  (* Set-up is repeated and its median reported; only the last one is
     kept and driven. *)
  let setup_times = ref [] in
  for _ = 2 to setups do
    let t0 = wall () in
    Sim.run ~seed:sim_seed (fun () ->
        ignore (setup ~scale:o.scale ~k ~unsafe:o.unsafe : Exp.deployment * gate);
        setup_times := (wall () -. t0) :: !setup_times;
        Sim.stop ());
    Gc.compact ()
  done;
  let out = ref None in
  let t0 = wall () in
  Sim.run ~seed:sim_seed (fun () ->
      let d, g = setup ~scale:o.scale ~k ~unsafe:o.unsafe in
      setup_times := (wall () -. t0) :: !setup_times;
      let trace = if o.traced then Some (Trace.create d) else None in
      let env = { o; d; g; trace } in
      let p = drive env in
      let violations, user_bytes = final_gate d g in
      out := Some (env, p, violations, user_bytes);
      Sim.stop ());
  let env, p, violations, user_bytes = Option.get !out in
  let ms s q = 1e3 *. Stats.quantile_sorted s q in
  let reads = Samples.sorted p.lat.reads and writes = Samples.sorted p.lat.writes in
  let host_cpu = p.m1.m_cpu -. p.m0.m_cpu -. (p.m1.m_check -. p.m0.m_check) in
  let host_ops = max p.host_ops 1 in
  let host_us_per_op = 1e6 *. host_cpu /. float_of_int host_ops in
  let end_to_end =
    [
      ("setup_s", Stats.median !setup_times);
      ("host_us_per_op", host_us_per_op);
      ("peak_heap_mb", float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      ("tput_ops_s", p.tput);
      ("read_p50_ms", ms reads 0.5);
      ("read_p99_ms", ms reads 0.99);
      ("write_p50_ms", ms writes 0.5);
      ("write_p99_ms", ms writes 0.99);
    ]
  in
  let layered, root_inclusive_s, self_total_s =
    match env.trace with
    | None -> ([], 0.0, 0.0)
    | Some t ->
        let ops = p.lat.ok in
        let fops = float_of_int (max ops 1) in
        let check_s = p.m1.m_check -. p.m0.m_check in
        let events_words = p.m1.m_check_words -. p.m0.m_check_words in
        let scan_keys = p.lat.scans * scan_count o.scale in
        ( Trace.metrics t ~ops ~scans:p.lat.scans ~scan_keys ~user_bytes
          @ [
              ( "host.alloc_words_per_op",
                (p.m1.m_words -. p.m0.m_words -. events_words) /. float_of_int host_ops );
              ( "host.major_gcs_per_kop",
                1e3 *. float_of_int (p.m1.m_majors - p.m0.m_majors) /. float_of_int host_ops );
              ( "check.us_per_event",
                1e6 *. Trace.ratio check_s (float_of_int (p.m1.m_events - p.m0.m_events)) );
              ("check.share", Trace.ratio check_s (p.m1.m_cpu -. p.m0.m_cpu));
              ("proxy.charge_ms_per_op", 1e3 *. (p.lat.exec_s -. t.Trace.root_inclusive) /. fops);
              ("ops.error_rate", Trace.ratio (float_of_int p.failed) (float_of_int p.attempted));
              ("trace.host_us_per_op", host_us_per_op);
            ]
          @ List.map
              (fun name -> (name, Option.value (List.assoc_opt name p.extra) ~default:0.0))
              [ "open.queue_p99_ms"; "open.backlog_max"; "open.gen_late_max_ms" ],
          t.Trace.root_inclusive,
          t.Trace.self_total )
  in
  {
    opts = o;
    correct = violations = [];
    violations;
    attempted = p.attempted;
    failed = p.failed;
    metrics = end_to_end @ layered;
    samples = [ ("read", Array.length reads); ("write", Array.length writes) ];
    steps = p.steps;
    root_inclusive_s;
    self_total_s;
  }
