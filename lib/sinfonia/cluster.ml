type t = {
  config : Config.t;
  memnodes : Memnode.t array;
  redo_logs : Redo_log.t array; (* one per address space, shared primary/replica *)
  net : Sim.Net.t;
  obs : Obs.t;
  rng : Sim.Rng.t;
  mutable next_owner : int64;
  mutable next_stamp : int64;
  mutable daemons : bool; (* start_recovery's daemons run for good *)
  mutable settling : bool; (* a settle_in_doubt resolver is running *)
}

exception Unavailable of int

exception Partitioned of int

let backup_index ~config ~n i =
  if config.Config.replication && n > 1 then Some ((i + 1) mod n) else None

(* Replica promotion, run synchronously from the crash hook: the instant
   a primary dies, its replica image is rolled forward through the redo
   log (mirrors that never arrived) and the write ranges of in-doubt
   transactions are re-locked under their tids — before any failover
   request can reach the stale image. [broken_recovery] skips the
   replay; the history checker must then see lost updates. *)
let promote t i =
  match backup_index ~config:t.config ~n:(Array.length t.memnodes) i with
  | None -> ()
  | Some b -> (
      match Memnode.replica t.memnodes.(b) ~of_node:i with
      | None -> ()
      | Some store ->
          let redo = Memnode.store_redo store in
          if not t.config.broken_recovery then begin
            let replayed = Redo_log.replay redo ~heap:(Memnode.store_heap store) in
            if replayed > 0 then
              Obs.Counter.add (Obs.recovery t.obs).Obs.redo_replayed replayed
          end;
          Memnode.relock_in_doubt store;
          Obs.Counter.incr (Obs.recovery t.obs).Obs.promotions)

(* CPU servers per memnode: the paper pins each memnode to two cores. *)
let memnode_cores = 2

let create ?(config = Config.default) ?(seed = 0xC1057E4) ~n () =
  if n <= 0 then invalid_arg "Cluster.create: need at least one memnode";
  let rng = Sim.Rng.create seed in
  let net = Sim.Net.create ~rng:(Sim.Rng.split rng) () in
  let redo_logs = Array.init n (fun _ -> Redo_log.create ~retention:config.decision_retention ()) in
  let memnodes =
    Array.init n (fun id ->
        Memnode.create ~redo:redo_logs.(id) ~id ~cores:memnode_cores
          ~heap_capacity:config.heap_capacity ())
  in
  if config.replication && n > 1 then
    Array.iteri
      (fun i _ ->
        let backup = (i + 1) mod n in
        ignore
          (Memnode.add_replica memnodes.(backup) ~of_node:i ~heap_capacity:config.heap_capacity
             ~redo:redo_logs.(i)))
      memnodes;
  let t =
    { config; memnodes; redo_logs; net; obs = Obs.create (); rng; next_owner = 1L;
      next_stamp = 1L;
      daemons = false;
      settling = false;
    }
  in
  Array.iteri (fun i mn -> Memnode.set_crash_hook mn (fun () -> promote t i)) memnodes;
  t

let config t = t.config

let n_memnodes t = Array.length t.memnodes

let memnode t i = t.memnodes.(i)

(* Address space [i]'s crash epoch. The epoch lives on memnode [i]
   itself (bumped by Memnode.crash, i.e. at the same instant its replica
   is promoted), so it is correct even while the space is being served
   from a backup. *)
let space_epoch t i = Memnode.epoch t.memnodes.(i)

let redo_log t i = t.redo_logs.(i)

let net t = t.net

let obs t = t.obs

let rng t = t.rng

let fresh_owner t =
  let owner = t.next_owner in
  t.next_owner <- Int64.add t.next_owner 1L;
  owner

let owner_watermark t = t.next_owner

(* Commit stamps share nothing with owner ids: owners identify lock
   holders, stamps order committed minitransactions. A stamp is only
   meaningful if drawn while the minitransaction's locks are held
   (coordinator / memnode duty, not ours). *)
let take_stamp t =
  let s = t.next_stamp in
  t.next_stamp <- Int64.add t.next_stamp 1L;
  s

let backup_of t i = backup_index ~config:t.config ~n:(Array.length t.memnodes) i

let route t i =
  let mn = t.memnodes.(i) in
  if not (Memnode.crashed mn) then (mn, Memnode.primary mn)
  else
    match backup_of t i with
    | None -> raise (Unavailable i)
    | Some b ->
        let bn = t.memnodes.(b) in
        if Memnode.crashed bn then raise (Unavailable i)
        else (
          match Memnode.replica bn ~of_node:i with
          | Some store -> (bn, store)
          | None -> raise (Unavailable i))

let serving_host t i =
  let mn, _ = route t i in
  Memnode.id mn

(* Hosts [a] and [b] can exchange a request and its reply: the link is
   unblocked in both directions. *)
let connected t a b = Sim.Net.reachable t.net ~src:a ~dst:b && Sim.Net.reachable t.net ~src:b ~dst:a

(* Fraction of the primary's apply cost the backup pays to apply a
   mirror. *)
let backup_factor = 0.6

(* Synchronous primary-backup mirror of one committed minitransaction's
   writes. Outcomes are recorded honestly in the redo log: only a mirror
   that actually reached the replica image marks the entry mirrored
   (allowing truncation); a skipped mirror — backup down, link
   partitioned, either end crashing mid-transfer — leaves the entry
   committed-but-unmirrored, and the recovery daemon's flush (or a
   promotion replay) delivers it later. *)
let mirror t i ~owner writes =
  let redo = t.redo_logs.(i) in
  if writes = [] then () (* decide_commit already auto-marked the entry *)
  else
    match backup_of t i with
    | None ->
        (* No replica to lag behind. *)
        Redo_log.mark_mirrored redo ~tid:owner
    | Some b -> (
        if Memnode.crashed t.memnodes.(i) then
          (* Serving from the replica: the writes went straight into the
             only live image. *)
          Redo_log.mark_mirrored redo ~tid:owner
        else
          let bn = t.memnodes.(b) in
          match Memnode.replica bn ~of_node:i with
          | None -> Redo_log.mark_mirrored redo ~tid:owner
          | Some store ->
              if Memnode.crashed bn || not (connected t i b) then
                Obs.Counter.incr (Obs.recovery t.obs).Obs.mirror_skipped
              else begin
                let ep = Memnode.epoch t.memnodes.(i) in
                let bytes =
                  List.fold_left (fun acc w -> acc + String.length w.Mtx.w_data) 64 writes
                in
                Sim.Net.transfer ~src:i ~dst:b t.net ~bytes;
                let cost =
                  backup_factor
                  *. (t.config.svc_msg +. (t.config.svc_per_kb *. (float_of_int bytes /. 1024.0)))
                in
                Memnode.serve bn ~cost;
                if Memnode.crashed bn || Memnode.epoch t.memnodes.(i) <> ep then
                  (* One end died while the mirror was in flight. If it
                     was the primary, its promotion already replayed this
                     entry; either way the log keeps it until some image
                     provably has it. *)
                  Obs.Counter.incr (Obs.recovery t.obs).Obs.mirror_skipped
                else begin
                  Redo_log.apply_mirror redo ~tid:owner ~heap:(Memnode.store_heap store);
                  Sim.Net.transfer ~src:b ~dst:i t.net ~bytes:32;
                  Obs.Counter.incr (Obs.mtx t.obs).Obs.mirrors
                end
              end)

(* Push aged committed-but-unmirrored redo entries to their replica
   image: Sinfonia's primary replaying its log to a backup that was down
   or partitioned when the mirror was first attempted. Age-gated so a
   mirror still in flight is never raced. *)
let flush_redo t ~grace =
  Array.iteri
    (fun i mn ->
      match backup_of t i with
      | None -> ()
      | Some b -> (
          match Memnode.replica t.memnodes.(b) ~of_node:i with
          | None -> ()
          | Some store ->
              if
                (not (Memnode.crashed mn))
                && (not (Memnode.crashed t.memnodes.(b)))
                && connected t i b
              then begin
                let n =
                  Redo_log.replay ~min_age:grace t.redo_logs.(i)
                    ~heap:(Memnode.store_heap store)
                in
                if n > 0 then begin
                  Sim.Net.transfer ~src:i ~dst:b t.net ~bytes:(256 * n);
                  Obs.Counter.add (Obs.recovery t.obs).Obs.redo_replayed n
                end
              end))
    t.memnodes

let in_doubt_total t =
  Array.fold_left (fun acc log -> acc + Redo_log.in_doubt_count log) 0 t.redo_logs

(* -------------------------------------------------------------------- *)
(* In-doubt resolution                                                    *)
(* -------------------------------------------------------------------- *)

(* Sinfonia's recovery coordinator (Sec. 2.3 of the paper) for
   transactions whose participant voted yes but whose coordinator went
   silent — typically because the participant crashed mid-2PC and
   restarted with the vote still in its redo log.

   The resolution rule is the classic presumed-abort one, made race-free
   against a live coordinator by two invariants shared with {!Memnode}
   and {!Redo_log}:

   - Recovery only aborts a transaction after recording an [Aborted]
     decision at a participant that has NOT voted ({!Redo_log.refused});
     a prepare arriving there later must vote no, so the live
     coordinator can never assemble the all-yes it needs to commit.
   - The live coordinator only commits when every participant voted
     yes, and {!Redo_log.decide_commit} deduplicates whoever gets to a
     participant second. Recovery commits either with the stamp found in
     some participant's decision record, or — when no decision exists
     anywhere — with a fresh stamp, which is safe because every write
     range involved is still locked under the transaction's tid. *)

let poll_bytes = 96

(* What one round-trip to a participant reveals about [tid] there. *)
type probe = Unreachable | Voted | Not_voted | Decided of Redo_log.decision

let probe t ~from ~tid p =
  match route t p with
  | exception Unavailable _ -> Unreachable
  | mn, _ ->
      let host = Memnode.id mn in
      if host <> from && not (connected t from host) then Unreachable
      else begin
        if host <> from then begin
          Sim.Net.transfer ~src:from ~dst:host t.net ~bytes:poll_bytes;
          Sim.Net.transfer ~src:host ~dst:from t.net ~bytes:poll_bytes
        end;
        (* The serving store may have changed while the poll was in
           flight; answer from whoever serves the space now. *)
        match route t p with
        | exception Unavailable _ -> Unreachable
        | _, store -> (
            let redo = Memnode.store_redo store in
            match Redo_log.decision redo ~tid with
            | Some d -> Decided d
            | None -> if Redo_log.voted redo ~tid then Voted else Not_voted)
      end

(* Drive the commit of [tid] at participant [p]. [`Skip] means the
   other side of the race (live coordinator or an earlier sweep) already
   applied the writes. *)
let commit_at t ~tid ~stamp p =
  match route t p with
  | exception Unavailable _ -> ()
  | mn, store -> (
      let redo = Memnode.store_redo store in
      match Redo_log.entry redo ~tid with
      | None -> () (* decided and already flushed here *)
      | Some e -> (
          match Memnode.commit_and_release store ~owner:tid ~stamp e.Redo_log.e_writes with
          | `Apply ->
              (* Serving from the replica: the only live image now has
                 the writes, so the entry needs no further mirror. *)
              if Memnode.store_space store <> Memnode.id mn then
                Redo_log.mark_mirrored redo ~tid
          | `Skip -> ()))

let abort_at t ~tid p =
  match route t p with
  | exception Unavailable _ -> ()
  | _, store -> Memnode.abort_and_release store ~owner:tid

(* Record the blocking [Aborted] decision at one participant that has
   not voted. The no-vote re-check and the decision record are adjacent
   (no scheduler yield), so either the refusal lands before any vote —
   and blocks it — or the vote is seen here and we defer. *)
let place_refusal t ~tid unvoted =
  let rec go = function
    | [] -> false
    | p :: rest -> (
        match route t p with
        | exception Unavailable _ -> go rest
        | _, store ->
            let redo = Memnode.store_redo store in
            if Redo_log.voted redo ~tid then false
            else begin
              Redo_log.decide_abort redo ~tid;
              true
            end)
  in
  go unvoted

(* Poll every participant of one in-doubt entry and drive its outcome:
   a decision recorded anywhere wins and is propagated; a reachable
   participant without a vote forces an abort; all-yes with no decision
   commits; an unreachable participant with every reachable one voting
   yes blocks the entry until the partition heals. *)
let resolve t ~from (e : Redo_log.entry) =
  let tid = e.Redo_log.e_tid in
  let probes = List.map (fun p -> (p, probe t ~from ~tid p)) e.Redo_log.e_participants in
  let committed_stamp =
    List.find_map (function _, Decided (Redo_log.Committed s) -> Some s | _ -> None) probes
  in
  let aborted = List.exists (function _, Decided Redo_log.Aborted -> true | _ -> false) probes in
  let any_unreachable = List.exists (function _, Unreachable -> true | _ -> false) probes in
  let unvoted = List.filter_map (function p, Not_voted -> Some p | _ -> None) probes in
  match committed_stamp with
  | Some stamp ->
      (* Some participant saw the commit decision; finish it everywhere
         we can reach. *)
      List.iter (fun (p, pr) -> if pr <> Unreachable then commit_at t ~tid ~stamp p) probes;
      `Commit
  | None ->
      if aborted then begin
        List.iter (fun (p, pr) -> if pr <> Unreachable then abort_at t ~tid p) probes;
        `Abort
      end
      else if unvoted <> [] then
        (* Some reachable participant never voted: the transaction
           cannot have committed. Block its commit path first, then
           release the voters. Unreachable participants pick the
           decision up from the others when they return. *)
        if place_refusal t ~tid unvoted then begin
          List.iter
            (fun (p, pr) -> if pr = Voted || pr = Not_voted then abort_at t ~tid p)
            probes;
          `Abort
        end
        else `Defer (* a vote landed under us; re-evaluate next sweep *)
      else if any_unreachable then
        (* Every reachable participant voted yes but some participant
           cannot be polled: its vote (or a recorded decision) could go
           either way. Block — Sinfonia recovers such transactions only
           once the participant is back. *)
        `Defer
      else begin
        (* All participants voted yes and none saw a decision: commit.
           A fresh stamp is safe — the write ranges are still locked
           under [tid] everywhere, so nothing serialized between the
           coordinator's stamp draw and now conflicts with them. *)
        let stamp = take_stamp t in
        List.iter (fun (p, _) -> commit_at t ~tid ~stamp p) probes;
        `Commit
      end

(* Flush lagging replicas, then resolve every space's in-doubt
   transactions, in space order. *)
let sweep t =
  flush_redo t ~grace:t.config.in_doubt_grace;
  let stats = Obs.recovery t.obs in
  Obs.with_span t.obs Obs.Span.Recovery_sweep (fun () ->
      for s = 0 to Array.length t.memnodes - 1 do
        match route t s with
        | exception Unavailable _ -> ()
        | mn, store ->
            let from = Memnode.id mn in
            let redo = Memnode.store_redo store in
            List.iter
              (fun (e : Redo_log.entry) ->
                (* An earlier resolution this sweep (shared participant)
                   may have settled this entry already. *)
                if
                  e.Redo_log.e_state = `Prepared
                  && Redo_log.decision redo ~tid:e.Redo_log.e_tid = None
                then begin
                  if Redo_log.note_reported e then Obs.Counter.incr stats.Obs.in_doubt_found;
                  match resolve t ~from e with
                  | `Commit -> Obs.Counter.incr stats.Obs.resolved_commit
                  | `Abort -> Obs.Counter.incr stats.Obs.resolved_abort
                  | `Defer -> ()
                end)
              (Redo_log.in_doubt ~min_age:t.config.in_doubt_grace redo)
      done)

(* Release, at every memnode, locks held past [lease] by owners that
   never voted. *)
let release_orphans t ~lease =
  Array.iter
    (fun mn ->
      let recovered = Memnode.recover_orphaned_locks mn ~lease in
      if recovered > 0 then Obs.Counter.add (Obs.mtx t.obs).Obs.orphans_released recovered)
    t.memnodes

let start_recovery ?(lease = 0.25) ?(interval = 1.0) t =
  t.daemons <- true;
  Sim.spawn ~name:"sinfonia-recovery" (fun () ->
      let rec loop () =
        Sim.delay interval;
        release_orphans t ~lease;
        loop ()
      in
      loop ());
  Sim.spawn ~name:"sinfonia-in-doubt" (fun () ->
      let rec loop () =
        Sim.delay interval;
        sweep t;
        loop ()
      in
      loop ())

(* The daemons' work (default lease, a 50 ms interval) folded into one
   process that exits as soon as no transaction is left in doubt, so a
   simulation that crashed a node can still run out of events and end. *)
let settle_in_doubt t =
  if not (t.daemons || t.settling) then begin
    t.settling <- true;
    Sim.spawn ~name:"sinfonia-settle" (fun () ->
        let rec loop () =
          Sim.delay 0.05;
          release_orphans t ~lease:0.25;
          sweep t;
          if in_doubt_total t > 0 then loop () else t.settling <- false
        in
        loop ())
  end

let crash t i =
  Memnode.crash t.memnodes.(i);
  Obs.Counter.incr (Obs.mtx t.obs).Obs.crashes

type recover_error = Not_crashed | No_replica | Replica_busy

let recover_error_to_string = function
  | Not_crashed -> "node is not crashed"
  | No_replica -> "no replica to restore from"
  | Replica_busy -> "replica is serving in-flight requests"

let try_recover t i =
  if not (Memnode.crashed t.memnodes.(i)) then Error Not_crashed
  else
    match backup_of t i with
    | None -> Error No_replica
    | Some b -> (
        match Memnode.replica t.memnodes.(b) ~of_node:i with
        | None -> Error No_replica
        | Some store ->
            (* A replica mid-minitransaction (serving as failover) must
               finish before its image is copied back, or the restored
               primary would miss the in-flight writes. *)
            if Memnode.store_serving store > 0 then Error Replica_busy
            else begin
              let replayed =
                Memnode.recover ~broken:t.config.broken_recovery t.memnodes.(i)
                  ~from_replica:store
              in
              if replayed > 0 then
                Obs.Counter.add (Obs.recovery t.obs).Obs.redo_replayed replayed;
              Obs.Counter.incr (Obs.mtx t.obs).Obs.recoveries;
              Ok ()
            end)

(* Recovery waits out a replica serving in-flight failover requests;
   any other refusal is returned. *)
let rec recover_when_idle ?(poll = 1e-3) t i =
  match try_recover t i with
  | Error Replica_busy ->
      Sim.delay poll;
      recover_when_idle ~poll t i
  | r -> r

(* Consed back to front in one pass: spaces ascending, each space's
   records tid-sorted. *)
let redo_decisions t =
  let acc = ref [] in
  for space = Array.length t.redo_logs - 1 downto 0 do
    acc :=
      Redo_log.fold_decisions t.redo_logs.(space) ~init:!acc (fun tid d acc ->
          (space, tid, d) :: acc)
  done;
  !acc
