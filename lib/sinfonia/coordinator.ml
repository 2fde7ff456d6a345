type mode = Normal | Blocking

let request_overhead = 64

let response_overhead = 32

let read_bytes_of_result reads =
  List.fold_left (fun acc (_, data) -> acc + String.length data) response_overhead reads

(* Before starting an exchange, a client that knows its own host id
   refuses to talk across a blocked link (in either direction) — a
   partition is detected at the protocol boundary, never mid-protocol.
   Anonymous clients ([client = None]) are not subject to partitions. *)
let check_reachable cluster ~client node_id =
  match client with
  | None -> ()
  | Some src ->
      if not (Cluster.connected cluster src (Cluster.serving_host cluster node_id)) then
        raise (Cluster.Partitioned node_id)

(* One request/response exchange with the node currently serving memnode
   [node_id]'s address space: pay the request transfer, route (the node
   may have crashed while the request was in flight), run [f] (which
   spends the memnode CPU while holding any locks it takes), pay the
   response transfer. [f] runs inside a serving pin, so a replica
   serving it is never restored from mid-request; a crash landing under
   [f] surfaces as {!Memnode.Crashed} at its next service boundary. *)
let round_trip cluster ~client node_id ~bytes_out ~resp_bytes f =
  check_reachable cluster ~client node_id;
  let net = Cluster.net cluster in
  let dst =
    match client with None -> None | Some _ -> Some (Cluster.serving_host cluster node_id)
  in
  Sim.Net.transfer ?src:client ?dst net ~bytes:bytes_out;
  let mn, store = Cluster.route cluster node_id in
  Memnode.begin_serving mn store;
  let result =
    try f mn store
    with e ->
      Memnode.end_serving store;
      raise e
  in
  Memnode.end_serving store;
  Sim.Net.transfer ?src:dst ?dst:client net ~bytes:(resp_bytes result);
  result

(* Phase-two exchange with a participant pinned at prepare time: no
   re-routing (the prepared locks live in that exact store) and no
   partition check — an exchange already in flight completes, modelling
   Sinfonia's transaction-recovery protocol resolving in-doubt
   participants. The caller still holds the serving pin taken at
   prepare. *)
let round_trip_pinned cluster ~client mn ~bytes_out ~resp_bytes f =
  let net = Cluster.net cluster in
  let dst = match client with None -> None | Some _ -> Some (Memnode.id mn) in
  Sim.Net.transfer ?src:client ?dst net ~bytes:bytes_out;
  let result = f () in
  Sim.Net.transfer ?src:dst ?dst:client net ~bytes:(resp_bytes result);
  result

(* Cap of the randomized exponential backoff after Busy, seconds. *)
let retry_backoff_max = 5e-3

(* Busy retries before a minitransaction gives up (a safety valve). *)
let max_retries = 10_000

let backoff_delay cluster attempt =
  let cfg = Cluster.config cluster in
  let base = cfg.Config.retry_backoff *. (2.0 ** float_of_int (min attempt 8)) in
  let capped = Float.min base retry_backoff_max in
  Sim.delay (Sim.Rng.float (Cluster.rng cluster) capped)

(* Raised by an attempt that released everything it held and must run
   again under a fresh owner id. A constant exception: signalling a
   retry allocates nothing. *)
exception Retry

(* The attempt loop shared by both protocols, from attempt [n] on:
   every attempt runs under a fresh owner id, and a [Retry] backs off
   before the next one until the retry budget is spent. *)
let rec attempts_from n cluster attempt =
  if n > max_retries then begin
    Obs.Counter.incr (Obs.mtx (Cluster.obs cluster)).Obs.retry_budget_exhausted;
    Mtx.Busy
  end
  else
    match attempt (Cluster.fresh_owner cluster) with
    | outcome -> outcome
    | exception Retry ->
        backoff_delay cluster n;
        attempts_from (n + 1) cluster attempt

let merge_reads parts_results =
  List.concat parts_results |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Crash epochs of the participating address spaces, sampled for the
   reply. Sampled after execution: any crash that landed before the
   participant served us is visible, so a proxy that sees epoch [e] on a
   reply knows entries cached under [e' < e] predate a crash. *)
let reply_epochs cluster (mtx : Mtx.t) =
  List.map (fun node -> (node, Cluster.space_epoch cluster node)) (Mtx.memnodes mtx)

(* Reads are tagged with their index into [mtx.reads]; translate back to
   (address, data) pairs in declaration order. *)
let outcome_of_reads cluster (mtx : Mtx.t) ~stamp indexed =
  let arr = Array.of_list mtx.reads in
  Mtx.Committed
    {
      stamp;
      reads = List.map (fun (i, data) -> ((arr.(i)).Mtx.r_addr, data)) indexed;
      epochs = reply_epochs cluster mtx;
    }

(* Blocking minitransactions wait at the memnode for busy locks, up to
   this threshold in seconds (Sec. 4.1); normal ones try them once. *)
let blocking_timeout = 20e-3

let lock_wait = function Normal -> None | Blocking -> Some blocking_timeout

let exec_single cluster ~client ~mode (mtx : Mtx.t) node =
  let cfg = Cluster.config cluster in
  let lock_wait = lock_wait mode in
  let obs = Cluster.obs cluster in
  let stats = Obs.mtx obs in
  let part = Memnode.part_of_mtx mtx ~node in
  let cost = Memnode.part_cost cfg part in
  let bytes_out = Memnode.part_bytes part + request_overhead in
  let stamp () = Cluster.take_stamp cluster in
  let resp_bytes = function
    | Memnode.Prepared reads, _ -> read_bytes_of_result reads
    | (Memnode.Busy_locks | Memnode.Compare_failed _), _ -> response_overhead
  in
  attempts_from 0 cluster @@ fun owner ->
  (* Mirror before the response transfer (ack-after-replication) and
     inside the serving pin. A crash between commit and mirror loses
     nothing: the commit is in the redo log, which promotion replays
     (and a mirror whose source crashed in flight is skipped). *)
  let run mn store =
    let result = Memnode.execute_single_timed mn store ~owner ~stamp ?lock_wait part ~cost in
    (match result with
    | Memnode.Prepared _, _ when part.p_writes <> [] ->
        Cluster.mirror cluster node ~owner part.p_writes
    | _ -> ());
    result
  in
  match
    Obs.with_span obs Obs.Span.Mtx_exec (fun () ->
        round_trip cluster ~client node ~bytes_out ~resp_bytes run)
  with
  | exception Memnode.Crashed ->
      (* The node died mid-request. Whether the 1PC commit happened is
         decided by the redo log: a recorded commit decision means the
         write is durable (promotion replays it), so the client must
         treat the operation as possibly applied. *)
      let redo = Cluster.redo_log cluster node in
      let applied =
        match Redo_log.decision redo ~tid:owner with
        | Some (Redo_log.Committed _) -> true
        | _ -> false
      in
      Obs.Counter.incr stats.Obs.mtx_unavailable;
      Mtx.Unavailable { maybe_applied = applied; partitioned = false }
  | Memnode.Prepared reads, Some stamp ->
      Obs.Counter.incr stats.Obs.committed_1pc;
      outcome_of_reads cluster mtx ~stamp (merge_reads [ reads ])
  | Memnode.Prepared _, None -> assert false
  | Memnode.Busy_locks, _ ->
      Obs.Counter.incr stats.Obs.busy_retries;
      raise Retry
  | Memnode.Compare_failed idxs, _ ->
      Obs.Counter.incr stats.Obs.compare_failed;
      Mtx.Failed_compare idxs

(* Run [f node] for every node in parallel and wait for all results. *)
let parallel_map nodes f =
  let ivars = List.map (fun node -> (node, Sim.Ivar.create ())) nodes in
  List.iter
    (fun (node, ivar) ->
      Sim.spawn (fun () ->
          (* Transport, not a swallow: the collection loop below
             re-raises the Error arm in the caller's fiber. *)
          (* lint: allow crashed-swallow *)
          let result = try Ok (f node) with e -> Error e in
          Sim.Ivar.fill ivar result))
    ivars;
  List.map
    (fun (node, ivar) ->
      match Sim.Ivar.read ivar with Ok v -> (node, v) | Error e -> raise e)
    ivars

(* Per-participant prepare outcome. A prepared participant is pinned:
   the exact (node, store) pair holding its locks, with the serving pin
   still taken, so phase two never re-routes. A crash under the held
   locks is caught by the epoch check before the stamp draw. *)
type presult =
  | P_prepared of Memnode.t * Memnode.store * (int * string) list * int
      (* last field: the space's crash epoch captured before the request
         went out — a bump by decision time means the participant's
         volatile locks died with it *)
  | P_busy
  | P_compare of int list
  | P_unreachable of bool (* partitioned? *)

let exec_multi cluster ~client ~mode (mtx : Mtx.t) nodes =
  let cfg = Cluster.config cluster in
  let lock_wait = lock_wait mode in
  let obs = Cluster.obs cluster in
  let stats = Obs.mtx obs in
  let parts = List.map (fun node -> (node, Memnode.part_of_mtx mtx ~node)) nodes in
  attempts_from 0 cluster @@ fun owner ->
  (* Phase one: prepare at every participant in parallel. Routing
     failures become values, never exceptions, so the participants that
     did prepare are always aborted. *)
  let prepare node =
    let part = List.assoc node parts in
    let cost = Memnode.part_cost cfg part in
    let bytes_out = Memnode.part_bytes part + request_overhead in
    let resp_bytes = function
      | P_prepared (_, _, reads, _) -> read_bytes_of_result reads
      | P_busy | P_compare _ | P_unreachable _ -> response_overhead
    in
    let ep0 = Cluster.space_epoch cluster node in
    try
      round_trip cluster ~client node ~bytes_out ~resp_bytes (fun mn store ->
          match Memnode.prepare_timed mn store ~owner ~participants:nodes ?lock_wait part ~cost with
          | Memnode.Prepared reads ->
              (* A second pin outlives the exchange: phase two runs in
                 this exact store, which must not be restored from. *)
              Memnode.begin_serving mn store;
              P_prepared (mn, store, reads, ep0)
          | Memnode.Busy_locks -> P_busy
          | Memnode.Compare_failed idxs -> P_compare idxs
          | exception Memnode.Crashed ->
              (* Crashed mid-prepare: no vote was logged (the append is
                 the last step before a successful return), so the
                 transaction can still only abort. *)
              P_unreachable false)
    with
    | Cluster.Unavailable _ -> P_unreachable false
    | Cluster.Partitioned _ -> P_unreachable true
  in
  let results = Obs.with_span obs Obs.Span.Mtx_prepare (fun () -> parallel_map nodes prepare) in
  let prepared =
    List.filter_map
      (fun (node, r) ->
        match r with
        | P_prepared (mn, store, reads, ep0) -> Some (node, mn, store, reads, ep0)
        | _ -> None)
      results
  in
  (* Abort phase for a failed attempt: release locks at every prepared
     (pinned) participant, then drop the serving pins. *)
  let abort_prepared () =
    ignore
      (parallel_map prepared (fun (_, mn, store, _, _) ->
           round_trip_pinned cluster ~client mn ~bytes_out:request_overhead
             ~resp_bytes:(fun () -> response_overhead)
             (fun () ->
               (* A crash under the abort leaves the vote in doubt; the
                  recovery coordinator aborts it (some other participant
                  of this failed attempt never voted). *)
               (try Memnode.abort_timed mn store ~owner ~cost:cfg.Config.svc_msg
                with Memnode.Crashed -> ());
               Memnode.end_serving store)))
  in
  let failed_compares =
    List.concat_map (fun (_, r) -> match r with P_compare idxs -> idxs | _ -> []) results
  in
  let unreachable =
    List.filter_map (fun (_, r) -> match r with P_unreachable p -> Some p | _ -> None) results
  in
  if failed_compares <> [] then begin
    abort_prepared ();
    Obs.Counter.incr stats.Obs.compare_failed;
    Mtx.Failed_compare (List.sort_uniq Int.compare failed_compares)
  end
  else if unreachable <> [] then begin
    (* A participant is down or partitioned off. Nothing committed (no
       stamp was drawn); release whatever prepared and let the caller
       decide whether to retry later. *)
    abort_prepared ();
    let node = List.hd nodes in
    if List.exists Fun.id unreachable then raise (Cluster.Partitioned node)
    else raise (Cluster.Unavailable node)
  end
  else if List.exists (fun (_, r) -> r = P_busy) results then begin
    abort_prepared ();
    Obs.Counter.incr stats.Obs.busy_retries;
    raise Retry
  end
  else if
    List.exists (fun (node, _, _, _, ep0) -> Cluster.space_epoch cluster node <> ep0) prepared
  then begin
    (* A participant crashed after voting yes: its volatile lock table
       died with it, and promotion re-locks only redo-logged write
       ranges, so the compares and reads it evaluated can no longer be
       claimed to hold at a stamp drawn now — a conflicting write may
       already have slipped onto the promoted image. Every participant
       voted yes, so recovery would otherwise drive this tid to commit:
       record the abort decision first, then release what can be
       reached and retry under a fresh tid. *)
    List.iter
      (fun (node, _, _, _, _) ->
        Redo_log.decide_abort (Cluster.redo_log cluster node) ~tid:owner;
        (* The promoted image may hold ranges re-locked under this tid
           (in-doubt relock at promotion); release them where a serving
           store is reachable. *)
        match Cluster.route cluster node with
        | _, store -> Lock_table.release (Memnode.store_locks store) ~owner
        | exception Cluster.Unavailable _ | exception Cluster.Partitioned _ -> ())
      prepared;
    abort_prepared ();
    Obs.Counter.incr stats.Obs.vote_epoch_aborts;
    raise Retry
  end
  else begin
    (* Every participant prepared: the decision is commit. The stamp is
       drawn here — after the last prepare, before any commit — while
       every participant's locks are held. *)
    let stamp = Cluster.take_stamp cluster in
    Obs.with_span obs Obs.Span.Mtx_commit (fun () ->
        ignore
          (parallel_map prepared (fun (node, mn, store, _, _) ->
               let part = List.assoc node parts in
               round_trip_pinned cluster ~client mn
                 ~bytes_out:(Memnode.part_bytes part + request_overhead)
                 ~resp_bytes:(fun () -> response_overhead)
                 (fun () ->
                   (* A crash under phase two is survivable: the vote is
                      logged at every participant, so recovery drives
                      this commit to completion (all-yes rule). The
                      outcome below is still Committed. *)
                   (try
                      Memnode.commit_timed mn store ~owner part ~stamp
                        ~cost:(Memnode.part_cost cfg part);
                      if part.p_writes <> [] then Cluster.mirror cluster node ~owner part.p_writes
                    with Memnode.Crashed -> ());
                   Memnode.end_serving store))));
    Obs.Counter.incr stats.Obs.committed_2pc;
    let reads = List.concat_map (fun (_, _, _, reads, _) -> reads) prepared in
    outcome_of_reads cluster mtx ~stamp (merge_reads [ reads ])
  end

let exec cluster ?client ?(mode = Normal) mtx =
  let obs = Cluster.obs cluster in
  match
    match Mtx.memnodes mtx with
    | [] -> Mtx.Committed { stamp = Cluster.take_stamp cluster; reads = []; epochs = [] }
    | [ node ] -> exec_single cluster ~client ~mode mtx node
    | nodes -> exec_multi cluster ~client ~mode mtx nodes
  with
  | outcome -> outcome
  | exception Cluster.Unavailable _ ->
      (* A participant (and its backup) is down; surface it as an
         outcome instead of tearing the caller down. No write of this
         minitransaction can have been applied: routing fails before
         execution, and a multi-phase attempt aborts every prepared
         participant before raising. (A crash mid-execution is the
         [Memnode.Crashed] path of [exec_single], which consults the
         redo log.) *)
      Obs.Counter.incr (Obs.mtx obs).Obs.mtx_unavailable;
      Mtx.Unavailable { maybe_applied = false; partitioned = false }
  | exception Cluster.Partitioned _ ->
      Obs.Counter.incr (Obs.mtx obs).Obs.mtx_unavailable;
      Mtx.Unavailable { maybe_applied = false; partitioned = true }

(* Dirty reads need no cross-memnode atomicity: each memnode's share
   runs as its own one-phase minitransaction, all in parallel, so no
   shared lock outlives its own round trip. Every part has returned
   before an outage or an exhausted retry budget fails the batch. *)
let read_per_memnode cluster ?client (reads : Mtx.read_item list) =
  let mtx = Mtx.make ~reads () in
  match Mtx.memnodes mtx with
  | [] | [ _ ] -> exec cluster ?client mtx
  | nodes -> (
      let indexed = List.mapi (fun i (r : Mtx.read_item) -> (i, r)) reads in
      let parts =
        parallel_map nodes (fun node ->
            let mine = List.filter (fun (_, (r : Mtx.read_item)) -> r.r_addr.node = node) indexed in
            (List.map fst mine, exec cluster ?client (Mtx.make ~reads:(List.map snd mine) ())))
      in
      let outcomes = List.map (fun (_, (_, o)) -> o) parts in
      match
        List.filter_map (function Mtx.Unavailable u -> Some u.partitioned | _ -> None) outcomes
      with
      | _ :: _ as partitioned ->
          (* A read applies nothing. *)
          Mtx.Unavailable { maybe_applied = false; partitioned = List.exists Fun.id partitioned }
      | [] when List.exists (function Mtx.Busy -> true | _ -> false) outcomes -> Mtx.Busy
      | [] ->
          let committed =
            List.map
              (fun (_, (idxs, outcome)) ->
                match outcome with
                | Mtx.Committed { stamp; reads; epochs } -> (stamp, epochs, List.combine idxs reads)
                | Mtx.Failed_compare _ | Mtx.Busy | Mtx.Unavailable _ ->
                    assert false (* no compares; failures returned above *))
              parts
          in
          Mtx.Committed
            {
              stamp = List.fold_left (fun acc (s, _, _) -> Int64.max acc s) Int64.min_int committed;
              reads = List.map snd (merge_reads (List.map (fun (_, _, r) -> r) committed));
              epochs = List.concat_map (fun (_, e, _) -> e) committed;
            })
