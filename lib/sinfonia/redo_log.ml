(* Per-address-space redo log (Sinfonia Sec. 2.1): a participant logs
   its yes vote together with the minitransaction's write set before
   acknowledging phase one, and logs the decision in phase two. The log
   models stable storage shared by a space's primary store and its
   replica store: it survives crashes of either host, which is what lets
   a restarted memnode come back with in-doubt entries instead of a
   wiped lock table, and lets replica promotion roll the replica image
   forward instead of assuming it is current. *)

type decision = Committed of int64 | Aborted

type entry = {
  e_tid : int64;
  e_participants : int list;
  e_writes : Mtx.write_item list;
  e_logged_at : float;
  mutable e_stamp : int64; (* meaningful once e_state = `Committed *)
  mutable e_state : [ `Prepared | `Committed ];
  mutable e_mirrored : bool; (* writes reflected in the replica image *)
  mutable e_reported : bool; (* counted once as in-doubt by recovery *)
}

type t = {
  mutable entries : entry list; (* append order, oldest first; small *)
  decided : (int64, decision) Hashtbl.t;
  decided_order : (float * int64) Queue.t;
  mutable conflicts : int64 list; (* tids with contradictory decisions *)
  retention : float;
  mutable watermark : int64; (* highest stamp applied to the replica image *)
  mutable appended : int;
}

let create ?(retention = 5.0) () =
  {
    entries = [];
    decided = Hashtbl.create 64;
    decided_order = Queue.create ();
    conflicts = [];
    retention;
    watermark = 0L;
    appended = 0;
  }

let now () = if Sim.inside () then Sim.now () else 0.0

let find t ~tid = List.find_opt (fun e -> Int64.equal e.e_tid tid) t.entries

let entry = find

let voted t ~tid = find t ~tid <> None

let decision t ~tid = Hashtbl.find_opt t.decided tid

let refused t ~tid = match decision t ~tid with Some Aborted -> true | _ -> false

let prune_decisions t =
  if t.retention < infinity then begin
    let cutoff = now () -. t.retention in
    let rec drain () =
      match Queue.peek_opt t.decided_order with
      | Some (at, tid) when at < cutoff ->
          ignore (Queue.pop t.decided_order);
          Hashtbl.remove t.decided tid;
          drain ()
      | _ -> ()
    in
    drain ()
  end

let record_decision t ~tid d =
  Hashtbl.replace t.decided tid d;
  Queue.push (now (), tid) t.decided_order;
  prune_decisions t

let append t ~tid ~participants ~writes =
  if not (voted t ~tid) then begin
    t.appended <- t.appended + 1;
    t.entries <-
      t.entries
      @ [
          {
            e_tid = tid;
            e_participants = participants;
            e_writes = writes;
            e_logged_at = now ();
            e_stamp = -1L;
            e_state = `Prepared;
            e_mirrored = false;
            e_reported = false;
          };
        ]
  end

let appends t = t.appended

let committed_in_order t =
  List.filter (fun e -> e.e_state = `Committed) t.entries
  |> List.sort (fun a b -> Int64.compare a.e_stamp b.e_stamp)

(* Truncate committed entries once their writes are safe in the replica
   image — but only as a contiguous stamp-prefix of the committed set.
   Keeping every committed entry above the lowest un-mirrored stamp is
   what lets {!replay} reproduce stamp order on the replica even when
   mirrors completed out of order. Stamps are unique (one cluster-wide
   counter, one entry per tid), so the prefix is exactly the mirrored
   entries below that stamp; the scans allocate nothing unless they
   find one. *)
let rec lowest_unmirrored stamp = function
  | [] -> stamp
  | e :: rest ->
      lowest_unmirrored
        (if e.e_state = `Committed && (not e.e_mirrored) && Int64.compare e.e_stamp stamp < 0 then
           e.e_stamp
         else stamp)
        rest

let truncatable ~below e =
  e.e_state = `Committed && e.e_mirrored && Int64.compare e.e_stamp below < 0

let rec any_truncatable ~below = function
  | [] -> false
  | e :: rest -> truncatable ~below e || any_truncatable ~below rest

let gc t =
  let below = lowest_unmirrored Int64.max_int t.entries in
  if any_truncatable ~below t.entries then
    t.entries <- List.filter (fun e -> not (truncatable ~below e)) t.entries

let mark_mirrored t ~tid =
  match find t ~tid with
  | Some e when e.e_state = `Committed ->
      e.e_mirrored <- true;
      if Int64.compare e.e_stamp t.watermark > 0 then t.watermark <- e.e_stamp;
      gc t
  | _ -> ()

let decide_commit t ~tid ~stamp =
  match decision t ~tid with
  | Some (Committed _) ->
      (* Already resolved (by the recovery coordinator); the writes are
         applied, do not apply them again over later commits. *)
      `Skip
  | existing ->
      (if existing = Some Aborted then t.conflicts <- tid :: t.conflicts);
      record_decision t ~tid (Committed stamp);
      (match find t ~tid with
      | Some e ->
          e.e_state <- `Committed;
          e.e_stamp <- stamp;
          (* Nothing to mirror: the entry holds no writes. *)
          if e.e_writes = [] then mark_mirrored t ~tid
      | None -> ());
      `Apply

let decide_abort t ~tid =
  match decision t ~tid with
  | Some (Committed _) -> t.conflicts <- tid :: t.conflicts
  | _ ->
      record_decision t ~tid Aborted;
      t.entries <- List.filter (fun e -> not (Int64.equal e.e_tid tid)) t.entries

let in_doubt ?(min_age = 0.0) t =
  let cutoff = now () -. min_age in
  List.filter (fun e -> e.e_state = `Prepared && e.e_logged_at <= cutoff) t.entries

let in_doubt_count t = List.length (in_doubt t)

let note_reported e =
  if e.e_reported then false
  else begin
    e.e_reported <- true;
    true
  end

let apply_entry heap e =
  List.iter (fun w -> Heap.write heap ~off:w.Mtx.w_addr.Address.off w.Mtx.w_data) e.e_writes

(* Apply one mirrored commit to the replica image. If a higher-stamped
   commit already reached the image (out-of-order mirror completion on a
   lossy link), reapply the retained entries above it so the image ends
   in stamp order — they are guaranteed retained by {!gc}'s
   contiguous-prefix rule. *)
let apply_mirror t ~tid ~heap =
  match find t ~tid with
  | Some e when e.e_state = `Committed ->
      apply_entry heap e;
      if Int64.compare t.watermark e.e_stamp > 0 then
        List.iter
          (fun e' ->
            if e'.e_mirrored && Int64.compare e'.e_stamp e.e_stamp > 0 then apply_entry heap e')
          (committed_in_order t);
      mark_mirrored t ~tid
  | _ -> ()

(* Roll a heap image forward to the log's committed tail: apply every
   retained committed entry in stamp order (idempotent — writes are
   absolute), mark them mirrored and truncate. Returns how many
   previously un-mirrored commits were recovered. With [min_age] set,
   only flush when every un-mirrored commit is at least that old (a
   younger one may still have a mirror in flight; replaying under it
   could reorder against that mirror's eventual arrival). *)
let replay ?(min_age = 0.0) t ~heap =
  let committed = committed_in_order t in
  let unmirrored = List.filter (fun e -> not e.e_mirrored) committed in
  let cutoff = now () -. min_age in
  if unmirrored = [] then 0
  else if min_age > 0.0 && List.exists (fun e -> e.e_logged_at > cutoff) unmirrored then 0
  else begin
    List.iter
      (fun e ->
        apply_entry heap e;
        e.e_mirrored <- true;
        if Int64.compare e.e_stamp t.watermark > 0 then t.watermark <- e.e_stamp)
      committed;
    gc t;
    List.length unmirrored
  end

let write_ranges e =
  List.map
    (fun w ->
      {
        Lock_table.start = w.Mtx.w_addr.Address.off;
        len = String.length w.Mtx.w_data;
        mode = Lock_table.Exclusive;
      })
    e.e_writes

(* Every decision this log knows of, for the checker's 2PC-atomicity
   rule. A tid with contradictory decisions contributes both records. *)
let decisions t =
  let base =
    (* Key-sorted so the checker's 2PC report is identical across runs
       of the same seed. *)
    Sim.Det.sorted_bindings t.decided ~cmp:Int64.compare
    |> List.map (fun (tid, d) ->
           (tid, match d with Committed _ -> `Committed | Aborted -> `Aborted))
  in
  let conflicting =
    List.map
      (fun tid ->
        match Hashtbl.find_opt t.decided tid with
        | Some (Committed _) -> (tid, `Aborted)
        | _ -> (tid, `Committed))
      (List.sort_uniq Int64.compare t.conflicts)
  in
  List.sort compare (base @ conflicting)

let entry_count t = List.length t.entries
