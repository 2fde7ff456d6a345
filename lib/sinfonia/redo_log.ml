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

(* Decision records are kept unboxed: tids and commit stamps count up
   from 1 (one cluster-wide counter each), so both fit in an int. A
   record's table value is its commit stamp, or [aborted] for an abort;
   the retention ring holds each record's time and tid in push order. *)
module Itbl = Hashtbl.Make (Int)

let aborted = -1

type t = {
  mutable entries : entry list; (* append order, oldest first; small *)
  decided : int Itbl.t; (* tid -> commit stamp, or [aborted] *)
  repeats : int Itbl.t; (* tid -> records in the ring beyond its first *)
  mutable ring_at : Float.Array.t;
  mutable ring_tid : int array;
  mutable ring_head : int; (* index of the oldest record *)
  mutable ring_len : int;
  mutable conflicts : int64 list; (* tids with contradictory decisions *)
  retention : float;
  mutable watermark : int64; (* highest stamp applied to the replica image *)
}

let create ?(retention = 5.0) () =
  {
    entries = [];
    decided = Itbl.create 64;
    repeats = Itbl.create 8;
    ring_at = Float.Array.make 64 0.0;
    ring_tid = Array.make 64 0;
    ring_head = 0;
    ring_len = 0;
    conflicts = [];
    retention;
    watermark = 0L;
  }

let now () = if Sim.inside () then Sim.now () else 0.0

(* A tid or stamp as a table key; -1 (never a key) when out of range. *)
let key v =
  let i = Int64.to_int v in
  if i >= 0 && Int64.equal (Int64.of_int i) v then i else -1

let small what v =
  let i = key v in
  if i < 0 then invalid_arg (Printf.sprintf "Redo_log: %s %Ld out of range" what v);
  i

let find t ~tid = List.find_opt (fun e -> Int64.equal e.e_tid tid) t.entries

let entry = find

let voted t ~tid = find t ~tid <> None

let decision t ~tid =
  match Itbl.find_opt t.decided (key tid) with
  | None -> None
  | Some v when v = aborted -> Some Aborted
  | Some stamp -> Some (Committed (Int64.of_int stamp))

let refused t ~tid = Itbl.find_opt t.decided (key tid) = Some aborted

let ring_slot t i = (t.ring_head + i) land (Array.length t.ring_tid - 1)

(* Capacities stay powers of two so [ring_slot] can mask. *)
let ring_push t ~at tid =
  let cap = Array.length t.ring_tid in
  if t.ring_len = cap then begin
    let ring_at = Float.Array.make (2 * cap) 0.0 and ring_tid = Array.make (2 * cap) 0 in
    for i = 0 to t.ring_len - 1 do
      (* [ring_slot] masks into the old capacity; [i] < [cap] < 2 [cap]. *)
      let j = ring_slot t i in
      Float.Array.set ring_at i (Float.Array.get t.ring_at j);
      ring_tid.(i) <- t.ring_tid.(j)
    done;
    t.ring_at <- ring_at;
    t.ring_tid <- ring_tid;
    t.ring_head <- 0
  end;
  let j = ring_slot t t.ring_len in
  Float.Array.set t.ring_at j at;
  t.ring_tid.(j) <- tid;
  t.ring_len <- t.ring_len + 1

(* Expire records older than the retention window, oldest first. A tid
   decided more than once has one ring record per decision; it is
   forgotten only when its latest record expires. *)
let prune_decisions t =
  if t.retention < infinity then begin
    let cutoff = now () -. t.retention in
    (* [ring_head] is always a masked slot index, so in range. *)
    while t.ring_len > 0 && Float.Array.get t.ring_at t.ring_head < cutoff do
      let tid = t.ring_tid.(t.ring_head) in
      t.ring_head <- ring_slot t 1;
      t.ring_len <- t.ring_len - 1;
      match Itbl.find_opt t.repeats tid with
      | Some 1 -> Itbl.remove t.repeats tid
      | Some n -> Itbl.replace t.repeats tid (n - 1)
      | None -> Itbl.remove t.decided tid
    done
  end

let record_decision t ~tid d =
  let tid = small "tid" tid in
  let v = match d with Committed stamp -> small "stamp" stamp | Aborted -> aborted in
  if Itbl.mem t.decided tid then
    Itbl.replace t.repeats tid (1 + Option.value (Itbl.find_opt t.repeats tid) ~default:0);
  Itbl.replace t.decided tid v;
  ring_push t ~at:(now ()) tid;
  prune_decisions t

let append t ~tid ~participants ~writes =
  if not (voted t ~tid) then begin
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
   rule. A tid with contradictory decisions contributes both records.
   The retained tids are exactly the ring's (a tid decided twice
   appears twice), so one sort of an int array gives them key-sorted
   and the report is identical across runs of the same seed. *)
let fold_decisions t ~init f =
  let tids = Array.init t.ring_len (fun i -> t.ring_tid.(ring_slot t i)) in
  Array.sort Int.compare tids;
  let n = Array.length tids in
  let fold_desc f init =
    let acc = ref init in
    for i = n - 1 downto 0 do
      let tid = tids.(i) in
      if i = n - 1 || tid <> tids.(i + 1) then
        (* Every tid in the ring has a [decided] entry. *)
        acc :=
          f (Int64.of_int tid)
            (if Itbl.find t.decided tid = aborted then `Aborted else `Committed)
            !acc
    done;
    !acc
  in
  match t.conflicts with
  | [] -> fold_desc f init
  | conflicts ->
      let base = fold_desc (fun tid d acc -> (tid, d) :: acc) [] in
      let conflicting =
        List.map
          (fun tid ->
            match decision t ~tid with
            | Some (Committed _) -> (tid, `Aborted)
            | _ -> (tid, `Committed))
          (List.sort_uniq Int64.compare conflicts)
      in
      List.fold_left
        (fun acc (tid, d) -> f tid d acc)
        init
        (List.rev (List.merge compare base conflicting))

let decisions t = fold_decisions t ~init:[] (fun tid d acc -> (tid, d) :: acc)

let entry_count t = List.length t.entries
