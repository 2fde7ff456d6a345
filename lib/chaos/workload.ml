module Session = Minuet.Session
module Ops = Btree.Ops

type totals = {
  mutable ops : int;
  mutable gets : int;
  mutable puts : int;
  mutable removes : int;
  mutable scans : int;
  mutable snapshots : int;
  mutable snapshot_reads : int;
  mutable dual_scans : int;
  mutable scan_mismatches : int;
  mutable too_contended : int;
  mutable ambiguous : int;
  mutable branches_created : int;
  mutable branches_deleted : int;
  mutable branch_reads : int;  (** Reads addressed at an explicit version. *)
  mutable multi_reads : int;  (** [get_many] / [history] queries. *)
  mutable branch_blocked : int;
      (** Branch ops refused by the catalog ([Too_many_branches],
          [Not_deletable]); expected under β bounds, not failures. *)
}

let totals () =
  {
    ops = 0;
    gets = 0;
    puts = 0;
    removes = 0;
    scans = 0;
    snapshots = 0;
    snapshot_reads = 0;
    dual_scans = 0;
    scan_mismatches = 0;
    too_contended = 0;
    ambiguous = 0;
    branches_created = 0;
    branches_deleted = 0;
    branch_reads = 0;
    multi_reads = 0;
    branch_blocked = 0;
  }

let pp_totals fmt t =
  Format.fprintf fmt
    "@[<h>%d ops (%d get, %d put, %d remove, %d scan, %d snapshot + %d snapshot reads); %d \
     dual scans (%d mismatches); %d too-contended, %d ambiguous@]"
    t.ops t.gets t.puts t.removes t.scans t.snapshots t.snapshot_reads t.dual_scans
    t.scan_mismatches t.too_contended t.ambiguous;
  if t.branches_created + t.branch_reads + t.multi_reads > 0 then
    Format.fprintf fmt
      "@,@[<h>branching: %d created, %d deleted, %d versioned reads, %d multi-version \
       queries, %d refused@]"
      t.branches_created t.branches_deleted t.branch_reads t.multi_reads t.branch_blocked

let key_of i = Printf.sprintf "k%05d" i

(* Hot-key bias: a quarter of accesses hit a small hot set so that
   update conflicts, lock contention and stale caches actually occur. *)
let pick_key rng ~keys ~hot_keys =
  if hot_keys > 0 && Sim.Rng.int rng 4 = 0 then key_of (Sim.Rng.int rng hot_keys)
  else key_of (Sim.Rng.int rng keys)

(* Oracle comparison for the batched scan: re-run the same snapshot scan
   through the per-leaf path ([~batch:1]) and require the identical
   entry sequence. Snapshots are immutable, so the two paths see the
   same history; any difference is a batching bug and fails the run
   (the runner turns [scan_mismatches] into an audit failure). Linear
   snapshots only: the branching version context cannot be rebuilt from
   a [Session.snapshot] alone. *)
let dual_scan_check session (snap : Session.snapshot) ~from ~count batched stats =
  if not (Minuet.Db.config (Session.db session)).Minuet.Config.branching then begin
    stats.dual_scans <- stats.dual_scans + 1;
    let index = Session.index (Session.db session) snap.Session.index in
    let tree = Session.tree_of session index in
    let vctx_of _txn =
      Ops.Linear.at_snapshot tree ~sid:snap.Session.sid ~root:snap.Session.root
    in
    let per_leaf = Ops.scan ~batch:1 tree ~vctx_of ~from ~count in
    let same =
      List.equal
        (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
        batched per_leaf
    in
    if not same then stats.scan_mismatches <- stats.scan_mismatches + 1
  end

(* One client loop: mixed reads, updates, inserts/removes, scans and
   snapshot reads against [session], with unique values so the checker
   can identify every write. [scan_heavy] shifts the mix toward long
   range scans (the batched-scan stress profile). Runs until
   [deadline]; [on_done] is called exactly once afterwards. *)
let run_client ?(scan_heavy = false) ~session ~rng ~client_id ~keys ~hot_keys ~think ~deadline
    ~stats ~on_done () =
  let opid = ref 0 in
  let value () =
    incr opid;
    Printf.sprintf "c%d-%d" client_id !opid
  in
  let scan_count = if scan_heavy then 32 else 8 in
  let snapshot_reads k =
    stats.snapshots <- stats.snapshots + 1;
    let snap = Session.snapshot session in
    stats.snapshot_reads <- stats.snapshot_reads + 3;
    ignore (Session.get_at session snap k : string option);
    ignore (Session.get_at session snap (pick_key rng ~keys ~hot_keys) : string option);
    let batched = Session.scan_at session snap ~from:k ~count:scan_count in
    dual_scan_check session snap ~from:k ~count:scan_count batched stats
  in
  let one_op () =
    let k = pick_key rng ~keys ~hot_keys in
    if scan_heavy then
      (* Scan-dominated: long ranges on tip and snapshots, enough writes
         to keep splitting/moving leaves under the scans' feet. *)
      match Sim.Rng.int rng 100 with
      | r when r < 10 ->
          stats.gets <- stats.gets + 1;
          ignore (Session.get session k : string option)
      | r when r < 35 ->
          stats.puts <- stats.puts + 1;
          Session.put session k (value ())
      | r when r < 42 ->
          stats.removes <- stats.removes + 1;
          ignore (Session.remove session k : bool)
      | r when r < 75 ->
          stats.scans <- stats.scans + 1;
          ignore (Session.scan session ~from:k ~count:scan_count : (string * string) list)
      | _ -> snapshot_reads k
    else
      match Sim.Rng.int rng 100 with
      | r when r < 35 ->
          stats.gets <- stats.gets + 1;
          ignore (Session.get session k : string option)
      | r when r < 65 ->
          stats.puts <- stats.puts + 1;
          Session.put session k (value ())
      | r when r < 75 ->
          stats.removes <- stats.removes + 1;
          ignore (Session.remove session k : bool)
      | r when r < 85 ->
          stats.scans <- stats.scans + 1;
          ignore (Session.scan session ~from:k ~count:scan_count : (string * string) list)
      | _ -> snapshot_reads k
  in
  let rec loop () =
    if Sim.now () < deadline then begin
      Sim.delay (Sim.Rng.float rng think);
      if Sim.now () < deadline then begin
        (try
           one_op ();
           stats.ops <- stats.ops + 1
         with
        | Ops.Too_contended _ -> stats.too_contended <- stats.too_contended + 1
        | Ops.Ambiguous _ -> stats.ambiguous <- stats.ambiguous + 1);
        loop ()
      end
    end
  in
  loop ();
  on_done ()

(* ---------------------------------------------------------------------- *)
(* Branching-mode traffic (Sec. 5)                                         *)
(* ---------------------------------------------------------------------- *)

(* Read-only versions are shared through a {!Checked.Registry} so that
   readers exercise versions other clients froze (and so the runner can
   audit each of them). *)
let pick_frozen rng registry =
  match Checked.Registry.frozen registry with
  | [] -> None
  | l -> Some (List.nth l (Sim.Rng.int rng (List.length l)))

(* One branching-mode client: mainline reads and writes, writes at
   private writable clones, reads at shared frozen versions (the ops the
   frozen-ancestor rule checks — and the ones a broken-isolation tree
   corrupts), branch creation/deletion and multi-version queries. Each
   client only writes at and deletes clones it created itself; read-only
   versions are shared freely (they are immutable). *)
let run_branch_client ~branching ~rng ~client_id ~registry ~keys ~hot_keys ~think ~deadline
    ~stats ~on_done () =
  let module Branching = Mvcc.Branching in
  let br = branching in
  let opid = ref 0 in
  let value () =
    incr opid;
    Printf.sprintf "c%d-%d" client_id !opid
  in
  (* Writable clones created by this client, newest first. The newest is
     the preferred branch source, growing an ancestor chain deep enough
     to make [history] and frozen-chain checks interesting. *)
  let my_tips = ref [] in
  let branch_source () =
    match !my_tips with
    | tip :: _ when Sim.Rng.int rng 3 > 0 -> tip
    | _ -> ( match pick_frozen rng registry with Some sid -> sid | None -> 0L)
  in
  let one_op () =
    let k = pick_key rng ~keys ~hot_keys in
    match Sim.Rng.int rng 100 with
    | r when r < 18 ->
        stats.gets <- stats.gets + 1;
        ignore (Branching.get br k : string option)
    | r when r < 40 ->
        stats.puts <- stats.puts + 1;
        Branching.put br k (value ())
    | r when r < 47 ->
        stats.removes <- stats.removes + 1;
        ignore (Branching.remove br k : bool)
    | r when r < 54 ->
        stats.scans <- stats.scans + 1;
        ignore (Branching.scan br ~from:k ~count:8 : (string * string) list)
    | r when r < 68 -> (
        (* Reads pinned at a frozen version: must observe exactly the
           state frozen when the version stopped being a tip. *)
        match pick_frozen rng registry with
        | None ->
            stats.gets <- stats.gets + 1;
            ignore (Branching.get br k : string option)
        | Some sid ->
            stats.branch_reads <- stats.branch_reads + 1;
            if Sim.Rng.int rng 2 = 0 then ignore (Branching.get br ~at:sid k : string option)
            else ignore (Branching.scan ~at:sid br ~from:k ~count:8 : (string * string) list))
    | r when r < 76 -> (
        (* Writes at a private clone diverge from the mainline; the
           checker verifies them against that clone's forked model. *)
        match !my_tips with
        | [] ->
            stats.puts <- stats.puts + 1;
            Branching.put br k (value ())
        | tips ->
            let at = List.nth tips (Sim.Rng.int rng (List.length tips)) in
            stats.puts <- stats.puts + 1;
            if Sim.Rng.int rng 4 = 0 then ignore (Branching.remove br ~at k : bool)
            else Branching.put br ~at k (value ()))
    | r when r < 84 -> (
        let from = branch_source () in
        match Branching.create_branch br ~from with
        | sid ->
            stats.branches_created <- stats.branches_created + 1;
            (* [from] is read-only now (it has a branch); the new clone
               is ours to write at. *)
            my_tips := sid :: List.filter (fun t -> not (Int64.equal t from)) !my_tips;
            Checked.Registry.note registry from
        | exception Ops.Ambiguous _ ->
            (* The branch may or may not exist, so [from] may or may not
               be frozen. Either way it is no longer safe to treat as a
               private writable clone; reads at it stay legal. *)
            stats.ambiguous <- stats.ambiguous + 1;
            my_tips := List.filter (fun t -> not (Int64.equal t from)) !my_tips)
    | r when r < 92 -> (
        stats.multi_reads <- stats.multi_reads + 1;
        let vs =
          0L
          :: (match pick_frozen rng registry with Some s -> [ s ] | None -> [])
          @ (match !my_tips with t :: _ -> [ t ] | [] -> [])
        in
        if Sim.Rng.int rng 2 = 0 then
          ignore (Branching.get_many br ~at:vs k : (int64 * string option) list)
        else
          let from = match !my_tips with t :: _ -> t | [] -> 0L in
          ignore (Branching.history br ~from k : (int64 * string option) list))
    | _ -> (
        (* Retire the oldest private clone. Deleting a leaf sheds a
           branch from its parent — shedding the last one makes the
           parent writable again, which the checker must tolerate. *)
        match List.rev !my_tips with
        | [] -> ()
        | oldest :: _ -> (
            match Branching.delete_branch br oldest with
            | () ->
                stats.branches_deleted <- stats.branches_deleted + 1;
                my_tips := List.filter (fun t -> not (Int64.equal t oldest)) !my_tips
            | exception Ops.Ambiguous _ ->
                (* The deletion may have landed; stop touching the tip
                   so a committed delete cannot strand later writes. *)
                stats.ambiguous <- stats.ambiguous + 1;
                my_tips := List.filter (fun t -> not (Int64.equal t oldest)) !my_tips))
  in
  let rec loop () =
    if Sim.now () < deadline then begin
      Sim.delay (Sim.Rng.float rng think);
      if Sim.now () < deadline then begin
        (try
           one_op ();
           stats.ops <- stats.ops + 1
         with
        | Ops.Too_contended _ -> stats.too_contended <- stats.too_contended + 1
        | Ops.Ambiguous _ -> stats.ambiguous <- stats.ambiguous + 1
        | Mvcc.Branching.Too_many_branches _ | Mvcc.Branching.Not_deletable _
        | Mvcc.Branching.No_mainline _ ->
            stats.branch_blocked <- stats.branch_blocked + 1);
        loop ()
      end
    end
  in
  loop ();
  on_done ()
