module Ops = Btree.Ops
module Bnode = Btree.Bnode
module Txn = Dyntxn.Txn
module Objref = Dyntxn.Objref

type t = {
  tree : Ops.tree;
  beta : int;
  broken_isolation : bool;
  tracer : (Event.t -> unit) option;
}

exception Too_many_branches of int64

exception No_mainline of int64

let attach ?(broken_isolation = false) ?tracer ~tree ~beta () =
  if beta < 2 then invalid_arg "Branching.attach: beta must be >= 2";
  { tree; beta; broken_isolation; tracer }

let tree t = t.tree

let entry_exn ?(allow_deleted = false) t txn sid =
  match Catalog.dirty_read t.tree txn ~sid with
  | Some e when allow_deleted || not e.Catalog.deleted -> e
  | Some _ -> Format.kasprintf invalid_arg "Branching: snapshot %Ld was deleted" sid
  | None -> Format.kasprintf invalid_arg "Branching: unknown snapshot %Ld" sid

(* Parent lookups use dirty (cached, unvalidated) catalog reads: a
   snapshot's parent and root never change once created. Deleted
   entries are allowed — a node's recorded descendant set can keep a
   deleted leaf's sid until GC reclaims it, and the COW planner still
   has to climb through it. *)
let parent_of t txn sid =
  let e = entry_exn ~allow_deleted:true t txn sid in
  if Int64.equal e.Catalog.parent Catalog.no_parent then None else Some e.Catalog.parent

let is_ancestor t txn a b =
  let rec climb cur =
    if Int64.equal cur a then true
    else match parent_of t txn cur with None -> false | Some p -> climb p
  in
  climb b

(* The child of [anc] on the path from [anc] to its strict descendant
   [d]. *)
let child_toward t txn ~anc d =
  let rec climb cur =
    match parent_of t txn cur with
    | None -> invalid_arg "Branching.child_toward: not a descendant"
    | Some p -> if Int64.equal p anc then cur else climb p
  in
  climb d

(* ------------------------------------------------------------------ *)
(* β-bounded descendant sets (Sec. 5.2)                                 *)
(* ------------------------------------------------------------------ *)

(* Collapse a set of pairwise non-ancestral descendants of [anchor]
   down to at most β entries, emitting discretionary-copy directives.
   Elements sharing a child subtree of [anchor] are grouped; the largest
   group is replaced by its anchoring child [c], and a discretionary
   copy at [c] takes the group over (recursively collapsed itself). *)
let rec collapse t txn anchor (s : int64 list) : int64 list * Ops.disc list =
  if List.length s <= t.beta then (s, [])
  else begin
    let groups = Hashtbl.create 8 in
    List.iter
      (fun d ->
        let c = if Int64.equal d anchor then anchor else child_toward t txn ~anc:anchor d in
        let members = Option.value (Hashtbl.find_opt groups c) ~default:[] in
        Hashtbl.replace groups c (d :: members))
      s;
    (* Sorted fold: ties between equal-sized groups must break by key,
       not hash order — the chosen anchor child shapes the emitted
       discretionary-copy directives, which are replay-checked. *)
    let c, g =
      Sim.Det.fold_sorted groups ~cmp:Int64.compare
        (fun c members ((_, best) as acc) ->
          if List.length members > List.length best then (c, members) else acc)
        (0L, [])
    in
    if List.length g < 2 then
      (* Cannot collapse further (should not happen while the version
         tree's branching factor is bounded by β). *)
      (s, [])
    else begin
      let covered, inner_discs = collapse t txn c g in
      let remaining = c :: List.filter (fun d -> not (List.mem d g)) s in
      let outer, outer_discs = collapse t txn anchor remaining in
      ( outer,
        outer_discs
        @ [ { Ops.disc_at = c; disc_covered = Array.of_list covered } ]
        @ inner_discs )
    end
  end

let plan_cow t txn ~snap ~created ~descendants =
  ignore created;
  let s = snap :: Array.to_list descendants in
  let old_descendants, discretionary = collapse t txn created s in
  { Ops.old_descendants = Array.of_list old_descendants; discretionary }

(* ------------------------------------------------------------------ *)
(* Version contexts                                                     *)
(* ------------------------------------------------------------------ *)

let root_of_dirty t txn sid = (entry_exn t txn sid).Catalog.root

let mainline_tip t txn ~from =
  let rec follow sid =
    match Catalog.dirty_read t.tree txn ~sid with
    | None -> Format.kasprintf invalid_arg "Branching: unknown snapshot %Ld" sid
    | Some e when e.Catalog.deleted ->
        (* A cached ancestor pointed us at a branch that has since been
           deleted: abort so the retry re-resolves with fresh entries. *)
        Txn.abort txn
    | Some e ->
        if Catalog.is_writable e then sid
        else if Int64.equal e.Catalog.first_branch 0L then
          (* The first branch was deleted while siblings remain: there
             is no default mainline anymore; the caller must name a tip
             explicitly (Sec. 5.1 lets users override the default). *)
          raise (No_mainline sid)
        else follow e.Catalog.first_branch
  in
  follow from

(* Up-to-date context on the mainline tip reached from [from] (default:
   snapshot 0, i.e. the original mainline). *)
let tip_vctx t ?(from = 0L) txn =
  let sid = mainline_tip t txn ~from in
  (* Validated read: commits fail if this tip stops being writable (a
     branch is created from it) concurrently. *)
  let e =
    match Catalog.read t.tree txn ~sid with
    | Some e -> e
    | None -> invalid_arg "Branching.tip_vctx: tip entry vanished"
  in
  if not (Catalog.is_writable e) then
    (* The cached mainline was stale; abort and let the retry resolve a
       fresh mainline. *)
    Txn.abort txn;
  {
    Ops.snap = sid;
    root = e.Catalog.root;
    writable = true;
    is_ancestor = (fun a b -> is_ancestor t txn a b);
    plan_cow = (fun ~created ~descendants -> plan_cow t txn ~snap:sid ~created ~descendants);
    root_of = (fun txn sid -> root_of_dirty t txn sid);
  }

let at_snapshot t ~sid txn =
  let e = entry_exn t txn sid in
  {
    Ops.snap = sid;
    root = e.Catalog.root;
    writable = false;
    is_ancestor = (fun a b -> is_ancestor t txn a b);
    plan_cow = (fun ~created:_ ~descendants:_ -> invalid_arg "Branching: read-only snapshot");
    root_of = (fun txn sid -> root_of_dirty t txn sid);
  }

(* ------------------------------------------------------------------ *)
(* Tree and branch creation                                             *)
(* ------------------------------------------------------------------ *)

(* Catalog transactions commit through the shared retry loop with this
   handle's proxy cache and home memnode. *)
let run ?blocking t ~name f =
  Txn.run ~cache:(Ops.proxy_cache t.tree) ~home:(Ops.home t.tree) ?blocking ~name
    (Ops.cluster t.tree) f

let init_tree t =
  let root_ptr = Ops.alloc_node t.tree in
  fst
    (run t ~name:"Branching.init_tree" (fun txn ->
         Ops.write_node_txn t.tree txn root_ptr (Bnode.empty_root ~snap:0L);
         Catalog.write t.tree txn ~sid:0L
           {
             Catalog.root = root_ptr;
             parent = Catalog.no_parent;
             first_branch = 0L;
             nbranches = 0;
             deleted = false;
           };
         Catalog.write_counter t.tree txn 0L))

let create_branch t ~from =
  let invoked = Sim.now () in
  (* Blocking commit (Sec. 4.1); an unknown outcome raises
     [Ops.Ambiguous] and is never retried, so [from] gains at most one
     branch per call. *)
  let new_sid, stamp =
    run t ~blocking:true ~name:"Branching.create_branch" (fun txn ->
      let counter = Catalog.read_counter t.tree txn in
      let entry =
        match Catalog.read t.tree txn ~sid:from with
        | Some e when not e.Catalog.deleted -> e
        | Some _ ->
            Format.kasprintf invalid_arg "Branching.create_branch: snapshot %Ld was deleted" from
        | None -> Format.kasprintf invalid_arg "Branching.create_branch: unknown snapshot %Ld" from
      in
      if entry.Catalog.nbranches >= t.beta then raise (Too_many_branches from);
      let new_sid = Int64.add counter 1L in
      (* Copy the source root so the new version's root address is fixed
         (as in Fig. 6). *)
      let root_node = Ops.read_node_txn t.tree txn entry.Catalog.root in
      let new_root = Ops.alloc_node t.tree in
      Ops.write_node_txn t.tree txn new_root (Bnode.with_snap root_node new_sid);
      Catalog.write t.tree txn ~sid:new_sid
        {
          Catalog.root = new_root;
          parent = from;
          first_branch = 0L;
          nbranches = 0;
          deleted = false;
        };
      Catalog.write t.tree txn ~sid:from
        {
          entry with
          Catalog.first_branch =
            (if Int64.equal entry.Catalog.first_branch 0L then new_sid
             else entry.Catalog.first_branch);
          nbranches = entry.Catalog.nbranches + 1;
        };
      Catalog.write_counter t.tree txn new_sid;
      new_sid)
  in
  Obs.Counter.incr (Obs.btree (Sinfonia.Cluster.obs (Ops.cluster t.tree))).Obs.branches_created;
  Event.emit t.tracer t.tree ~invoked ?stamp
    (Event.Branch_created { parent = from; sid = new_sid });
  new_sid

(* ------------------------------------------------------------------ *)
(* Convenience operations                                               *)
(* ------------------------------------------------------------------ *)

(* Route to the right context: a writable [at] (or the mainline from
   it) for updates; the version itself for reads of read-only
   snapshots. [report] records the version the operation claims to
   serve (traced to the checker), which the retry loop may re-resolve. *)
let vctx_for_read t at report txn =
  match at with
  | None ->
      let v = tip_vctx t txn in
      report := v.Ops.snap;
      v
  | Some sid ->
      let e = entry_exn t txn sid in
      if Catalog.is_writable e then begin
        let v = tip_vctx t ~from:sid txn in
        report := v.Ops.snap;
        v
      end
      else begin
        (* Trace the requested version even when deliberately broken:
           the checker must see a read claiming snapshot isolation. *)
        report := sid;
        if t.broken_isolation then tip_vctx t ~from:sid txn else at_snapshot t ~sid txn
      end

let vctx_for_write t at report txn =
  let v = tip_vctx t ?from:at txn in
  report := v.Ops.snap;
  v

let get t ?at k =
  let report = ref (Option.value at ~default:0L) in
  Event.traced t.tracer t.tree
    (fun () -> Ops.get t.tree ~vctx_of:(vctx_for_read t at report) k)
    (fun result -> Event.Branch_get { at = !report; key = k; result })

let put t ?at k v =
  let report = ref (Option.value at ~default:0L) in
  Event.traced_write t.tracer t.tree ~unknown:()
    (fun () -> Ops.put t.tree ~vctx_of:(vctx_for_write t at report) k v)
    (fun () -> Event.Branch_put { at = !report; key = k; value = v })

let remove t ?at k =
  let report = ref (Option.value at ~default:0L) in
  Event.traced_write t.tracer t.tree ~unknown:false
    (fun () -> Ops.remove t.tree ~vctx_of:(vctx_for_write t at report) k)
    (fun removed -> Event.Branch_remove { at = !report; key = k; removed })

let scan ?at t ~from ~count =
  let report = ref (Option.value at ~default:0L) in
  Event.traced t.tracer t.tree
    (fun () -> Ops.scan t.tree ~vctx_of:(vctx_for_read t at report) ~from ~count)
    (fun result -> Event.Branch_scan { at = !report; from; count; result })

(* ------------------------------------------------------------------ *)
(* Multi-version queries (Sec. 5.1: "transactional queries across
   different versions of the data ... useful for integrity checks and
   to compare the results of an analysis"; vertical/horizontal queries
   after Landau et al. and the BT-tree, Sec. 7)                         *)
(* ------------------------------------------------------------------ *)

let get_many t ~at k =
  (* Horizontal query: one key across several versions, atomically. *)
  Event.traced t.tracer t.tree
    (fun () ->
      Ops.run_txn t.tree (fun txn ->
          List.map (fun sid -> (sid, Ops.get_in_txn t.tree txn (at_snapshot t ~sid txn) k)) at))
    (fun results -> Event.Get_many { key = k; results })

let history t ~from k =
  (* Vertical query: the key's value at [from] and every ancestor, from
     the root version down to [from], read in one transaction. *)
  Event.traced t.tracer t.tree
    (fun () ->
      Ops.run_txn t.tree (fun txn ->
          let rec ancestry acc sid =
            let acc = sid :: acc in
            match parent_of t txn sid with None -> acc | Some p -> ancestry acc p
          in
          List.map
            (fun sid -> (sid, Ops.get_in_txn t.tree txn (at_snapshot t ~sid txn) k))
            (ancestry [] from)))
    (fun results -> Event.History { from; key = k; results })

type change = Added of string | Removed of string | Changed of string * string

let diff t ~base ~other =
  (* Horizontal comparison of two full versions in one transaction. *)
  Ops.run_txn t.tree (fun txn ->
      let scan sid = Ops.scan_in_txn t.tree txn (at_snapshot t ~sid txn) ~from:"" ~count:max_int in
      let a = scan base and b = scan other in
      let rec merge acc a b =
        match (a, b) with
        | [], [] -> List.rev acc
        | (k, v) :: ta, [] -> merge ((k, Removed v) :: acc) ta []
        | [], (k, v) :: tb -> merge ((k, Added v) :: acc) [] tb
        | ((ka, va) :: ta as la), ((kb, vb) :: tb as lb) ->
            let c = Btree.Bkey.compare ka kb in
            if c < 0 then merge ((ka, Removed va) :: acc) ta lb
            else if c > 0 then merge ((kb, Added vb) :: acc) la tb
            else if String.equal va vb then merge acc ta tb
            else merge ((ka, Changed (va, vb)) :: acc) ta tb
      in
      merge [] a b)

(* ------------------------------------------------------------------ *)
(* Branch deletion (Sec. 5.2: temporary what-if branches are deleted
   and their storage reclaimed)                                         *)
(* ------------------------------------------------------------------ *)

exception Not_deletable of string

let delete_branch t sid =
  if Int64.equal sid 0L then raise (Not_deletable "the initial version cannot be deleted");
  let invoked = Sim.now () in
  let (), stamp =
    run t ~blocking:true ~name:"Branching.delete_branch" (fun txn ->
      let entry =
        match Catalog.read t.tree txn ~sid with
        | Some e when not e.Catalog.deleted -> e
        | Some _ -> raise (Not_deletable "already deleted")
        | None -> raise (Not_deletable "unknown snapshot")
      in
      if not (Catalog.is_writable entry) then
        raise (Not_deletable "only leaf versions (writable tips) can be deleted");
      Catalog.write t.tree txn ~sid { entry with Catalog.deleted = true };
      (* The parent sheds a branch; shedding the last one makes it a
         writable tip again. *)
      match
        if Int64.equal entry.Catalog.parent Catalog.no_parent then None
        else Catalog.read t.tree txn ~sid:entry.Catalog.parent
      with
      | None -> ()
      | Some parent_entry ->
          let first_branch =
            if Int64.equal parent_entry.Catalog.first_branch sid then 0L
            else parent_entry.Catalog.first_branch
          in
          Catalog.write t.tree txn ~sid:entry.Catalog.parent
            {
              parent_entry with
              Catalog.first_branch;
              nbranches = max 0 (parent_entry.Catalog.nbranches - 1);
            })
  in
  Obs.Counter.incr (Obs.btree (Sinfonia.Cluster.obs (Ops.cluster t.tree))).Obs.branches_deleted;
  Event.emit t.tracer t.tree ~invoked ?stamp (Event.Branch_deleted { sid })

let is_deleted t ~sid =
  fst
    (run t ~name:"Branching.is_deleted" (fun txn ->
         match Catalog.dirty_read t.tree txn ~sid with
         | Some e -> e.Catalog.deleted
         | None -> false))

(* Roots of every non-deleted version (the mark phase of the branching
   GC). *)
let live_roots t =
  fst
    (run t ~name:"Branching.live_roots" (fun txn ->
         let counter = Catalog.read_counter t.tree txn in
         let rec collect acc sid =
           if Int64.compare sid counter > 0 then acc
           else
             match Catalog.dirty_read t.tree txn ~sid with
             | Some e when not e.Catalog.deleted -> collect (e.Catalog.root :: acc) (Int64.add sid 1L)
             | Some _ | None -> collect acc (Int64.add sid 1L)
         in
         collect [] 0L))

(* ------------------------------------------------------------------ *)
(* Introspection                                                        *)
(* ------------------------------------------------------------------ *)

let root_of t ~sid = fst (run t ~name:"Branching.root_of" (fun txn -> root_of_dirty t txn sid))

let snapshot_exists t ~sid =
  fst (run t ~name:"Branching.snapshot_exists" (fun txn -> Catalog.dirty_read t.tree txn ~sid <> None))

let writable t ~sid =
  fst (run t ~name:"Branching.writable" (fun txn -> Catalog.is_writable (entry_exn t txn sid)))

let parent t ~sid = fst (run t ~name:"Branching.parent" (fun txn -> parent_of t txn sid))
