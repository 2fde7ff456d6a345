open Sinfonia
module Objref = Dyntxn.Objref
module Txn = Dyntxn.Txn
module Objcache = Dyntxn.Objcache

type mode = Dirty_traversal | Validated_traversal

type tree = {
  cluster : Cluster.t;
  obs : Obs.t;
  stats : Obs.btree_stats; (* typed counter handles, resolved once *)
  sstats : Obs.scan_stats;
  nstats : Obs.node_stats;
  layout : Layout.t;
  tree_id : int;
  mode : mode;
  max_keys_leaf : int;
  max_keys_internal : int;
  home : int;
  client : int option;
  (* Deliberately broken mode for checker validation: leaf reads of
     up-to-date operations skip the read set (no commit-time
     validation). Gets can then serialize against a stale leaf — a
     violation the history checker must catch. Never enable outside
     checker self-tests. *)
  unsafe_dirty_leaf_reads : bool;
  alloc : Node_alloc.t;
  cache : Objcache.t;
  (* Commit stamp of the last operation that committed through this
     handle (see [Txn.run]); [None] for dirty-only (snapshot)
     transactions. Read back by session-level tracing right after an
     operation returns — safe because the simulator is cooperative and
     operations on one handle do not interleave without a yield. *)
  mutable last_stamp : int64 option;
  (* Keys and leaves checked by this handle's completed batched scans:
     the keys-per-leaf estimate that sizes a scan's first group. *)
  mutable scan_keys : int;
  mutable scan_leaves : int;
  (* Newest parsed view per node pointer, shared by every handle of one
     database: a fetch always returns the slot's current sequence
     number, so an older version could never hit again. Purely a
     wall-clock optimization of the simulator — no simulated cost
     depends on it. *)
  view_memo : View_memo.t;
  (* Reusable encoder for the node-write path: reset per write, the
     framed payload is extracted in a single allocation. *)
  enc : Codec.Enc.t;
}

exception Too_contended = Txn.Too_contended

exception Ambiguous = Txn.Ambiguous

(* Conservative per-entry wire estimates for deriving key capacities
   from the node size (YCSB schema: 14-byte keys, 8-byte values). *)
let leaf_entry_bytes = 40

let internal_entry_bytes = 40

let make_tree ?(mode = Dirty_traversal) ?max_keys_leaf ?max_keys_internal ?(home = 0) ?client
    ?(unsafe_dirty_leaf_reads = false) ?view_memo ~cluster ~layout ~tree_id ~alloc ~cache () =
  let budget = layout.Layout.node_size - 128 in
  let derived_leaf = max 4 (budget / leaf_entry_bytes) in
  let derived_internal = max 4 (budget / internal_entry_bytes) in
  let obs = Cluster.obs cluster in
  {
    cluster;
    obs;
    stats = Obs.btree obs;
    sstats = Obs.scan obs;
    nstats = Obs.node obs;
    layout;
    tree_id;
    mode;
    max_keys_leaf = Option.value max_keys_leaf ~default:derived_leaf;
    max_keys_internal = Option.value max_keys_internal ~default:derived_internal;
    home;
    client;
    unsafe_dirty_leaf_reads;
    alloc;
    cache;
    last_stamp = None;
    scan_keys = 0;
    scan_leaves = 0;
    view_memo = (match view_memo with Some m -> m | None -> View_memo.create ());
    enc = Codec.Enc.create ~initial_size:1024 ();
  }

let cluster t = t.cluster

let tree_id t = t.tree_id

let client t = t.client

let mode t = t.mode

let home t = t.home

let layout t = t.layout

let proxy_cache t = t.cache

let view_memo t = t.view_memo

let last_commit_stamp t = t.last_stamp

type disc = { disc_at : int64; disc_covered : int64 array }

type cow_plan = { old_descendants : int64 array; discretionary : disc list }

type vctx = {
  snap : int64;
  root : Objref.t;
  writable : bool;
  is_ancestor : int64 -> int64 -> bool;
  plan_cow : created:int64 -> descendants:int64 array -> cow_plan;
  root_of : Txn.t -> int64 -> Objref.t;
}

(* -------------------------------------------------------------------- *)
(* Node I/O                                                              *)
(* -------------------------------------------------------------------- *)

(* Used on cold paths (snapshot creation, audit helpers) that want a
   fully materialised node straight away. *)
let decode_node txn payload =
  match Bnode.decode payload with
  | node -> node
  | exception Codec.Decode_error _ -> Txn.abort txn

(* Hot-path variant: wrap the wire bytes in a zero-copy view that
   answers searches in place. An empty (never written) slot fails to
   parse like any other torn payload. *)
let view_of_payload txn payload =
  match Bview.of_string payload with
  | v -> v
  | exception Codec.Decode_error _ -> Txn.abort txn

let view_node_memo tree txn ptr seq payload =
  (* Never memoize a read served from the transaction's own buffered
     write: the payload is uncommitted and [seq] still names the old
     version. *)
  if Txn.in_write_set txn ptr then view_of_payload txn payload
  else begin
    let v =
      match View_memo.find tree.view_memo ptr ~seq with
      | Some v -> v
      | None ->
          let v = view_of_payload txn payload in
          View_memo.add tree.view_memo ptr ~seq v;
          v
    in
    Obs.Counter.incr tree.nstats.Obs.view_hits;
    v
  end

(* The write path's copy boundary, and the only place the slotted
   payload's checksum is verified (reads are guarded by the traversal
   safety checks instead, like any other unvalidated data): a node is
   rewritten only from bytes that pass it. Counts one materialisation,
   whether the rewrite then decodes the node or splices its bytes. *)
let verify_for_rewrite tree txn v =
  Obs.Counter.incr tree.nstats.Obs.materialisations;
  Obs.Counter.add tree.nstats.Obs.node_bytes_copied (Bview.payload_length v);
  match Bview.verify_crc v with () -> () | exception Codec.Decode_error _ -> Txn.abort txn

(* Materialise a view into a [Bnode.t] the write path can mutate. *)
let materialise tree txn v =
  verify_for_rewrite tree txn v;
  Bnode.of_view v

(* Read an internal node during traversal. In dirty mode this is a plain
   dirty read (cache-friendly, unvalidated). In the baseline mode it is
   also served without joining the read set, but the node's replicated
   sequence-number entry is registered for commit-time validation —
   Aguilera et al.'s full-path validation at a single memnode. *)
let read_internal tree txn (ptr : Objref.t) =
  match tree.mode with
  | Dirty_traversal ->
      let seq, payload = Txn.dirty_read_with_seq txn ptr in
      view_node_memo tree txn ptr seq payload
  | Validated_traversal ->
      let seq, payload = Txn.dirty_read_with_seq txn ptr in
      let v = view_node_memo tree txn ptr seq payload in
      (* Only internal nodes have replicated sequence-number entries; a
         one-level tree's root is a leaf and is validated directly. *)
      if not (Bview.is_leaf v) then
        Txn.validate_replicated txn
          ~off:(Layout.seq_entry_off tree.layout ptr.Objref.addr)
          ~seq ~obj:ptr;
      v

(* Leaves are always fetched from Sinfonia, never from the proxy cache
   (Sec. 4.2). Up-to-date operations read them transactionally;
   read-only snapshot operations use an unvalidated read guarded by the
   traversal safety checks. *)
let read_leaf tree txn vctx ~read_only (ptr : Objref.t) =
  (* The broken mode only skips validation for pure reads: write
     traversals stay safe (their leaf read is promoted into the read
     set by the write), so the damage is exactly a stale read — which
     the history checker must catch — and never structural. *)
  let unsafe = tree.unsafe_dirty_leaf_reads && read_only in
  let seq, payload =
    if vctx.writable && not unsafe then Txn.read_with_seq txn ptr
    else Txn.dirty_read_with_seq ~use_cache:false txn ptr
  in
  view_node_memo tree txn ptr seq payload

(* Writes of internal nodes in baseline mode must republish the node's
   sequence number to the replicated table at every memnode, which is
   what makes splits expensive there (Sec. 3). *)
let write_node tree txn (ptr : Objref.t) (node : Bnode.t) =
  Codec.Enc.reset tree.enc;
  Bnode.encode_into tree.enc node;
  let payload = Codec.Enc.to_string_with_checksum tree.enc in
  match tree.mode with
  | Validated_traversal when not (Bnode.is_leaf node) ->
      Txn.write_linked txn ptr payload ~repl_off:(Layout.seq_entry_off tree.layout ptr.Objref.addr)
  | Dirty_traversal | Validated_traversal -> Txn.write txn ptr payload

(* -------------------------------------------------------------------- *)
(* Traversal (Fig. 5, plus the version checks of Secs. 4.2 and 5.2)      *)
(* -------------------------------------------------------------------- *)

(* Safety checks executed at every visited node. Aborting (rather than
   failing) is correct: the retry re-traverses with fresh data. *)
let check_node tree txn vctx (v : Bview.t) k =
  (* Fence keys: [k] must be within the node's responsibility range. *)
  if not (Bview.in_range v k) then begin
    Obs.Counter.incr tree.stats.Obs.abort_fence;
    Txn.abort txn
  end;
  (* The node's version must lie on the path to [vctx.snap]... *)
  if not (vctx.is_ancestor (Bview.snap_created v) vctx.snap) then begin
    Obs.Counter.incr tree.stats.Obs.abort_version;
    Txn.abort txn
  end;
  (* ...and must not have been superseded by a copy on that path. *)
  if Bview.exists_descendant v (fun d -> vctx.is_ancestor d vctx.snap) then begin
    Obs.Counter.incr tree.stats.Obs.abort_copied;
    Txn.abort txn
  end

type step = { s_ptr : Objref.t; s_view : Bview.t; s_child : int }

(* Traverse from the root to the leaf responsible for [k] at
   [vctx.snap]. Returns the internal path (root first) and the leaf.
   With [to_parent] the descent stops one level short, at the leaf's
   deepest parent (returned in the leaf's place, the path above it), so
   a batched scan can fetch the leaf together with its siblings; a
   one-level tree still returns its root leaf. *)
let traverse ?(read_only = false) ?(to_parent = false) tree txn vctx k =
  Obs.with_span tree.obs
    ~outcome_of_exn:(function
      | Txn.Aborted msg -> Some (Obs.Span.Failed msg) | _ -> None)
    Obs.Span.Traversal
  @@ fun () ->
  (* The root is internal in any tree with two or more levels; a
     one-level tree's root is the leaf itself. Its kind is unknown
     before reading it, so read it dirty first and, for a writable
     context, re-read a leaf root transactionally so it joins the read
     set. *)
  let root = read_internal tree txn vctx.root in
  let root =
    if Bview.is_leaf root && vctx.writable then read_leaf tree txn vctx ~read_only vctx.root
    else root
  in
  check_node tree txn vctx root k;
  let rec descend path ptr (v : Bview.t) =
    if Bview.is_leaf v || (to_parent && Bview.height v = 1) then (List.rev path, ptr, v)
    else begin
      let idx, child_ptr = Bview.child_for v k in
      let child =
        if Bview.height v > 1 then read_internal tree txn child_ptr
        else read_leaf tree txn vctx ~read_only child_ptr
      in
      if Bview.height child <> Bview.height v - 1 then begin
        (* Fatal inconsistency (Fig. 5 line 15): stale pointers led us to
           a node at the wrong level. *)
        Obs.Counter.incr tree.stats.Obs.abort_height;
        Txn.abort txn
      end;
      check_node tree txn vctx child k;
      descend ({ s_ptr = ptr; s_view = v; s_child = idx } :: path) child_ptr child
    end
  in
  descend [] vctx.root root

(* -------------------------------------------------------------------- *)
(* Copy-on-write and split propagation                                    *)
(* -------------------------------------------------------------------- *)

(* What a child level asks its parent to record. *)
type child_update =
  | Replace of Objref.t
  | Split_into of { left : Objref.t; sep : Bkey.t; right : Objref.t }

let max_keys tree (node : Bnode.t) =
  if Bnode.is_leaf node then tree.max_keys_leaf else tree.max_keys_internal

(* Apply [update] to the parent chain [path] (deepest parent first),
   copying and splitting as needed. [relink] performs the discretionary
   copy-on-write recursion; tied via a forward reference because the
   relink itself re-enters the update machinery at another snapshot. *)
let rec apply_up tree txn vctx path (update : child_update) =
  match path with
  | [] ->
      (* Only reachable when the root needed replacement, which cannot
         happen: the tip's root is always already at [vctx.snap] and is
         split in place. *)
      assert false
  | { s_ptr; s_view; s_child } :: rest ->
      let s_node = materialise tree txn s_view in
      let updated =
        match update with
        | Replace p -> Bnode.replace_child s_node s_child p
        | Split_into { left; sep; right } ->
            Bnode.insert_sep (Bnode.replace_child s_node s_child left) ~at:s_child ~sep ~right
      in
      place_node tree txn vctx ~path:rest ~ptr:s_ptr ~old:s_node ~updated

(* Write [updated] (the new content of the node at [ptr], whose
   previously committed content was [old]) at snapshot [vctx.snap]:
   in place when the node already belongs to the snapshot, via
   copy-on-write otherwise; splitting when over capacity; propagating
   pointer changes to the parent chain [path]. *)
and place_node tree txn vctx ~path ~ptr ~(old : Bnode.t) ~(updated : Bnode.t) =
  let is_root = path = [] in
  let at_snap = Int64.equal old.Bnode.snap_created vctx.snap in
  let overflow = Bnode.needs_split updated ~max_keys:(max_keys tree updated) in
  if at_snap then begin
    if not overflow then write_node tree txn ptr updated
    else if is_root then split_root tree txn ptr updated
    else begin
      let left, sep, right = Bnode.split updated in
      let right_ptr = Node_alloc.alloc tree.alloc in
      write_node tree txn ptr left;
      write_node tree txn right_ptr right;
      Obs.Counter.incr tree.stats.Obs.splits;
      apply_up tree txn vctx path (Split_into { left = ptr; sep; right = right_ptr })
    end
  end
  else begin
    (* The node belongs to an earlier snapshot: copy-on-write. The root
       can never take this branch (it is copied at snapshot creation),
       so [path] is nonempty. *)
    if is_root then (* stale root: snapshot changed under us *) Txn.abort txn;
    cow_mark_old tree txn vctx ~ptr ~old;
    let fresh = Bnode.with_snap updated vctx.snap in
    (* Copies stay on the original's memnode: copy-on-write then
       preserves the allocator's load balance (and the copy commits at
       the same memnode as the old version's invalidation). *)
    let home_node = Objref.node ptr in
    if not overflow then begin
      let new_ptr = Node_alloc.alloc_on tree.alloc ~node:home_node in
      write_node tree txn new_ptr fresh;
      Obs.Counter.incr tree.stats.Obs.cow;
      apply_up tree txn vctx path (Replace new_ptr)
    end
    else begin
      let left, sep, right = Bnode.split fresh in
      let left_ptr = Node_alloc.alloc_on tree.alloc ~node:home_node in
      let right_ptr = Node_alloc.alloc tree.alloc in
      write_node tree txn left_ptr left;
      write_node tree txn right_ptr right;
      Obs.Counter.incr tree.stats.Obs.cow;
      Obs.Counter.incr tree.stats.Obs.splits;
      apply_up tree txn vctx path (Split_into { left = left_ptr; sep; right = right_ptr })
    end
  end

(* Record on the old node that it has been copied to [vctx.snap]
   (Sec. 4.2), applying the β-bounding plan and any discretionary
   copy-on-write it requires (Sec. 5.2). Writing the old node promotes
   it into the read set, so a concurrent copy of the same node aborts
   one of the writers. *)
and cow_mark_old tree txn vctx ~ptr ~(old : Bnode.t) =
  let plan =
    vctx.plan_cow ~created:old.Bnode.snap_created ~descendants:old.Bnode.descendants
  in
  write_node tree txn ptr (Bnode.with_descendants old plan.old_descendants);
  List.iter
    (fun { disc_at; disc_covered } ->
      (* Make a content-identical copy of [old] owned by snapshot
         [disc_at] and take over the covered descendants; then swing the
         pointer on [disc_at]'s path onto it. Logically a no-op for
         every snapshot; physically it keeps descendant sets bounded. *)
      let copy = Bnode.with_descendants (Bnode.with_snap old disc_at) disc_covered in
      let copy_ptr = Node_alloc.alloc_on tree.alloc ~node:(Objref.node ptr) in
      write_node tree txn copy_ptr copy;
      Obs.Counter.incr tree.stats.Obs.discretionary_cow;
      relink tree txn vctx ~at:disc_at ~old_ptr:ptr ~old ~new_ptr:copy_ptr)
    plan.discretionary

(* Replace the pointer to [old_ptr] with [new_ptr] on snapshot [at]'s
   path (discretionary copy-on-write). Runs inside the same dynamic
   transaction, so the whole maneuver is atomic. *)
and relink tree txn vctx ~at ~old_ptr ~(old : Bnode.t) ~new_ptr =
  let root = vctx.root_of txn at in
  let sub_vctx = { vctx with snap = at; root } in
  (* Any key in the old node's range identifies the path to it. *)
  let probe_key =
    match old.Bnode.low with
    | Bkey.Key k -> k
    | Bkey.Neg_inf -> ""
    | Bkey.Pos_inf -> assert false
  in
  let rec descend path ptr (v : Bview.t) =
    if Bview.height v <= old.Bnode.height then (* overshot: stale state *) Txn.abort txn
    else begin
      let idx, child_ptr = Bview.child_for v probe_key in
      if Objref.equal child_ptr old_ptr then
        (* [path] already lists deepest parents first. *)
        apply_up tree txn sub_vctx
          ({ s_ptr = ptr; s_view = v; s_child = idx } :: path)
          (Replace new_ptr)
      else begin
        let child = read_internal tree txn child_ptr in
        if Bview.height child <> Bview.height v - 1 then Txn.abort txn;
        check_node tree txn sub_vctx child probe_key;
        descend ({ s_ptr = ptr; s_view = v; s_child = idx } :: path) child_ptr child
      end
    end
  in
  let root_node = read_internal tree txn root in
  check_node tree txn sub_vctx root_node probe_key;
  if Objref.equal root old_ptr then
    (* The old node is the snapshot's root itself; roots are never
       discretionarily copied (they are per-snapshot already). *)
    Txn.abort txn
  else descend [] root root_node

(* In-place root split: the root's address is fixed per snapshot
   (Sec. 4.1), so the overflowing content moves into two fresh children
   and the root is rewritten one level taller. *)
and split_root tree txn (root_ptr : Objref.t) (updated : Bnode.t) =
  let left, sep, right = Bnode.split updated in
  let left_ptr = Node_alloc.alloc tree.alloc in
  let right_ptr = Node_alloc.alloc tree.alloc in
  write_node tree txn left_ptr left;
  write_node tree txn right_ptr right;
  let new_root =
    Bnode.make_internal
      ~height:(updated.Bnode.height + 1)
      ~low:updated.Bnode.low ~high:updated.Bnode.high ~snap:updated.Bnode.snap_created
      ~keys:[| sep |]
      ~children:[| left_ptr; right_ptr |]
  in
  write_node tree txn root_ptr new_root;
  Obs.Counter.incr tree.stats.Obs.root_splits;
  Obs.Counter.incr tree.stats.Obs.splits

(* -------------------------------------------------------------------- *)
(* Retry wrapper                                                          *)
(* -------------------------------------------------------------------- *)

(* Every operation commits through the shared loop; the handle keeps
   the stamp for session-level tracing. *)
let with_retries tree name f =
  let result, stamp =
    Txn.run ~cache:tree.cache ?client:tree.client ~home:tree.home ~name tree.cluster f
  in
  tree.last_stamp <- stamp;
  result

(* -------------------------------------------------------------------- *)
(* Operations                                                             *)
(* -------------------------------------------------------------------- *)

let get_in_txn tree txn vctx k =
  let _, _, leaf = traverse ~read_only:true tree txn vctx k in
  Bview.leaf_find leaf k

(* Bind [k] to the value ([Some]) or remove it ([None]) in the leaf
   responsible for it. A leaf that already belongs to [vctx.snap] and
   stays within capacity is rewritten by splicing its verified bytes
   ([Bview.leaf_splice]), which writes what [place_node] would; a leaf
   of an earlier snapshot, one that must split, and an edit that would
   change the keys' common prefix go through the decoded node. Returns
   [false] for the removal of an absent key. *)
let edit_leaf tree txn vctx k edit =
  let path, leaf_ptr, leaf_view = traverse tree txn vctx k in
  verify_for_rewrite tree txn leaf_view;
  let splice =
    if Int64.equal (Bview.snap_created leaf_view) vctx.snap then begin
      Codec.Enc.reset tree.enc;
      Bview.leaf_splice tree.enc leaf_view ~max_keys:tree.max_keys_leaf k edit
    end
    else Bview.Fallback
  in
  match splice with
  | Bview.Spliced ->
      Txn.write txn leaf_ptr (Codec.Enc.to_string_with_checksum tree.enc);
      true
  | Bview.Absent -> false
  | Bview.Fallback -> (
      let leaf = Bnode.of_view leaf_view in
      let updated =
        match edit with
        | Some v -> Some (Bnode.leaf_insert leaf k v)
        | None -> Bnode.leaf_remove leaf k
      in
      match updated with
      | None -> false
      | Some updated ->
          place_node tree txn vctx ~path:(List.rev path) ~ptr:leaf_ptr ~old:leaf ~updated;
          true)

let put_in_txn tree txn vctx k v =
  if not vctx.writable then invalid_arg "Ops.put: read-only snapshot";
  ignore (edit_leaf tree txn vctx k (Some v) : bool)

let remove_in_txn tree txn vctx k =
  if not vctx.writable then invalid_arg "Ops.remove: read-only snapshot";
  edit_leaf tree txn vctx k None

let get tree ~vctx_of k = with_retries tree "get" (fun txn -> get_in_txn tree txn (vctx_of txn) k)

let put tree ~vctx_of k v =
  with_retries tree "put" (fun txn -> put_in_txn tree txn (vctx_of txn) k v)

let remove tree ~vctx_of k =
  with_retries tree "remove" (fun txn -> remove_in_txn tree txn (vctx_of txn) k)

(* Take up to [remaining] scan entries straight out of a leaf view,
   starting at slot [start] — entries are copied out of the wire bytes
   here and nowhere earlier, so this is the scan path's copy boundary.
   [stopped] reports hitting the count limit with entries left over. *)
let take_entries tree acc remaining view start =
  let n = Bview.nkeys view in
  let rec go acc remaining copied i =
    if i >= n || remaining = 0 then begin
      Obs.Counter.add tree.nstats.Obs.node_bytes_copied copied;
      (acc, remaining, remaining = 0 && i < n)
    end
    else begin
      let (k, v) as e = Bview.leaf_entry view i in
      go (e :: acc) (remaining - 1) (copied + String.length k + String.length v) (i + 1)
    end
  in
  go acc remaining 0 start

(* Per-leaf scan: re-traverse root-to-leaf for every leaf, following the
   high fence key. The pre-batching behaviour — kept as the [batch <= 1]
   path and as the oracle batched scans are checked against. *)
let scan_per_leaf tree txn vctx ~from ~count =
  let rec collect acc remaining cursor =
    let _, _, leaf = traverse ~read_only:true tree txn vctx cursor in
    let acc, remaining, stopped =
      take_entries tree acc remaining leaf (Bview.lower_bound leaf cursor)
    in
    if remaining = 0 || stopped then List.rev acc
    else
      match Bview.high leaf with
      | Bkey.Pos_inf -> List.rev acc
      | Bkey.Key next -> collect acc remaining next
      | Bkey.Neg_inf -> assert false
  in
  collect [] count from

(* Sibling leaves a batched scan fetches per round trip unless the call
   names its own [?batch]. *)
let default_scan_batch = 16

(* Batched scan (the leaf-chaining fast path): descend once to the
   cursor's deepest parent (the internal levels are cached and
   dirty-read), then fetch the cursor's leaf and the siblings to its
   right in groups of up to [batch] siblings per round trip, the first
   group carrying the cursor's leaf on top (one Txn fetch, coalesced per
   memnode: a validated group is one minitransaction, a dirty one a
   one-phase read per memnode) instead of re-walking the tree per leaf.
   Groups are sized to demand: the keys still needed over an estimate of
   keys per leaf, taken from the leaves this scan has checked or, before
   the first, from the handle's earlier scans. The first group carries
   one leaf more for the cursor's partly consumed leaf. While a group is
   in flight the next one is armed (the prefetch window) only when the
   groups in flight are estimated short of the keys still needed, so a
   scan overlaps its round trips without fetching far past its end.
   Only the fetched leaves are validated — not the full path — so each
   leaf re-runs the Fig. 5 safety checks itself: it must be a leaf
   (height 0) and pass [check_node] for the cursor (the first leaf) or
   for the probe key at its low fence, which must continue exactly where
   the previous leaf ended. Any violation aborts the attempt and the
   retry re-traverses. *)
let scan_batched tree txn vctx ~from ~count ~batch =
  let s = tree.sstats in
  let fetch_group ptrs =
    Obs.with_span tree.obs
      ~outcome_of_exn:(function
        | Txn.Aborted msg -> Some (Obs.Span.Failed msg) | _ -> None)
      Obs.Span.Scan_batch
    @@ fun () ->
    (* Same safety/validation posture as [read_leaf]. *)
    let unsafe = tree.unsafe_dirty_leaf_reads in
    let results =
      if vctx.writable && not unsafe then Txn.read_many_with_seq txn ptrs
      else Txn.dirty_read_many_with_seq ~use_cache:false txn ptrs
    in
    Obs.Counter.incr s.Obs.scan_batches;
    List.iter (fun _ -> Obs.Counter.incr s.Obs.scan_batched_leaves) ptrs;
    results
  in
  (* Fetch [parent]'s children [first, first + n) in the background. *)
  let spawn_group parent first n =
    let ptrs = List.init n (fun i -> Bview.child_at parent (first + i)) in
    let iv = Sim.Ivar.create () in
    Sim.spawn (fun () ->
        (* Transport, not a swallow: [await] re-raises the Error arm in
           the consuming fiber, so Crashed/Aborted still propagate. *)
        (* lint: allow crashed-swallow *)
        let r = try Ok (fetch_group ptrs) with e -> Error e in
        Sim.Ivar.fill iv r);
    (ptrs, iv)
  in
  let await (ptrs, iv) =
    match Sim.Ivar.read iv with Ok results -> List.combine ptrs results | Error e -> raise e
  in
  (* Keys per leaf over every leaf this scan has checked, or before the
     first over the handle's earlier scans (half-full leaves before
     any). *)
  let seen_keys = ref 0 and seen_leaves = ref 0 in
  let leaves_for remaining =
    let keys, leaves =
      if !seen_leaves > 0 then (!seen_keys, !seen_leaves)
      else if tree.scan_leaves > 0 then (tree.scan_keys, tree.scan_leaves)
      else (tree.max_keys_leaf / 2, 1)
    in
    let per_leaf = Float.max 1.0 (float_of_int keys /. float_of_int leaves) in
    (* Capped at two groups, past which no group size changes, so that a
       [count] near [max_int] cannot overflow the conversion. *)
    let cap = float_of_int (2 * (batch + 1)) in
    int_of_float (Float.min cap (Float.ceil (float_of_int remaining /. per_leaf)))
  in
  (* Leaves still needed from [pos] on: a leaf entered at the cursor is
     only partly consumed, so it counts for none of [remaining]. *)
  let needed remaining pos =
    leaves_for remaining + match pos with `Cursor _ -> 1 | `Low _ -> 0
  in
  (* The size of the next group from [parent]'s child [next] on. *)
  let group_size ?(cap = batch) parent next wanted =
    min cap (min wanted (Bview.child_count parent - next))
  in
  (* Validate one batched leaf: the first against the cursor, each later
     one against the fence chain and then the probe key at its low fence.
     Returns the key the leaf is read from. *)
  let check_leaf (node : Bview.t) pos =
    if Bview.height node <> 0 then begin
      Obs.Counter.incr s.Obs.scan_batch_aborts;
      Obs.Counter.incr tree.stats.Obs.abort_height;
      Txn.abort txn
    end;
    let probe =
      match pos with
      | `Cursor k -> k
      | `Low expected_low -> (
          if not (Bkey.fence_equal (Bview.low node) expected_low) then begin
            (* The leaf no longer starts where its left neighbour ended:
               it split, merged or moved since the parent was read. *)
            Obs.Counter.incr s.Obs.scan_batch_aborts;
            Obs.Counter.incr tree.stats.Obs.abort_fence;
            Txn.abort txn
          end;
          match expected_low with
          | Bkey.Key k -> k
          | Bkey.Neg_inf -> ""
          | Bkey.Pos_inf -> assert false)
    in
    (match check_node tree txn vctx node probe with
    | () -> ()
    | exception (Txn.Aborted _ as e) ->
        Obs.Counter.incr s.Obs.scan_batch_aborts;
        raise e);
    probe
  in
  let rec collect acc remaining cursor =
    let _, _, node = traverse ~read_only:true ~to_parent:true tree txn vctx cursor in
    if Bview.is_leaf node then begin
      (* A one-level tree: the root is the only leaf. *)
      let acc, remaining, stopped =
        take_entries tree acc remaining node (Bview.lower_bound node cursor)
      in
      if remaining = 0 || stopped then List.rev acc
      else continue_after acc remaining (Bview.high node)
    end
    else
      let first, _ = Bview.child_for node cursor in
      consume acc remaining (`Cursor cursor) node first None
  and consume acc remaining pos parent next = function
    | None -> (
        (* Nothing in flight: the first group under [parent], which also
           carries the cursor's leaf, or the estimate fell short. *)
        let cap = match pos with `Cursor _ -> batch + 1 | `Low _ -> batch in
        let n = group_size ~cap parent next (needed remaining pos) in
        if n > 0 then consume acc remaining pos parent (next + n) (Some (spawn_group parent next n))
        else
          match pos with
          | `Low high -> continue_after acc remaining high
          | `Cursor _ -> assert false (* the cursor's leaf is a child of [parent] *))
    | Some pending -> (
        (* Arm the next group before consuming the one in flight, so its
           round trip overlaps consumption — but only when the estimate
           says the group in flight falls short. *)
        let n = group_size parent next (needed remaining pos - List.length (fst pending)) in
        let prefetch =
          if n > 0 then begin
            Obs.Counter.incr s.Obs.scan_prefetches;
            Some (spawn_group parent next n)
          end
          else None
        in
        let rec eat acc remaining pos = function
          | [] -> `More (acc, remaining, pos)
          | (ptr, (seq, payload)) :: tl ->
              let node = view_node_memo tree txn ptr seq payload in
              let probe = check_leaf node pos in
              Obs.Counter.incr s.Obs.scan_consumed_leaves;
              seen_keys := !seen_keys + Bview.nkeys node;
              incr seen_leaves;
              let acc, remaining, stopped =
                take_entries tree acc remaining node (Bview.lower_bound node probe)
              in
              if remaining = 0 || stopped then `Done acc
              else eat acc remaining (`Low (Bview.high node)) tl
        in
        match eat acc remaining pos (await pending) with
        | `Done acc -> List.rev acc
        | `More (acc, remaining, pos) -> consume acc remaining pos parent (next + max 0 n) prefetch)
  and continue_after acc remaining expected_low =
    (* The deepest parent's children are exhausted: continue the scan at
       the last leaf's high fence with a fresh descent. *)
    match expected_low with
    | Bkey.Pos_inf -> List.rev acc
    | Bkey.Key next ->
        Obs.Counter.incr s.Obs.scan_continuations;
        collect acc remaining next
    | Bkey.Neg_inf -> assert false
  in
  let result = collect [] count from in
  tree.scan_keys <- tree.scan_keys + !seen_keys;
  tree.scan_leaves <- tree.scan_leaves + !seen_leaves;
  result

let scan_in_txn ?batch tree txn vctx ~from ~count =
  let batch = match batch with Some b -> max 1 b | None -> default_scan_batch in
  if count <= 0 then []
  else if batch <= 1 then scan_per_leaf tree txn vctx ~from ~count
  else scan_batched tree txn vctx ~from ~count ~batch

let scan ?batch tree ~vctx_of ~from ~count =
  if count <= 0 then []
  else with_retries tree "scan" (fun txn -> scan_in_txn ?batch tree txn (vctx_of txn) ~from ~count)

(* -------------------------------------------------------------------- *)
(* Multi-tree transactions                                                *)
(* -------------------------------------------------------------------- *)

let run_txn tree f = with_retries tree "txn" f

(* -------------------------------------------------------------------- *)
(* Linear snapshots (Sec. 4)                                              *)
(* -------------------------------------------------------------------- *)

module Linear = struct
  let encode_ref r =
    let e = Codec.Enc.create ~initial_size:16 () in
    Objref.encode e r;
    Codec.Enc.to_string e

  let decode_ref s = Objref.decode (Codec.Dec.of_string s)

  let tip_id_off tree = Layout.tip_id_off tree.layout ~tree:tree.tree_id

  let tip_root_off tree = Layout.tip_root_off tree.layout ~tree:tree.tree_id

  let slot_len = Layout.slot_len_small

  let linear_is_ancestor a b = Int64.compare a b <= 0

  (* With linear snapshots a node is copied at most once: the copy
     always supersedes the original for every later snapshot. *)
  let linear_plan ~snap ~created:_ ~descendants =
    if Array.length descendants > 0 then
      invalid_arg "Ops.Linear: node copied twice under linear snapshots";
    { old_descendants = [| snap |]; discretionary = [] }

  let read_tip tree txn =
    let sid =
      Layout.decode_i64 (Txn.dirty_read_replicated txn ~off:(tip_id_off tree) ~len:slot_len)
    in
    let root = decode_ref (Txn.dirty_read_replicated txn ~off:(tip_root_off tree) ~len:slot_len) in
    (sid, root)

  let tip tree txn =
    let sid = Layout.decode_i64 (Txn.read_replicated txn ~off:(tip_id_off tree) ~len:slot_len) in
    let root = decode_ref (Txn.read_replicated txn ~off:(tip_root_off tree) ~len:slot_len) in
    {
      snap = sid;
      root;
      writable = true;
      is_ancestor = linear_is_ancestor;
      plan_cow = (fun ~created ~descendants -> linear_plan ~snap:sid ~created ~descendants);
      root_of = (fun _ _ -> invalid_arg "Ops.Linear: no discretionary copies");
    }

  let at_snapshot tree ~sid ~root =
    ignore tree;
    {
      snap = sid;
      root;
      writable = false;
      is_ancestor = linear_is_ancestor;
      plan_cow = (fun ~created:_ ~descendants:_ -> invalid_arg "Ops.Linear: read-only snapshot");
      root_of = (fun _ _ -> invalid_arg "Ops.Linear: read-only snapshot");
    }

  let init_tree tree =
    let root_ptr = Node_alloc.alloc tree.alloc in
    fst
      (Txn.run ~home:tree.home ~name:"init_tree" tree.cluster (fun txn ->
           write_node tree txn root_ptr (Bnode.empty_root ~snap:0L);
           Txn.write_replicated txn ~off:(tip_id_off tree) ~len:slot_len (Layout.encode_i64 0L);
           Txn.write_replicated txn ~off:(tip_root_off tree) ~len:slot_len (encode_ref root_ptr)))

  (* Fig. 6. The snapshot becomes real when the caller commits the
     transaction (the SCS uses a blocking commit, Sec. 4.1). *)
  let create_snapshot tree txn =
    let sid = Layout.decode_i64 (Txn.read_replicated txn ~off:(tip_id_off tree) ~len:slot_len) in
    let root_loc = decode_ref (Txn.read_replicated txn ~off:(tip_root_off tree) ~len:slot_len) in
    let new_tip = Int64.add sid 1L in
    (* Copy the root eagerly so the new tip's root address is fixed for
       the snapshot's entire lifetime. *)
    let root_node = decode_node txn (Txn.read txn root_loc) in
    let new_root_ptr = Node_alloc.alloc tree.alloc in
    write_node tree txn new_root_ptr (Bnode.with_snap root_node new_tip);
    (* Mark the old root as copied so stale traversals abort, and so the
       GC can eventually collect it. *)
    write_node tree txn root_loc (Bnode.add_descendant root_node new_tip);
    Txn.write_replicated txn ~off:(tip_id_off tree) ~len:slot_len (Layout.encode_i64 new_tip);
    Txn.write_replicated txn ~off:(tip_root_off tree) ~len:slot_len (encode_ref new_root_ptr);
    (sid, root_loc)
end

let read_node_txn tree txn ptr =
  ignore tree;
  decode_node txn (Txn.read txn ptr)

let write_node_txn = write_node

let alloc_node tree = Node_alloc.alloc tree.alloc

(* -------------------------------------------------------------------- *)
(* Audit                                                                  *)
(* -------------------------------------------------------------------- *)

let audit tree ~sid ~root =
  let read_ptr (ptr : Objref.t) =
    let _, store = Cluster.route tree.cluster (Objref.node ptr) in
    let slot =
      Heap.read (Memnode.store_heap store) ~off:ptr.Objref.addr.Address.off ~len:ptr.Objref.len
    in
    let payload = Objref.payload_of_slot slot in
    if String.length payload = 0 then failwith "audit: dangling pointer (empty slot)"
    else Bnode.decode payload
  in
  let fail fmt = Format.kasprintf failwith fmt in
  let entries = ref [] in
  let rec walk ptr ~exp_low ~exp_high ~exp_height =
    let node = read_ptr ptr in
    (match Bnode.check node with Ok () -> () | Error e -> fail "audit: %s" e);
    if not (Bkey.fence_equal node.Bnode.low exp_low) then fail "audit: low fence mismatch";
    if not (Bkey.fence_equal node.Bnode.high exp_high) then fail "audit: high fence mismatch";
    (match exp_height with
    | Some h when node.Bnode.height <> h -> fail "audit: height mismatch"
    | _ -> ());
    if Int64.compare node.Bnode.snap_created sid > 0 then
      fail "audit: node from snapshot %Ld reachable at %Ld" node.Bnode.snap_created sid;
    match node.Bnode.body with
    | Bnode.Leaf es -> Array.iter (fun e -> entries := e :: !entries) es
    | Bnode.Internal { children; _ } ->
        Array.iteri
          (fun i child ->
            let low, high = Bnode.child_fences node i in
            walk child ~exp_low:low ~exp_high:high ~exp_height:(Some (node.Bnode.height - 1)))
          children
  in
  walk root ~exp_low:Bkey.Neg_inf ~exp_high:Bkey.Pos_inf ~exp_height:None;
  let sorted = List.rev !entries in
  let rec check_sorted = function
    | a :: (b :: _ as tl) ->
        if Bkey.compare (fst a) (fst b) >= 0 then failwith "audit: entries not strictly sorted";
        check_sorted tl
    | _ -> ()
  in
  check_sorted sorted;
  sorted
