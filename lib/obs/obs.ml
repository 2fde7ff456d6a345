module Json = Json
module Bench = Bench
module Counter = Sim.Stats.Counter
module Hist = Sim.Stats.Hist

(* Simulated time when available; reports can also be rendered outside
   a simulation (e.g. after Sim.run returns). *)
let tnow () = if Sim.inside () then Sim.now () else 0.0

module Abort = struct
  type reason =
    | Lock_busy
    | Validation_failed
    | Fence_violation
    | Height_mismatch
    | Snapshot_stale
    | Crashed_host
    | Partitioned

  let all =
    [
      Lock_busy;
      Validation_failed;
      Fence_violation;
      Height_mismatch;
      Snapshot_stale;
      Crashed_host;
      Partitioned;
    ]

  let to_string = function
    | Lock_busy -> "lock_busy"
    | Validation_failed -> "validation_failed"
    | Fence_violation -> "fence_violation"
    | Height_mismatch -> "height_mismatch"
    | Snapshot_stale -> "snapshot_stale"
    | Crashed_host -> "crashed_host"
    | Partitioned -> "partitioned"

  let index = function
    | Lock_busy -> 0
    | Validation_failed -> 1
    | Fence_violation -> 2
    | Height_mismatch -> 3
    | Snapshot_stale -> 4
    | Crashed_host -> 5
    | Partitioned -> 6

  type layer = Mtx | Txn | Btree | Scs

  let layers = [ Mtx; Txn; Btree; Scs ]

  let layer_to_string = function Mtx -> "mtx" | Txn -> "txn" | Btree -> "btree" | Scs -> "scs"

  let layer_index = function Mtx -> 0 | Txn -> 1 | Btree -> 2 | Scs -> 3
end

module Op = struct
  type op = Get | Put | Remove | Scan | With_txn | Multi_get | Multi_put | Snapshot_req

  type path = Up_to_date | At_snapshot

  let all = [ Get; Put; Remove; Scan; With_txn; Multi_get; Multi_put; Snapshot_req ]

  let to_string = function
    | Get -> "get"
    | Put -> "put"
    | Remove -> "remove"
    | Scan -> "scan"
    | With_txn -> "with_txn"
    | Multi_get -> "multi_get"
    | Multi_put -> "multi_put"
    | Snapshot_req -> "snapshot"

  let label op path =
    match path with Up_to_date -> to_string op | At_snapshot -> to_string op ^ "@snapshot"

  let index = function
    | Get -> 0
    | Put -> 1
    | Remove -> 2
    | Scan -> 3
    | With_txn -> 4
    | Multi_get -> 5
    | Multi_put -> 6
    | Snapshot_req -> 7

  let path_index = function Up_to_date -> 0 | At_snapshot -> 1
end

(* ------------------------------------------------------------------ *)
(* Typed handle records                                                 *)
(* ------------------------------------------------------------------ *)

type mtx_stats = {
  committed_1pc : Counter.t;
  committed_2pc : Counter.t;
  busy_retries : Counter.t;
  compare_failed : Counter.t;
  retry_budget_exhausted : Counter.t;
  vote_epoch_aborts : Counter.t;
  mtx_unavailable : Counter.t;
  mirrors : Counter.t;
  orphans_released : Counter.t;
  crashes : Counter.t;
  recoveries : Counter.t;
}

type txn_stats = {
  commits : Counter.t;
  free_commits : Counter.t;
  validation_failures : Counter.t;
  retry_exhausted : Counter.t;
  txn_unavailable : Counter.t;
}

type btree_stats = {
  abort_fence : Counter.t;
  abort_version : Counter.t;
  abort_copied : Counter.t;
  abort_height : Counter.t;
  splits : Counter.t;
  root_splits : Counter.t;
  cow : Counter.t;
  discretionary_cow : Counter.t;
  op_retries : Counter.t;
  snapshots_created : Counter.t;
  branches_created : Counter.t;
  branches_deleted : Counter.t;
  chunk_reservations : Counter.t;
}

type cache_stats = {
  cache_hits : Counter.t;
  cache_misses : Counter.t;
  cache_evictions : Counter.t;
  cache_bulk_evictions : Counter.t;
  cache_stale_hits : Counter.t;
  cache_epoch_revalidations : Counter.t;
  cache_epoch_survived : Counter.t;
}

type scan_stats = {
  scan_batches : Counter.t;
  scan_batched_leaves : Counter.t;
  scan_continuations : Counter.t;
  scan_prefetches : Counter.t;
  scan_batch_aborts : Counter.t;
}

type node_stats = {
  view_hits : Counter.t;
  materialisations : Counter.t;
  stamp_revalidations : Counter.t;
  node_bytes_copied : Counter.t;
}

type gc_stats = { slots_reclaimed : Counter.t; branch_slots_reclaimed : Counter.t }

type scs_stats = {
  scs_created : Counter.t;
  scs_borrowed : Counter.t;
  scs_stale_reused : Counter.t;
}

type chaos_stats = {
  faults_injected : Counter.t;
  crashes_injected : Counter.t;
  partitions_injected : Counter.t;
  delay_faults_injected : Counter.t;
  stalls_injected : Counter.t;
  scs_outages_injected : Counter.t;
  mirror_partitions_injected : Counter.t;
  replica_lags_injected : Counter.t;
}

type recovery_stats = {
  in_doubt_found : Counter.t;
  resolved_commit : Counter.t;
  resolved_abort : Counter.t;
  redo_replayed : Counter.t;
  mirror_skipped : Counter.t;
  promotions : Counter.t;
}

module Span = struct
  type kind =
    | Op of Op.op * Op.path
    | Txn
    | Attempt
    | Commit
    | Traversal
    | Scan_batch
    | Mtx_exec
    | Mtx_prepare
    | Mtx_commit
    | Snapshot_create
    | Scs_request
    | Fault of string
    | Recovery_sweep

  let kind_to_string = function
    | Op (op, path) -> "op." ^ Op.label op path
    | Txn -> "txn"
    | Attempt -> "txn.attempt"
    | Commit -> "txn.commit"
    | Traversal -> "btree.traversal"
    | Scan_batch -> "btree.scan_batch"
    | Mtx_exec -> "mtx.exec"
    | Mtx_prepare -> "mtx.prepare"
    | Mtx_commit -> "mtx.commit"
    | Snapshot_create -> "scs.create_snapshot"
    | Scs_request -> "scs.request"
    | Fault kind -> "chaos.fault." ^ kind
    | Recovery_sweep -> "recovery.sweep"

  type outcome = Completed | Aborted of Abort.reason | Failed of string

  type t = { sp_id : int; sp_parent : int; sp_kind : kind; sp_start : float }

  type info = {
    id : int;
    parent : int;
    kind : kind;
    start : float;
    stop : float;
    outcome : outcome;
  }
end

type t = {
  counters : (string * Counter.t) list; (* every counter by report name, sorted *)
  mtx_stats : mtx_stats;
  txn_stats : txn_stats;
  btree_stats : btree_stats;
  cache_stats : cache_stats;
  scan_stats : scan_stats;
  node_stats : node_stats;
  gc_stats : gc_stats;
  scs_stats : scs_stats;
  chaos_stats : chaos_stats;
  recovery_stats : recovery_stats;
  aborts : Counter.t array array; (* [layer][reason] *)
  op_hists : Hist.t array array; (* [op][path] *)
  span_hists : (Span.kind, Hist.t) Hashtbl.t;
  ring : Span.info option array;
  mutable ring_next : int;
  mutable ring_count : int;
  mutable next_span_id : int;
}

(* Finished-span ring size; older spans are overwritten, aggregates are
   unaffected. *)
let span_capacity = 65536

let create () =
  (* The name table: every counter is registered here, once, under the
     name reports print it by. *)
  let named = ref [] in
  let c name =
    let counter = Counter.create () in
    named := (name, counter) :: !named;
    counter
  in
  let mtx_stats =
    {
      committed_1pc = c "mtx.committed_1pc";
      committed_2pc = c "mtx.committed_2pc";
      busy_retries = c "mtx.busy_retries";
      compare_failed = c "mtx.compare_failed";
      retry_budget_exhausted = c "mtx.retry_budget_exhausted";
      vote_epoch_aborts = c "mtx.vote_epoch_aborts";
      mtx_unavailable = c "mtx.unavailable";
      mirrors = c "replication.mirrors";
      orphans_released = c "recovery.orphans_released";
      crashes = c "memnode.crashes";
      recoveries = c "memnode.recoveries";
    }
  in
  let txn_stats =
    {
      commits = c "txn.commits";
      free_commits = c "txn.free_commits";
      validation_failures = c "txn.validation_failures";
      retry_exhausted = c "txn.retry_exhausted";
      txn_unavailable = c "txn.unavailable";
    }
  in
  let btree_stats =
    {
      abort_fence = c "btree.abort.fence";
      abort_version = c "btree.abort.version";
      abort_copied = c "btree.abort.copied";
      abort_height = c "btree.abort.height";
      splits = c "btree.splits";
      root_splits = c "btree.root_splits";
      cow = c "btree.cow";
      discretionary_cow = c "btree.discretionary_cow";
      op_retries = c "btree.op_retries";
      snapshots_created = c "btree.snapshots_created";
      branches_created = c "btree.branches_created";
      branches_deleted = c "btree.branches_deleted";
      chunk_reservations = c "alloc.chunk_reservations";
    }
  in
  let cache_stats =
    {
      cache_hits = c "cache.hits";
      cache_misses = c "cache.misses";
      cache_evictions = c "cache.evictions";
      cache_bulk_evictions = c "cache.bulk_evictions";
      cache_stale_hits = c "cache.stale_epoch_hits";
      cache_epoch_revalidations = c "cache.epoch_revalidations";
      cache_epoch_survived = c "cache.epoch_survived";
    }
  in
  let scan_stats =
    {
      scan_batches = c "scan.batches";
      scan_batched_leaves = c "scan.batched_leaves";
      scan_continuations = c "scan.continuations";
      scan_prefetches = c "scan.prefetches";
      scan_batch_aborts = c "scan.batch_aborts";
    }
  in
  let node_stats =
    {
      view_hits = c "node.view_hits";
      materialisations = c "node.materialisations";
      stamp_revalidations = c "node.stamp_revalidations";
      node_bytes_copied = c "node.bytes_copied";
    }
  in
  let gc_stats =
    {
      slots_reclaimed = c "gc.slots_reclaimed";
      branch_slots_reclaimed = c "gc.branch_slots_reclaimed";
    }
  in
  let scs_stats =
    {
      scs_created = c "scs.snapshots_created";
      scs_borrowed = c "scs.borrows";
      scs_stale_reused = c "scs.stale_reuses";
    }
  in
  let chaos_stats =
    {
      faults_injected = c "chaos.faults_injected";
      crashes_injected = c "chaos.crashes";
      partitions_injected = c "chaos.partitions";
      delay_faults_injected = c "chaos.delay_faults";
      stalls_injected = c "chaos.stalls";
      scs_outages_injected = c "chaos.scs_outages";
      mirror_partitions_injected = c "chaos.mirror_partitions";
      replica_lags_injected = c "chaos.replica_lags";
    }
  in
  let recovery_stats =
    {
      in_doubt_found = c "recovery.in_doubt";
      resolved_commit = c "recovery.resolved_commit";
      resolved_abort = c "recovery.resolved_abort";
      redo_replayed = c "redo.replayed";
      mirror_skipped = c "replication.mirror_skipped";
      promotions = c "recovery.promotions";
    }
  in
  let aborts =
    Array.map
      (fun layer ->
        Array.map
          (fun reason ->
            c
              (Printf.sprintf "abort.%s.%s" (Abort.layer_to_string layer)
                 (Abort.to_string reason)))
          (Array.of_list Abort.all))
      (Array.of_list Abort.layers)
  in
  let op_hists =
    Array.map (fun _ -> [| Hist.create (); Hist.create () |]) (Array.of_list Op.all)
  in
  {
    counters = List.sort (fun (a, _) (b, _) -> String.compare a b) !named;
    mtx_stats;
    txn_stats;
    btree_stats;
    cache_stats;
    scan_stats;
    node_stats;
    gc_stats;
    scs_stats;
    chaos_stats;
    recovery_stats;
    aborts;
    op_hists;
    span_hists = Hashtbl.create 16;
    ring = Array.make span_capacity None;
    ring_next = 0;
    ring_count = 0;
    next_span_id = 1;
  }

let mtx t = t.mtx_stats

let txn t = t.txn_stats

let btree t = t.btree_stats

let cache t = t.cache_stats

let scan t = t.scan_stats

let node t = t.node_stats

let gc t = t.gc_stats

let scs t = t.scs_stats

let chaos t = t.chaos_stats

let recovery t = t.recovery_stats

let counters t = List.map (fun (name, counter) -> (name, Counter.value counter)) t.counters

(* ------------------------------------------------------------------ *)
(* Aborts                                                               *)
(* ------------------------------------------------------------------ *)

let abort t ~layer reason = Counter.incr t.aborts.(Abort.layer_index layer).(Abort.index reason)

let abort_count t ?layer reason =
  match layer with
  | Some l -> Counter.value t.aborts.(Abort.layer_index l).(Abort.index reason)
  | None ->
      Array.fold_left (fun acc row -> acc + Counter.value row.(Abort.index reason)) 0 t.aborts

let abort_counts t =
  List.concat_map
    (fun layer ->
      List.filter_map
        (fun reason ->
          let n = Counter.value t.aborts.(Abort.layer_index layer).(Abort.index reason) in
          if n > 0 then Some (layer, reason, n) else None)
        Abort.all)
    Abort.layers

(* ------------------------------------------------------------------ *)
(* Op latency                                                           *)
(* ------------------------------------------------------------------ *)

let op_hist t ~op ~path = t.op_hists.(Op.index op).(Op.path_index path)

let observe_op t ~op ~path v = Hist.add (op_hist t ~op ~path) v

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

let span_hist t kind =
  match Hashtbl.find_opt t.span_hists kind with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.span_hists kind h;
      h

let span_begin t kind =
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  let parent = Sim.trace_context () in
  Sim.set_trace_context id;
  { Span.sp_id = id; sp_parent = parent; sp_kind = kind; sp_start = tnow () }

let span_end ?(outcome = Span.Completed) t (span : Span.t) =
  Sim.set_trace_context span.Span.sp_parent;
  let stop = tnow () in
  Hist.add (span_hist t span.Span.sp_kind) (stop -. span.Span.sp_start);
  let info =
    {
      Span.id = span.Span.sp_id;
      parent = span.Span.sp_parent;
      kind = span.Span.sp_kind;
      start = span.Span.sp_start;
      stop;
      outcome;
    }
  in
  t.ring.(t.ring_next) <- Some info;
  t.ring_next <- (t.ring_next + 1) mod Array.length t.ring;
  t.ring_count <- t.ring_count + 1

let with_span t ?outcome_of_exn kind f =
  let span = span_begin t kind in
  match f () with
  | v ->
      span_end t span;
      v
  | exception e ->
      let outcome =
        match Option.bind outcome_of_exn (fun g -> g e) with
        | Some o -> o
        | None -> Span.Failed (Printexc.to_string e)
      in
      span_end ~outcome t span;
      raise e

let spans t =
  let cap = Array.length t.ring in
  let start = if t.ring_count <= cap then 0 else t.ring_next in
  let n = min t.ring_count cap in
  List.init n (fun i ->
      match t.ring.((start + i) mod cap) with
      | Some info -> info
      | None -> assert false)

let clear_spans t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.ring_next <- 0;
  t.ring_count <- 0

let time_op t ~op ~path f =
  let start = tnow () in
  with_span t (Span.Op (op, path)) (fun () ->
      let v = f () in
      observe_op t ~op ~path (tnow () -. start);
      v)

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

module Report = struct
  let ms v = v *. 1e3

  let hist_json h =
    Json.Obj
      [
        ("count", Json.Int (Hist.count h));
        ("mean_ms", Json.Float (ms (Hist.mean h)));
        ("p50_ms", Json.Float (ms (Hist.quantile h 0.5)));
        ("p95_ms", Json.Float (ms (Hist.quantile h 0.95)));
        ("p99_ms", Json.Float (ms (Hist.quantile h 0.99)));
        ("p999_ms", Json.Float (ms (Hist.p999 h)));
        ("max_ms", Json.Float (ms (Hist.max h)));
      ]

  let aborts_json t =
    Json.Obj
      (List.map
         (fun layer ->
           ( Abort.layer_to_string layer,
             Json.Obj
               (List.map
                  (fun reason ->
                    (Abort.to_string reason, Json.Int (abort_count t ~layer reason)))
                  Abort.all) ))
         Abort.layers)

  let ops_json t =
    let cells =
      List.concat_map
        (fun op ->
          List.filter_map
            (fun path ->
              let h = op_hist t ~op ~path in
              if Hist.count h > 0 then Some (Op.label op path, hist_json h) else None)
            [ Op.Up_to_date; Op.At_snapshot ])
        Op.all
    in
    Json.Obj cells

  (* One cell per span kind seen so far, sorted by its report name. *)
  let spans_json t =
    let by_name a b = String.compare (Span.kind_to_string a) (Span.kind_to_string b) in
    Json.Obj
      (List.filter_map
         (fun (kind, h) ->
           if Hist.count h > 0 then Some (Span.kind_to_string kind, hist_json h) else None)
         (Sim.Det.sorted_bindings t.span_hists ~cmp:by_name))

  let fields t =
    [
      ("sim_time_s", Json.Float (tnow ()));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("aborts", aborts_json t);
      ("ops", ops_json t);
      ("spans", spans_json t);
    ]

  let pp_hist_line fmt (label, h) =
    Format.fprintf fmt
      "  %-24s n=%-8d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms p999=%.3fms max=%.3fms@,"
      label (Hist.count h) (ms (Hist.mean h))
      (ms (Hist.quantile h 0.5))
      (ms (Hist.quantile h 0.95))
      (ms (Hist.quantile h 0.99))
      (ms (Hist.p999 h))
      (ms (Hist.max h))

  let pp fmt t =
    Format.fprintf fmt "@[<v>op latency (simulated):@,";
    List.iter
      (fun op ->
        List.iter
          (fun path ->
            let h = op_hist t ~op ~path in
            if Hist.count h > 0 then pp_hist_line fmt (Op.label op path, h))
          [ Op.Up_to_date; Op.At_snapshot ])
      Op.all;
    (match abort_counts t with
    | [] -> Format.fprintf fmt "aborts: none@,"
    | counts ->
        Format.fprintf fmt "aborts (layer.reason):@,";
        List.iter
          (fun (layer, reason, n) ->
            Format.fprintf fmt "  %-24s %d@,"
              (Abort.layer_to_string layer ^ "." ^ Abort.to_string reason)
              n)
          counts);
    Format.fprintf fmt "@]"
end
