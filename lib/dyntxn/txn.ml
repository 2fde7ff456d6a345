open Sinfonia

exception Aborted of string

exception Too_contended of string

exception Ambiguous of string

(* A read-set entry. A replicated object is keyed by its copy on the
   home memnode (also its cache key) and compared at whichever replica
   the compares are built for; a slot entry is compared where it lives.
   [stale] is what a failed compare proves stale: the object itself, or
   for a baseline sequence-number entry the node it numbers. *)
type read_entry = { seq : int64; payload : string; replicated : bool; stale : Objref.t }

(* Where a buffered write lands: its own slot; its slot plus an echo of
   the fresh sequence number at an offset on every memnode (the
   baseline's replicated sequence-number table); or, for a replicated
   object, its offset on every memnode. *)
type fanout = Own | Linked of int | Replicated

type t = {
  cluster : Cluster.t;
  obs : Obs.t;
  stats : Obs.txn_stats; (* typed counter handles, resolved once at begin_ *)
  cache : Objcache.t option;
  client : int option;
  home : int;
  reads : (Objref.t, read_entry) Hashtbl.t;
  writes : (Objref.t, string * fanout) Hashtbl.t;
  dirty_seen : (Objref.t, int64 * string) Hashtbl.t;
  mutable aborted : bool;
  mutable fetches : int;
  (* Bumped whenever an entry joins the read set. A validating fetch
     captures the value when it builds its compare set and may only
     claim full coverage if it is unchanged when the fetch lands:
     entries added mid-flight by a concurrent fetch on the same
     transaction (the scan prefetch window) were never compared. *)
  mutable footprint_gen : int;
  (* True when the read set as a whole was atomically validated by the
     most recent fetch; lets read-only transactions commit locally. *)
  mutable fully_validated : bool;
  (* Stamp of the most recent validating fetch that committed. A free
     commit's serialization point is that fetch (the last time the whole
     read set was proven consistent at once), so this becomes its commit
     stamp. *)
  mutable last_validated_stamp : int64 option;
  (* Commit stamp of this transaction's serialization point, set by a
     successful [commit]. None for transactions with no validated
     footprint (e.g. dirty-read-only snapshot transactions — those are
     checked against their snapshot id instead). *)
  mutable commit_stamp : int64 option;
}

let begin_ ?cache ?client ?(home = 0) cluster =
  if home < 0 || home >= Cluster.n_memnodes cluster then
    invalid_arg "Txn.begin_: home memnode out of range";
  let obs = Cluster.obs cluster in
  {
    cluster;
    obs;
    stats = Obs.txn obs;
    cache;
    client;
    home;
    reads = Hashtbl.create 8;
    writes = Hashtbl.create 8;
    dirty_seen = Hashtbl.create 16;
    aborted = false;
    fetches = 0;
    footprint_gen = 0;
    fully_validated = true;
    last_validated_stamp = None;
    commit_stamp = None;
  }

let is_aborted t = t.aborted

let abort t =
  t.aborted <- true;
  raise (Aborted "explicit abort")

let fail t msg =
  t.aborted <- true;
  raise (Aborted msg)

let check_live t = if t.aborted then raise (Aborted "transaction already aborted")

let seq_compare_at addr seq = Mtx.compare_at addr (Objref.seq_bytes seq)

let repl_key t ~off ~len = Objref.make ~addr:(Address.make ~node:t.home ~off) ~len

(* Keep the proxy cache's view of per-space crash epochs current from
   every reply that carries them. *)
let observe_epochs t epochs =
  match t.cache with
  | None -> ()
  | Some cache ->
      List.iter (fun (space, epoch) -> Objcache.observe_epoch cache ~space ~epoch) epochs

(* Compares re-validating the read set: each slot entry where it lives,
   if [on] accepts its memnode, and each replicated entry at
   [repl_node]. Returns the compares, the objects their failures prove
   stale (in the same order), and whether every entry is compared.
   Sorted: the compare order shapes the minitransaction item layout,
   which must replay identically per seed. *)
let read_set_compares t ~on ~repl_node =
  Sim.Det.fold_sorted t.reads ~cmp:Objref.compare
    (fun (r : Objref.t) e (compares, stale, all) ->
      if e.replicated then
        let addr = Address.make ~node:repl_node ~off:r.Objref.addr.Address.off in
        (seq_compare_at addr e.seq :: compares, e.stale :: stale, all)
      else if on (Objref.node r) then
        (seq_compare_at r.Objref.addr e.seq :: compares, r :: stale, all)
      else (compares, stale, false))
    ([], [], true)

(* Abort messages of a fetch that hit a crashed or partitioned memnode;
   [run] tells an outage from contention by them. *)
let unavailable_msg = "memnode unavailable"

let partitioned_msg = "memnode partitioned"

let is_outage msg = String.equal msg unavailable_msg || String.equal msg partitioned_msg

(* Multi-object fetch, optionally piggy-backing read-set validation
   (Sec. 2.2) at the fetched memnodes, replicated entries at the first.
   Items are coalesced per memnode by the Mtx/Coordinator machinery:
   one round trip for a single participant. A validating fetch over
   several runs one parallel 2PC, so the batch joins the read set
   atomically; a dirty one runs one parallel one-phase read per
   memnode. Results are in the order of [refs]. Raises [Aborted] when a
   piggy-backed comparison fails: the read set is stale and the
   transaction cannot commit. *)
let fetch_refs t ~validate (refs : Objref.t list) =
  check_live t;
  let nodes = List.sort_uniq Int.compare (List.map Objref.node refs) in
  let gen0 = t.footprint_gen in
  let compares, _, all_covered =
    (* Invariant: [nodes] is the fetch's participant set, never empty. *)
    if validate then read_set_compares t ~on:(fun n -> List.mem n nodes) ~repl_node:(List.hd nodes)
    else ([], [], false)
  in
  (* Replies are trimmed to the slot's used prefix (header + payload):
     response transfer cost is charged on actual bytes, not the fixed
     slot size — the bulk of a batched scan's byte budget. *)
  let reads =
    List.map (fun (r : Objref.t) -> Mtx.read_at ~trim:true r.Objref.addr r.Objref.len) refs
  in
  t.fetches <- t.fetches + 1;
  match
    if validate then Coordinator.exec t.cluster ?client:t.client (Mtx.make ~compares ~reads ())
    else Coordinator.read_per_memnode t.cluster ?client:t.client reads
  with
  | Mtx.Committed { stamp; reads = results; epochs } ->
      observe_epochs t epochs;
      if validate then begin
        (* Entries that joined the footprint while this fetch was in
           flight (a concurrent prefetch on the same transaction) were
           not in its compare set, so full coverage cannot be claimed;
           the commit then falls back to a full validation round. *)
        t.fully_validated <- all_covered && t.footprint_gen = gen0;
        t.last_validated_stamp <- Some stamp
      end;
      List.map (fun (_, slot) -> (Objref.seq_of_slot slot, Objref.payload_of_slot slot)) results
  | Mtx.Failed_compare _ ->
      (* Some read-set entry changed under us. Evict what we can from
         the cache and abort. *)
      (match t.cache with
      | None -> ()
      | Some cache ->
          (* Invalidation is idempotent per key; iteration order cannot
             reach the resulting cache state. *)
          (* lint: allow transitive-nondet *)
          Hashtbl.iter (fun ref_ _ -> Objcache.invalidate cache ref_) t.reads);
      fail t "piggy-backed validation failed"
  | Mtx.Busy -> fail t "retry budget exhausted during fetch"
  | Mtx.Unavailable { partitioned; _ } ->
      (* Distinguish an injected partition from a crashed, un-failed-over
         host in the abort message. *)
      fail t (if partitioned then partitioned_msg else unavailable_msg)

let in_write_set t ref_ = Hashtbl.mem t.writes ref_

(* What the transaction already holds of [r]: its own buffered write,
   reported at the sequence number the object was first observed at (0
   for blind writes), then its read set, then — for dirty reads only —
   what it dirty-read before. *)
let local t ~dirty r =
  match Hashtbl.find_opt t.writes r with
  | Some (payload, _) ->
      let seq = match Hashtbl.find_opt t.reads r with Some e -> e.seq | None -> 0L in
      Some (seq, payload)
  | None -> (
      match Hashtbl.find_opt t.reads r with
      | Some e -> Some (e.seq, e.payload)
      | None -> if dirty then Hashtbl.find_opt t.dirty_seen r else None)

(* [per_distinct f refs] is [f] applied to [refs] without repeats
   (first-occurrence order), its per-object results mapped back onto
   [refs]. A list without repeats builds no result table, and a list of
   at most one object none at all. *)
let per_distinct f refs =
  match refs with
  | [] | [ _ ] -> f refs
  | _ ->
      let seen = Hashtbl.create 16 in
      let distinct =
        List.filter
          (fun r ->
            if Hashtbl.mem seen r then false
            else begin
              Hashtbl.add seen r ();
              true
            end)
          refs
      in
      if List.compare_lengths distinct refs = 0 then f refs
      else begin
        let results = Hashtbl.create 16 in
        List.iter2 (Hashtbl.replace results) distinct (f distinct);
        List.map (Hashtbl.find results) refs
      end

(* Cache lookup distinguishing fresh entries from stale-epoch ones
   (their space crashed since insertion; the caller re-fetches and
   reports the revalidation) and true misses. *)
let cache_lookup t ref_ =
  match t.cache with
  | None -> `Absent
  | Some cache -> (
      match Objcache.find_status cache ref_ with
      | Objcache.Fresh { seq; payload } -> `Fresh (seq, payload)
      | Objcache.Stale entry -> `Stale entry
      | Objcache.Miss -> `Absent)

(* Store a freshly fetched copy back into the cache, closing out a
   stale-epoch revalidation when [st] says the lookup found one. Empty
   payloads (deleted/unallocated slots) are never cached: a negative
   entry served after the slot is reused would be indistinguishable
   from a live object. *)
let cache_store t ref_ ~seq ~payload st =
  match t.cache with
  | None -> ()
  | Some cache ->
      (match st with
      | `Stale old -> Objcache.note_revalidation cache ~old ~seq
      | `Absent -> ());
      if String.length payload > 0 then Objcache.insert cache ref_ { Objcache.seq; payload }
      else Objcache.invalidate cache ref_

let join_reads t r entry =
  Hashtbl.replace t.reads r entry;
  t.footprint_gen <- t.footprint_gen + 1

(* Note what a read observed: a validated read joins the read set, a
   dirty one is remembered so that a later {!write} adds it to the read
   set and {!evict_dirty} can purge it. *)
let record t r ((seq, payload) as v) ~validate ~replicated =
  if validate then join_reads t r { seq; payload; replicated; stale = r }
  else Hashtbl.replace t.dirty_seen r v

(* The one read path. Objects are served from the transaction's own
   state, then (with [use_cache]) the proxy cache, and the rest come
   from one fetch; stale-epoch cache entries are fetched too and
   accounted as lazy revalidations. A replicated dirty read skips the
   transaction's state and goes to the cache or memnode on every call. *)
let read_objs t ~validate ~use_cache ~replicated refs =
  check_live t;
  per_distinct
    (fun refs ->
      let resolved =
        List.map
          (fun r ->
            match if replicated && not validate then None else local t ~dirty:(not validate) r with
            | Some v -> `Done v
            | None -> (
                match if use_cache then cache_lookup t r else `Absent with
                | `Fresh v ->
                    record t r v ~validate ~replicated;
                    (* Served from the incoherent cache: the read set is
                       no longer known-consistent until the next
                       validating fetch or commit. *)
                    if validate then t.fully_validated <- false;
                    `Done v
                | (`Stale _ | `Absent) as st -> `Fetch (r, st)))
          refs
      in
      let missing = List.filter_map (function `Fetch m -> Some m | `Done _ -> None) resolved in
      let fetched =
        match missing with
        | [] -> []
        | _ ->
            let fetched = fetch_refs t ~validate (List.map fst missing) in
            List.iter2
              (fun (r, st) ((seq, payload) as v) ->
                record t r v ~validate ~replicated;
                if use_cache then cache_store t r ~seq ~payload st)
              missing fetched;
            (* A concurrent fiber of this transaction (the scan prefetch
               window) may have aborted or committed it meanwhile. *)
            if validate then check_live t;
            fetched
      in
      (* Fetched values fill the [`Fetch] holes in order. *)
      let rec fill resolved fetched =
        match (resolved, fetched) with
        | [], _ -> []
        | `Done v :: tl, fetched | `Fetch _ :: tl, v :: fetched -> v :: fill tl fetched
        | `Fetch _ :: _, [] -> assert false (* one fetched value per [`Fetch] *)
      in
      fill resolved fetched)
    refs

let read_many_with_seq t refs = read_objs t ~validate:true ~use_cache:false ~replicated:false refs

let read_with_seq t ref_ =
  match read_many_with_seq t [ ref_ ] with [ v ] -> v | _ -> assert false

let read t ref_ = snd (read_with_seq t ref_)

let dirty_read_many_with_seq ?(use_cache = true) t refs =
  read_objs t ~validate:false ~use_cache ~replicated:false refs

let dirty_read_with_seq ?use_cache t ref_ =
  match dirty_read_many_with_seq ?use_cache t [ ref_ ] with [ v ] -> v | _ -> assert false

let dirty_read ?use_cache t ref_ = snd (dirty_read_with_seq ?use_cache t ref_)

let read_replicated_gen t ~validate ~use_cache ~off ~len =
  match read_objs t ~validate ~use_cache ~replicated:true [ repl_key t ~off ~len ] with
  | [ (_, payload) ] -> payload
  | _ -> assert false

let read_replicated t ~off ~len = read_replicated_gen t ~validate:true ~use_cache:true ~off ~len

let dirty_read_replicated ?(use_cache = true) t ~off ~len =
  read_replicated_gen t ~validate:false ~use_cache ~off ~len

let write_gen t (ref_ : Objref.t) payload ~fanout ~what =
  check_live t;
  if String.length payload > Objref.payload_capacity ref_ then
    invalid_arg (what ^ ": payload exceeds slot capacity");
  match fanout with
  | Replicated -> Hashtbl.replace t.writes ref_ (payload, fanout)
  | Own | Linked _ ->
      (* An object that was dirty-read and is now written must join the
         read set (with the sequence number it was dirty-read at) so
         that commit validates it (Sec. 3). *)
      (if not (Hashtbl.mem t.reads ref_) then
         match Hashtbl.find_opt t.dirty_seen ref_ with
         | Some v ->
             record t ref_ v ~validate:true ~replicated:false;
             t.fully_validated <- false
         | None -> ());
      (* A plain rewrite keeps any echo offset recorded earlier. *)
      let fanout =
        match (fanout, Hashtbl.find_opt t.writes ref_) with
        | Own, Some (_, (Linked _ as linked)) -> linked
        | _ -> fanout
      in
      Hashtbl.replace t.writes ref_ (payload, fanout)

let write t ref_ payload = write_gen t ref_ payload ~fanout:Own ~what:"Txn.write"

let write_linked t ref_ payload ~repl_off =
  write_gen t ref_ payload ~fanout:(Linked repl_off) ~what:"Txn.write"

let write_replicated t ~off ~len payload =
  write_gen t (repl_key t ~off ~len) payload ~fanout:Replicated ~what:"Txn.write_replicated"

(* A sequence-number entry is a bare slot header (what {!write_linked}
   echoes), so its home copy is keyed with the header's length. *)
let validate_replicated t ~off ~seq ~obj =
  check_live t;
  let key = { Objref.addr = Address.make ~node:t.home ~off; len = Mtx.slot_header_size } in
  if not (Hashtbl.mem t.reads key) then begin
    join_reads t key { seq; payload = ""; replicated = true; stale = obj };
    t.fully_validated <- false
  end

(* Each iter below only invalidates cache entries — idempotent per key,
   so iteration order cannot reach the resulting cache state.

   Negative entries: a slot read-set entry observed with an empty
   payload names a deleted or unallocated slot. Drop any cached copy so
   a post-abort retry cannot dirty-read the dead node out of the cache
   and traverse into freed space. *)
let evict_negative t cache =
  (* lint: allow transitive-nondet *)
  Hashtbl.iter
    (fun ref_ e ->
      if (not e.replicated) && String.length e.payload = 0 then Objcache.invalidate cache ref_)
    t.reads

let evict_dirty t =
  match t.cache with
  | None -> ()
  | Some cache ->
      (* lint: allow transitive-nondet *)
      Hashtbl.iter (fun ref_ _ -> Objcache.invalidate cache ref_) t.dirty_seen;
      evict_negative t cache;
      (* Replicated reads may also have come from the cache. *)
      (* lint: allow transitive-nondet *)
      Hashtbl.iter (fun ref_ e -> if e.replicated then Objcache.invalidate cache ref_) t.reads

type commit_result =
  | Committed
  | Validation_failed
  | Retry_exhausted
  | Unavailable of { maybe_applied : bool }

let fetches t = t.fetches

let commit ?(blocking = false) t =
  check_live t;
  t.aborted <- true;
  (* mark consumed: a transaction commits at most once *)
  if Hashtbl.length t.writes = 0 && t.fully_validated then begin
    (* Free commit: serialization point is the last fetch that validated
       the whole read set (None for a transaction that never validated
       anything, e.g. dirty-only snapshot reads). *)
    t.commit_stamp <- t.last_validated_stamp;
    Obs.Counter.incr t.stats.Obs.free_commits;
    Committed
  end
  else
    Obs.with_span t.obs Obs.Span.Commit @@ fun () ->
    (* Fresh sequence numbers for every written object, drawn from the
       cluster-wide counter in address order, slot writes first.
       Uniqueness (not contiguity) is what validation relies on; the
       counter also keeps them monotonically increasing over time. Each
       group lists its highest address first. *)
    let slot_writes, repl_writes =
      List.partition
        (fun (_, (_, fanout)) -> fanout <> Replicated)
        (Sim.Det.sorted_bindings t.writes ~cmp:Objref.compare)
    in
    let draw =
      List.rev_map (fun (ref_, (payload, fanout)) ->
          (ref_, Cluster.fresh_owner t.cluster, payload, fanout))
    in
    let slot_written = draw slot_writes in
    let written = slot_written @ draw repl_writes in
    let n = Cluster.n_memnodes t.cluster in
    let everywhere off slot =
      List.init n (fun node -> Mtx.write_at (Address.make ~node ~off) slot)
    in
    let write_items =
      List.concat_map
        (fun ((ref_ : Objref.t), seq, payload, fanout) ->
          let slot = Objref.slot_of ~seq ~payload in
          match fanout with
          | Own -> [ Mtx.write_at ref_.Objref.addr slot ]
          | Linked off ->
              Mtx.write_at ref_.Objref.addr slot :: everywhere off (Objref.slot_of ~seq ~payload:"")
          | Replicated -> everywhere ref_.Objref.addr.Address.off slot)
        written
    in
    (* Replicated entries validate at one replica: a memnode that
       already participates, so single-memnode commits stay one-phase. *)
    let repl_node =
      match slot_written with
      | (ref_, _, _, _) :: _ -> Objref.node ref_
      | [] ->
          Sim.Det.fold_sorted t.reads ~cmp:Objref.compare
            (fun ref_ e node -> if e.replicated then node else Objref.node ref_)
            t.home
    in
    let compares, stale, _ = read_set_compares t ~on:(fun _ -> true) ~repl_node in
    let mtx = Mtx.make ~compares ~writes:write_items () in
    let mode = if blocking then Coordinator.Blocking else Coordinator.Normal in
    match Coordinator.exec t.cluster ?client:t.client ~mode mtx with
    | Mtx.Committed { stamp; epochs; _ } ->
        t.commit_stamp <- Some stamp;
        observe_epochs t epochs;
        (* Refresh the proxy cache for what we just wrote: replicated
           objects (tip pointers, catalog entries) and the slot objects
           the cache already knew about (internal B-tree nodes); leaves
           stay uncached, matching the paper's design. *)
        Option.iter
          (fun cache ->
            List.iter
              (fun (ref_, seq, payload, fanout) ->
                if fanout = Replicated || Hashtbl.mem t.dirty_seen ref_ || Objcache.mem cache ref_
                then Objcache.insert cache ref_ { Objcache.seq; payload })
              written)
          t.cache;
        Obs.Counter.incr t.stats.Obs.commits;
        Committed
    | Mtx.Failed_compare idxs ->
        (* Evict whatever proved stale from the cache so the retry
           re-fetches fresh copies. *)
        Option.iter
          (fun cache ->
            let stale = Array.of_list stale in
            List.iter
              (fun i -> if i < Array.length stale then Objcache.invalidate cache stale.(i))
              idxs)
          t.cache;
        Obs.Counter.incr t.stats.Obs.validation_failures;
        Validation_failed
    | Mtx.Busy ->
        Obs.Counter.incr t.stats.Obs.retry_exhausted;
        Retry_exhausted
    | Mtx.Unavailable { maybe_applied; _ } ->
        (* Surfaced as its own result (not folded into Retry_exhausted):
           an outage is not contention, and callers back off differently. *)
        Obs.Counter.incr t.stats.Obs.txn_unavailable;
        Unavailable { maybe_applied }

(* -------------------------------------------------------------------- *)
(* The retry loop                                                         *)
(* -------------------------------------------------------------------- *)

let max_attempts = 64

(* Aborts caused by an outage (crashed or partitioned memnode) back off
   on the outage's timescale — milliseconds, waiting out failover or a
   partition heal — instead of the microsecond contention backoff. *)
let outage_backoff cluster attempt =
  let cap = 1e-3 *. float_of_int (min (attempt + 1) 16) in
  Sim.delay (Sim.Rng.float (Cluster.rng cluster) cap)

let run ?cache ?client ?home ?(blocking = false) ~name cluster f =
  let obs = Cluster.obs cluster in
  let retries = (Obs.btree obs).Obs.op_retries in
  Obs.with_span obs Obs.Span.Txn @@ fun () ->
  let rec go attempt =
    if attempt >= max_attempts then
      raise (Too_contended (Printf.sprintf "%s: %d attempts" name attempt));
    if attempt > 0 then begin
      Obs.Counter.incr retries;
      (* Jittered backoff decorrelates repeatedly conflicting
         transactions. A blocking commit already waited for its locks
         at the memnode, so it retries at once. *)
      if not blocking then begin
        let cap = 20e-6 *. float_of_int (min attempt 6) in
        Sim.delay (Sim.Rng.float (Cluster.rng cluster) cap)
      end
    end;
    let span = Obs.span_begin obs Obs.Span.Attempt in
    let txn = begin_ ?cache ?client ?home cluster in
    match f txn with
    | result -> (
        match commit ~blocking txn with
        | Committed ->
            Obs.span_end obs span;
            (result, txn.commit_stamp)
        | Validation_failed ->
            (* [commit] already evicted the entries whose compares
               failed: a stale leaf proves nothing about the cached path
               above it. If that path is stale too, the retry's safety
               checks raise [Aborted], which evicts it. *)
            Obs.span_end obs span ~outcome:(Obs.Span.Aborted Obs.Abort.Validation_failed);
            Option.iter (evict_negative txn) cache;
            go (attempt + 1)
        | Retry_exhausted ->
            (* A busy lock says nothing about what the attempt read. *)
            Obs.span_end obs span ~outcome:(Obs.Span.Aborted Obs.Abort.Lock_busy);
            Option.iter (evict_negative txn) cache;
            go (attempt + 1)
        | Unavailable { maybe_applied = true } ->
            (* Cannot retry: the commit may already be in. The caller
               must treat the effect as unknown (the history checker
               resolves it from later reads). *)
            Obs.span_end obs span ~outcome:(Obs.Span.Aborted Obs.Abort.Crashed_host);
            raise (Ambiguous (Printf.sprintf "%s: commit outcome unknown" name))
        | Unavailable { maybe_applied = false } ->
            (* An outage says nothing about the freshness of what was
               dirty-read: keep the cache. Entries that really are stale
               (from a promoted backup's older image) carry a pre-crash
               epoch tag and are lazily revalidated on next use instead
               of being flushed here. *)
            Obs.span_end obs span ~outcome:(Obs.Span.Aborted Obs.Abort.Crashed_host);
            outage_backoff cluster attempt;
            go (attempt + 1))
    | exception Aborted msg ->
        (* Traversal safety checks, decode and CRC errors and failed
           piggy-backed validation abort here: this is where a stale
           cached node is detected, so the whole dirty set goes. *)
        Obs.span_end obs span ~outcome:(Obs.Span.Failed msg);
        if is_outage msg then outage_backoff cluster attempt else evict_dirty txn;
        go (attempt + 1)
    | exception e ->
        Obs.span_end obs span ~outcome:(Obs.Span.Failed (Printexc.to_string e));
        raise e
  in
  go 0
