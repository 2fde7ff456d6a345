open Sinfonia

exception Aborted of string

exception Too_contended of string

exception Ambiguous of string

type read_entry = {
  ref_ : Objref.t;
  seq : int64;
  payload : string;
  mutable validated : bool;
      (* Covered by the most recent piggy-backed validation. Used only to
         decide whether a read-only commit needs a validation round. *)
}

type repl_read = { rr_len : int; rr_seq : int64; rr_payload : string }

type t = {
  cluster : Cluster.t;
  obs : Obs.t;
  stats : Obs.txn_stats; (* typed counter handles, resolved once at begin_ *)
  cache : Objcache.t option;
  client : int option;
  home : int;
  reads : (Objref.t, read_entry) Hashtbl.t;
  writes : (Objref.t, string * int option) Hashtbl.t; (* payload, echo offset *)
  dirty_seen : (Objref.t, int64 * string) Hashtbl.t;
  repl_reads : (int, repl_read) Hashtbl.t; (* keyed by offset *)
  repl_writes : (int, int * string) Hashtbl.t; (* offset -> slot len, payload *)
  repl_validates : (int, int64 * Objref.t) Hashtbl.t;
      (* offset -> expected seq and the object it numbers, no fetch *)
  dirty_repl_seen : (int, int) Hashtbl.t; (* offset -> len, for cache eviction *)
  mutable aborted : bool;
  mutable fetches : int;
  (* Bumped whenever an entry joins the validated footprint (reads,
     repl_reads, repl_validates). A validating fetch captures the value
     when it builds its compare set and may only claim full coverage if
     it is unchanged when the fetch lands: entries added mid-flight by a
     concurrent fetch on the same transaction (the scan prefetch window)
     were never compared. *)
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
    repl_reads = Hashtbl.create 4;
    repl_writes = Hashtbl.create 4;
    repl_validates = Hashtbl.create 4;
    dirty_repl_seen = Hashtbl.create 4;
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

(* Record that the validated footprint grew; see [footprint_gen]. *)
let note_footprint t = t.footprint_gen <- t.footprint_gen + 1

let seq_compare_at addr seq = Mtx.compare_at addr (Objref.seq_bytes seq)

let cache_key_of_repl t off len = Objref.make ~addr:(Address.make ~node:t.home ~off) ~len

(* Keep the proxy cache's view of per-space crash epochs current from
   every reply that carries them. *)
let observe_epochs t epochs =
  match t.cache with
  | None -> ()
  | Some cache ->
      List.iter (fun (space, epoch) -> Objcache.observe_epoch cache ~space ~epoch) epochs

(* Compare items that re-validate the current read set, restricted to
   what can be checked at the memnodes in [nodes]: regular entries
   stored on one of them plus replicated entries (present on every
   memnode, attached to the first participant to avoid duplicates).
   Returns the compares, the entries they cover, and whether they cover
   the whole read set. *)
let piggyback_compares t ~nodes =
  let compares = ref [] in
  let covered = ref [] in
  let all_covered = ref true in
  (* Invariant: callers pass the txn's participant set, never empty. *)
  let repl_node = List.hd nodes in
  (* Sorted iteration: compare order shapes the minitransaction item
     layout (and which stale entry aborts first), which must replay
     identically per seed. *)
  Sim.Det.iter_sorted t.reads ~cmp:Objref.compare (fun _ entry ->
      if List.mem (Objref.node entry.ref_) nodes then begin
        compares := seq_compare_at entry.ref_.Objref.addr entry.seq :: !compares;
        covered := `Read entry :: !covered
      end
      else all_covered := false);
  Sim.Det.iter_sorted t.repl_reads ~cmp:Int.compare (fun off rr ->
      compares := seq_compare_at (Address.make ~node:repl_node ~off) rr.rr_seq :: !compares);
  Sim.Det.iter_sorted t.repl_validates ~cmp:Int.compare (fun off (seq, _) ->
      if not (Hashtbl.mem t.repl_reads off) then
        compares := seq_compare_at (Address.make ~node:repl_node ~off) seq :: !compares);
  (!compares, !covered, !all_covered)

(* Abort messages of a fetch that hit a crashed or partitioned memnode;
   [run] tells an outage from contention by them. *)
let unavailable_msg = "memnode unavailable"

let partitioned_msg = "memnode partitioned"

let is_outage msg = String.equal msg unavailable_msg || String.equal msg partitioned_msg

(* Multi-object fetch, optionally piggy-backing read-set validation
   (Sec. 2.2). Items are coalesced per memnode by the Mtx/Coordinator
   machinery: one round trip for a single participant. A validating
   fetch over several runs one parallel 2PC, so the batch joins the
   read set atomically; a dirty one runs one parallel one-phase read
   per memnode. Results are in the order of [refs]. Raises [Aborted]
   when a piggy-backed comparison fails: the read set is stale and the
   transaction cannot commit. *)
let fetch_refs t ~validate (refs : Objref.t list) =
  check_live t;
  let nodes = List.sort_uniq Int.compare (List.map Objref.node refs) in
  let gen0 = t.footprint_gen in
  let compares, covered, all_covered =
    if validate then piggyback_compares t ~nodes else ([], [], false)
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
        List.iter (fun (`Read entry) -> entry.validated <- true) covered;
        (* Entries that joined the footprint while this fetch was in
           flight (a concurrent prefetch on the same transaction) were
           not in its compare set, so full coverage cannot be claimed;
           the commit then falls back to a full validation round. *)
        t.fully_validated <- (all_covered && t.footprint_gen = gen0);
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
      Obs.abort t.obs ~layer:Obs.Abort.Txn Obs.Abort.Validation_failed;
      fail t "piggy-backed validation failed"
  | Mtx.Busy ->
      Obs.abort t.obs ~layer:Obs.Abort.Txn Obs.Abort.Lock_busy;
      fail t "retry budget exhausted during fetch"
  | Mtx.Unavailable { partitioned; _ } ->
      (* Distinguish an injected partition from a crashed, un-failed-over
         host — both at this layer and below (the Mtx layer already
         counted the same reason), so abort accounting agrees across
         layers. *)
      let reason = if partitioned then Obs.Abort.Partitioned else Obs.Abort.Crashed_host in
      Obs.abort t.obs ~layer:Obs.Abort.Txn reason;
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

let read_many_with_seq t refs =
  check_live t;
  per_distinct
    (fun refs ->
      (match List.filter (fun r -> Option.is_none (local t ~dirty:false r)) refs with
      | [] -> ()
      | missing ->
          (* One minitransaction for every missing object (coalesced per
             memnode by the coordinator), piggy-backing read-set
             validation so the batch joins the read set atomically
             validated. *)
          let fetched = fetch_refs t ~validate:true missing in
          List.iter2
            (fun ref_ (seq, payload) ->
              Hashtbl.replace t.reads ref_ { ref_; seq; payload; validated = true };
              note_footprint t)
            missing fetched;
          (* A concurrent fiber of this transaction (the scan prefetch
             window) may have aborted or committed it meanwhile. *)
          check_live t);
      List.map
        (fun r ->
          match local t ~dirty:false r with
          | Some v -> v
          | None -> assert false (* every missing object just joined the read set *))
        refs)
    refs

let read_with_seq t ref_ =
  match read_many_with_seq t [ ref_ ] with [ v ] -> v | _ -> assert false

let read t ref_ = snd (read_with_seq t ref_)

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
      | `Stale old -> Objcache.note_revalidation cache ~old ~seq ~payload
      | `Absent -> ());
      if String.length payload > 0 then Objcache.insert cache ref_ { Objcache.seq; payload }
      else Objcache.invalidate cache ref_

let dirty_read_many_with_seq ?(use_cache = true) t refs =
  check_live t;
  per_distinct
    (fun refs ->
      (* Resolve from local state / the cache first; whatever remains is
         fetched in one batched minitransaction. Stale-epoch cache
         entries are fetched too and accounted as lazy revalidations. *)
      let resolved =
        List.map
          (fun r ->
            match local t ~dirty:true r with
            | Some v -> `Done v
            | None -> (
                match if use_cache then cache_lookup t r else `Absent with
                | `Fresh v ->
                    Hashtbl.replace t.dirty_seen r v;
                    `Done v
                | (`Stale _ | `Absent) as st -> `Fetch (r, st)))
          refs
      in
      let missing = List.filter_map (function `Fetch m -> Some m | `Done _ -> None) resolved in
      let fetched =
        match missing with
        | [] -> []
        | _ ->
            let fetched = fetch_refs t ~validate:false (List.map fst missing) in
            List.iter2
              (fun (r, st) ((seq, payload) as v) ->
                Hashtbl.replace t.dirty_seen r v;
                if use_cache then cache_store t r ~seq ~payload st)
              missing fetched;
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

let dirty_read_with_seq ?use_cache t ref_ =
  match dirty_read_many_with_seq ?use_cache t [ ref_ ] with [ v ] -> v | _ -> assert false

let dirty_read ?use_cache t ref_ = snd (dirty_read_with_seq ?use_cache t ref_)

let write_gen t (ref_ : Objref.t) payload ~echo =
  check_live t;
  if String.length payload > Objref.payload_capacity ref_ then
    invalid_arg "Txn.write: payload exceeds slot capacity";
  (* An object that was dirty-read and is now written must join the read
     set (with the sequence number it was dirty-read at) so that commit
     validates it (Sec. 3). *)
  if not (Hashtbl.mem t.reads ref_) then begin
    match Hashtbl.find_opt t.dirty_seen ref_ with
    | Some (seq, seen_payload) ->
        Hashtbl.replace t.reads ref_ { ref_; seq; payload = seen_payload; validated = false };
        note_footprint t;
        t.fully_validated <- false
    | None -> ()
  end;
  (* A plain rewrite keeps any echo offset recorded earlier. *)
  let echo =
    match echo with
    | Some _ -> echo
    | None -> (
        match Hashtbl.find_opt t.writes ref_ with Some (_, e) -> e | None -> None)
  in
  Hashtbl.replace t.writes ref_ (payload, echo)

let write t ref_ payload = write_gen t ref_ payload ~echo:None

let write_linked t ref_ payload ~repl_off = write_gen t ref_ payload ~echo:(Some repl_off)

let validate_replicated t ~off ~seq ~obj =
  check_live t;
  if not (Hashtbl.mem t.repl_validates off) then begin
    Hashtbl.replace t.repl_validates off (seq, obj);
    note_footprint t;
    t.fully_validated <- false
  end

let read_replicated t ~off ~len =
  check_live t;
  match Hashtbl.find_opt t.repl_writes off with
  | Some (_, payload) -> payload
  | None -> (
      match Hashtbl.find_opt t.repl_reads off with
      | Some rr -> rr.rr_payload
      | None -> (
          let key = cache_key_of_repl t off len in
          match cache_lookup t key with
          | `Fresh (seq, payload) ->
              Hashtbl.replace t.repl_reads off { rr_len = len; rr_seq = seq; rr_payload = payload };
              note_footprint t;
              (* Served from the (incoherent) cache: the read set is no
                 longer known-consistent until the next validating fetch
                 or commit. *)
              t.fully_validated <- false;
              payload
          | (`Stale _ | `Absent) as st -> (
              match fetch_refs t ~validate:true [ key ] with
              | [ (seq, payload) ] ->
                  Hashtbl.replace t.repl_reads off
                    { rr_len = len; rr_seq = seq; rr_payload = payload };
                  note_footprint t;
                  cache_store t key ~seq ~payload st;
                  payload
              | _ -> assert false (* one result per ref *))))

let dirty_read_replicated ?(use_cache = true) t ~off ~len =
  check_live t;
  Hashtbl.replace t.dirty_repl_seen off len;
  let key = cache_key_of_repl t off len in
  let status = if use_cache then cache_lookup t key else `Absent in
  match status with
  | `Fresh (_, payload) -> payload
  | (`Stale _ | `Absent) as st -> (
      match fetch_refs t ~validate:false [ key ] with
      | [ (seq, payload) ] ->
          if use_cache then cache_store t key ~seq ~payload st;
          payload
      | _ -> assert false (* one result per ref *))

let write_replicated t ~off ~len payload =
  check_live t;
  if String.length payload > len - Mtx.slot_header_size then
    invalid_arg "Txn.write_replicated: payload exceeds slot capacity";
  Hashtbl.replace t.repl_writes off (len, payload)

(* Each iter below only invalidates cache entries — idempotent per key,
   so iteration order cannot reach the resulting cache state.

   Negative entries: a read-set entry observed with an empty payload
   names a deleted or unallocated slot. Drop any cached copy so a
   post-abort retry cannot dirty-read the dead node out of the cache and
   traverse into freed space. *)
let evict_negative t cache =
  (* lint: allow transitive-nondet *)
  Hashtbl.iter
    (fun ref_ e -> if String.length e.payload = 0 then Objcache.invalidate cache ref_)
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
      Hashtbl.iter
        (fun off rr -> Objcache.invalidate cache (cache_key_of_repl t off rr.rr_len))
        t.repl_reads;
      (* lint: allow transitive-nondet *)
      Hashtbl.iter
        (fun off len -> Objcache.invalidate cache (cache_key_of_repl t off len))
        t.dirty_repl_seen

type commit_result =
  | Committed
  | Validation_failed
  | Retry_exhausted
  | Unavailable of { maybe_applied : bool }

let fetches t = t.fetches

(* Post-commit: refresh the proxy cache for objects we just wrote, but
   only those the cache already knew about (internal B-tree nodes);
   leaves stay uncached, matching the paper's design. *)
let refresh_cache t written =
  match t.cache with
  | None -> ()
  | Some cache ->
      List.iter
        (fun (ref_, seq, payload, _echo) ->
          let known = Hashtbl.mem t.dirty_seen ref_ || Objcache.mem cache ref_ in
          if known then Objcache.insert cache ref_ { Objcache.seq; payload })
        written

let commit ?(blocking = false) t =
  check_live t;
  t.aborted <- true;
  (* mark consumed: a transaction commits at most once *)
  let no_writes = Hashtbl.length t.writes = 0 && Hashtbl.length t.repl_writes = 0 in
  if no_writes && t.fully_validated then begin
    (* Free commit: serialization point is the last fetch that validated
       the whole read set (None for a transaction that never validated
       anything, e.g. dirty-only snapshot reads). *)
    t.commit_stamp <- t.last_validated_stamp;
    Obs.Counter.incr t.stats.Obs.free_commits;
    Committed
  end
  else
    Obs.with_span t.obs Obs.Span.Commit @@ fun () ->
    let n = Cluster.n_memnodes t.cluster in
    (* Fresh sequence numbers for every written object. Uniqueness (not
       contiguity) is what validation relies on; the cluster-wide counter
       also keeps them monotonically increasing over time. *)
    (* Sorted folds below: these shape the minitransaction item layout
       and the order sequence numbers are drawn from the cluster-wide
       counter — both must replay identically per seed. *)
    let written =
      Sim.Det.fold_sorted t.writes ~cmp:Objref.compare
        (fun ref_ (payload, echo) acc -> (ref_, Cluster.fresh_owner t.cluster, payload, echo) :: acc)
        []
    in
    let write_items =
      List.concat_map
        (fun ((ref_ : Objref.t), seq, payload, echo) ->
          let obj = Mtx.write_at ref_.Objref.addr (Objref.slot_of ~seq ~payload) in
          match echo with
          | None -> [ obj ]
          | Some off ->
              (* Republish the fresh sequence number to the replicated
                 slot at [off] on every memnode (baseline seqnum table). *)
              let slot = Objref.slot_of ~seq ~payload:"" in
              obj :: List.init n (fun node -> Mtx.write_at (Address.make ~node ~off) slot))
        written
    in
    let repl_written =
      Sim.Det.fold_sorted t.repl_writes ~cmp:Int.compare
        (fun off (len, payload) acc -> (off, len, Cluster.fresh_owner t.cluster, payload) :: acc)
        []
    in
    let repl_write_items =
      List.concat_map
        (fun (off, _len, seq, payload) ->
          let slot = Objref.slot_of ~seq ~payload in
          List.init n (fun node -> Mtx.write_at (Address.make ~node ~off) slot))
        repl_written
    in
    (* Regular read-set validation: compare each object's sequence
       number where it lives. *)
    let read_entries = Sim.Det.fold_sorted t.reads ~cmp:Objref.compare (fun _ e acc -> e :: acc) [] in
    let read_compares =
      List.map (fun e -> (seq_compare_at e.ref_.Objref.addr e.seq, `Obj e.ref_)) read_entries
    in
    (* Replicated reads validate at one replica. Prefer a memnode that
       already participates so single-memnode commits stay one-phase. *)
    let preferred_node =
      match write_items with
      | w :: _ -> w.Mtx.w_addr.Address.node
      | [] -> (
          match read_entries with e :: _ -> Objref.node e.ref_ | [] -> t.home)
    in
    let repl_compares =
      Sim.Det.fold_sorted t.repl_reads ~cmp:Int.compare
        (fun off rr acc ->
          ( seq_compare_at (Address.make ~node:preferred_node ~off) rr.rr_seq,
            `Repl (off, rr.rr_len) )
          :: acc)
        []
    in
    let repl_validate_compares =
      Sim.Det.fold_sorted t.repl_validates ~cmp:Int.compare
        (fun off (seq, obj) acc ->
          if Hashtbl.mem t.repl_reads off then acc
          else (seq_compare_at (Address.make ~node:preferred_node ~off) seq, `Repl_seq obj) :: acc)
        []
    in
    let compares = read_compares @ repl_compares @ repl_validate_compares in
    let mtx =
      Mtx.make ~compares:(List.map fst compares)
        ~writes:(write_items @ repl_write_items)
        ()
    in
    let mode = if blocking then Coordinator.Blocking else Coordinator.Normal in
    match Coordinator.exec t.cluster ?client:t.client ~mode mtx with
    | Mtx.Committed { stamp; epochs; _ } ->
        t.commit_stamp <- Some stamp;
        observe_epochs t epochs;
        refresh_cache t written;
        (* Keep the proxy's view of replicated objects it just updated
           fresh (tip pointers, catalog entries). *)
        (match t.cache with
        | None -> ()
        | Some cache ->
            List.iter
              (fun (off, len, seq, payload) ->
                Objcache.insert cache (cache_key_of_repl t off len) { Objcache.seq; payload })
              repl_written);
        Obs.Counter.incr t.stats.Obs.commits;
        Committed
    | Mtx.Failed_compare idxs ->
        (* Evict whatever proved stale from the cache so the retry
           re-fetches fresh copies. *)
        let tagged = Array.of_list (List.map snd compares) in
        (match t.cache with
        | None -> ()
        | Some cache ->
            List.iter
              (fun i ->
                if i < Array.length tagged then
                  match tagged.(i) with
                  | `Obj ref_ -> Objcache.invalidate cache ref_
                  | `Repl (off, len) -> Objcache.invalidate cache (cache_key_of_repl t off len)
                  | `Repl_seq obj -> Objcache.invalidate cache obj)
              idxs);
        Obs.Counter.incr t.stats.Obs.validation_failures;
        Obs.abort t.obs ~layer:Obs.Abort.Txn Obs.Abort.Validation_failed;
        Validation_failed
    | Mtx.Busy ->
        Obs.Counter.incr t.stats.Obs.retry_exhausted;
        Obs.abort t.obs ~layer:Obs.Abort.Txn Obs.Abort.Lock_busy;
        Retry_exhausted
    | Mtx.Unavailable { maybe_applied; partitioned } ->
        (* Surfaced as its own result (not folded into Retry_exhausted):
           an outage is not contention, and callers back off differently.
           The abort reason matches what the Mtx layer counted for the
           same event. *)
        Obs.Counter.incr t.stats.Obs.txn_unavailable;
        let reason = if partitioned then Obs.Abort.Partitioned else Obs.Abort.Crashed_host in
        Obs.abort t.obs ~layer:Obs.Abort.Txn reason;
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
