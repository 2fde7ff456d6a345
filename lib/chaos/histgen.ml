(* Deterministic synthetic history generator.

   Produces a million-op, chaos-shaped event history — stamped reads and
   writes, snapshot creations and snapshot reads, branch
   creation/deletion, frozen-version reads and multi-version queries —
   without running the simulated database, so the streaming checker can
   be benchmarked and falsified at scales where a real run would
   dominate the wall clock. The history is valid by construction (every
   result is read off a ground-truth model) unless a [fault] is
   injected, in which case exactly one event lies and the checker must
   fail the history.

   Events are handed to the sink in an arrival order that is only
   approximately stamp order: generation runs in stamp order, but
   events are released through shuffled fixed-size chunks, giving a
   bounded reorder skew (< 2×[reorder]) that exercises the stream's
   reorder buffer without ever exceeding a sane window. *)

module Event = Minuet.Session.Event
module Smap = Map.Make (String)

type fault = Stale_read | Branch_isolation

type config = {
  seed : int;
  ops : int;
  keys : int;
  clients : int;
  branching : bool;  (** Branch/version traffic instead of linear snapshots. *)
  snapshot_every : int;  (** Linear mode: ops per snapshot creation. *)
  reorder : int;  (** Arrival-order shuffle chunk size. *)
  fault : fault option;
      (** Inject exactly one lying event at ~2/3 of the run:
          [Stale_read] fakes a serializability violation (a stamped get
          returns a value the model never held at that point);
          [Branch_isolation] fakes a branch-isolation leak (a read
          pinned at a frozen version returns a foreign value). Requires
          [branching] for [Branch_isolation]. *)
}

let default =
  {
    seed = 0xcafe;
    ops = 1_000_000;
    keys = 4096;
    clients = 8;
    branching = false;
    snapshot_every = 500;
    reorder = 256;
    fault = None;
  }

type result = {
  gen_events : int;
  gen_creations : (int * (int64 * int64) list) list;
      (** Snapshot creation log per index, as [(sid, stamp)] pairs for
          {!Check.Stream.add_creation}. *)
  gen_final : (int * (string * string) list) list;
      (** Final ground-truth entries (linear mode only). *)
}

(* Generator-side version record (branching mode). *)
type gver = {
  g_sid : int64;
  mutable g_model : string Smap.t;
  mutable g_writable : bool;
  mutable g_nbranches : int;
  g_parent : int64; (* -1 = none *)
}

let key_of i = Printf.sprintf "k%05d" i

let model_scan model ~from ~count =
  let rec take n seq =
    if n = 0 then []
    else match seq () with Seq.Nil -> [] | Seq.Cons (kv, rest) -> kv :: take (n - 1) rest
  in
  take count (Smap.to_seq_from from model)

let generate ?on_creation cfg sink =
  if cfg.ops < 0 then invalid_arg "Histgen.generate: negative op count";
  if cfg.fault = Some Branch_isolation && not cfg.branching then
    invalid_arg "Histgen.generate: Branch_isolation requires branching mode";
  let rng = Sim.Rng.create cfg.seed in
  (* Bounded-skew release: shuffle and flush one chunk at a time. *)
  let chunk = Array.make (max 1 cfg.reorder) None in
  let filled = ref 0 in
  let flush () =
    for i = !filled - 1 downto 1 do
      let j = Sim.Rng.int rng (i + 1) in
      let tmp = chunk.(i) in
      chunk.(i) <- chunk.(j);
      chunk.(j) <- tmp
    done;
    for i = 0 to !filled - 1 do
      match chunk.(i) with
      | Some ev -> sink ev
      | None -> ()
    done;
    Array.fill chunk 0 (Array.length chunk) None;
    filled := 0
  in
  let emit ev =
    chunk.(!filled) <- Some ev;
    incr filled;
    if !filled = Array.length chunk then flush ()
  in
  let now = ref 1.0 in
  let stamp = ref 0L in
  let next_stamp () =
    stamp := Int64.succ !stamp;
    !stamp
  in
  let next_sid = ref 0L in
  let fault_at = if cfg.fault = None then max_int else cfg.ops * 2 / 3 in
  let injected = ref false in
  let opno = ref 0 in
  let event ?stamp ?sid op =
    let commit = !now in
    {
      Event.client = Some (!opno mod max 1 cfg.clients);
      index = 0;
      op;
      invoked_at = commit -. (1e-5 +. Sim.Rng.float rng 1e-4);
      returned_at = commit +. (1e-5 +. Sim.Rng.float rng 1e-4);
      stamp;
      sid;
      ambiguous = false;
    }
  in
  let pick_key () = key_of (Sim.Rng.int rng cfg.keys) in
  let value () = Printf.sprintf "g%d" !opno in
  let creations = ref [] in
  let result () =
    flush ();
    { gen_events = !opno; gen_creations = [ (0, !creations) ]; gen_final = [] }
  in
  if not cfg.branching then begin
    (* ---------------- Linear mode ---------------- *)
    let model = ref Smap.empty in
    let frozen = ref None (* (sid, frozen model) of the latest snapshot *) in
    for _ = 1 to cfg.ops do
      incr opno;
      now := !now +. 2e-5;
      if (not !injected) && !opno >= fault_at then begin
        (* The one lying event: a stamped get claiming a value the model
           never held. *)
        injected := true;
        emit
          (event ~stamp:(next_stamp ())
             (Event.Get { key = pick_key (); result = Some "stale-value" }))
      end
      else if !opno mod cfg.snapshot_every = 0 then begin
        (* Snapshot creation: freeze the current model. *)
        let s = next_stamp () in
        next_sid := Int64.succ !next_sid;
        let sid = !next_sid in
        creations := (sid, s) :: !creations;
        (match on_creation with Some f -> f ~index:0 ~sid ~stamp:s | None -> ());
        frozen := Some (sid, !model);
        emit (event ~sid Event.Snapshot_taken)
      end
      else
        match Sim.Rng.int rng 100 with
        | r when r < 40 ->
            let k = pick_key () and v = value () in
            model := Smap.add k v !model;
            emit (event ~stamp:(next_stamp ()) (Event.Put { key = k; value = v }))
        | r when r < 50 ->
            let k = pick_key () in
            let removed = Smap.mem k !model in
            model := Smap.remove k !model;
            emit (event ~stamp:(next_stamp ()) (Event.Remove { key = k; removed }))
        | r when r < 80 ->
            let k = pick_key () in
            emit
              (event ~stamp:(next_stamp ())
                 (Event.Get { key = k; result = Smap.find_opt k !model }))
        | r when r < 90 ->
            let k = pick_key () in
            let result = model_scan !model ~from:k ~count:8 in
            emit (event ~stamp:(next_stamp ()) (Event.Scan { from = k; count = 8; result }))
        | _ -> (
            (* Snapshot read at the latest frozen snapshot. *)
            match !frozen with
            | None ->
                let k = pick_key () in
                emit
                  (event ~stamp:(next_stamp ())
                     (Event.Get { key = k; result = Smap.find_opt k !model }))
            | Some (sid, fm) ->
                let k = pick_key () in
                if Sim.Rng.int rng 2 = 0 then
                  emit (event ~sid (Event.Get { key = k; result = Smap.find_opt k fm }))
                else
                  emit
                    (event ~sid
                       (Event.Scan { from = k; count = 8; result = model_scan fm ~from:k ~count:8 })))
    done;
    let r = result () in
    { r with gen_final = [ (0, Smap.bindings !model) ] }
  end
  else begin
    (* ---------------- Branching mode ---------------- *)
    let versions : (int64, gver) Hashtbl.t = Hashtbl.create 64 in
    let root = { g_sid = 0L; g_model = Smap.empty; g_writable = true; g_nbranches = 0; g_parent = -1L } in
    Hashtbl.replace versions 0L root;
    let tips = ref [ root ] and frozen = ref [] in
    let pick l = List.nth l (Sim.Rng.int rng (List.length l)) in
    for _ = 1 to cfg.ops do
      incr opno;
      now := !now +. 2e-5;
      if
        (not !injected) && !opno >= fault_at
        && (cfg.fault = Some Stale_read || !frozen <> [])
      then begin
        injected := true;
        match cfg.fault with
        | Some Branch_isolation ->
            (* The one lying event: a read pinned at a frozen version
               claiming a value its frozen ancestor state never held —
               exactly what a broken-isolation tree leaks. *)
            emit
              (event
                 (Event.Branch_get
                    {
                      at = (pick !frozen).g_sid;
                      key = pick_key ();
                      result = Some "leaked-tip-value";
                    }))
        | _ ->
            emit
              (event ~stamp:(next_stamp ())
                 (Event.Branch_get
                    { at = (pick !tips).g_sid; key = pick_key (); result = Some "stale-value" }))
      end
      else
      match Sim.Rng.int rng 100 with
      | r when r < 40 ->
          let v = pick !tips and k = pick_key () and value = value () in
          v.g_model <- Smap.add k value v.g_model;
          emit (event ~stamp:(next_stamp ()) (Event.Branch_put { at = v.g_sid; key = k; value }))
      | r when r < 48 ->
          let v = pick !tips and k = pick_key () in
          let removed = Smap.mem k v.g_model in
          v.g_model <- Smap.remove k v.g_model;
          emit
            (event ~stamp:(next_stamp ()) (Event.Branch_remove { at = v.g_sid; key = k; removed }))
      | r when r < 70 ->
          let v = pick !tips and k = pick_key () in
          emit
            (event ~stamp:(next_stamp ())
               (Event.Branch_get { at = v.g_sid; key = k; result = Smap.find_opt k v.g_model }))
      | r when r < 82 -> (
          (* Dirty read pinned at a frozen version: unstamped, exactly
             the frozen-ancestor rule's territory (and where a
             broken-isolation tree leaks). *)
          match !frozen with
          | [] ->
              let v = pick !tips and k = pick_key () in
              emit
                (event ~stamp:(next_stamp ())
                   (Event.Branch_get { at = v.g_sid; key = k; result = Smap.find_opt k v.g_model }))
          | l ->
              let v = pick l and k = pick_key () in
              let result = Smap.find_opt k v.g_model in
              if Sim.Rng.int rng 2 = 0 then
                emit (event (Event.Branch_get { at = v.g_sid; key = k; result }))
              else
                emit
                  (event
                     (Event.Branch_scan
                        {
                          at = v.g_sid;
                          from = k;
                          count = 8;
                          result = model_scan v.g_model ~from:k ~count:8;
                        })))
      | r when r < 88 ->
          if Hashtbl.length versions >= 64 then (
            let v = pick !tips and k = pick_key () and value = value () in
            v.g_model <- Smap.add k value v.g_model;
            emit (event ~stamp:(next_stamp ()) (Event.Branch_put { at = v.g_sid; key = k; value })))
          else begin
            (* Branch: fork a child off a tip (freezing it) or off an
               already-frozen version (a parallel clone). *)
            let parent =
              if !frozen <> [] && Sim.Rng.int rng 3 = 0 then pick !frozen else pick !tips
            in
            next_sid := Int64.succ !next_sid;
            let child =
              {
                g_sid = !next_sid;
                g_model = parent.g_model;
                g_writable = true;
                g_nbranches = 0;
                g_parent = parent.g_sid;
              }
            in
            Hashtbl.replace versions child.g_sid child;
            parent.g_nbranches <- parent.g_nbranches + 1;
            if parent.g_writable then begin
              parent.g_writable <- false;
              tips := List.filter (fun v -> v != parent) !tips;
              frozen := parent :: !frozen
            end;
            tips := child :: !tips;
            emit
              (event ~stamp:(next_stamp ())
                 (Event.Branch_created { parent = parent.g_sid; sid = child.g_sid }))
          end
      | r when r < 94 ->
          (* Multi-version queries against the ground truth. *)
          let k = pick_key () in
          if Sim.Rng.int rng 2 = 0 then begin
            let vs =
              List.sort_uniq compare
                (List.filteri (fun i _ -> i < 3) (List.map (fun v -> v.g_sid) !tips)
                @ match !frozen with [] -> [] | l -> [ (pick l).g_sid ])
            in
            let results =
              List.map
                (fun sid -> (sid, Smap.find_opt k (Hashtbl.find versions sid).g_model))
                vs
            in
            emit (event ~stamp:(next_stamp ()) (Event.Get_many { key = k; results }))
          end
          else begin
            let from = pick !tips in
            (* Root-first ancestor chain values. *)
            let rec chain v acc =
              let acc = (v.g_sid, Smap.find_opt k v.g_model) :: acc in
              if Int64.compare v.g_parent 0L < 0 then acc
              else chain (Hashtbl.find versions v.g_parent) acc
            in
            emit
              (event ~stamp:(next_stamp ())
                 (Event.History { from = from.g_sid; key = k; results = chain from [] }))
          end
      | _ -> (
          (* Delete a leaf tip (never the root); its parent may become
             writable again, which both sides must tolerate. *)
          match List.filter (fun v -> Int64.compare v.g_sid 0L > 0 && v.g_nbranches = 0) !tips with
          | [] -> ()
          | deletable ->
              let v = pick deletable in
              tips := List.filter (fun t -> t != v) !tips;
              Hashtbl.remove versions v.g_sid;
              (match Hashtbl.find_opt versions v.g_parent with
              | Some p ->
                  p.g_nbranches <- p.g_nbranches - 1;
                  if p.g_nbranches = 0 then begin
                    p.g_writable <- true;
                    frozen := List.filter (fun f -> f != p) !frozen;
                    tips := p :: !tips
                  end
              | None -> ());
              emit (event ~stamp:(next_stamp ()) (Event.Branch_deleted { sid = v.g_sid })))
    done;
    result ()
  end
