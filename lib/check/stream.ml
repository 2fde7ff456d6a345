module Event = Minuet.Session.Event
module Enc = Codec.Enc
module Dec = Codec.Dec
module Smap = Map.Make (String)
module I64map = Map.Make (Int64)

(* -------------------------------------------------------------------- *)
(* Configuration                                                         *)
(* -------------------------------------------------------------------- *)

module Config = struct
  type t = { scs_staleness : float option; reorder_window : int }

  let default = { scs_staleness = None; reorder_window = 4096 }
end

(* -------------------------------------------------------------------- *)
(* Verdicts                                                              *)
(* -------------------------------------------------------------------- *)

type violation = {
  v_index : int;
  v_message : string;
  v_event : Event.t option;
  v_context : Event.t list; (* nearby committed ops on the same key, oldest first *)
}

type verdict = {
  violations : violation list;
  inconclusive : string list;
  ops_checked : int;
  snapshot_reads_checked : int;
  branch_reads_checked : int;
  candidates_resolved : int;
  twopc_checked : int;
}

let ok v = v.violations = []

let pp_violation fmt v =
  Format.fprintf fmt "@[<v2>index %d: %s" v.v_index v.v_message;
  (match v.v_event with
  | Some ev -> Format.fprintf fmt "@,at: %a" Event.pp ev
  | None -> ());
  if v.v_context <> [] then begin
    Format.fprintf fmt "@,nearby operations on the same key:";
    List.iter (fun ev -> Format.fprintf fmt "@,  %a" Event.pp ev) v.v_context
  end;
  Format.fprintf fmt "@]"

let pp_verdict fmt v =
  Format.fprintf fmt "@[<v>";
  if v.violations = [] then
    Format.fprintf fmt "serializability check PASSED: %d ops, %d snapshot reads" v.ops_checked
      v.snapshot_reads_checked
  else begin
    Format.fprintf fmt "serializability check FAILED: %d violation(s) over %d ops"
      (List.length v.violations) v.ops_checked;
    (* The first few violations are the minimal counterexample; the rest
       are usually knock-on effects of the same stale read. *)
    let shown = 8 in
    List.iteri
      (fun i viol -> if i < shown then Format.fprintf fmt "@,%a" pp_violation viol)
      v.violations;
    let n = List.length v.violations in
    if n > shown then Format.fprintf fmt "@,... and %d more violation(s)" (n - shown)
  end;
  if v.branch_reads_checked > 0 then
    Format.fprintf fmt "@,%d branch read(s) checked against frozen ancestor states"
      v.branch_reads_checked;
  if v.candidates_resolved > 0 then
    Format.fprintf fmt "@,%d ambiguous operation(s) resolved from later reads"
      v.candidates_resolved;
  if v.twopc_checked > 0 then
    Format.fprintf fmt "@,%d two-phase-commit decision record(s) cross-checked" v.twopc_checked;
  List.iter (fun msg -> Format.fprintf fmt "@,inconclusive: %s" msg) v.inconclusive;
  Format.fprintf fmt "@]"

(* -------------------------------------------------------------------- *)
(* Ambiguity candidates                                                  *)
(* -------------------------------------------------------------------- *)

type candidate = {
  c_value : string option;
  c_invoked : float;
  c_returned : float;
  mutable c_live : bool;
}

let max_candidates_per_key = 8

let max_candidates_total = 64

let max_pending = 256

(* Frozen snapshot states retained per index; the oldest is evicted
   first, turning its late reads inconclusive. *)
let max_frozen = 1024

(* Reads parked per index awaiting their snapshot's freeze, a branch
   epoch verdict or the end of the stream. *)
let max_deferred = 65536

(* A sequential map model plus its ambiguity bookkeeping: the linear
   model of an index, or one version of a branching index. *)
type realm = {
  mutable r_model : string Smap.t;
  mutable r_last_write : int64 Smap.t; (* key -> stamp of last committed write *)
  r_candidates : (string, candidate list) Hashtbl.t;
}

let realm_create () =
  { r_model = Smap.empty; r_last_write = Smap.empty; r_candidates = Hashtbl.create 8 }

let candidates_for realm key =
  Option.value (Hashtbl.find_opt realm.r_candidates key) ~default:[]

let find_candidate realm key ~observed ~returned_at =
  List.find_opt
    (fun c -> c.c_live && c.c_invoked <= returned_at && c.c_value = observed)
    (candidates_for realm key)

(* A live candidate invoked before [returned_at] that explains a remove
   returning [removed] where the model disagrees: an ambiguous put
   landed first (removed on an absent key) or an ambiguous remove did
   (not removed, key present). *)
let find_remove_candidate realm key ~removed ~returned_at =
  List.find_opt
    (fun c -> c.c_live && c.c_invoked <= returned_at && Option.is_some c.c_value = removed)
    (candidates_for realm key)

(* No committed write on [key] is stamped after [stamp]. *)
let unwritten_since realm key stamp =
  match Smap.find_opt key realm.r_last_write with
  | Some w -> Int64.compare w stamp <= 0
  | None -> true

let expire_candidates realm key ~invoked_at =
  List.iter
    (fun c -> if c.c_live && c.c_returned <= invoked_at then c.c_live <- false)
    (candidates_for realm key)

let realm_has_live_candidates realm =
  (* Existence check: a boolean OR-fold is order-independent. *)
  (* lint: allow nondet-iteration *)
  Hashtbl.fold
    (fun _ cs acc -> acc || List.exists (fun c -> c.c_live) cs)
    realm.r_candidates false

(* -------------------------------------------------------------------- *)
(* Deferred work                                                         *)
(* -------------------------------------------------------------------- *)

(* A mismatch that a not-yet-seen ambiguous operation may still excuse:
   in a live stream, an ambiguous op's event arrives when it times out,
   possibly after reads that observed its effect were already applied. *)
type pending = { p_event : Event.t; p_realm : realm; p_stamp : int64; p_what : pend_what }

and pend_what =
  | P_get of { key : string; observed : string option; expected : string option }
  | P_remove of { key : string; removed : bool; present : bool }
  | P_scan of {
      from : string;
      count : int;
      result : (string * string) list;
      expected : (string * string) list;
    }

(* A snapshot read parked until its snapshot freezes. A scan's result
   is packed into one string, each key and value as [Enc.bytes] writes
   it, and its event keeps an empty result: parked scans are most of
   the checker's resident state under snapshot-scan load, and a
   1000-pair list costs several times its bytes in cons cells, tuples
   and string headers. *)
type parked = Parked of Event.t | Parked_scan of { ev : Event.t; packed : string }

(* [s] equals the [len] bytes of [packed] at [pos]: eight bytes a step,
   then bytewise. *)
let equal_at packed (pos, len) s =
  let rec same i =
    if i + 8 <= len then
      Int64.equal (String.get_int64_ne packed (pos + i)) (String.get_int64_ne s i) && same (i + 8)
    else i = len || (String.get packed (pos + i) = String.get s i && same (i + 1))
  in
  len = String.length s && same 0

(* [packed_matches packed seq ~count] is the packed pairs equal to the
   first [count] entries of [seq] (all of them for a negative [count],
   like [model_scan]), compared in place. *)
let packed_matches packed seq ~count =
  let d = Dec.of_string packed in
  let rec walk left seq =
    if Dec.at_end d then left = 0 || Seq.is_empty seq
    else if left = 0 then false
    else
      match seq () with
      | Seq.Nil -> false
      | Seq.Cons ((k, v), rest) ->
          equal_at packed (Dec.bytes_view d) k
          && equal_at packed (Dec.bytes_view d) v
          && walk (left - 1) rest
  in
  walk count seq

(* The violation context: the last [depth] keyed events applied on a
   key. Every key ever touched keeps one, so it is packed into one
   string with [Codec], newest event first, each as its body's length
   and the body. A body omits the key (the context's owner): the
   operation's tag, its fields, then the fields every event has.
   Unpacked only to report a violation. *)
module Context = struct
  let depth = 4

  let opt_string e = Enc.option e (Enc.bytes e)

  let versioned e =
    Enc.list e (fun (sid, r) ->
        Enc.i64 e sid;
        opt_string e r)

  let encode e (ev : Event.t) =
    (match ev.op with
    | Event.Get { result; _ } ->
        Enc.u8 e 0;
        opt_string e result
    | Event.Put { value; _ } ->
        Enc.u8 e 1;
        Enc.bytes e value
    | Event.Remove { removed; _ } ->
        Enc.u8 e 2;
        Enc.bool e removed
    | Event.Branch_get { at; result; _ } ->
        Enc.u8 e 3;
        Enc.i64 e at;
        opt_string e result
    | Event.Branch_put { at; value; _ } ->
        Enc.u8 e 4;
        Enc.i64 e at;
        Enc.bytes e value
    | Event.Branch_remove { at; removed; _ } ->
        Enc.u8 e 5;
        Enc.i64 e at;
        Enc.bool e removed
    | Event.Get_many { results; _ } ->
        Enc.u8 e 6;
        versioned e results
    | Event.History { from; results; _ } ->
        Enc.u8 e 7;
        Enc.i64 e from;
        versioned e results
    | Event.Scan _ | Event.Branch_scan _ | Event.Snapshot_taken | Event.Branch_created _
    | Event.Branch_deleted _ ->
        invalid_arg "Stream.Context.push: operation without a key");
    Enc.int_as_i64 e ev.index;
    Enc.option e (Enc.int_as_i64 e) ev.client;
    Enc.float e ev.invoked_at;
    Enc.float e ev.returned_at;
    Enc.option e (Enc.i64 e) ev.stamp;
    Enc.option e (Enc.i64 e) ev.sid;
    Enc.bool e ev.ambiguous

  (* [push] through the caller's reusable encoder [e]. *)
  let push_with e packed ev =
    Enc.reset e;
    encode e ev;
    let body = Enc.to_string e in
    (* Bytes of the newest [depth - 1] events already held. *)
    let d = Dec.of_string packed in
    for _ = 2 to depth do
      if not (Dec.at_end d) then ignore (Dec.bytes_view d)
    done;
    Enc.reset e;
    Enc.bytes e body;
    Enc.raw_sub e packed 0 (Dec.pos d);
    Enc.to_string e

  let push packed ev = push_with (Enc.create ~initial_size:64 ()) packed ev

  (* The event whose body [d] is at. Fields are read in encoding order,
     so each is bound before the record is built. *)
  let decode ~key d =
    let opt_string d = Dec.option d Dec.bytes in
    let versioned d =
      Dec.list d (fun d ->
          let sid = Dec.i64 d in
          (sid, opt_string d))
    in
    let op =
      match Dec.u8 d with
      | 0 -> Event.Get { key; result = opt_string d }
      | 1 -> Event.Put { key; value = Dec.bytes d }
      | 2 -> Event.Remove { key; removed = Dec.bool d }
      | 3 ->
          let at = Dec.i64 d in
          Event.Branch_get { at; key; result = opt_string d }
      | 4 ->
          let at = Dec.i64 d in
          Event.Branch_put { at; key; value = Dec.bytes d }
      | 5 ->
          let at = Dec.i64 d in
          Event.Branch_remove { at; key; removed = Dec.bool d }
      | 6 -> Event.Get_many { key; results = versioned d }
      | _ ->
          let from = Dec.i64 d in
          Event.History { from; key; results = versioned d }
    in
    let index = Dec.int_as_i64 d in
    let client = Dec.option d Dec.int_as_i64 in
    let invoked_at = Dec.float d in
    let returned_at = Dec.float d in
    let stamp = Dec.option d Dec.i64 in
    let sid = Dec.option d Dec.i64 in
    { Event.client; index; op; invoked_at; returned_at; stamp; sid; ambiguous = Dec.bool d }

  let events ~key packed =
    let d = Dec.of_string packed in
    let rec go acc =
      if Dec.at_end d then acc
      else begin
        ignore (Dec.varint d : int);
        go (decode ~key d :: acc)
      end
    in
    go []
end

let park e ev =
  match ev.Event.op with
  | Event.Scan { from; count; result } ->
      Enc.reset e;
      List.iter
        (fun (k, v) ->
          Enc.bytes e k;
          Enc.bytes e v)
        result;
      let ev = { ev with Event.op = Event.Scan { from; count; result = [] } } in
      Parked_scan { ev; packed = Enc.to_string e }
  | _ -> Parked ev

let unpark = function
  | Parked ev -> ev
  | Parked_scan { ev; packed } -> (
      let d = Dec.of_string packed in
      let rec pairs acc =
        if Dec.at_end d then List.rev acc
        else
          let k = Dec.bytes d in
          pairs ((k, Dec.bytes d) :: acc)
      in
      match ev.Event.op with
      | Event.Scan { from; count; _ } ->
          { ev with Event.op = Event.Scan { from; count; result = pairs [] } }
      | _ -> assert false (* [park] packs scans only *))

(* One version of a branching index's version tree. The model is forked
   from the parent when [Branch_created] is applied; freezing it (the
   version stops being a writable tip) makes it the reference state for
   every read claiming this version. *)
type version = {
  v_sid : int64;
  v_realm : realm;
  mutable v_forked : bool;
  mutable v_writable : bool;
  mutable v_deleted : bool;
  mutable v_parent : int64; (* -1 = none *)
  mutable v_nbranches : int;
  mutable v_frozen_at : float; (* return time of the freeze opening the current read-only epoch *)
  mutable v_deleted_at : float; (* return time of the deletion, [infinity] while alive *)
  mutable v_deferred : Event.t list; (* unstamped reads awaiting an epoch verdict, newest first *)
}

type scs_open = { q_sid : int64; q_cstamp : int64; q_invoked : float; q_event : Event.t }

let ring_size = 2048

type shard = {
  s_idx : int;
  s_realm : realm;
  mutable s_ncand : int;
  s_recent : (string, string) Hashtbl.t; (* key -> packed [Context] *)
  s_enc : Enc.t; (* reused by every [Context] push and parked scan *)
  mutable s_pending : pending list; (* newest first *)
  mutable s_npending : int;
  mutable s_frozen : string Smap.t I64map.t; (* linear sid -> frozen model *)
  s_creation_log : (int64, int64) Hashtbl.t; (* sid -> creation stamp *)
  mutable s_pending_creations : (int64 * int64) list; (* (cstamp, sid), ascending *)
  mutable s_deferred_snap : parked list I64map.t; (* sid -> reads, newest first *)
  mutable s_deferred_multi : Event.t list; (* unstamped get_many/history, newest first *)
  mutable s_ndeferred : int;
  s_versions : (int64, version) Hashtbl.t;
  mutable s_scs_open : scs_open list;
  s_ring : (int64 * float * float) array; (* recent applied: stamp, invoked, returned *)
  mutable s_ring_pos : int;
  mutable s_applied : int;
  mutable s_last_inv : float; (* invoked_at of the most recently applied commit *)
  mutable s_max_invoked : float;
  mutable s_max_invoked_ev : Event.t option;
  mutable s_violations : violation list; (* newest first *)
  mutable s_inconclusive : string list; (* newest first *)
  mutable s_ops : int;
  mutable s_snap_reads : int;
  mutable s_branch_reads : int;
  mutable s_resolved : int;
}

let shard_create idx =
  {
    s_idx = idx;
    s_realm = realm_create ();
    s_ncand = 0;
    s_recent = Hashtbl.create 256;
    s_enc = Enc.create ();
    s_pending = [];
    s_npending = 0;
    s_frozen = I64map.empty;
    s_creation_log = Hashtbl.create 64;
    s_pending_creations = [];
    s_deferred_snap = I64map.empty;
    s_deferred_multi = [];
    s_ndeferred = 0;
    s_versions = Hashtbl.create 16;
    s_scs_open = [];
    s_ring = Array.make ring_size (Int64.min_int, 0.0, 0.0);
    s_ring_pos = 0;
    s_applied = 0;
    s_last_inv = neg_infinity;
    s_max_invoked = neg_infinity;
    s_max_invoked_ev = None;
    s_violations = [];
    s_inconclusive = [];
    s_ops = 0;
    s_snap_reads = 0;
    s_branch_reads = 0;
    s_resolved = 0;
  }

(* -------------------------------------------------------------------- *)
(* Shard-local reporting                                                 *)
(* -------------------------------------------------------------------- *)

let op_key ev =
  match ev.Event.op with
  | Event.Get { key; _ }
  | Event.Put { key; _ }
  | Event.Remove { key; _ }
  | Event.Branch_get { key; _ }
  | Event.Branch_put { key; _ }
  | Event.Branch_remove { key; _ }
  | Event.Get_many { key; _ }
  | Event.History { key; _ } ->
      Some key
  | Event.Scan _ | Event.Branch_scan _ | Event.Snapshot_taken | Event.Branch_created _
  | Event.Branch_deleted _ ->
      None

let note_recent sh key ev =
  let prev = Option.value (Hashtbl.find_opt sh.s_recent key) ~default:"" in
  Hashtbl.replace sh.s_recent key (Context.push_with sh.s_enc prev ev)

let violate sh ?event ?key fmt =
  Format.kasprintf
    (fun msg ->
      let ctx =
        match key with
        | None -> []
        | Some k -> Context.events ~key:k (Option.value (Hashtbl.find_opt sh.s_recent k) ~default:"")
      in
      sh.s_violations <-
        { v_index = sh.s_idx; v_message = msg; v_event = event; v_context = ctx }
        :: sh.s_violations)
    fmt

let inconclusive sh fmt =
  Format.kasprintf (fun msg -> sh.s_inconclusive <- msg :: sh.s_inconclusive) fmt

let model_scan m ~from ~count =
  let rec take acc n seq =
    if n = 0 then List.rev acc
    else
      match seq () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons ((k, v), rest) -> take ((k, v) :: acc) (n - 1) rest
  in
  take [] count (Smap.to_seq_from from m)

let pp_value_opt fmt = function
  | None -> Format.pp_print_string fmt "none"
  | Some v -> Format.fprintf fmt "%S" v

let first_divergence obs exp =
  let rec walk obs exp =
    match (obs, exp) with
    | (k1, v1) :: obs', (k2, v2) :: exp' ->
        if (k1, v1) = (k2, v2) then walk obs' exp'
        else Format.asprintf " (first divergence: observed %S=%S, model %S=%S)" k1 v1 k2 v2
    | (k1, v1) :: _, [] ->
        Format.asprintf " (first divergence: observed %S=%S past the model's end)" k1 v1
    | [], (k2, v2) :: _ ->
        Format.asprintf " (first divergence: model %S=%S missing from the scan)" k2 v2
    | [], [] -> ""
  in
  walk obs exp

(* -------------------------------------------------------------------- *)
(* Candidate resolution and pending mismatches                           *)
(* -------------------------------------------------------------------- *)

(* The candidate explained an observation and is used up. *)
let consume sh c =
  c.c_live <- false;
  sh.s_resolved <- sh.s_resolved + 1

(* Resolve a candidate against a read applied at [read_stamp]. The
   model is patched to the candidate's effect only while no committed
   write with a higher stamp has overwritten the key since — at apply
   time that is always true (events apply in stamp order); for a late
   resolution (the ambiguous event arrived after the read was applied)
   the per-key last-write stamp guards the patch. *)
let resolve_candidate sh realm key c ~read_stamp =
  consume sh c;
  if unwritten_since realm key read_stamp then
    realm.r_model <-
      (match c.c_value with
      | Some v -> Smap.add key v realm.r_model
      | None -> Smap.remove key realm.r_model)

let pending_violation sh p =
  match p.p_what with
  | P_get { key; observed; expected } ->
      violate sh ~event:p.p_event ~key "get %S observed %a but the model holds %a at stamp %Ld"
        key pp_value_opt observed pp_value_opt expected p.p_stamp
  | P_remove { key; removed; present } ->
      violate sh ~event:p.p_event ~key
        "remove %S returned %b but the model %s the key at stamp %Ld" key removed
        (if present then "holds" else "does not hold")
        p.p_stamp
  | P_scan { from; count; result; expected } ->
      violate sh ~event:p.p_event "scan from %S count %d returned %d entries, model has %d%s"
        from count (List.length result) (List.length expected)
        (first_divergence result expected)

(* Try to settle one pending mismatch. [`Keep] leaves it buffered for a
   later candidate; at finish everything unsettled becomes a verdict. *)
let try_settle sh p ~at_finish =
  let realm = p.p_realm in
  match p.p_what with
  | P_get { key; observed; _ } -> (
      (* A previously settled pending read on the same key may already
         have patched the model to the observed value. *)
      if unwritten_since realm key p.p_stamp && Smap.find_opt key realm.r_model = observed then
        `Settled
      else
        match find_candidate realm key ~observed ~returned_at:p.p_event.Event.returned_at with
        | Some c ->
            resolve_candidate sh realm key c ~read_stamp:p.p_stamp;
            `Settled
        | None -> if at_finish then `Violation else `Keep)
  | P_remove { key; removed; _ } -> (
      match find_remove_candidate realm key ~removed ~returned_at:p.p_event.Event.returned_at with
      | Some c ->
          (* The remove already applied its own effect to the model at
             its replay position; consuming the candidate is enough. *)
          consume sh c;
          `Settled
      | None -> if at_finish then `Violation else `Keep)
  | P_scan _ ->
      if not at_finish then `Keep
      else if realm_has_live_candidates realm then `Inconclusive
      else `Violation

let push_pending sh realm ev p_what =
  let p = { p_event = ev; p_realm = realm; p_stamp = Option.get ev.Event.stamp; p_what } in
  if sh.s_npending >= max_pending then begin
    (* Overflow: flush the oldest buffered mismatch as a verdict now. *)
    match List.rev sh.s_pending with
    | [] -> pending_violation sh p
    | oldest :: rest ->
        pending_violation sh oldest;
        sh.s_pending <- p :: List.rev rest
  end
  else begin
    sh.s_pending <- p :: sh.s_pending;
    sh.s_npending <- sh.s_npending + 1
  end

(* A fresh candidate on [realm]/[key] may settle buffered mismatches
   (oldest first, so chained reads settle in order). *)
let recheck_pending sh realm key =
  let keep =
    List.fold_left
      (fun keep p ->
        let matches =
          p.p_realm == realm
          &&
          match p.p_what with
          | P_get { key = k; _ } | P_remove { key = k; _ } -> String.equal k key
          | P_scan _ -> false
        in
        if not matches then p :: keep
        else
          match try_settle sh p ~at_finish:false with
          | `Settled -> keep
          | `Keep | `Violation | `Inconclusive -> p :: keep)
      []
      (List.rev sh.s_pending)
  in
  sh.s_pending <- keep;
  sh.s_npending <- List.length keep

let add_candidate sh realm ev key c_value =
  let prev = candidates_for realm key in
  sh.s_ncand <- sh.s_ncand + 1;
  if List.length prev >= max_candidates_per_key || sh.s_ncand > max_candidates_total then
    inconclusive sh "index %d: too many ambiguous operations on %S; checking is best-effort"
      sh.s_idx key
  else begin
    Hashtbl.replace realm.r_candidates key
      (prev
      @ [
          {
            c_value;
            c_invoked = ev.Event.invoked_at;
            c_returned = ev.Event.returned_at;
            c_live = true;
          };
        ]);
    recheck_pending sh realm key
  end

(* -------------------------------------------------------------------- *)
(* Sequential-model replay of one committed operation                    *)
(* -------------------------------------------------------------------- *)

let apply_get sh realm ev key result =
  let expected = Smap.find_opt key realm.r_model in
  if result <> expected then
    match find_candidate realm key ~observed:result ~returned_at:ev.Event.returned_at with
    | Some c -> resolve_candidate sh realm key c ~read_stamp:(Option.get ev.Event.stamp)
    | None -> push_pending sh realm ev (P_get { key; observed = result; expected })

let apply_put sh realm ev key value =
  ignore sh;
  expire_candidates realm key ~invoked_at:ev.Event.invoked_at;
  realm.r_model <- Smap.add key value realm.r_model;
  realm.r_last_write <- Smap.add key (Option.get ev.Event.stamp) realm.r_last_write

let apply_remove sh realm ev key removed =
  let present = Smap.mem key realm.r_model in
  (if removed <> present then
     match find_remove_candidate realm key ~removed ~returned_at:ev.Event.returned_at with
     | Some c -> consume sh c
     | None -> push_pending sh realm ev (P_remove { key; removed; present }));
  if removed then expire_candidates realm key ~invoked_at:ev.Event.invoked_at;
  realm.r_model <- Smap.remove key realm.r_model;
  realm.r_last_write <- Smap.add key (Option.get ev.Event.stamp) realm.r_last_write

let apply_scan sh realm ev from count result =
  let expected = model_scan realm.r_model ~from ~count in
  if result <> expected then
    if realm_has_live_candidates realm then
      inconclusive sh "index %d: scan from %S mismatches the model but ambiguous writes are pending"
        sh.s_idx from
    else push_pending sh realm ev (P_scan { from; count; result; expected })

(* -------------------------------------------------------------------- *)
(* The frozen-state read rule and the deferral budget                    *)
(* -------------------------------------------------------------------- *)

(* The words a frozen-state check reports a read with: "<kind> get ...
   at <unit> N ... but the <state> holds ...". Only branch scans report
   where a mismatching scan first diverges. *)
type words = { w_kind : string; w_unit : string; w_state : string; w_divergence : bool }

let snapshot_words =
  { w_kind = "snapshot"; w_unit = "sid"; w_state = "frozen state"; w_divergence = false }

let branch_words =
  { w_kind = "branch"; w_unit = "version"; w_state = "frozen ancestor state"; w_divergence = true }

let multi_words =
  {
    w_kind = "multi-version";
    w_unit = "version";
    w_state = "version's state";
    w_divergence = false;
  }

(* A get at [at] must observe the frozen map [m] exactly, unless a
   candidate of [realm] invoked before the read wrote what it saw. *)
let check_frozen_get sh ev w m realm ~at ~key ~result =
  let expected = Smap.find_opt key m in
  if
    result <> expected
    && not
         (List.exists
            (fun c -> c.c_invoked <= ev.Event.invoked_at && c.c_value = result)
            (candidates_for realm key))
  then
    violate sh ~event:ev ~key "%s get %S at %s %Ld observed %a but the %s holds %a" w.w_kind key
      w.w_unit at pp_value_opt result w.w_state pp_value_opt expected

(* The frozen-state read rule for a get or scan at [at]; a scan
   mismatch is inconclusive while [realm] holds any candidate. *)
let check_frozen_read sh ev w m realm ~at =
  match ev.Event.op with
  | Event.Get { key; result } | Event.Branch_get { key; result; _ } ->
      check_frozen_get sh ev w m realm ~at ~key ~result
  | Event.Scan { from; count; result } | Event.Branch_scan { from; count; result; _ } ->
      let expected = model_scan m ~from ~count in
      if result <> expected then
        if Hashtbl.length realm.r_candidates > 0 then
          inconclusive sh "index %d: %s scan at %s %Ld mismatches but ambiguous writes are pending"
            sh.s_idx w.w_kind w.w_unit at
        else
          violate sh ~event:ev "%s scan from %S at %s %Ld returned %d entries, %s has %d%s"
            w.w_kind from w.w_unit at (List.length result) w.w_state (List.length expected)
            (if w.w_divergence then first_divergence result expected else "")
  | _ -> ()

(* Hold one more read back with [hold] under the per-index budget; past
   it the read goes unchecked, noted as [what]. *)
let defer sh what hold =
  if sh.s_ndeferred >= max_deferred then
    inconclusive sh "index %d: deferred-read budget exhausted; %t unchecked" sh.s_idx what
  else begin
    sh.s_ndeferred <- sh.s_ndeferred + 1;
    hold ()
  end

(* -------------------------------------------------------------------- *)
(* Linear snapshots: freezing and snapshot reads                         *)
(* -------------------------------------------------------------------- *)

let check_snapshot_read sh ev m sid =
  sh.s_snap_reads <- sh.s_snap_reads + 1;
  check_frozen_read sh ev snapshot_words m sh.s_realm ~at:sid

(* A parked scan that matches the frozen state is counted without
   unpacking it; any other parked read is checked as it arrived. *)
let check_parked sh m sid = function
  | Parked_scan { ev = { Event.op = Event.Scan { from; count; _ }; _ }; packed }
    when packed_matches packed (Smap.to_seq_from from m) ~count ->
      sh.s_snap_reads <- sh.s_snap_reads + 1
  | p -> check_snapshot_read sh (unpark p) m sid

(* Freeze snapshot [sid]: the model now holds exactly the commits with
   stamps below the creation stamp, and can be checked against every
   read claiming [sid]. Frozen states share structure with the live
   model (persistent maps), and the live table is bounded: the oldest
   frozen snapshot is evicted first, turning its late reads
   inconclusive rather than growing without bound. *)
let freeze_snapshot sh sid =
  sh.s_frozen <- I64map.add sid sh.s_realm.r_model sh.s_frozen;
  if I64map.cardinal sh.s_frozen > max_frozen then begin
    let oldest, _ = I64map.min_binding sh.s_frozen in
    sh.s_frozen <- I64map.remove oldest sh.s_frozen
  end;
  match I64map.find_opt sid sh.s_deferred_snap with
  | None -> ()
  | Some reads ->
      sh.s_deferred_snap <- I64map.remove sid sh.s_deferred_snap;
      sh.s_ndeferred <- sh.s_ndeferred - List.length reads;
      List.iter (check_parked sh sh.s_realm.r_model sid) (List.rev reads)

(* Freeze every snapshot whose creation stamp lies strictly below the
   commit stamp about to be applied. *)
let run_freezes sh ~below =
  let rec go () =
    match sh.s_pending_creations with
    | (cstamp, sid) :: rest when Int64.compare cstamp below < 0 ->
        sh.s_pending_creations <- rest;
        freeze_snapshot sh sid;
        go ()
    | _ -> ()
  in
  go ()

let creation_pending sh sid = List.exists (fun (_, s) -> Int64.equal s sid) sh.s_pending_creations

let snapshot_read sh ev sid =
  match I64map.find_opt sid sh.s_frozen with
  | Some m -> check_snapshot_read sh ev m sid
  | None ->
      if not (Hashtbl.mem sh.s_creation_log sid) then begin
        sh.s_snap_reads <- sh.s_snap_reads + 1;
        violate sh ~event:ev ?key:(op_key ev) "snapshot read at sid %Ld with no creation record"
          sid
      end
      else if creation_pending sh sid then
        defer sh
          (fun f -> Format.fprintf f "snapshot read at sid %Ld" sid)
          (fun () ->
            sh.s_deferred_snap <-
              I64map.update sid
                (fun prev -> Some (park sh.s_enc ev :: Option.value prev ~default:[]))
                sh.s_deferred_snap)
      else
        inconclusive sh "index %d: frozen state for sid %Ld was evicted; snapshot read unchecked"
          sh.s_idx sid

let add_creation_shard sh ~sid ~stamp =
  if not (Hashtbl.mem sh.s_creation_log sid) then begin
    Hashtbl.replace sh.s_creation_log sid stamp;
    let rec insert = function
      | [] -> [ (stamp, sid) ]
      | (c, s) :: rest as l ->
          if Int64.compare stamp c <= 0 then (stamp, sid) :: l else (c, s) :: insert rest
    in
    sh.s_pending_creations <- insert sh.s_pending_creations
  end

(* -------------------------------------------------------------------- *)
(* SCS strictness (windowed)                                             *)
(* -------------------------------------------------------------------- *)

let scs_violate sh q ~stamp ~returned_at ~slack =
  violate sh ~event:q.q_event
    "snapshot sid %Ld (creation stamp %Ld) misses a commit with stamp %Ld that returned at \
     %.6f, more than %.3fs before the request at %.6f"
    q.q_sid q.q_cstamp stamp returned_at slack q.q_invoked

(* A granted snapshot must reflect every commit that returned more than
   [slack] seconds before the request started. Commits already applied
   are re-examined through a bounded ring; future commits are swept as
   they apply. An open check closes once an applied commit's invocation
   time passes the horizon: stamp-draw times are monotone in stamp and
   bounded below by invocation times, so every later-stamped commit
   must have returned after the horizon. *)
let scs_register sh ev sid slack =
  match Hashtbl.find_opt sh.s_creation_log sid with
  | None -> violate sh ~event:ev "granted snapshot sid %Ld has no creation record" sid
  | Some cstamp ->
      let q = { q_sid = sid; q_cstamp = cstamp; q_invoked = ev.Event.invoked_at; q_event = ev } in
      let n = min sh.s_applied ring_size in
      let covered = ref (sh.s_applied <= ring_size) in
      for i = 0 to n - 1 do
        let stamp, _, returned_at = sh.s_ring.((sh.s_ring_pos - n + i + 2 * ring_size) mod ring_size) in
        if Int64.compare stamp cstamp <= 0 then covered := true
        else if returned_at < q.q_invoked -. slack then
          scs_violate sh q ~stamp ~returned_at ~slack
      done;
      if not !covered then
        inconclusive sh
          "index %d: commit backlog exceeded the SCS check window for sid %Ld; strictness is \
           best-effort"
          sh.s_idx sid;
      if sh.s_last_inv < q.q_invoked -. slack then
        if List.length sh.s_scs_open >= 1024 then
          inconclusive sh "index %d: too many open SCS strictness checks; sid %Ld unchecked"
            sh.s_idx sid
        else sh.s_scs_open <- q :: sh.s_scs_open

let scs_sweep sh ev slack =
  match sh.s_scs_open with
  | [] -> ()
  | open_checks ->
      let stamp = Option.get ev.Event.stamp in
      sh.s_scs_open <-
        List.filter
          (fun q ->
            if
              Int64.compare stamp q.q_cstamp > 0
              && ev.Event.returned_at < q.q_invoked -. slack
            then scs_violate sh q ~stamp ~returned_at:ev.Event.returned_at ~slack;
            ev.Event.invoked_at < q.q_invoked -. slack)
          open_checks

(* -------------------------------------------------------------------- *)
(* Branching versions: per-branch forked models                          *)
(* -------------------------------------------------------------------- *)

(* Version 0 is the pre-existing root tip; every other version must be
   introduced by an applied [Branch_created] before operations at it
   can be checked. *)
let ensure_version sh sid =
  match Hashtbl.find_opt sh.s_versions sid with
  | Some v -> v
  | None ->
      let v =
        {
          v_sid = sid;
          v_realm = realm_create ();
          v_forked = Int64.equal sid 0L;
          v_writable = true;
          v_deleted = false;
          v_parent = -1L;
          v_nbranches = 0;
          v_frozen_at = neg_infinity;
          v_deleted_at = infinity;
          v_deferred = [];
        }
      in
      Hashtbl.replace sh.s_versions sid v;
      v

(* Version 0 is the pre-existing root: operations may reference it
   before (or without) any [Branch_created] applying, so materialize it
   on first use. Every other version must be introduced explicitly. *)
let find_version sh sid =
  if Int64.equal sid 0L then Some (ensure_version sh sid) else Hashtbl.find_opt sh.s_versions sid

(* The frozen-ancestor rule: a read claiming read-only version [v] must
   observe exactly the state frozen when [v] stopped being a writable
   tip — the accumulated effects of [v]'s ancestor chain plus [v]'s own
   tip-era writes, nothing newer. *)
let check_branch_read sh ev v =
  sh.s_branch_reads <- sh.s_branch_reads + 1;
  check_frozen_read sh ev branch_words v.v_realm.r_model v.v_realm ~at:v.v_sid

(* Resolve the dirty reads deferred against [v]. A deferred read is
   judged only against the frozen epoch it provably ran wholly inside:
   it was invoked at or after the freeze returned ([v_frozen_at]) and
   it returned at or before [ripe_before] — a bound past which no
   not-yet-applied transaction can commit, so no future unfreeze could
   have affected it. Reads invoked at or after [keep_from] belong to
   the epoch the caller is about to open and stay deferred. Everything
   else raced an epoch boundary or read a live writable tip: it saw
   some intermediate state no stamp identifies — excused, not failed.

   [ripe_before] is sound from [s_max_invoked]: events apply in stamp
   order and stamps serialize commits, so every unapplied transaction
   commits at or after the commit of the last applied one, which is at
   or after the invocation time of every applied one. *)
let resolve_deferred sh v ~ripe_before ~keep_from =
  if v.v_deferred <> [] then begin
    let keep = ref [] in
    List.iter
      (fun ev ->
        if ev.Event.invoked_at >= keep_from then keep := ev :: !keep
        else if ev.Event.returned_at <= ripe_before then begin
          sh.s_ndeferred <- sh.s_ndeferred - 1;
          if (not v.v_writable) && ev.Event.invoked_at >= v.v_frozen_at then
            check_branch_read sh ev v
        end
        else keep := ev :: !keep)
      (List.rev v.v_deferred);
    v.v_deferred <- !keep
  end

(* Opportunistic resolution as the applied-stamp horizon advances. *)
let resolve_ripe sh v = resolve_deferred sh v ~ripe_before:sh.s_max_invoked ~keep_from:infinity

let apply_branch_created sh ev ~parent ~sid =
  let p = ensure_version sh parent in
  if not p.v_forked then
    (* The parent was never introduced: either version-tree traffic from
       before tracing started, or a corrupted catalog. Adopt its current
       (empty) state so downstream checks stay meaningful. *)
    p.v_forked <- true;
  if p.v_deleted then
    violate sh ~event:ev "branch %Ld created from deleted version %Ld" sid parent;
  let c = ensure_version sh sid in
  if c.v_forked && not (Int64.equal sid 0L) then
    violate sh ~event:ev "duplicate version id %Ld in the version tree" sid
  else begin
    c.v_forked <- true;
    c.v_realm.r_model <- p.v_realm.r_model;
    c.v_realm.r_last_write <- p.v_realm.r_last_write;
    c.v_writable <- true;
    c.v_parent <- parent
  end;
  p.v_nbranches <- p.v_nbranches + 1;
  if p.v_writable then begin
    (* The parent tip becomes read-only: reads deferred while it was a
       live tip are excused, reads invoked after the freeze returned
       open the new read-only epoch and resolve as the stamp horizon
       passes them. *)
    resolve_deferred sh p ~ripe_before:infinity ~keep_from:ev.Event.returned_at;
    p.v_writable <- false;
    p.v_frozen_at <- ev.Event.returned_at
  end

let apply_branch_deleted sh ev ~sid =
  match Hashtbl.find_opt sh.s_versions sid with
  | None -> violate sh ~event:ev "deletion of unknown version %Ld" sid
  | Some v ->
      if v.v_deleted then violate sh ~event:ev "version %Ld deleted twice" sid;
      (* Close the leaf's final epoch: reads wholly inside a frozen
         epoch are checked; dirty reads of the live tip are excused. *)
      resolve_deferred sh v ~ripe_before:ev.Event.invoked_at ~keep_from:infinity;
      sh.s_ndeferred <- sh.s_ndeferred - List.length v.v_deferred;
      v.v_deferred <- [];
      v.v_deleted <- true;
      v.v_deleted_at <- ev.Event.returned_at;
      (* Any later operation naming this version is a violation, never a
         model comparison, so the forked state can be reclaimed. Only
         the catalog skeleton (parent pointer, flags) stays behind. *)
      v.v_realm.r_model <- Smap.empty;
      v.v_realm.r_last_write <- Smap.empty;
      Hashtbl.reset v.v_realm.r_candidates;
      if Int64.compare v.v_parent 0L >= 0 then (
        match Hashtbl.find_opt sh.s_versions v.v_parent with
        | None -> ()
        | Some p ->
            p.v_nbranches <- max 0 (p.v_nbranches - 1);
            (* Shedding the last branch makes the parent a writable tip
               again (Sec. 5.2): settle the closing read-only epoch
               before reopening it for writes. *)
            if p.v_nbranches = 0 && not p.v_deleted then begin
              resolve_deferred sh p ~ripe_before:ev.Event.invoked_at
                ~keep_from:ev.Event.returned_at;
              p.v_writable <- true
            end)

let branch_version_for_write sh ev at =
  match find_version sh at with
  | Some v when v.v_forked ->
      if v.v_deleted then begin
        violate sh ~event:ev ?key:(op_key ev) "write at deleted version %Ld" at;
        None
      end
      else if not v.v_writable then begin
        violate sh ~event:ev ?key:(op_key ev)
          "branch isolation violated: write at read-only version %Ld" at;
        None
      end
      else Some v
  | _ ->
      violate sh ~event:ev ?key:(op_key ev) "write at unknown version %Ld" at;
      None

(* Stamped read at a version: tips replay against the live per-version
   model (stamp order makes the comparison exact); read-only versions
   fall under the frozen-ancestor rule. *)
let apply_branch_read sh ev at =
  match find_version sh at with
  | Some v when v.v_forked ->
      if v.v_deleted then violate sh ~event:ev ?key:(op_key ev) "read at deleted version %Ld" at
      else if v.v_writable then (
        match ev.Event.op with
        | Event.Branch_get { key; result; _ } -> apply_get sh v.v_realm ev key result
        | Event.Branch_scan { from; count; result; _ } ->
            apply_scan sh v.v_realm ev from count result
        | _ -> ())
      else check_branch_read sh ev v
  | _ -> violate sh ~event:ev ?key:(op_key ev) "read at unknown version %Ld" at

(* Unstamped (dirty) read at a version: always deferred, because even a
   currently-frozen version may be mid-transition — an unfreeze or
   refreeze can still sit in the reorder buffer ahead of us. The read
   resolves as soon as the applied-stamp horizon proves which epoch it
   ran inside (usually within one reorder window). *)
let defer_branch_read sh ev at =
  defer sh
    (fun f -> Format.fprintf f "branch read at version %Ld" at)
    (fun () ->
      let v = ensure_version sh at in
      v.v_deferred <- ev :: v.v_deferred;
      resolve_ripe sh v)

(* Multi-version queries. When stamped, the atomic transaction
   serializes at its stamp and every per-version model is exact at
   apply time; when unstamped, only frozen versions can be judged. *)
let check_versioned_results sh ev ~exact key results =
  List.iter
    (fun (sid, result) ->
      match find_version sh sid with
      | Some v when v.v_forked ->
          sh.s_branch_reads <- sh.s_branch_reads + 1;
          if v.v_deleted then begin
            (* A stamped query serializes after the deletion; a dirty one
               is only damning if it started after the deletion returned
               — earlier ones ran against the then-live version, whose
               reclaimed state we can no longer verify. *)
            if exact || ev.Event.invoked_at >= v.v_deleted_at then
              violate sh ~event:ev ~key "multi-version read at deleted version %Ld" sid
          end
          else if (not exact) && v.v_writable then ()
          else if (not exact) && ev.Event.invoked_at < v.v_frozen_at then
            (* The dirty query predates the version's current read-only
               epoch: it observed some earlier tip state. Excused. *)
            ()
          else check_frozen_get sh ev multi_words v.v_realm.r_model v.v_realm ~at:sid ~key ~result
      | _ -> violate sh ~event:ev ~key "multi-version read at unknown version %Ld" sid)
    results

let check_history_chain sh ev ~from results =
  (* The returned versions must be exactly [from]'s ancestor chain,
     root-first, per the checker's own recorded parent pointers. *)
  let rec climb acc sid guard =
    if guard = 0 then acc
    else
      match Hashtbl.find_opt sh.s_versions sid with
      | Some v when v.v_forked ->
          if Int64.compare v.v_parent 0L >= 0 then climb (v.v_parent :: acc) v.v_parent (guard - 1)
          else acc
      | _ -> acc
  in
  let expected = climb [ from ] from 1024 in
  let got = List.map fst results in
  if got <> expected then
    violate sh ~event:ev
      "history at version %Ld returned chain [%s] but the recorded version tree has [%s]" from
      (String.concat ";" (List.map Int64.to_string got))
      (String.concat ";" (List.map Int64.to_string expected))

(* -------------------------------------------------------------------- *)
(* Shard dispatch                                                        *)
(* -------------------------------------------------------------------- *)

(* Apply one stamped event in commit-stamp order: freeze snapshots whose
   creation stamps have passed, enforce real-time order, sweep open SCS
   checks, then replay the operation against its model. *)
let shard_apply ~slack sh ev =
  let stamp = Option.get ev.Event.stamp in
  run_freezes sh ~below:stamp;
  sh.s_ops <- sh.s_ops + 1;
  (* Real-time order, O(1): events apply in stamp order, so a violation
     pairs this event with an already-applied one that was invoked
     after this event returned. Track the maximum invocation time and
     its witness. *)
  if sh.s_max_invoked > ev.Event.returned_at then
    (match sh.s_max_invoked_ev with
    | Some w ->
        violate sh ~event:ev ?key:(op_key ev)
          "real-time order violated: an operation that returned at %.6f has stamp %Ld, not \
           below the stamp %Ld of an operation invoked later at %.6f"
          ev.Event.returned_at stamp
          (Option.value w.Event.stamp ~default:(-1L))
          w.Event.invoked_at
    | None -> ());
  if ev.Event.invoked_at > sh.s_max_invoked then begin
    sh.s_max_invoked <- ev.Event.invoked_at;
    sh.s_max_invoked_ev <- Some ev
  end;
  scs_sweep sh ev slack;
  sh.s_ring.(sh.s_ring_pos) <- (stamp, ev.Event.invoked_at, ev.Event.returned_at);
  sh.s_ring_pos <- (sh.s_ring_pos + 1) mod ring_size;
  sh.s_applied <- sh.s_applied + 1;
  sh.s_last_inv <- ev.Event.invoked_at;
  (match ev.Event.op with
  | Event.Get { key; result } -> (
      match ev.Event.sid with
      | Some sid -> snapshot_read sh ev sid
      | None -> apply_get sh sh.s_realm ev key result)
  | Event.Put { key; value } -> apply_put sh sh.s_realm ev key value
  | Event.Remove { key; removed } -> apply_remove sh sh.s_realm ev key removed
  | Event.Scan { from; count; result } -> (
      match ev.Event.sid with
      | Some sid -> snapshot_read sh ev sid
      | None -> apply_scan sh sh.s_realm ev from count result)
  | Event.Snapshot_taken -> ()
  | Event.Branch_created { parent; sid } -> apply_branch_created sh ev ~parent ~sid
  | Event.Branch_deleted { sid } -> apply_branch_deleted sh ev ~sid
  | Event.Branch_put { at; key; value } -> (
      match branch_version_for_write sh ev at with
      | Some v -> apply_put sh v.v_realm ev key value
      | None -> ())
  | Event.Branch_remove { at; key; removed } -> (
      match branch_version_for_write sh ev at with
      | Some v -> apply_remove sh v.v_realm ev key removed
      | None -> ())
  | Event.Branch_get { at; _ } | Event.Branch_scan { at; _ } -> apply_branch_read sh ev at
  | Event.Get_many { key; results } -> check_versioned_results sh ev ~exact:true key results
  | Event.History { from; key; results } ->
      check_history_chain sh ev ~from results;
      check_versioned_results sh ev ~exact:true key results);
  match op_key ev with Some key -> note_recent sh key ev | None -> ()

(* Events without a commit stamp: ambiguity candidates, snapshot and
   branch reads serialized by their version, SCS grants — or up-to-date
   operations that should have carried one. *)
let shard_unstamped ~slack sh ev =
  if ev.Event.ambiguous then (
    match ev.Event.op with
    | Event.Put { key; value } -> add_candidate sh sh.s_realm ev key (Some value)
    | Event.Remove { key; _ } -> add_candidate sh sh.s_realm ev key None
    | Event.Branch_put { at; key; value } ->
        add_candidate sh (ensure_version sh at).v_realm ev key (Some value)
    | Event.Branch_remove { at; key; _ } ->
        add_candidate sh (ensure_version sh at).v_realm ev key None
    | _ -> ())
  else
    match ev.Event.op with
    | Event.Snapshot_taken -> (
        match ev.Event.sid with
        | None -> violate sh ~event:ev "snapshot request event carries no sid"
        | Some sid -> scs_register sh ev sid slack)
    | Event.Get _ | Event.Scan _ when ev.Event.sid <> None ->
        snapshot_read sh ev (Option.get ev.Event.sid)
    | Event.Get _ | Event.Put _ | Event.Remove _ | Event.Scan _ ->
        violate sh ~event:ev ?key:(op_key ev) "up-to-date operation carries no commit stamp"
    | Event.Branch_get { at; _ } | Event.Branch_scan { at; _ } -> defer_branch_read sh ev at
    | Event.Branch_created _ | Event.Branch_deleted _ | Event.Branch_put _
    | Event.Branch_remove _ ->
        violate sh ~event:ev ?key:(op_key ev) "catalog/branch operation carries no commit stamp"
    | Event.Get_many _ | Event.History _ ->
        (* Dirty multi-version query: judged at finish, when every
           referenced version has reached its final state. *)
        defer sh
          (fun f -> Format.pp_print_string f "multi-version query")
          (fun () -> sh.s_deferred_multi <- ev :: sh.s_deferred_multi)

(* End-of-stream resolution for one shard: freeze the remaining
   creations, drain every deferred read, settle pending mismatches and
   run the final audit. *)
let shard_finish sh ~final =
  List.iter (fun (_, sid) -> freeze_snapshot sh sid) sh.s_pending_creations;
  sh.s_pending_creations <- [];
  (* Reads are parked only while their creation is pending, and every
     pending creation has just frozen and checked its reads. *)
  assert (I64map.is_empty sh.s_deferred_snap);
  Sim.Det.iter_sorted sh.s_versions ~cmp:Int64.compare (fun _ v ->
      if v.v_deferred <> [] then
        if v.v_forked then
          (* No transaction is left that could unfreeze the version, so
             its last read-only epoch runs to the end of time: reads
             inside it are checked, dirty reads of a still-writable tip
             are excused. *)
          resolve_deferred sh v ~ripe_before:infinity ~keep_from:infinity
        else begin
          List.iter
            (fun ev -> violate sh ~event:ev ?key:(op_key ev) "read at unknown version %Ld" v.v_sid)
            (List.rev v.v_deferred);
          sh.s_ndeferred <- sh.s_ndeferred - List.length v.v_deferred;
          v.v_deferred <- []
        end);
  List.iter
    (fun ev ->
      match ev.Event.op with
      | Event.Get_many { key; results } -> check_versioned_results sh ev ~exact:false key results
      | Event.History { from; key; results } ->
          check_history_chain sh ev ~from results;
          check_versioned_results sh ev ~exact:false key results
      | _ -> ())
    (List.rev sh.s_deferred_multi);
  sh.s_deferred_multi <- [];
  List.iter
    (fun p ->
      match try_settle sh p ~at_finish:true with
      | `Settled -> ()
      | `Violation | `Keep -> pending_violation sh p
      | `Inconclusive ->
          inconclusive sh
            "index %d: scan from %S mismatches the model but ambiguous writes are pending"
            sh.s_idx
            (match p.p_what with P_scan { from; _ } -> from | _ -> ""))
    (List.rev sh.s_pending);
  sh.s_pending <- [];
  sh.s_npending <- 0;
  sh.s_scs_open <- [];
  (* Final audit: the surviving state must match the model exactly,
     modulo unresolved ambiguous writes. *)
  List.iter
    (fun (i, entries) ->
      if i = sh.s_idx then begin
        let actual = List.fold_left (fun m (k, v) -> Smap.add k v m) Smap.empty entries in
        let keys =
          List.sort_uniq compare
            (List.map fst (Smap.bindings sh.s_realm.r_model)
            @ List.map fst (Smap.bindings actual))
        in
        List.iter
          (fun key ->
            let expected = Smap.find_opt key sh.s_realm.r_model in
            let got = Smap.find_opt key actual in
            if got <> expected then
              if
                List.exists
                  (fun c -> c.c_live && c.c_value = got)
                  (candidates_for sh.s_realm key)
              then ()
              else
                violate sh ~key "final audit: key %S holds %a but the model holds %a" key
                  pp_value_opt got pp_value_opt expected)
          keys
      end)
    final

(* -------------------------------------------------------------------- *)
(* The stream                                                            *)
(* -------------------------------------------------------------------- *)

type t = {
  slack : float; (* SCS staleness bound; 0 is strict *)
  reorder_window : int;
  mutable buffer : Event.t I64map.t; (* stamped events awaiting application *)
  mutable buffered : int;
  mutable watermark : int64; (* highest applied stamp *)
  shards : (int, shard) Hashtbl.t;
  mutable global_violations : violation list; (* newest first *)
  mutable fed : int;
  mutable finished : bool;
}

let global_violate t fmt =
  Format.kasprintf
    (fun v_message ->
      t.global_violations <-
        { v_index = -1; v_message; v_event = None; v_context = [] } :: t.global_violations)
    fmt

let ensure_shard t idx =
  match Hashtbl.find_opt t.shards idx with
  | Some sh -> sh
  | None ->
      let sh = shard_create idx in
      Hashtbl.replace t.shards idx sh;
      sh

let add_creation t ~index ~sid ~stamp = add_creation_shard (ensure_shard t index) ~sid ~stamp

let create (cfg : Config.t) =
  {
    slack = Option.value cfg.scs_staleness ~default:0.0;
    reorder_window = cfg.reorder_window;
    buffer = I64map.empty;
    buffered = 0;
    watermark = Int64.min_int;
    shards = Hashtbl.create 8;
    global_violations = [];
    fed = 0;
    finished = false;
  }

let apply_min t =
  let stamp, ev = I64map.min_binding t.buffer in
  t.buffer <- I64map.remove stamp t.buffer;
  t.buffered <- t.buffered - 1;
  t.watermark <- stamp;
  shard_apply ~slack:t.slack (ensure_shard t ev.Event.index) ev

(* Feed one event, in any order consistent with its arrival: stamped
   events are re-sequenced into commit-stamp order through a bounded
   reorder buffer (commit stamps are drawn while the operations' locks
   are held, so an event can only arrive out of stamp order by the
   in-flight concurrency — far less than the window); everything else
   is routed to its index's shard immediately. *)
let feed t ev =
  if t.finished then invalid_arg "Check.Stream.feed: stream already finished";
  t.fed <- t.fed + 1;
  match ev.Event.stamp with
  | Some stamp when not ev.Event.ambiguous ->
      if I64map.mem stamp t.buffer then global_violate t "duplicate commit stamp %Ld" stamp
      else if Int64.compare stamp t.watermark <= 0 then
        global_violate t
          "commit stamp %Ld at or below the applied watermark %Ld (duplicate stamp or reorder \
           window exceeded)"
          stamp t.watermark
      else begin
        t.buffer <- I64map.add stamp ev t.buffer;
        t.buffered <- t.buffered + 1;
        while t.buffered > t.reorder_window do
          apply_min t
        done
      end
  | Some _ | None ->
      (* Ambiguous ops never carry a stamp; be safe and treat a stamped
         one as unstamped so its candidate is still registered. *)
      shard_unstamped ~slack:t.slack (ensure_shard t ev.Event.index) ev

let fed t = t.fed

let finish ?(final = []) ?(twopc = []) ?(in_doubt = 0) t =
  if t.finished then invalid_arg "Check.Stream.finish: stream already finished";
  t.finished <- true;
  while t.buffered > 0 do
    apply_min t
  done;
  let ordered = Sim.Det.sorted_bindings t.shards ~cmp:compare in
  List.iter (fun (_, sh) -> shard_finish sh ~final) ordered;
  (* 2PC atomicity: the participants' redo logs must agree on every
     transaction's fate — a tid committed at one address space and
     aborted at another is a torn transaction. The same tid carrying
     both records at a single space (a decide_commit racing a recovery
     force-abort) is the same violation. *)
  let records = Array.of_list twopc in
  let twopc_checked = Array.length records in
  Array.stable_sort (fun (_, a, _) (_, b, _) -> Int64.compare a b) records;
  let tid_at i =
    let _, tid, _ = records.(i) in
    tid
  in
  let spaces run d =
    List.filter_map (fun (space, _, d') -> if d' = d then Some space else None) run
    |> List.sort compare |> List.map string_of_int |> String.concat ","
  in
  (* One run of equal tids at a time, in tid order. *)
  let i = ref 0 in
  while !i < twopc_checked do
    let tid = tid_at !i in
    let j = ref !i and committed = ref false and aborted = ref false in
    while !j < twopc_checked && Int64.equal (tid_at !j) tid do
      (match records.(!j) with
      | _, _, `Committed -> committed := true
      | _, _, `Aborted -> aborted := true);
      incr j
    done;
    if !committed && !aborted then begin
      let run = Array.to_list (Array.sub records !i (!j - !i)) in
      global_violate t
        "2PC atomicity violated: transaction %Ld committed at space(s) %s but aborted at \
         space(s) %s"
        tid (spaces run `Committed) (spaces run `Aborted)
    end;
    i := !j
  done;
  (* Every in-doubt transaction must be resolved by the time the run
     quiesces: a leftover means the recovery coordinator wedged (or was
     never run) and its locks block the ranges forever. *)
  if in_doubt > 0 then
    global_violate t
      "%d transaction(s) still in doubt after the run quiesced (recovery never resolved them)"
      in_doubt;
  let violations =
    List.concat_map (fun (_, sh) -> List.rev sh.s_violations) ordered
    @ List.rev t.global_violations
  in
  let inconclusive =
    List.concat_map (fun (_, sh) -> List.rev sh.s_inconclusive) ordered
  in
  let sum f = List.fold_left (fun acc (_, sh) -> acc + f sh) 0 ordered in
  {
    violations;
    inconclusive;
    ops_checked = sum (fun sh -> sh.s_ops);
    snapshot_reads_checked = sum (fun sh -> sh.s_snap_reads);
    branch_reads_checked = sum (fun sh -> sh.s_branch_reads);
    candidates_resolved = sum (fun sh -> sh.s_resolved);
    twopc_checked;
  }
