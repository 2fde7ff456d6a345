(* Phase 1 of the interprocedural analysis: one walk per source file
   producing per-function summaries — the facts the fixpoint (Interproc)
   propagates and the four interprocedural rule families consume.

   A summary is purely syntactic. Per top-level function (including
   functions in nested [module M = struct ... end] blocks) it records,
   in approximate evaluation order:

   - calls, as raw dotted paths plus the swallow context of every
     enclosing exception handler (so crash-exception propagation can
     stop at a handler that would catch it);
   - protocol ops (redo-log append/decide, lock acquire/release,
     network transfer) recognised by their dotted names;
   - nondeterminism, wall-clock and scheduler-blocking sources,
     recognised with the same matchers as the syntactic rules — a
     source under a [lint: allow] directive is vouched for and does
     not enter the summary;
   - direct raises of the crash exceptions (Memnode.Crashed,
     Txn.Aborted, Codec.Decode_error);
   - wildcard exception handlers that swallow (no reraise), with the
     calls made inside the code they guard.

   Inner [let]s and closures are inlined into the enclosing top-level
   function: combinator callbacks run within the call in practice, and
   a closure's effects belong to whoever builds it. The cost is
   flow-insensitivity (branches are concatenated in source order) and
   blindness to higher-order flow of *top-level* functions passed as
   values; DESIGN.md Sec. 17 lists the resulting soundness caveats. *)

open Parsetree

type op = Append | Decide_commit | Decide_abort | Acquire | Release | Transfer

let op_to_string = function
  | Append -> "Redo_log.append"
  | Decide_commit -> "Redo_log.decide_commit"
  | Decide_abort -> "Redo_log.decide_abort"
  | Acquire -> "Lock_table acquire"
  | Release -> "Lock_table.release"
  | Transfer -> "Net.transfer"

type source_kind = Nondet | Wallclock | Blocking

type source = {
  s_kind : source_kind;
  s_what : string;  (* e.g. "Hashtbl.iter", "Sim.Ivar.read" *)
  s_line : int;
}

type call = {
  c_segs : string list;  (* raw dotted path, e.g. ["Redo_log"; "append"] *)
  c_line : int;
  c_swallows : string list;
      (* exception constructor last-segments swallowed by enclosing
         handlers at this call site; "*" = a swallowing catch-all *)
}

(* One event in a function body, in evaluation order (approximate:
   branches concatenate, applications evaluate arguments left to
   right before the call). *)
type ev =
  | Call of call
  | Op of op * int
  | Src of source
  | Raise of string * int  (* canonical exception name, line *)

(* A swallowing wildcard handler and the calls its guarded body makes:
   the crash-swallow-transitive rule checks whether any of those calls
   may raise a crash exception. *)
type handler = { h_line : int; h_col : int; h_calls : call list }

type fn = {
  fn_id : string;  (* globally unique: "<rel>#<local dotted name>" *)
  fn_local : string;  (* name within the file, e.g. "prepare_timed" or "M.f" *)
  fn_rel : string;
  fn_line : int;
  fn_events : ev list;
  fn_handlers : handler list;
}

type file = {
  f_rel : string;
  f_module : string;  (* capitalised basename, e.g. "Memnode" *)
  f_dir : string;  (* directory part of rel, for same-dir resolution *)
  f_opens : string list;  (* last segment of each top-level [open], in order *)
  f_aliases : (string * string) list;  (* [module A = B] -> (A, last segment of B) *)
  f_fns : fn list;  (* source order *)
}

let fn_id ~rel local = rel ^ "#" ^ local

let fn_display f = Filename.remove_extension (Filename.basename f.fn_rel) ^ "." ^ f.fn_local

let module_of_rel rel = String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

(* ------------------------------------------------------------------ *)
(* Longident / pattern helpers                                          *)
(* ------------------------------------------------------------------ *)

let rec segs_of_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> segs_of_lid p @ [ s ]
  | Longident.Lapply (_, l) -> segs_of_lid l

(* (last module segment, final name), for the dotted matchers. *)
let dotted segs =
  match List.rev segs with
  | fn :: m :: _ -> Some (m, fn)
  | _ -> None

let rec is_catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_catch_all p
  | Ppat_or (a, b) -> is_catch_all a || is_catch_all b
  | _ -> false

let bound_exn_var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> Some txt
  | _ -> None

(* Does [body] re-raise the variable the handler bound? (The
   cleanup-and-reraise idiom: not a swallow.) *)
let reraises ~var body =
  let found = ref false in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
              let fn = Longident.last txt in
              if
                (fn = "raise" || fn = "raise_notrace" || fn = "raise_with_backtrace")
                && List.exists
                     (fun (_, a) ->
                       match a.pexp_desc with
                       | Pexp_ident { txt = Longident.Lident v; _ } -> v = var
                       | _ -> false)
                     args
              then found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  iterator.expr iterator body;
  !found

let swallowing_case c p =
  c.pc_guard = None && is_catch_all p
  &&
  match bound_exn_var p with
  | Some var -> not (reraises ~var c.pc_rhs)
  | None -> true

(* Exception constructor names (last segments) a handler case stops
   from propagating; "*" = everything (a swallowing catch-all). A named
   pattern stops its exception whether or not the handler body
   re-raises something else; a catch-all that re-raises stops
   nothing. *)
let rec caught_names c p =
  match p.ppat_desc with
  | Ppat_or (a, b) -> caught_names c a @ caught_names c b
  | Ppat_construct ({ txt; _ }, _) -> [ Longident.last txt ]
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> caught_names c p
  | _ -> if swallowing_case c p then [ "*" ] else []

(* ------------------------------------------------------------------ *)
(* Fact matchers                                                        *)
(* ------------------------------------------------------------------ *)

(* The crash exceptions whose propagation the analysis tracks. Matched
   by last segment: [raise Crashed] inside memnode.ml and
   [raise Memnode.Crashed] elsewhere both mean Memnode.Crashed. *)
let crash_exn_of_segs segs =
  match List.rev segs with
  | "Crashed" :: _ -> Some "Memnode.Crashed"
  | "Aborted" :: _ -> Some "Txn.Aborted"
  | "Decode_error" :: _ -> Some "Codec.Decode_error"
  | _ -> None

let op_of_dotted = function
  | "Redo_log", "append" -> Some Append
  | "Redo_log", "decide_commit" -> Some Decide_commit
  | "Redo_log", "decide_abort" -> Some Decide_abort
  | "Lock_table", ("try_acquire" | "acquire_blocking") -> Some Acquire
  | "Lock_table", "release" -> Some Release
  | "Net", "transfer" -> Some Transfer
  | _ -> None

(* Mirrors the nondet-iteration / wallclock-rng matchers, plus the
   scheduler waits the blocking-under-lock rule cares about.
   [Sim.delay] and [Sim.Resource.use] are deliberately absent: service
   time is *supposed* to be spent holding locks (that is the simulated
   cost model); the dangerous waits are the ones that park a fiber
   until another fiber acts. *)
let source_of_dotted = function
  | ( "Hashtbl",
      (("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") as fn) ) ->
      Some (Nondet, "Hashtbl." ^ fn)
  | "Unix", (("gettimeofday" | "time") as fn) -> Some (Wallclock, "Unix." ^ fn)
  | "Random", fn -> Some (Wallclock, "Random." ^ fn)
  | "Ivar", "read" -> Some (Blocking, "Ivar.read")
  | "Mailbox", "recv" -> Some (Blocking, "Mailbox.recv")
  | "Semaphore", (("acquire" | "with_acquired") as fn) -> Some (Blocking, "Semaphore." ^ fn)
  | "Mutex", "lock" -> Some (Blocking, "Mutex.lock")
  | "Sim", "suspend" -> Some (Blocking, "Sim.suspend")
  | _ -> None

(* A source under an allow directive (for its syntactic rule or for
   the interprocedural one) is vouched order-independent / justified:
   it must not seed transitive findings either. *)
let source_suppressed src kind ~line =
  let ids =
    match kind with
    | Nondet -> [ "nondet-iteration"; "transitive-nondet" ]
    | Wallclock -> [ "wallclock-rng"; "transitive-nondet" ]
    | Blocking -> [ "blocking-under-lock" ]
  in
  List.exists (fun rule -> Src_file.allowed src ~rule ~line) ids

(* ------------------------------------------------------------------ *)
(* Expression walk                                                      *)
(* ------------------------------------------------------------------ *)

type wctx = {
  src : Src_file.t;
  events : ev list ref;  (* reversed *)
  handlers : handler list ref;  (* reversed *)
  swallows : string list;  (* enclosing-handler context *)
  collectors : call list ref list;  (* active guarded-body call collectors *)
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let push ctx e = ctx.events := e :: !(ctx.events)

let record_source ctx ~loc segs =
  if not loc.Location.loc_ghost then
    match dotted segs with
    | Some d -> (
        match source_of_dotted d with
        | Some (kind, what) ->
            let line = line_of loc in
            if not (source_suppressed ctx.src kind ~line) then
              push ctx (Src { s_kind = kind; s_what = what; s_line = line })
        | None -> ())
    | None -> ()

let record_call ctx ~loc segs =
  let call = { c_segs = segs; c_line = line_of loc; c_swallows = ctx.swallows } in
  push ctx (Call call);
  List.iter (fun c -> c := call :: !c) ctx.collectors

let rec walk ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
      List.iter (fun (_, a) -> walk ctx a) args;
      note_apply ctx ~loc (segs_of_lid txt) args
  | Pexp_apply (head, args) ->
      List.iter (fun (_, a) -> walk ctx a) args;
      walk ctx head
  | Pexp_ident { txt; loc } -> record_source ctx ~loc (segs_of_lid txt)
  | Pexp_try (body, cases) -> walk_guarded ctx ~body ~cases ~exception_cases:false
  | Pexp_match (scrut, cases)
    when List.exists (fun c -> match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false) cases
    ->
      walk_guarded ctx ~body:scrut ~cases ~exception_cases:true
  | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> walk ctx vb.pvb_expr) vbs;
      walk ctx body
  | Pexp_sequence (a, b) ->
      walk ctx a;
      walk ctx b
  | Pexp_ifthenelse (c, t, f) ->
      walk ctx c;
      walk ctx t;
      Option.iter (walk ctx) f
  | Pexp_fun (_, default, _, body) ->
      Option.iter (walk ctx) default;
      walk ctx body
  | Pexp_function cases -> List.iter (walk_case ctx) cases
  | Pexp_match (scrut, cases) ->
      walk ctx scrut;
      List.iter (walk_case ctx) cases
  | _ ->
      (* Every other construct: iterate children in AST order. The
         nested iterator re-enters [walk], so context is preserved. *)
      let it = { Ast_iterator.default_iterator with expr = (fun _ e -> walk ctx e) } in
      Ast_iterator.default_iterator.expr it e

and walk_case ctx c =
  Option.iter (walk ctx) c.pc_guard;
  walk ctx c.pc_rhs

(* A [try body with cases] (or a match with [exception] cases): the
   body runs under the handlers' swallow context; a swallowing
   catch-all additionally records a handler entry with the calls the
   body makes. Handler right-hand sides run in the *outer* context —
   what they raise propagates normally. *)
and walk_guarded ctx ~body ~cases ~exception_cases =
  let relevant c =
    if exception_cases then
      match c.pc_lhs.ppat_desc with Ppat_exception p -> Some p | _ -> None
    else Some c.pc_lhs
  in
  let swallowed =
    List.concat_map (fun c -> match relevant c with Some p -> caught_names c p | None -> []) cases
  in
  let wildcard =
    List.find_map
      (fun c ->
        match relevant c with
        | Some p when swallowing_case c p -> Some p.ppat_loc
        | _ -> None)
      cases
  in
  let collector = ref [] in
  let ctx' =
    {
      ctx with
      swallows = swallowed @ ctx.swallows;
      collectors = (if wildcard <> None then collector :: ctx.collectors else ctx.collectors);
    }
  in
  walk ctx' body;
  (match wildcard with
  | Some loc ->
      ctx.handlers :=
        {
          h_line = line_of loc;
          h_col = loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol;
          h_calls = List.rev !collector;
        }
        :: !(ctx.handlers)
  | None -> ());
  List.iter (walk_case ctx) cases

and note_apply ctx ~loc segs args =
  let last = match List.rev segs with s :: _ -> s | [] -> "" in
  if last = "raise" || last = "raise_notrace" || last = "raise_with_backtrace" then
    List.iter
      (fun (_, a) ->
        match a.pexp_desc with
        | Pexp_construct ({ txt; _ }, _) -> (
            match crash_exn_of_segs (segs_of_lid txt) with
            | Some exn ->
                let blocked =
                  List.mem "*" ctx.swallows
                  || List.mem (Longident.last txt) ctx.swallows
                in
                if not blocked then push ctx (Raise (exn, line_of loc))
            | None -> ())
        | _ -> ())
      args
  else begin
    record_call ctx ~loc segs;
    (match dotted segs with
    | Some d -> (
        match op_of_dotted d with
        | Some op -> push ctx (Op (op, line_of loc))
        | None -> ())
    | None -> ());
    record_source ctx ~loc segs
  end

(* ------------------------------------------------------------------ *)
(* Structure walk                                                       *)
(* ------------------------------------------------------------------ *)

let pat_name p =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

let of_src (src : Src_file.t) =
  let rel = src.Src_file.rel in
  let f_module = module_of_rel rel in
  let opens = ref [] in
  let aliases = ref [] in
  let fns = ref [] in
  let summarize_binding ~modpath vb =
    match pat_name vb.pvb_pat with
    | None -> ()
    | Some name ->
        let local = String.concat "." (modpath @ [ name ]) in
        let events = ref [] and handlers = ref [] in
        let ctx = { src; events; handlers; swallows = []; collectors = [] } in
        walk ctx vb.pvb_expr;
        fns :=
          {
            fn_id = fn_id ~rel local;
            fn_local = local;
            fn_rel = rel;
            fn_line = line_of vb.pvb_loc;
            fn_events = List.rev !events;
            fn_handlers = List.rev !handlers;
          }
          :: !fns
  in
  let rec walk_module_expr ~modpath me =
    match me.pmod_desc with
    | Pmod_structure items -> walk_structure ~modpath items
    | Pmod_constraint (me, _) -> walk_module_expr ~modpath me
    | _ -> ()
  and walk_module_binding ~modpath mb =
    match mb.pmb_name.Location.txt with
    | None -> ()
    | Some n -> (
        match mb.pmb_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> aliases := (n, Longident.last txt) :: !aliases
        | _ -> walk_module_expr ~modpath:(modpath @ [ n ]) mb.pmb_expr)
  and walk_structure ~modpath items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter (summarize_binding ~modpath) vbs
        | Pstr_module mb -> walk_module_binding ~modpath mb
        | Pstr_recmodule mbs -> List.iter (walk_module_binding ~modpath) mbs
        | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
            opens := Longident.last txt :: !opens
        | _ -> ())
      items
  in
  walk_structure ~modpath:[] src.Src_file.ast;
  {
    f_rel = rel;
    f_module;
    f_dir = Filename.dirname rel;
    f_opens = List.rev !opens;
    f_aliases = List.rev !aliases;
    f_fns = List.rev !fns;
  }

let calls_of fn =
  List.filter_map (function Call c -> Some c | _ -> None) fn.fn_events
