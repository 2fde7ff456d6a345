(* The rule set. Rules are data: an id, a one-line invariant, path
   scoping, and a matcher — adding a rule is a new entry in [all],
   typically ~30-60 lines. Matchers come in two kinds:

   - [Expr]: per-expression, driven by the engine's single
     [Ast_iterator] pass over one file (the PR 5 rules);
   - [Global]: whole-program, driven once over the interprocedural
     context (Summary facts propagated to fixpoint by Interproc) and
     emitting diagnostics anywhere in the loaded file set.

   Every rule exists because the type system cannot see the invariant
   it protects (determinism per seed, crash propagation, protocol op
   order, stable-identity comparisons). *)

open Parsetree

type ctx = { rel : string; src : Src_file.t }

type emit = loc:Location.t -> string -> unit

type emit_g = rel:string -> line:int -> col:int -> string -> unit

type kind =
  | Expr of (ctx -> emit:emit -> expression -> unit)
  | Global of (Interproc.t -> emit:emit_g -> unit)

type t = {
  id : string;
  severity : Diag.severity;
  doc : string;  (* the invariant this rule protects *)
  scope : string list;  (* path prefixes; [] = everywhere *)
  exclude : string list;
  kind : kind;
}

let in_scope rule rel =
  (rule.scope = [] || List.exists (Paths.has_prefix rel) rule.scope)
  && not (List.exists (Paths.has_prefix rel) rule.exclude)

(* ------------------------------------------------------------------ *)
(* Longident / pattern helpers                                          *)
(* ------------------------------------------------------------------ *)

let rec last_module = function
  | Longident.Lident m -> m
  | Longident.Ldot (_, m) -> m
  | Longident.Lapply (_, l) -> last_module l

(* [M.f] (under any module prefix ending in [M]): the shape of every
   stdlib call the rules below care about. *)
let dotted_call txt =
  match txt with
  | Longident.Ldot (prefix, fn) -> Some (last_module prefix, fn)
  | Longident.Lident _ | Longident.Lapply _ -> None

let applied_fn e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(* ------------------------------------------------------------------ *)
(* 1. crashed-swallow                                                   *)
(* ------------------------------------------------------------------ *)

(* [Memnode.Crashed] and [Txn.Aborted] must reach the retry loop; a
   wildcard handler quietly turns a mid-transaction crash into a wrong
   answer. Also flags [match Txn.commit ... with _ -> ...]: a wildcard
   over the commit result discards [Unavailable]/[Retry_exhausted] the
   same way. The cleanup-and-reraise idiom ([with e -> ...; raise e])
   is exempt: a handler that re-raises the exception it bound does not
   swallow anything. *)
let crashed_swallow =
  let check _ctx ~emit e =
    match e.pexp_desc with
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            if Summary.swallowing_case c c.pc_lhs then
              emit ~loc:c.pc_lhs.ppat_loc
                "wildcard exception handler can swallow Memnode.Crashed / Txn.Aborted; match \
                 the specific exceptions and let crashes propagate")
          cases
    | Pexp_match (scrut, cases) -> (
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception p when Summary.swallowing_case c p ->
                emit ~loc:c.pc_lhs.ppat_loc
                  "wildcard [exception _] case can swallow Memnode.Crashed / Txn.Aborted; \
                   name the exceptions this site really expects"
            | _ -> ())
          cases;
        match applied_fn scrut with
        | Some txt when Longident.last txt = "commit" ->
            List.iter
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_exception _ -> ()
                | _ ->
                    if c.pc_guard = None && Summary.is_catch_all c.pc_lhs then
                      emit ~loc:c.pc_lhs.ppat_loc
                        "commit result discarded by a wildcard; match \
                         Committed/Validation_failed/Retry_exhausted/Unavailable exhaustively")
              cases
        | _ -> ())
    | _ -> ()
  in
  {
    id = "crashed-swallow";
    severity = Diag.Error;
    doc = "crashes and aborts propagate to the retry loop instead of being swallowed";
    scope = Paths.protocol;
    exclude = [];
    kind = Expr check;
  }

(* ------------------------------------------------------------------ *)
(* 2. nondet-iteration                                                  *)
(* ------------------------------------------------------------------ *)

(* Hashtbl iteration order is an implementation detail; anything it
   feeds (counterexample reports, replay order, recovery sweeps) stops
   being bit-for-bit reproducible per seed. Sort the keys
   (Sim.Det.sorted_bindings) or annotate an order-independent fold. *)
let nondet_iteration =
  let check _ctx ~emit e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } when not loc.Location.loc_ghost -> (
        match dotted_call txt with
        | Some
            ( "Hashtbl",
              (("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") as fn) ) ->
            emit ~loc
              (Printf.sprintf
                 "Hashtbl.%s iterates in hash order, which is not stable across runs; use \
                  Sim.Det.sorted_bindings (or annotate an order-independent fold)"
                 fn)
        | _ -> ())
    | _ -> ()
  in
  {
    id = "nondet-iteration";
    severity = Diag.Error;
    doc = "chaos/checker output is bit-for-bit deterministic per seed";
    scope = Paths.determinism;
    exclude = [];
    kind = Expr check;
  }

(* ------------------------------------------------------------------ *)
(* 3. wallclock-rng                                                     *)
(* ------------------------------------------------------------------ *)

(* All time comes from [Sim.now] and all randomness from seeded
   [Sim.Rng] streams; ambient clocks or the global Random state break
   seeded chaos replay. Only [bin/] (driver entry points) may touch
   the host environment. [Random.State] with an explicit state is fine
   — the ban is on the implicit global generator. *)
let wallclock_rng =
  let check _ctx ~emit e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } when not loc.Location.loc_ghost -> (
        match dotted_call txt with
        | Some ("Unix", (("gettimeofday" | "time") as fn)) ->
            emit ~loc
              (Printf.sprintf
                 "Unix.%s reads the wall clock; simulated components must use Sim.now so \
                  seeded runs replay identically"
                 fn)
        | Some ("Random", fn) ->
            emit ~loc
              (Printf.sprintf
                 "Random.%s uses the ambient global generator; draw from a seeded Sim.Rng \
                  stream (or an explicit Random.State) instead"
                 fn)
        | _ -> ())
    | _ -> ()
  in
  {
    id = "wallclock-rng";
    severity = Diag.Error;
    doc = "seeded chaos runs replay identically: no wall clock, no ambient RNG";
    scope = [];
    exclude = [ "bin/" ];
    kind = Expr check;
  }

(* ------------------------------------------------------------------ *)
(* 4. partial-stdlib                                                    *)
(* ------------------------------------------------------------------ *)

(* On protocol paths a [List.hd] that raises mid-minitransaction is a
   protocol bug, not a convenience. Each use must carry an adjacent
   comment stating why the input cannot be empty/None. [a.(i)] sugar
   is exempt (its desugared Array.get ident is ghost). *)
let partial_stdlib =
  let check ctx ~emit e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } when not loc.Location.loc_ghost -> (
        match dotted_call txt with
        | Some (("List", ("hd" | "nth")) as call)
        | Some (("Option", "get") as call)
        | Some (("Array", "get") as call) ->
            let m, fn = call in
            let line = loc.Location.loc_start.Lexing.pos_lnum in
            if not (Src_file.has_adjacent_comment ctx.src ~line) then
              emit ~loc
                (Printf.sprintf
                   "%s.%s is partial; state the invariant that makes it safe in an adjacent \
                    comment (within two lines) or restructure"
                   m fn)
        | _ -> ())
    | _ -> ()
  in
  {
    id = "partial-stdlib";
    severity = Diag.Warning;
    doc = "partial stdlib calls on protocol paths carry an explicit invariant";
    scope = Paths.protocol;
    exclude = [];
    kind = Expr check;
  }

(* ------------------------------------------------------------------ *)
(* 5. poly-compare                                                      *)
(* ------------------------------------------------------------------ *)

(* Protocol records (memnodes, transactions, clusters, stores) hold
   closures and mutable caches; polymorphic =/compare on them raises
   at runtime or compares cache state. The heuristic keys on operand
   names, so it fires where a reviewer would also squint. *)
let poly_risky_names =
  [ "mtx"; "txn"; "memnode"; "bnode"; "cluster"; "session"; "store"; "objcache"; "coordinator" ]

let risky_name n =
  let n = String.lowercase_ascii n in
  List.exists
    (fun r ->
      n = r
      ||
      let suffix = "_" ^ r in
      let ln = String.length n and ls = String.length suffix in
      ln >= ls && String.sub n (ln - ls) ls = suffix)
    poly_risky_names

let rec operand_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.last txt)
  | Pexp_field (_, { txt; _ }) -> Some (Longident.last txt)
  | Pexp_constraint (e, _) -> operand_name e
  | _ -> None

let poly_compare =
  let poly_fn = function
    | Longident.Lident (("=" | "<>" | "compare") as fn) -> Some fn
    | Longident.Ldot (Longident.Lident "Stdlib", (("=" | "<>" | "compare") as fn)) -> Some fn
    | _ -> None
  in
  let check _ctx ~emit e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, [ (_, a); (_, b) ]) -> (
        match poly_fn txt with
        | Some fn ->
            let risky e =
              match operand_name e with Some n -> risky_name n | None -> false
            in
            if risky a || risky b then
              emit ~loc
                (Printf.sprintf
                   "polymorphic (%s) on a protocol record (holds closures/mutable caches); \
                    compare stable identities (ids, stamps) instead"
                   fn)
        | None -> ())
    | _ -> ()
  in
  {
    id = "poly-compare";
    severity = Diag.Warning;
    doc = "protocol records are compared by stable identity, not structure";
    scope = [ "lib/" ];
    exclude = [];
    kind = Expr check;
  }

(* ------------------------------------------------------------------ *)
(* 6. transitive-nondet                                                 *)
(* ------------------------------------------------------------------ *)

(* A determinism-scoped function must stay nondet-free through every
   call chain, not just its own body: a one-line wrapper around
   Hashtbl.iter defined outside the scope defeats nondet-iteration.
   Flags each call site whose callee can reach an unsuppressed nondet
   or wall-clock source outside the determinism scope (sources inside
   the scope are the base rules' business at their own line), printing
   the chain down to the source. *)
let transitive_nondet =
  let check ip ~emit =
    List.iter
      (fun (fn : Summary.fn) ->
        let seen = ref [] in
        List.iter
          (fun ((call : Summary.call), callee) ->
            let interesting (r : Interproc.reach) =
              r.Interproc.r_kind <> Summary.Blocking
              && ((not (Interproc.honors_scope ip))
                 || not (Paths.in_determinism r.Interproc.r_rel))
            in
            match
              List.filter interesting (Interproc.reach_of ip callee)
              |> List.sort (fun (a : Interproc.reach) (b : Interproc.reach) ->
                     compare
                       (a.Interproc.r_rel, a.Interproc.r_line, a.Interproc.r_what)
                       (b.Interproc.r_rel, b.Interproc.r_line, b.Interproc.r_what))
            with
            | [] -> ()
            | r :: _ when not (List.mem (call.Summary.c_line, callee) !seen) ->
                seen := (call.Summary.c_line, callee) :: !seen;
                let chain = Summary.fn_display fn :: Interproc.reach_chain ip callee r in
                emit ~rel:fn.Summary.fn_rel ~line:call.Summary.c_line ~col:0
                  (Printf.sprintf
                     "call chain %s reaches nondeterministic %s (%s:%d); hash order and the \
                      wall clock must not leak into a determinism-scoped path"
                     (String.concat " -> " chain)
                     r.Interproc.r_what r.Interproc.r_rel r.Interproc.r_line)
            | _ -> ())
          (Interproc.edges_of ip fn.Summary.fn_id))
      (Interproc.functions ip)
  in
  {
    id = "transitive-nondet";
    severity = Diag.Error;
    doc = "determinism-scoped functions stay nondet-free through every call chain";
    scope = Paths.determinism;
    exclude = [];
    kind = Global check;
  }

(* ------------------------------------------------------------------ *)
(* 7. crash-swallow-transitive                                          *)
(* ------------------------------------------------------------------ *)

(* The handler that looks clean: a wildcard whose guarded body calls a
   helper that raises Memnode.Crashed two calls deep. The syntactic
   rule only polices protocol paths, so those stay excluded here (one
   diagnostic per handler, not two); everywhere else, a wildcard is
   flagged exactly when some callee's may-raise set is non-empty. *)
let crash_swallow_transitive =
  let check ip ~emit =
    List.iter
      (fun (fn : Summary.fn) ->
        List.iter
          (fun (h : Summary.handler) ->
            let witness =
              List.find_map
                (fun (c : Summary.call) ->
                  match Interproc.resolve_from ip ~rel:fn.Summary.fn_rel c with
                  | None -> None
                  | Some callee -> (
                      match
                        Interproc.raises_of ip callee
                        |> List.sort
                             (fun (a : Interproc.raise_fact) (b : Interproc.raise_fact) ->
                               compare
                                 (a.Interproc.x_exn, a.Interproc.x_rel, a.Interproc.x_line)
                                 (b.Interproc.x_exn, b.Interproc.x_rel, b.Interproc.x_line))
                      with
                      | [] -> None
                      | x :: _ -> Some (callee, x)))
                h.Summary.h_calls
            in
            match witness with
            | None -> ()
            | Some (callee, x) ->
                let chain = Interproc.raise_chain ip callee x in
                emit ~rel:fn.Summary.fn_rel ~line:h.Summary.h_line ~col:h.Summary.h_col
                  (Printf.sprintf
                     "wildcard handler swallows %s, which %s may raise (raised at %s:%d via \
                      %s); name the crash exceptions or re-raise"
                     x.Interproc.x_exn (Interproc.display ip callee) x.Interproc.x_rel
                     x.Interproc.x_line
                     (String.concat " -> " chain)))
          fn.Summary.fn_handlers)
      (Interproc.functions ip)
  in
  {
    id = "crash-swallow-transitive";
    severity = Diag.Error;
    doc = "wildcard handlers do not swallow crash exceptions a callee may raise";
    scope = [];
    exclude = Paths.protocol;
    kind = Global check;
  }

(* ------------------------------------------------------------------ *)
(* 8. protocol-order                                                    *)
(* ------------------------------------------------------------------ *)

(* The 2PC discipline as a per-function state machine over the spliced
   op sequence: a yes-vote (redo-log append) must be decided
   (decide_commit/decide_abort) before its locks release, and must be
   durable before the last reply transfer — a vote the coordinator
   learned but the log lost is exactly the in-doubt window recovery
   cannot close. Violations internal to a single callee (same splice
   instance) are reported in the callee's own scan, not at every call
   site. *)
let protocol_order =
  let check ip ~emit =
    List.iter
      (fun (fn : Summary.fn) ->
        let rel = fn.Summary.fn_rel in
        let seq = Interproc.seq_of ip fn.Summary.fn_id in
        let via (op : Interproc.sop) =
          match op.Interproc.so_via with
          | Some callee -> Printf.sprintf " (via %s)" (Interproc.display ip callee)
          | None -> ""
        in
        let same_splice a b = a <> 0 && a = b in
        let voted = ref None in
        List.iter
          (fun (op : Interproc.sop) ->
            match op.Interproc.so_kind with
            | Interproc.Proto Summary.Append ->
                voted := Some (op.Interproc.so_inst, op.Interproc.so_line)
            | Interproc.Proto (Summary.Decide_commit | Summary.Decide_abort) -> voted := None
            | Interproc.Proto Summary.Release -> (
                match !voted with
                | Some (vinst, vline) when not (same_splice vinst op.Interproc.so_inst) ->
                    voted := None;
                    emit ~rel ~line:op.Interproc.so_line ~col:0
                      (Printf.sprintf
                         "lock release%s while the yes-vote appended at line %d is undecided; \
                          log decide_commit/decide_abort before releasing"
                         (via op) vline)
                | _ -> ())
            | _ -> ())
          seq;
        let _, last_append, last_transfer =
          List.fold_left
            (fun (i, la, lt) (op : Interproc.sop) ->
              match op.Interproc.so_kind with
              | Interproc.Proto Summary.Append -> (i + 1, Some (i, op), lt)
              | Interproc.Proto Summary.Transfer -> (i + 1, la, Some (i, op))
              | _ -> (i + 1, la, lt))
            (0, None, None) seq
        in
        match (last_append, last_transfer) with
        | Some (ia, a), Some (it, t)
          when ia > it && not (same_splice a.Interproc.so_inst t.Interproc.so_inst) ->
            emit ~rel ~line:a.Interproc.so_line ~col:0
              (Printf.sprintf
                 "redo-log append%s after the last reply transfer (line %d); the yes-vote \
                  must be durable before the coordinator can learn it"
                 (via a) t.Interproc.so_line)
        | _ -> ())
      (Interproc.functions ip)
  in
  {
    id = "protocol-order";
    severity = Diag.Error;
    doc = "append-before-vote and decision-before-unlock hold on coordinator/recovery paths";
    scope = Paths.coordination;
    exclude = [];
    kind = Global check;
  }

(* ------------------------------------------------------------------ *)
(* 9. blocking-under-lock                                               *)
(* ------------------------------------------------------------------ *)

(* A fiber that parks on a scheduler wait (Ivar.read, Mailbox.recv,
   Semaphore.acquire, Mutex.lock, Sim.suspend) while Lock_table ranges
   are held stalls every conflicting minitransaction until another
   fiber acts — under a crash storm that is a distributed deadlock.
   Checked over the spliced sequence, so waits buried in callees are
   seen; a wait and an acquire inside the same callee are that
   callee's own report. *)
let blocking_under_lock =
  let check ip ~emit =
    List.iter
      (fun (fn : Summary.fn) ->
        let locked = ref None in
        List.iter
          (fun (op : Interproc.sop) ->
            match op.Interproc.so_kind with
            | Interproc.Proto Summary.Acquire ->
                locked := Some (op.Interproc.so_inst, op.Interproc.so_line)
            | Interproc.Proto Summary.Release -> locked := None
            | Interproc.Block -> (
                match !locked with
                | Some (linst, lline)
                  when not (linst <> 0 && linst = op.Interproc.so_inst) ->
                    let via =
                      match op.Interproc.so_via with
                      | Some callee ->
                          Printf.sprintf " (via %s)" (Interproc.display ip callee)
                      | None -> ""
                    in
                    emit ~rel:fn.Summary.fn_rel ~line:op.Interproc.so_line ~col:0
                      (Printf.sprintf
                         "%s%s parks this fiber while locks acquired at line %d are held; a \
                          blocked fiber under held ranges stalls every conflicting \
                          minitransaction"
                         op.Interproc.so_what via lline)
                | _ -> ())
            | _ -> ())
          (Interproc.seq_of ip fn.Summary.fn_id))
      (Interproc.functions ip)
  in
  {
    id = "blocking-under-lock";
    severity = Diag.Error;
    doc = "no scheduler wait is reachable while Lock_table ranges are held";
    scope = Paths.protocol;
    exclude = [];
    kind = Global check;
  }

let all =
  [
    crashed_swallow;
    nondet_iteration;
    wallclock_rng;
    partial_stdlib;
    poly_compare;
    transitive_nondet;
    crash_swallow_transitive;
    protocol_order;
    blocking_under_lock;
  ]

let ids = List.map (fun r -> r.id) all

let find id = List.find_opt (fun r -> r.id = id) all
