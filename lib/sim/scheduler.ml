type time = float

type scheduler = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : time;
  mutable stopped : bool;
  root_rng : Rng.t;
}

(* The scheduler for the currently-running simulation. Simulations are
   single-threaded and do not nest, so one global slot suffices; it also
   lets wakeners created inside one process resume processes from
   another without threading the scheduler everywhere. *)
let current : scheduler option ref = ref None

let inside () = Option.is_some !current

let get () =
  match !current with
  | Some s -> s
  | None -> invalid_arg "Sim: called outside of Scheduler.run"

(* Only the operations that capture a continuation are effects; the
   clock and the run queue are plain fields of the one global
   scheduler. *)
type _ Effect.t +=
  | Delay : time -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let now () =
  match !current with
  | Some s -> s.clock
  | None -> invalid_arg "Sim.now: outside of Scheduler.run"

let delay d = Effect.perform (Delay (if d < 0.0 then 0.0 else d))

let yield () = Effect.perform (Delay 0.0)

let suspend register = Effect.perform (Suspend register)

let rng () = (get ()).root_rng

let stop () = (get ()).stopped <- true

(* Per-process trace context: an opaque span id owned by the tracing
   layer (0 = no active span). The slot rides along with each process
   across suspension points and is inherited by spawned children, which
   is what lets a tracer attribute work to the span that caused it
   without threading a handle through every call. *)
let ctx : int ref = ref 0

let trace_context () = !ctx

let set_trace_context v = ctx := v

let schedule s thunk = Event_queue.push s.queue ~time:s.clock thunk

let schedule_at s ~time thunk = Event_queue.push s.queue ~time thunk

(* Execute a process body under the effect handler. Each process gets
   its own (deep) handler, so continuations captured inside it resume
   under the same handler. A [Suspend] registration runs inline in the
   handler, outside any process: it may spawn, read the clock and wake,
   but an effect it performs has no handler and aborts the run. *)
let exec : scheduler -> string option -> (unit -> unit) -> unit =
 fun s name body ->
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          Logs.err (fun m ->
              m "process %s died: %s" (Option.value name ~default:"<anon>") (Printexc.to_string e));
          Printexc.raise_with_backtrace e bt);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let saved = !ctx in
                  schedule_at s ~time:(s.clock +. d) (fun () ->
                      ctx := saved;
                      continue k ()))
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let saved = !ctx in
                  let fired = ref false in
                  let wake v =
                    if not !fired then begin
                      fired := true;
                      schedule s (fun () ->
                          ctx := saved;
                          continue k v)
                    end
                  in
                  register wake)
          | _ -> None);
    }

let spawn ?name f =
  let s = get () in
  let inherited = !ctx in
  schedule s (fun () ->
      ctx := inherited;
      exec s name f)

let run ?(seed = 0x4d696e) ?until main =
  if inside () then invalid_arg "Scheduler.run: simulations do not nest";
  let s =
    { queue = Event_queue.create (); clock = 0.0; stopped = false; root_rng = Rng.create seed }
  in
  current := Some s;
  ctx := 0;
  let finish () =
    Event_queue.clear s.queue;
    current := None;
    ctx := 0
  in
  (try
     exec s (Some "main") main;
     let running = ref true in
     while !running && not s.stopped do
       match Event_queue.pop s.queue with
       | None -> running := false
       | Some (time, thunk) -> (
           match until with
           | Some u when time > u -> running := false
           | _ ->
               s.clock <- time;
               thunk ())
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     finish ();
     Printexc.raise_with_backtrace e bt);
  finish ()

module Mailbox = struct
  type 'a t = { items : 'a Queue.t; waiters : ('a -> unit) Queue.t }

  let create () = { items = Queue.create (); waiters = Queue.create () }

  let send t v =
    match Queue.take_opt t.waiters with
    | Some wake -> wake v
    | None -> Queue.add v t.items

  let recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None -> suspend (fun wake -> Queue.add wake t.waiters)

  let try_recv t = Queue.take_opt t.items

  let length t = Queue.length t.items
end

module Ivar = struct
  type 'a state = Empty of ('a -> unit) Queue.t | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty (Queue.create ()) }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Sim.Ivar.fill: already filled"
    | Empty waiters ->
        t.state <- Full v;
        Queue.iter (fun wake -> wake v) waiters

  let read t =
    match t.state with
    | Full v -> v
    | Empty waiters -> suspend (fun wake -> Queue.add wake waiters)

  let is_filled t = match t.state with Full _ -> true | Empty _ -> false
end

module Semaphore = struct
  type t = { mutable free : int; waiters : (unit -> unit) Queue.t }

  let create n =
    if n < 0 then invalid_arg "Sim.Semaphore.create: negative capacity";
    { free = n; waiters = Queue.create () }

  let acquire t =
    if t.free > 0 then t.free <- t.free - 1
    else suspend (fun wake -> Queue.add wake t.waiters)

  let release t =
    match Queue.take_opt t.waiters with
    | Some wake -> wake ()
    | None -> t.free <- t.free + 1

  let with_acquired t f =
    acquire t;
    match f () with
    | v ->
        release t;
        v
    | exception e ->
        release t;
        raise e
end
