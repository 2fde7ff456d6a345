type mode = Shared | Exclusive

type range = { start : int; len : int; mode : mode }

type held = { h_start : int; h_len : int; h_owner : int64; h_mode : mode; h_since : float }

type t = {
  mutable held : held list;
  (* Wake-ups registered by blocked acquirers; drained on every release. *)
  mutable waiters : (unit -> unit) list;
}

let create () = { held = []; waiters = [] }

let overlaps a b = a.h_start < b.h_start + b.h_len && b.h_start < a.h_start + a.h_len

let validate ranges =
  List.iter
    (fun r ->
      if r.len <= 0 then invalid_arg "Lock_table: range length must be positive";
      if r.start < 0 then invalid_arg "Lock_table: negative range start")
    ranges

let conflicts t ~owner ranges =
  List.exists
    (fun r ->
      let candidate =
      { h_start = r.start; h_len = r.len; h_owner = owner; h_mode = r.mode; h_since = 0.0 }
    in
      List.exists
        (fun h ->
          h.h_owner <> owner
          && (h.h_mode = Exclusive || candidate.h_mode = Exclusive)
          && overlaps h candidate)
        t.held)
    ranges

let try_acquire t ~owner ranges =
  validate ranges;
  if conflicts t ~owner ranges then false
  else begin
    let now = if Sim.inside () then Sim.now () else 0.0 in
    let add r = { h_start = r.start; h_len = r.len; h_owner = owner; h_mode = r.mode; h_since = now } in
    t.held <- List.rev_append (List.rev_map add ranges) t.held;
    true
  end

let release t ~owner =
  t.held <- List.filter (fun h -> h.h_owner <> owner) t.held;
  let waiters = t.waiters in
  t.waiters <- [];
  List.iter (fun wake -> wake ()) waiters

let holds t ~owner = List.exists (fun h -> h.h_owner = owner) t.held

let owners_older_than t cutoff =
  List.filter_map (fun h -> if h.h_since < cutoff then Some h.h_owner else None) t.held
  |> List.sort_uniq Int64.compare

let held_ranges t = List.length t.held

(* Blocking acquisition: retry on every release event until the deadline.
   Each wait round suspends until either a release occurs or the deadline
   timer fires, whichever comes first (the loser of the race is ignored
   thanks to Sim.suspend's single-shot wakener). *)
let acquire_blocking t ~owner ranges ~timeout =
  validate ranges;
  let deadline = Sim.now () +. timeout in
  let rec attempt () =
    if try_acquire t ~owner ranges then true
    else if Sim.now () >= deadline then false
    else begin
      let outcome =
        Sim.suspend (fun wake ->
            t.waiters <- (fun () -> wake `Released) :: t.waiters;
            Sim.spawn (fun () ->
                Sim.delay (deadline -. Sim.now ());
                wake `Timeout))
      in
      match outcome with `Released -> attempt () | `Timeout -> false
    end
  in
  attempt ()
