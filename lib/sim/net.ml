type fault = { drop : float; extra_latency : float; blocked : bool }

let benign = { drop = 0.0; extra_latency = 0.0; blocked = false }

(* Base one-way latency and per-byte wire cost of a 10 GigE LAN. *)
let one_way = 25e-6

let per_byte = 1e-9

type t = {
  jitter : float;
  rto : float;
  rng : Rng.t;
  mutable messages : int;
  mutable bytes : int;
  mutable drops : int;
  (* Per-link fault state, keyed by directional (src, dst) host pair.
     Absence means a healthy link; lookups happen only on transfers that
     declare endpoints, so anonymous traffic pays nothing. *)
  faults : (int * int, fault) Hashtbl.t;
}

let create ?(jitter = 5e-6) ?(rto = 1e-3) ~rng () =
  {
    jitter;
    rto;
    rng;
    messages = 0;
    bytes = 0;
    drops = 0;
    faults = Hashtbl.create 16;
  }

let sample_one_way t ~bytes =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + bytes;
  let jitter = if t.jitter > 0.0 then Rng.exponential t.rng ~mean:t.jitter else 0.0 in
  one_way +. (per_byte *. float_of_int bytes) +. jitter

let set_fault t ~src ~dst ?(drop = 0.0) ?(extra_latency = 0.0) ?(blocked = false) () =
  if drop < 0.0 || drop > 1.0 then invalid_arg "Net.set_fault: drop must be in [0, 1]";
  if extra_latency < 0.0 then invalid_arg "Net.set_fault: negative extra latency";
  let f = { drop; extra_latency; blocked } in
  if f = benign then Hashtbl.remove t.faults (src, dst)
  else Hashtbl.replace t.faults (src, dst) f

let clear_fault t ~src ~dst = Hashtbl.remove t.faults (src, dst)

let clear_all_faults t = Hashtbl.reset t.faults

let active_faults t = Hashtbl.length t.faults

let link_fault t ~src ~dst =
  match Hashtbl.find_opt t.faults (src, dst) with Some f -> f | None -> benign

let reachable t ~src ~dst = not (link_fault t ~src ~dst).blocked

(* Bound the retransmit loop so a drop probability of 1.0 (or a string of
   unlucky draws) cannot wedge the sender forever; past the cap the
   message is assumed to get through (the link is lossy, not cut — cut
   links are modelled with [blocked] and enforced by protocol-level
   [reachable] checks, never mid-exchange). *)
let max_retransmits = 16

(* The optional endpoints precede the positional [t] so that applying
   [t] erases them: existing callers that never name endpoints keep
   working unchanged. *)
let transfer ?src ?dst t ~bytes =
  match (src, dst) with
  | Some src, Some dst -> (
      match Hashtbl.find_opt t.faults (src, dst) with
      | None -> Scheduler.delay (sample_one_way t ~bytes)
      | Some f ->
          let drop = Float.min f.drop 0.95 in
          let rec attempt tries =
            if tries < max_retransmits && drop > 0.0 && Rng.float t.rng 1.0 < drop then begin
              (* Lost transmission: the bytes went out, the sender waits a
                 full retransmission timeout before trying again. *)
              t.messages <- t.messages + 1;
              t.bytes <- t.bytes + bytes;
              t.drops <- t.drops + 1;
              Scheduler.delay t.rto;
              attempt (tries + 1)
            end
            else Scheduler.delay (sample_one_way t ~bytes +. f.extra_latency)
          in
          attempt 0)
  | _ -> Scheduler.delay (sample_one_way t ~bytes)

let messages_sent t = t.messages

let bytes_sent t = t.bytes

let drops t = t.drops
