module Hist = Sim.Stats.Hist

type result = {
  measured_seconds : float;
  ops : int;
  failures : int;
  throughput : float;
  latency_by_kind : (string * Hist.t) list;
  series : (float * int) array;
}

let overall_latency r =
  let merged = Hist.create () in
  List.iter (fun (_, h) -> Hist.merge_into ~dst:merged h) r.latency_by_kind;
  merged

let kind_latency r kind =
  match List.assoc_opt kind r.latency_by_kind with Some h -> h | None -> Hist.create ()

type shared = {
  mutable ops : int;
  mutable failures : int;
  hists : (string, Hist.t) Hashtbl.t;
  series : Sim.Stats.Series.t;
  warmup_end : float;
}

let hist_for shared kind =
  match Hashtbl.find_opt shared.hists kind with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add shared.hists kind h;
      h

let execute_one shared ~exec ~client op =
  let t0 = Sim.now () in
  match exec ~client op with
  | () ->
      let elapsed = Sim.now () -. t0 in
      Sim.Stats.Series.add shared.series ~time:(Sim.now ()) 1;
      if Sim.now () >= shared.warmup_end then begin
        shared.ops <- shared.ops + 1;
        Hist.add (hist_for shared (Workload.op_kind op)) elapsed
      end
  | exception _ -> shared.failures <- shared.failures + 1

let finalize shared ~measured_seconds =
  let latency_by_kind =
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) shared.hists []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    measured_seconds;
    ops = shared.ops;
    failures = shared.failures;
    throughput = (if measured_seconds > 0.0 then float_of_int shared.ops /. measured_seconds else 0.0);
    latency_by_kind;
    series = Sim.Stats.Series.buckets shared.series;
  }

let run ?(warmup = 0.0) ?(seed = 0x9C5B) ~clients ~duration ~workload_of ~exec () =
  if clients <= 0 then invalid_arg "Driver.run: clients must be positive";
  if duration <= warmup then invalid_arg "Driver.run: duration must exceed warmup";
  let start = Sim.now () in
  let t_end = start +. duration in
  let shared =
    {
      ops = 0;
      failures = 0;
      hists = Hashtbl.create 8;
      series = Sim.Stats.Series.create ~width:1.0;
      warmup_end = start +. warmup;
    }
  in
  let root_rng = Sim.Rng.create seed in
  let finished = Sim.Ivar.create () in
  let remaining = ref clients in
  for client = 0 to clients - 1 do
    let rng = Sim.Rng.split root_rng in
    let workload = workload_of client in
    Sim.spawn ~name:(Printf.sprintf "ycsb-client-%d" client) (fun () ->
        let rec loop () =
          if Sim.now () < t_end then begin
            execute_one shared ~exec ~client (Workload.next_op workload rng);
            loop ()
          end
        in
        loop ();
        decr remaining;
        if !remaining = 0 then Sim.Ivar.fill finished ())
  done;
  Sim.Ivar.read finished;
  finalize shared ~measured_seconds:(Sim.now () -. shared.warmup_end)
