module SMap = Map.Make (String)

type partition = { mutable store : string SMap.t; lane : Sim.Resource.t }

type t = { hosts : int; partitions : partition array; net : Sim.Net.t }

exception Scan_too_large of int

(* The cost model. The paper gives CDB five cores per host, one
   single-threaded partition each. *)
let partitions_per_host = 5

(* Execution-thread time of one single-partition stored procedure. *)
let svc_single = 100e-6

(* Fixed coordination cost of a multi-partition transaction, on top of
   25 µs per participating partition. *)
let svc_multi_coord = 300e-6

(* The commercial system's synchronous client-stack overhead. *)
let client_overhead = 3.2e-3

(* Keys one scan query may return before the per-query memory limit. *)
let scan_limit = 100_000

let create ~hosts =
  if hosts <= 0 then invalid_arg "Cdb.create: hosts must be positive";
  let n = hosts * partitions_per_host in
  {
    hosts;
    partitions =
      Array.init n (fun i ->
          {
            store = SMap.empty;
            lane = Sim.Resource.create ~name:(Printf.sprintf "cdb-partition-%d" i) ~servers:1 ();
          });
    net = Sim.Net.create ~rng:(Sim.Rng.create 0xCDB) ();
  }

let hosts t = t.hosts

let partitions t = Array.length t.partitions

let partition_of t key = Hashtbl.hash key mod Array.length t.partitions

(* The synchronous replica partition for [p] lives on the next host. *)
let replica_of t p = (p + partitions_per_host) mod Array.length t.partitions

(* One synchronous stored-procedure call against partition [p]:
   client-stack overhead, request hop, a slice of the partition's single
   execution thread, reply hop. *)
let call t p f =
  Sim.delay client_overhead;
  Sim.Net.transfer t.net ~bytes:96;
  let part = t.partitions.(p) in
  Sim.Resource.acquire part.lane;
  Sim.delay svc_single;
  let result = f part in
  Sim.Resource.release part.lane;
  Sim.Net.transfer t.net ~bytes:64;
  result

(* Mirror a write to the replica partition (synchronous, sequential so
   that no two lanes are ever held at once). *)
let mirror t p apply =
  let r = replica_of t p in
  if r <> p then begin
    Sim.Net.transfer t.net ~bytes:96;
    let part = t.partitions.(r) in
    Sim.Resource.acquire part.lane;
    Sim.delay (svc_single *. 0.6);
    apply part;
    Sim.Resource.release part.lane;
    Sim.Net.transfer t.net ~bytes:64
  end

let read t key =
  let p = partition_of t key in
  call t p (fun part -> SMap.find_opt key part.store)

let put_raw part key v = part.store <- SMap.add key v part.store

let insert t key v =
  let p = partition_of t key in
  call t p (fun part -> put_raw part key v);
  mirror t p (fun part -> put_raw part key v)

let update = insert

let remove t key =
  let p = partition_of t key in
  let existed = call t p (fun part ->
      let existed = SMap.mem key part.store in
      part.store <- SMap.remove key part.store;
      existed)
  in
  mirror t p (fun part -> part.store <- SMap.remove key part.store);
  existed

(* Multi-partition transaction: the coordinator stalls every partition's
   execution lane for the duration of the two-phase protocol — the
   behaviour that makes Fig. 13's CDB curve collapse. Lanes are acquired
   in index order (no deadlocks; single-partition calls never wait while
   holding a lane). *)
let multi t f =
  Sim.delay client_overhead;
  Sim.Net.transfer t.net ~bytes:128;
  let n = Array.length t.partitions in
  for p = 0 to n - 1 do
    Sim.Resource.acquire t.partitions.(p).lane
  done;
  (* Coordination work grows with participant count: every partition
     exchanges prepare/commit messages with the coordinator. *)
  Sim.delay (svc_multi_coord +. (25e-6 *. float_of_int n));
  let result = f () in
  for p = 0 to n - 1 do
    Sim.Resource.release t.partitions.(p).lane
  done;
  Sim.Net.transfer t.net ~bytes:64;
  result

let multi_read t keys =
  multi t (fun () ->
      List.map
        (fun key -> SMap.find_opt key t.partitions.(partition_of t key).store)
        keys)

let multi_write t pairs =
  multi t (fun () ->
      List.iter
        (fun (key, v) ->
          let p = partition_of t key in
          put_raw t.partitions.(p) key v;
          let r = replica_of t p in
          if r <> p then put_raw t.partitions.(r) key v)
        pairs)

let scan t ~from ~count =
  if count > scan_limit then raise (Scan_too_large count);
  multi t (fun () ->
      (* Gather candidates from every partition and merge. *)
      let candidates = ref [] in
      Array.iteri
        (fun p part ->
          let _, _, above = SMap.split from part.store in
          let taken = ref 0 in
          (try
             SMap.iter
               (fun k v ->
                 if !taken >= count then raise Exit;
                 (* Skip replica copies: only the primary owner reports
                    a key, otherwise the merge would duplicate it. *)
                 if partition_of t k = p then begin
                   candidates := (k, v) :: !candidates;
                   incr taken
                 end)
               (match SMap.find_opt from part.store with
               | Some v -> SMap.add from v above
               | None -> above)
           with Exit -> ()))
        t.partitions;
      let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) !candidates in
      List.filteri (fun i _ -> i < count) sorted)

let size t =
  (* Count primaries only: each record also lives on one replica, so
     divide raw totals is wrong under collisions; instead count keys
     whose primary partition is this one. *)
  Array.to_list t.partitions
  |> List.mapi (fun p part ->
         SMap.fold (fun k _ acc -> if partition_of t k = p then acc + 1 else acc) part.store 0)
  |> List.fold_left ( + ) 0
