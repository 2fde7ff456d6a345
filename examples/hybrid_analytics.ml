(* Hybrid OLTP + analytics — the paper's headline use case (Sec. 1).

   An online store keeps per-order state in Minuet. A stream of
   transactional updates (orders being placed and amended) runs
   continuously while an analytics job repeatedly scans the whole order
   book from consistent snapshots to compute revenue — without blocking
   the updates and without ever aborting. It exits nonzero if a scan
   misses an order or GC reclaims nothing.

   Run with:  dune exec examples/hybrid_analytics.exe *)

let orders = 5_000

let key i = Printf.sprintf "order:%08d" i

(* Order value encoded as a decimal amount in cents. *)
let amount rng = 100 + Sim.Rng.int rng 99_900

let () =
  Minuet.Harness.run (fun db ->
      (* Old snapshots are garbage-collected in the background; the three
         most recent stay queryable (Sec. 4.4). *)
      Minuet.Db.enable_gc ~interval:0.5 ~keep:3 db;
      let writer = Minuet.Session.attach ~home:0 db in
      let analyst = Minuet.Session.attach ~home:1 db in
      let rng = Sim.Rng.create 7 in

      (* Seed the order book. *)
      for i = 0 to orders - 1 do
        Minuet.Session.put writer (key i) (string_of_int (amount rng))
      done;
      Printf.printf "loaded %d orders\n%!" orders;

      (* OLTP: amend random orders as fast as the cluster allows, for
         two simulated seconds. *)
      let updates = ref 0 in
      let deadline = Sim.now () +. 2.0 in
      Sim.spawn (fun () ->
          while Sim.now () < deadline do
            let i = Sim.Rng.int rng orders in
            Minuet.Session.put writer (key i) (string_of_int (amount rng));
            incr updates
          done);

      (* Analytics: every 250 simulated ms, scan the full book from a
         fresh snapshot and total the revenue. Each scan sees one
         consistent point-in-time state. *)
      let scans = ref 0 and short_scans = ref 0 in
      Sim.spawn (fun () ->
          while Sim.now () < deadline do
            Sim.delay 0.25;
            let t0 = Sim.now () in
            let snapshot = Minuet.Session.snapshot analyst in
            let book = Minuet.Session.scan_at analyst snapshot ~from:"order:" ~count:orders in
            let revenue =
              List.fold_left (fun acc (_, v) -> acc + int_of_string v) 0 book
            in
            incr scans;
            if List.length book <> orders then incr short_scans;
            Printf.printf
              "t=%5.2fs scan #%d: %d orders, revenue=%d cents (snapshot %Ld, %.1f ms)\n%!"
              (Sim.now ()) !scans (List.length book) revenue snapshot.Minuet.Session.sid
              ((Sim.now () -. t0) *. 1e3)
          done);

      (* Let the simulation run to the deadline. *)
      Sim.delay 2.2;
      Printf.printf "\ncompleted %d updates concurrently with %d full-book scans\n" !updates
        !scans;
      let reclaimed = Obs.Counter.value (Obs.gc (Minuet.Db.obs db)).Obs.slots_reclaimed in
      if !short_scans = 0 then
        Printf.printf "every scan saw a consistent snapshot; no scan ever aborted or blocked\n";
      Printf.printf "gc reclaimed %d superseded node versions along the way\n" reclaimed;
      if !short_scans > 0 || reclaimed = 0 then begin
        Printf.printf "FAILED: %d scan(s) missed orders; gc reclaimed %d slots\n" !short_scans
          reclaimed;
        exit 1
      end;
      Sim.stop ())
