(* Fault tolerance: Sinfonia's primary-backup replication keeps Minuet
   available through a memnode crash (Sec. 2.1).

   A workload runs while one memnode crashes and later recovers; all
   data stays readable and writable throughout, served by the crashed
   node's replica on its backup. The example asserts those guarantees —
   it exits nonzero if any read goes missing during the outage or any
   item carries the wrong generation after recovery — so it doubles as
   a CI check.

   Run with:  dune exec examples/fault_tolerance.exe *)

let n = 2_000

let key i = Printf.sprintf "item:%06d" i

let failures = ref 0

let expect what expected actual =
  if expected = actual then Printf.printf "%s: %d (ok)\n%!" what actual
  else begin
    Printf.printf "%s: expected %d, got %d (FAIL)\n%!" what expected actual;
    incr failures
  end

let () =
  Minuet.Harness.run (fun db ->
      let session = Minuet.Session.attach db in
      for i = 0 to n - 1 do
        Minuet.Session.put session (key i) "generation-1"
      done;
      Printf.printf "loaded %d items across %d memnodes\n%!" n
        (Minuet.Config.default.Minuet.Config.hosts);

      (* Crash a memnode. Its address space fails over to the replica
         hosted on the next node. *)
      Minuet.Db.crash_host db 1;
      print_endline "memnode 1 crashed; continuing through its backup replica";

      let missing = ref 0 in
      for i = 0 to n - 1 do
        if Minuet.Session.get session (key i) = None then incr missing
      done;
      expect "reads missing during outage" 0 !missing;

      (* Writes keep working too. *)
      for i = 0 to n - 1 do
        if i mod 2 = 0 then Minuet.Session.put session (key i) "generation-2"
      done;
      print_endline "rewrote half the items during the outage";

      (* Bring the node back; its state is restored from the replica. *)
      (match Minuet.Db.recover_host db 1 with
      | Ok () -> print_endline "memnode 1 recovered from its replica"
      | Error e ->
          Printf.printf "recovery refused: %s (FAIL)\n%!"
            (Sinfonia.Cluster.recover_error_to_string e);
          exit 1);

      let gen2 = ref 0 and gen1 = ref 0 and wrong = ref 0 in
      for i = 0 to n - 1 do
        match Minuet.Session.get session (key i) with
        | Some "generation-2" -> incr gen2
        | Some "generation-1" -> incr gen1
        | _ -> incr wrong
      done;
      expect "generation-2 items after recovery" (n / 2) !gen2;
      expect "generation-1 items after recovery" (n / 2) !gen1;
      expect "missing or corrupt items" 0 !wrong;
      (* Even items were rewritten during the outage, odd ones were not:
         the failover and the recovery must both preserve exactly that. *)
      for i = 0 to n - 1 do
        let expected = if i mod 2 = 0 then "generation-2" else "generation-1" in
        match Minuet.Session.get session (key i) with
        | Some v when v = expected -> ()
        | _ -> incr failures
      done;
      if !failures > 0 then begin
        Printf.printf "FAILED: %d check(s) did not hold\n%!" !failures;
        exit 1
      end;
      print_endline "all fault-tolerance checks passed")
