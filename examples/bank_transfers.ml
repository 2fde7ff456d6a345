(* Multi-key transactions: concurrent bank transfers.

   Account balances live in Minuet; transfers are arbitrary
   read-modify-write transactions built with `Session.with_txn` — the
   paper's dynamic-transaction layer exposed directly. Many concurrent
   transfer processes race on a small set of accounts; optimistic
   concurrency control retries the conflicts, and the invariant (total
   money is conserved) must hold at the end — and at every instant, as
   a concurrent snapshot-based auditor verifies. It exits nonzero if
   either check fails.

   Run with:  dune exec examples/bank_transfers.exe *)

let accounts = 20

let initial_balance = 1_000

let account i = Printf.sprintf "acct:%04d" i

let balance_of s = int_of_string s

let () =
  Minuet.Harness.run (fun db ->
      let session = Minuet.Session.attach db in
      for i = 0 to accounts - 1 do
        Minuet.Session.put session (account i) (string_of_int initial_balance)
      done;
      let total = accounts * initial_balance in
      Printf.printf "opened %d accounts, total balance %d\n%!" accounts total;

      (* Transfer workers: move random amounts between random accounts,
         atomically, rejecting overdrafts. *)
      let transfers = ref 0 and rejected = ref 0 in
      let workers = 6 and per_worker = 200 in
      let rng = Sim.Rng.create 99 in
      for w = 0 to workers - 1 do
        let rng = Sim.Rng.split rng in
        let s = Minuet.Session.attach ~home:(w mod 4) db in
        Sim.spawn (fun () ->
            for _ = 1 to per_worker do
              let from_acct = account (Sim.Rng.int rng accounts) in
              let to_acct = account (Sim.Rng.int rng accounts) in
              let amount = 1 + Sim.Rng.int rng 250 in
              let ok =
                Minuet.Session.with_txn s (fun tx ->
                    let from_balance =
                      balance_of (Option.get (Minuet.Session.t_get tx from_acct))
                    in
                    if from_balance < amount || from_acct = to_acct then false
                    else begin
                      let to_balance =
                        balance_of (Option.get (Minuet.Session.t_get tx to_acct))
                      in
                      Minuet.Session.t_put tx from_acct (string_of_int (from_balance - amount));
                      Minuet.Session.t_put tx to_acct (string_of_int (to_balance + amount));
                      true
                    end)
              in
              if ok then incr transfers else incr rejected
            done)
      done;

      (* Auditor: while transfers fly, repeatedly total the balances
         from consistent snapshots. Any torn transfer would show up as
         a wrong total. *)
      let audits = ref 0 and violations = ref 0 in
      Sim.spawn (fun () ->
          for _ = 1 to 10 do
            Sim.delay 0.02;
            let snap = Minuet.Session.snapshot session in
            let balances =
              Minuet.Session.scan_at session snap ~from:"acct:" ~count:accounts
            in
            let sum = List.fold_left (fun acc (_, v) -> acc + balance_of v) 0 balances in
            incr audits;
            if sum <> total then begin
              incr violations;
              Printf.printf "AUDIT VIOLATION: snapshot total %d != %d\n%!" sum total
            end
          done);

      Sim.delay 600.0;
      Printf.printf "%d transfers committed, %d rejected (overdraft/self)\n" !transfers !rejected;
      Printf.printf "%d concurrent audits, %d violations\n" !audits !violations;
      let final =
        Minuet.Session.scan session ~from:"acct:" ~count:accounts
        |> List.fold_left (fun acc (_, v) -> acc + balance_of v) 0
      in
      Printf.printf "final total: %d (conserved: %b)\n" final (final = total);
      if final <> total || !violations > 0 then begin
        print_endline "FAILED: money was not conserved";
        exit 1
      end)
