(* Interactive shell over a simulated Minuet cluster.

     dune exec bin/minuet_shell.exe            # linear snapshots
     dune exec bin/minuet_shell.exe -- -b      # branching versions

   The whole distributed system (memnodes, proxies, replication) runs
   inside the deterministic simulator; each command executes real
   transactions and reports the simulated time they took. *)

let help_linear =
  {|commands (linear-snapshot mode):
  put <key> <value>        transactional insert/update
  get <key>                transactional read
  del <key>                transactional delete
  scan <from> <count>      ordered range scan (against the tip)
  snapshot                 take a consistent snapshot via the SCS
  sget <id> <key>          read from snapshot <id> (from `snapshot`)
  sscan <id> <from> <n>    scan snapshot <id>
  crash <host>             crash a memnode (fails over to its replica)
  recover <host>           recover a crashed memnode
  stats                    cluster utilization and protocol metrics
  help | quit|}

let help_branching =
  {|commands (branching-version mode):
  put <key> <value>        write to the current version (must be a tip)
  get <key>                read from the current version
  del <key>                delete from the current version
  scan <from> <count>      ordered range scan of the current version
  branch [<from>]          create a branch (default: current version)
  checkout <id>            switch the current version
  versions                 list known versions and their status
  history <key>            the key's value along the current ancestry
  diff <a> <b>             compare two versions
  delete <id>              delete a leaf version (what-if cleanup)
  stats                    cluster utilization and protocol metrics
  help | quit|}

let tokens line =
  String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")

let timed f =
  let t0 = Sim.now () in
  let r = f () in
  Printf.printf "  (%.3f ms simulated)\n" ((Sim.now () -. t0) *. 1e3);
  r

let print_opt = function
  | Some v -> Printf.printf "  %S\n" v
  | None -> Printf.printf "  (not found)\n"

let print_entries entries =
  List.iter (fun (k, v) -> Printf.printf "  %s = %S\n" k v) entries;
  Printf.printf "  %d entries\n" (List.length entries)

(* Bad input (a non-numeric argument, an unknown host) fails one
   command, never the shell. *)
let guarded f =
  try f () with Failure m | Invalid_argument m -> Printf.printf "  error: %s\n" m

let linear_loop db =
  let session = Minuet.Session.attach db in
  let snapshots : (int, Minuet.Session.snapshot) Hashtbl.t = Hashtbl.create 8 in
  let next_snap = ref 0 in
  let run = function
    | [ "help" ] -> print_endline help_linear
    | [ "put"; k; v ] -> timed (fun () -> Minuet.Session.put session k v)
    | [ "get"; k ] -> print_opt (timed (fun () -> Minuet.Session.get session k))
    | [ "del"; k ] ->
        Printf.printf "  removed: %b\n" (timed (fun () -> Minuet.Session.remove session k))
    | [ "scan"; from; count ] ->
        let count = int_of_string count in
        print_entries (timed (fun () -> Minuet.Session.scan session ~from ~count))
    | [ "snapshot" ] ->
        let snap = timed (fun () -> Minuet.Session.snapshot session) in
        incr next_snap;
        Hashtbl.replace snapshots !next_snap snap;
        Printf.printf "  snapshot #%d (internal id %Ld)\n" !next_snap snap.Minuet.Session.sid
    | [ "sget"; id; k ] -> (
        match Hashtbl.find_opt snapshots (int_of_string id) with
        | Some snap -> print_opt (timed (fun () -> Minuet.Session.get_at session snap k))
        | None -> print_endline "  unknown snapshot (use `snapshot` first)")
    | [ "sscan"; id; from; count ] -> (
        let count = int_of_string count in
        match Hashtbl.find_opt snapshots (int_of_string id) with
        | Some snap ->
            print_entries (timed (fun () -> Minuet.Session.scan_at session snap ~from ~count))
        | None -> print_endline "  unknown snapshot")
    | [ "crash"; host ] ->
        Minuet.Db.crash_host db (int_of_string host);
        print_endline "  crashed"
    | [ "recover"; host ] -> (
        match Minuet.Db.recover_host db (int_of_string host) with
        | Ok () -> print_endline "  recovered"
        | Error e -> Printf.printf "  error: %s\n" (Sinfonia.Cluster.recover_error_to_string e))
    | [ "stats" ] -> Format.printf "%a@." Minuet.Db.pp_stats db
    | _ -> print_endline "  ? (try `help`)"
  in
  let rec loop () =
    print_string "minuet> ";
    match tokens (try read_line () with End_of_file -> "quit") with
    | [ "quit" ] | [ "exit" ] -> ()
    | [] -> loop ()
    | cmd ->
        guarded (fun () -> run cmd);
        loop ()
  in
  print_endline "Minuet shell — simulated cluster, linear snapshots. `help` for commands.";
  loop ()

let branching_loop db =
  let session = Minuet.Session.attach db in
  let br = Minuet.Session.branching session in
  let current = ref 0L in
  let show_version sid =
    let status =
      if Mvcc.Branching.is_deleted br ~sid then "deleted"
      else if Mvcc.Branching.writable br ~sid then "writable"
      else "read-only"
    in
    let parent =
      match Mvcc.Branching.parent br ~sid with
      | Some p -> Printf.sprintf "parent %Ld" p
      | None -> "root"
    in
    Printf.printf "  v%Ld  %-9s %s%s\n" sid status parent
      (if Int64.equal sid !current then "   <- current" else "")
  in
  let run = function
    | [ "help" ] -> print_endline help_branching
    | [ "put"; k; v ] -> timed (fun () -> Mvcc.Branching.put br ~at:!current k v)
    | [ "get"; k ] -> print_opt (timed (fun () -> Mvcc.Branching.get br ~at:!current k))
    | [ "del"; k ] ->
        Printf.printf "  removed: %b\n" (timed (fun () -> Mvcc.Branching.remove br ~at:!current k))
    | [ "scan"; from; count ] ->
        let count = int_of_string count in
        print_entries (timed (fun () -> Mvcc.Branching.scan ~at:!current br ~from ~count))
    | [ "branch" ] | [ "branch"; _ ] as cmd -> (
        let from = match cmd with [ _; f ] -> Int64.of_string f | _ -> !current in
        match timed (fun () -> Mvcc.Branching.create_branch br ~from) with
        | sid ->
            Printf.printf "  created v%Ld from v%Ld\n" sid from;
            current := sid
        | exception Mvcc.Branching.Too_many_branches _ ->
            print_endline "  error: branching factor (beta) exceeded")
    | [ "checkout"; id ] ->
        let sid = Int64.of_string id in
        if Mvcc.Branching.snapshot_exists br ~sid then current := sid
        else print_endline "  unknown version"
    | [ "versions" ] ->
        let rec show sid =
          if Mvcc.Branching.snapshot_exists br ~sid || Mvcc.Branching.is_deleted br ~sid then begin
            show_version sid;
            show (Int64.add sid 1L)
          end
        in
        show 0L
    | [ "history"; k ] ->
        List.iter
          (fun (sid, v) ->
            Printf.printf "  v%Ld: %s\n" sid
              (match v with Some v -> Printf.sprintf "%S" v | None -> "(absent)"))
          (timed (fun () -> Mvcc.Branching.history br ~from:!current k))
    | [ "diff"; a; b ] ->
        let base = Int64.of_string a and other = Int64.of_string b in
        List.iter
          (fun (k, change) ->
            match change with
            | Mvcc.Branching.Added v -> Printf.printf "  + %s = %S\n" k v
            | Mvcc.Branching.Removed v -> Printf.printf "  - %s (was %S)\n" k v
            | Mvcc.Branching.Changed (x, y) -> Printf.printf "  ~ %s: %S -> %S\n" k x y)
          (timed (fun () -> Mvcc.Branching.diff br ~base ~other))
    | [ "delete"; id ] -> (
        try
          Mvcc.Branching.delete_branch br (Int64.of_string id);
          print_endline "  deleted"
        with Mvcc.Branching.Not_deletable m -> Printf.printf "  error: %s\n" m)
    | [ "stats" ] -> Format.printf "%a@." Minuet.Db.pp_stats db
    | _ -> print_endline "  ? (try `help`)"
  in
  let rec loop () =
    Printf.printf "minuet[v%Ld]> " !current;
    match tokens (try read_line () with End_of_file -> "quit") with
    | [ "quit" ] | [ "exit" ] -> ()
    | [] -> loop ()
    | cmd ->
        guarded (fun () -> run cmd);
        loop ()
  in
  print_endline "Minuet shell — simulated cluster, branching versions. `help` for commands.";
  loop ()

let () =
  let branching = Array.exists (fun a -> a = "-b" || a = "--branching") Sys.argv in
  let config = { Minuet.Config.default with Minuet.Config.branching } in
  Minuet.Harness.run ~config (fun db ->
      if branching then branching_loop db else linear_loop db)
