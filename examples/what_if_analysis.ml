(* What-if analysis with writable clones (Sec. 5 of the paper).

   An analyst manages a book of investment positions stored in Minuet.
   She wants to evaluate two rebalancing strategies without touching the
   live book: each strategy gets its own writable clone (branch) of the
   data, is applied there, and the outcomes are compared — "like
   revision control, but for B-trees". It exits nonzero if a strategy
   changes the book's total value or the rejected branch's storage is
   not reclaimed.

   Run with:  dune exec examples/what_if_analysis.exe *)

let positions =
  [
    ("pos:bonds", 400_000);
    ("pos:equities", 350_000);
    ("pos:commodities", 150_000);
    ("pos:cash", 100_000);
  ]

let value_of br sid key =
  match Mvcc.Branching.get br ~at:sid key with
  | Some v -> int_of_string v
  | None -> 0

let total br sid =
  List.fold_left (fun acc (k, _) -> acc + value_of br sid k) 0 positions

let show br ~label sid =
  Printf.printf "%-22s" label;
  List.iter (fun (k, _) -> Printf.printf " %s=%d" k (value_of br sid k)) positions;
  Printf.printf " total=%d\n" (total br sid)

let () =
  let config = { Minuet.Config.default with Minuet.Config.branching = true; beta = 2 } in
  Minuet.Harness.run ~config (fun db ->
      let session = Minuet.Session.attach db in
      let book = Minuet.Session.branching session in

      (* Load the live book (snapshot 0 is the initial writable tip). *)
      List.iter
        (fun (k, v) -> Mvcc.Branching.put book k (string_of_int v))
        positions;
      show book ~label:"live book (v0)" 0L;

      (* Freeze the book and branch two parallel what-if clones. The
         first branch continues the mainline; the others are side
         branches. *)
      let mainline = Mvcc.Branching.create_branch book ~from:0L in
      let aggressive = Mvcc.Branching.create_branch book ~from:0L in
      Printf.printf "\ncreated mainline=%Ld and what-if clone=%Ld from v0\n\n" mainline
        aggressive;

      (* Strategy A (on the mainline): shift 100k bonds -> equities. *)
      Mvcc.Branching.put book ~at:mainline "pos:bonds" "300000";
      Mvcc.Branching.put book ~at:mainline "pos:equities" "450000";

      (* Strategy B (on the clone): all cash+bonds into commodities. *)
      Mvcc.Branching.put book ~at:aggressive "pos:bonds" "0";
      Mvcc.Branching.put book ~at:aggressive "pos:cash" "0";
      Mvcc.Branching.put book ~at:aggressive "pos:commodities" "650000";

      (* The three versions coexist; queries may compare them
         transactionally. *)
      show book ~label:"original (frozen v0)" 0L;
      show book ~label:"strategy A" mainline;
      show book ~label:"strategy B" aggressive;

      (* Integrity check across versions: no strategy may change the
         total book value. *)
      let base = total book 0L in
      let conserved =
        List.map
          (fun (name, sid) ->
            let t = total book sid in
            Printf.printf "%s conserves value: %b (%d vs %d)\n" name (t = base) t base;
            t = base)
          [ ("strategy A", mainline); ("strategy B", aggressive) ]
        |> List.for_all Fun.id
      in

      (* Sub-branch strategy A for a further tweak, demonstrating deeper
         version trees. *)
      let tweak = Mvcc.Branching.create_branch book ~from:mainline in
      Mvcc.Branching.put book ~at:tweak "pos:cash" "50000";
      Mvcc.Branching.put book ~at:tweak "pos:equities" "500000";
      Printf.printf "\nsub-branch %Ld of strategy A:\n" tweak;
      show book ~label:"strategy A + tweak" tweak;
      show book ~label:"strategy A (frozen)" mainline;

      (* Horizontal query: one position across every strategy at once,
         in a single transaction. *)
      Printf.printf "\npos:bonds across versions: ";
      List.iter
        (fun (sid, v) -> Printf.printf "v%Ld=%s " sid (Option.value v ~default:"-"))
        (Mvcc.Branching.get_many book ~at:[ 0L; mainline; aggressive; tweak ] "pos:bonds");
      print_newline ();

      (* Vertical query: how pos:equities evolved along the tweak's
         ancestry. *)
      Printf.printf "pos:equities history on the tweak line: ";
      List.iter
        (fun (sid, v) -> Printf.printf "v%Ld=%s " sid (Option.value v ~default:"-"))
        (Mvcc.Branching.history book ~from:tweak "pos:equities");
      print_newline ();

      (* Structured diff between the original book and strategy B. *)
      Printf.printf "\ndiff v0 -> strategy B:\n";
      List.iter
        (fun (k, change) ->
          match change with
          | Mvcc.Branching.Changed (a, b) -> Printf.printf "  ~ %s: %s -> %s\n" k a b
          | Mvcc.Branching.Added v -> Printf.printf "  + %s = %s\n" k v
          | Mvcc.Branching.Removed v -> Printf.printf "  - %s (was %s)\n" k v)
        (Mvcc.Branching.diff book ~base:0L ~other:aggressive);

      (* Strategy B is rejected: delete the what-if branch and reclaim
         its copy-on-write storage. *)
      Mvcc.Branching.delete_branch book aggressive;
      let alloc_for_gc =
        (* Reuse the session's allocator infrastructure via a scratch
           handle; reclaimed slots return to the shared free lists. *)
        Minuet.Db.shared_alloc db |> fun shared ->
        Btree.Node_alloc.create
          ~cluster:(Minuet.Db.cluster db)
          ~layout:(Btree.Ops.layout (Mvcc.Branching.tree book))
          ~shared ()
      in
      let freed =
        Mvcc.Gc.sweep_branching
          [ Mvcc.Branching.tree book ]
          ~alloc:alloc_for_gc
          ~roots:(Mvcc.Branching.live_roots book)
      in
      Printf.printf "\nstrategy B rejected: branch %Ld deleted, %d node versions reclaimed\n"
        aggressive freed;
      show book ~label:"strategy A (kept)" mainline;
      if (not conserved) || freed = 0 then begin
        print_endline "FAILED: a what-if guarantee did not hold";
        exit 1
      end)
