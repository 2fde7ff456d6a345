(* Command-line driver for the paper's experiments: run any figure with
   full parameter control, e.g.

     minuet-bench fig12 --hosts 5,15,25,35 --records 50000 --duration 2
     minuet-bench all --full
*)

open Cmdliner
module P = Experiments.Exp_common

let hosts_arg =
  let doc = "Comma-separated cluster sizes to sweep (e.g. 5,15,25,35)." in
  Arg.(value & opt (some (list int)) None & info [ "hosts" ] ~docv:"N,N,..." ~doc)

let records_arg =
  let doc = "Preloaded record count (the paper uses 100M; scaled default)." in
  Arg.(value & opt (some int) None & info [ "records" ] ~docv:"N" ~doc)

let duration_arg =
  let doc = "Measured seconds of simulated time per data point." in
  Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SECONDS" ~doc)

let warmup_arg =
  let doc = "Warmup seconds excluded from measurement." in
  Arg.(value & opt (some float) None & info [ "warmup" ] ~docv:"SECONDS" ~doc)

let clients_arg =
  let doc = "Closed-loop client threads per host." in
  Arg.(value & opt (some int) None & info [ "clients-per-host" ] ~docv:"N" ~doc)

let scan_arg =
  let doc = "Keys per scan for the scan experiments (paper: 1M)." in
  Arg.(value & opt (some int) None & info [ "scan-count" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Deterministic seed; identical seeds reproduce identical runs." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let full_arg =
  let doc = "Start from the 'full' parameter preset (closer to the paper's operating point)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let params full hosts records duration warmup clients scan seed =
  let base = if full then P.full else P.fast in
  {
    P.hosts = Option.value hosts ~default:base.P.hosts;
    records = Option.value records ~default:base.P.records;
    duration = Option.value duration ~default:base.P.duration;
    warmup = Option.value warmup ~default:base.P.warmup;
    clients_per_host = Option.value clients ~default:base.P.clients_per_host;
    scan_count = Option.value scan ~default:base.P.scan_count;
    seed = Option.value seed ~default:base.P.seed;
  }

let params_term =
  Term.(
    const params $ full_arg $ hosts_arg $ records_arg $ duration_arg $ warmup_arg $ clients_arg
    $ scan_arg $ seed_arg)

let figure_cmd ((name, title, _) as figure) =
  let action params = ignore (P.run_figure params figure : P.row list) in
  Cmd.v (Cmd.info name ~doc:title) Term.(const action $ params_term)

let all_cmd =
  let doc =
    "Run every figure of the paper's evaluation in sequence; exit 1 if any figure returns no \
     rows."
  in
  let action params =
    let empty =
      List.filter
        (fun ((name, _, _) as figure) ->
          (* Host seconds per figure, measured outside the simulation;
             nothing seeded depends on them. *)
          let elapsed_ms = Obs.Bench.stopwatch () in
          let rows = P.run_figure params figure in
          Printf.printf "[%s done in %.0fs]\n%!" name (elapsed_ms () /. 1e3);
          List.is_empty rows)
        Experiments.all
    in
    if not (List.is_empty empty) then begin
      prerr_endline
        ("figures with no rows: " ^ String.concat " " (List.map (fun (name, _, _) -> name) empty));
      exit 1
    end
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const action $ params_term)

let smoke_cmd =
  let doc =
    "Run a short mixed workload on a small cluster and write its observability report \
     (latency quantiles, abort taxonomy) to BENCH_<name>.json."
  in
  let name_arg =
    Arg.(value & opt string "smoke" & info [ "name" ] ~docv:"NAME" ~doc:"Report name.")
  in
  let dir_arg =
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let action name dir = P.run_observed ~dir ~name () in
  Cmd.v (Cmd.info "smoke" ~doc) Term.(const action $ name_arg $ dir_arg)

(* Validate a BENCH_*.json report against the shared envelope
   (Obs.Bench); bin/ci.sh needs no external JSON tooling. With
   [--pinned], also require the report to equal a committed one outside
   [wall_ms], so a committed report of a seeded bench cannot go stale. *)
let check_report_cmd =
  let doc = "Validate a BENCH_*.json report against the shared bench envelope." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Report to check.")
  in
  let pinned_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "pinned" ] ~docv:"PINNED"
          ~doc:
            "Committed report FILE must equal everywhere but its envelope's wall_ms (the bench is \
             a pure function of its seed).")
  in
  let action file pinned =
    let load file =
      match Obs.Json.parse (In_channel.with_open_bin file In_channel.input_all) with
      | json -> Ok json
      | exception Obs.Json.Parse_error m -> Error (file ^ ": invalid JSON: " ^ m)
    in
    let ( let* ) = Result.bind in
    let verdict =
      let* json = load file in
      let* () = Result.map_error (fun m -> file ^ ": " ^ m) (Obs.Bench.validate json) in
      match pinned with
      | None -> Ok ()
      | Some pinned_file -> (
          let* pinned = load pinned_file in
          if Obs.Bench.matches_pinned ~pinned json then Ok ()
          else Error (Printf.sprintf "%s: differs from the committed %s" file pinned_file))
    in
    match verdict with
    | Ok () -> Printf.printf "%s: ok\n%!" file
    | Error m ->
        prerr_endline m;
        exit 1
  in
  Cmd.v (Cmd.info "check-report" ~doc) Term.(const action $ file_arg $ pinned_arg)

(* Chaos run: deterministic fault injection plus the history-based
   consistency checker. Exits nonzero (with a minimal counterexample)
   on any serializability/snapshot violation or audit failure. *)
let chaos_cmd =
  let doc =
    "Run a fault-injection storm (memnode crashes landing mid-2PC, partitions, mirror-link \
     partitions, replica lag, delay spikes, coordinator stalls, snapshot-service outages) \
     under a mixed workload, then verify the recorded history for strict serializability, \
     exact snapshot semantics and 2PC atomicity. Exits 1 with a minimal counterexample on \
     any violation. Deterministic: the same seed reproduces the same run byte for byte."
  in
  let seed_arg =
    Arg.(value & opt int Chaos.Runner.default.Chaos.Runner.seed
        & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")
  in
  let duration_arg =
    Arg.(value & opt float Chaos.Runner.default.Chaos.Runner.duration
        & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated seconds of traffic.")
  in
  let hosts_arg =
    Arg.(value & opt int Chaos.Runner.default.Chaos.Runner.hosts
        & info [ "hosts" ] ~docv:"N" ~doc:"Memnode count.")
  in
  let clients_arg =
    Arg.(value & opt int Chaos.Runner.default.Chaos.Runner.clients
        & info [ "clients" ] ~docv:"N" ~doc:"Concurrent workload clients.")
  in
  let keys_arg =
    Arg.(value & opt int Chaos.Runner.default.Chaos.Runner.keys
        & info [ "keys" ] ~docv:"N" ~doc:"Key-space size.")
  in
  let phases_arg =
    Arg.(value & opt int Chaos.Runner.default.Chaos.Runner.phases
        & info [ "phases" ] ~docv:"N" ~doc:"Chaos phases (a structural audit runs after each).")
  in
  let faults_arg =
    let doc =
      "Comma-separated fault mix: any of 'crash' (immediate memnode crash, landing mid-2PC \
       when one is in flight), 'partition', 'delay', 'stall', 'scs', 'mpartition' \
       (memnode-to-backup mirror link cut), 'replag' (loss/latency on the mirror link), or \
       'all' (default) / 'none'."
    in
    Arg.(value & opt string "all" & info [ "faults" ] ~docv:"KINDS" ~doc)
  in
  let broken_arg =
    let doc =
      "Deliberately break leaf-read validation (unsafe_dirty_leaf_reads) to prove the \
       checker catches real violations; the run is expected to FAIL."
    in
    Arg.(value & flag & info [ "broken" ] ~doc)
  in
  let broken_recovery_arg =
    let doc =
      "Deliberately skip the redo-log replay on crash recovery and replica promotion \
       (committed-but-unmirrored writes are lost) to prove the checker catches recovery \
       bugs; the run is expected to FAIL."
    in
    Arg.(value & flag & info [ "broken-recovery" ] ~doc)
  in
  let scs_k_arg =
    let doc =
      "Snapshot staleness bound k in simulated seconds (0 = strict SCS). The checker's SCS \
       rule is relaxed by exactly k."
    in
    Arg.(value & opt float 0.0 & info [ "scs-k" ] ~docv:"SECONDS" ~doc)
  in
  let cc_arg =
    let doc =
      "Concurrency-control mode the trees run under: 'dirty' (optimistic dirty traversal, \
       the default) or 'validated' (every traversal step validated in the minitransaction)."
    in
    Arg.(value & opt string "dirty" & info [ "cc" ] ~docv:"MODE" ~doc)
  in
  let scan_heavy_arg =
    let doc =
      "Scan-dominated op mix: long range scans on tips and snapshots with enough writes to \
       split and move leaves under them; every snapshot scan is double-checked against the \
       per-leaf scan path."
    in
    Arg.(value & flag & info [ "scan-heavy" ] ~doc)
  in
  let branching_arg =
    let doc =
      "Run the database in branching mode (Sec. 5): clients drive writable clones, \
       frozen-version reads and multi-version queries; the checker verifies each version \
       against its forked model and the frozen-ancestor rule."
    in
    Arg.(value & flag & info [ "branching" ] ~doc)
  in
  let broken_branch_arg =
    let doc =
      "Deliberately break branch isolation (reads at read-only versions silently leak the \
       mainline tip's writes) to prove the frozen-ancestor rule catches real violations; \
       implies --branching and the run is expected to FAIL."
    in
    Arg.(value & flag & info [ "broken-branch" ] ~doc)
  in
  let trace_arg =
    let doc =
      "Tee every traced event to $(docv) as JSON lines (Session.Event.to_json), for \
       debugging."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let action seed duration hosts clients keys phases faults broken broken_recovery branching
      broken_branch scs_k cc scan_heavy trace_out =
    let kinds =
      match faults with
      | "all" -> Chaos.Nemesis.all_kinds
      | "none" -> []
      | s ->
          List.map
            (fun name ->
              match Chaos.Nemesis.kind_of_string name with
              | Some k -> k
              | None ->
                  prerr_endline ("unknown fault kind: " ^ name);
                  exit 2)
            (String.split_on_char ',' s)
    in
    let mode =
      match cc with
      | "dirty" -> Btree.Ops.Dirty_traversal
      | "validated" -> Btree.Ops.Validated_traversal
      | other ->
          prerr_endline ("unknown concurrency-control mode: " ^ other);
          exit 2
    in
    let cfg =
      {
        Chaos.Runner.default with
        Chaos.Runner.seed;
        duration;
        hosts;
        clients;
        keys;
        phases;
        kinds;
        mode;
        scan_heavy;
        broken;
        broken_recovery;
        branching;
        broken_branch;
        scs_k;
        trace_out;
      }
    in
    let report = Chaos.Runner.run cfg in
    Format.printf "%a@." Chaos.Runner.pp_report report;
    if not (Chaos.Runner.passed report) then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const action $ seed_arg $ duration_arg $ hosts_arg $ clients_arg $ keys_arg $ phases_arg
      $ faults_arg $ broken_arg $ broken_recovery_arg $ branching_arg $ broken_branch_arg
      $ scs_k_arg $ cc_arg $ scan_heavy_arg $ trace_arg)

(* Streaming-checker benchmark and falsifiability gate: push a
   synthetic chaos-shaped history (optionally with branch traffic)
   through Check.Stream, measure throughput and peak live heap, and
   verify that a seeded violation is caught. *)
let checker_cmd =
  let doc =
    "Benchmark the streaming serializability checker on a synthetic deterministic history \
     (writes, reads, snapshot creations and snapshot reads; with --branching also branch \
     creation/deletion, frozen-version reads and multi-version queries), writing \
     BENCH_checker.json (ops checked, ops/sec, peak live heap words). With --inject, one \
     event in the history lies and the run is expected to FAIL — exits 1 if the checker \
     misses it. Without --inject, exits 1 on any violation or if the checker's peak live \
     heap exceeds 64M words (the O(active keys + budgets) memory gate)."
  in
  let seed_arg =
    Arg.(value & opt int Chaos.Histgen.default.Chaos.Histgen.seed
        & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")
  in
  let ops_arg =
    Arg.(value & opt int Chaos.Histgen.default.Chaos.Histgen.ops
        & info [ "ops" ] ~docv:"N" ~doc:"History length in events.")
  in
  let keys_arg =
    Arg.(value & opt int Chaos.Histgen.default.Chaos.Histgen.keys
        & info [ "keys" ] ~docv:"N" ~doc:"Key-space size.")
  in
  let branching_arg =
    Arg.(value & flag
        & info [ "branching" ]
            ~doc:"Generate branch/version traffic instead of linear snapshots.")
  in
  let inject_arg =
    let doc =
      "Seed exactly one violation: 'stale-read' (a stamped read returns a value the model \
       never held) or 'branch-isolation' (a read pinned at a frozen version leaks a foreign \
       value; requires --branching). The checker must FAIL the history."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"KIND" ~doc)
  in
  let dir_arg =
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let action seed ops keys branching inject dir =
    let fault =
      match inject with
      | None -> None
      | Some "stale-read" -> Some Chaos.Histgen.Stale_read
      | Some "branch-isolation" -> Some Chaos.Histgen.Branch_isolation
      | Some other ->
          prerr_endline ("unknown injection kind: " ^ other);
          exit 2
    in
    let cfg =
      { Chaos.Histgen.default with Chaos.Histgen.seed; ops; keys; branching; fault }
    in
    let stream = Check.Stream.create Check.Stream.Config.default in
    let peak = ref 0 in
    let sample () =
      Gc.full_major ();
      peak := max !peak (Gc.stat ()).Gc.live_words
    in
    let fed = ref 0 in
    let wall_ms = Obs.Bench.stopwatch () in
    let gen =
      Chaos.Histgen.generate
        ~on_creation:(fun ~index ~sid ~stamp ->
          Check.Stream.add_creation stream ~index ~sid ~stamp)
        cfg
        (fun ev ->
          Check.Stream.feed stream ev;
          incr fed;
          if !fed mod 100_000 = 0 then sample ())
    in
    let verdict = Check.Stream.finish ~final:gen.Chaos.Histgen.gen_final stream in
    sample ();
    let elapsed = wall_ms () /. 1e3 in
    let ops_per_sec = float_of_int !fed /. elapsed in
    Format.printf "%a@." Check.Stream.pp_verdict verdict;
    Printf.printf "checked %d events in %.2fs (%.0f ops/sec), peak live heap %d words\n%!" !fed
      elapsed ops_per_sec !peak;
    (match fault with
    | Some _ ->
        if Check.Stream.ok verdict then begin
          prerr_endline "ERROR: seeded violation went uncaught";
          exit 1
        end
        else print_endline "seeded violation caught, as required"
    | None ->
        let violations = List.length verdict.Check.Stream.violations in
        if not
          (Obs.Bench.write ~dir
             {
               Obs.Bench.bench = "checker";
               seed = Some seed;
               wall_ms = wall_ms ();
               gates =
                 [
                   Obs.Bench.at_most "violations" (float_of_int violations) 0.0;
                   Obs.Bench.at_most "peak_live_words" (float_of_int !peak) 64e6;
                 ];
               fields =
                 [
                   ("ops_checked", Obs.Json.Int verdict.Check.Stream.ops_checked);
                   ("events", Obs.Json.Int !fed);
                   ("ops_per_sec", Obs.Json.Float ops_per_sec);
                   ("peak_live_words", Obs.Json.Int !peak);
                   ( "snapshot_reads_checked",
                     Obs.Json.Int verdict.Check.Stream.snapshot_reads_checked );
                   ("branch_reads_checked", Obs.Json.Int verdict.Check.Stream.branch_reads_checked);
                   ("violations", Obs.Json.Int violations);
                 ];
             })
        then exit 1)
  in
  Cmd.v (Cmd.info "checker" ~doc)
    Term.(const action $ seed_arg $ ops_arg $ keys_arg $ branching_arg $ inject_arg $ dir_arg)

(* Node-path micro-benchmark: zero-copy views against eager decodes on
   the same slotted payloads, and spliced leaf rewrites against
   decode/edit/encode ones (wall-clock, so exempt from the
   deterministic-time lint like the checker bench above), plus a short
   simulated workload counting decodes avoided and bytes copied per
   scan hop. Also asserts the format's falsifiability gate: a corrupted
   slot directory must fail Bnode.decode. Writes BENCH_node.json; exits
   1 unless the view is at least 3x faster, the splice at least 2x
   faster and byte-identical, and the corruption is caught. *)
let node_cmd =
  let doc =
    "Micro-benchmark the zero-copy node view against an eager decode (ns/lookup on identical \
     slotted payloads) and the spliced leaf rewrite against decode/edit/encode (ns/rewrite), \
     run a short simulated scan workload to count decodes avoided and bytes copied per scan \
     hop, assert the corruption gate, and write BENCH_node.json. Exits 1 when the view is less \
     than 3 times faster, the splice less than 2 times faster or not byte-identical, or a \
     corrupted slot directory decodes."
  in
  let seed_arg =
    Arg.(value & opt int 0x5ca9 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")
  in
  let iters_arg =
    Arg.(value & opt int 200_000
        & info [ "iters" ] ~docv:"N" ~doc:"Lookups per timed side.")
  in
  let dir_arg =
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let action seed iters dir =
    let wall_ms = Obs.Bench.stopwatch () in
    let module Bkey = Btree.Bkey in
    let module Bnode = Btree.Bnode in
    let module Bview = Btree.Bview in
    (* A realistic leaf at the YCSB operating point: 14-byte keys with a
       shared prefix, 8-byte values, 64 entries (a full 4 KiB leaf). *)
    let key_of i = Printf.sprintf "user4839%06d" i in
    let entries = Array.init 64 (fun i -> (key_of (i * 7), Printf.sprintf "val%05d" i)) in
    let leaf = Bnode.make_leaf ~low:Bkey.Neg_inf ~high:Bkey.Pos_inf ~snap:3L entries in
    let payload = Bnode.encode leaf in
    let probes = Array.init 256 (fun i -> key_of ((i * 13) mod (64 * 7))) in
    let time f =
      let elapsed_ms = Obs.Bench.stopwatch () in
      f ();
      elapsed_ms () /. 1e3
    in
    let sink = ref 0 in
    (* Warm both paths once so the first timed side pays no cold-start
       penalty (allocator warmup). *)
    ignore (Bnode.decode payload : Bnode.t);
    ignore (Bview.of_string payload : Bview.t);
    let view_s =
      time (fun () ->
          for i = 0 to iters - 1 do
            let v = Bview.of_string payload in
            match Bview.leaf_find v (Array.unsafe_get probes (i land 255)) with
            | Some s -> sink := !sink + String.length s
            | None -> ()
          done)
    in
    let decode_s =
      time (fun () ->
          for i = 0 to iters - 1 do
            let n = Bnode.decode payload in
            match Bnode.leaf_find n (Array.unsafe_get probes (i land 255)) with
            | Some s -> sink := !sink + String.length s
            | None -> ()
          done)
    in
    (* Rewrites of the same leaf, as a put at the leaf's own snapshot
       does them from the view its traversal parsed: verify the CRC,
       then splice the bytes, or materialise, edit and re-encode. The
       probes replace keys or insert new ones across the leaf, none of
       which changes its common prefix, so every one splices. *)
    let leaf_view = Bview.of_string payload in
    let enc = Codec.Enc.create ~initial_size:2048 () in
    let spliced k =
      Bview.verify_crc leaf_view;
      Codec.Enc.reset enc;
      match Bview.leaf_splice enc leaf_view ~max_keys:max_int k (Some "rewritten") with
      | Bview.Spliced -> Codec.Enc.to_string_with_checksum enc
      | Bview.Absent | Bview.Fallback -> failwith "node bench: a probe rewrite did not splice"
    in
    let decoded k =
      Bview.verify_crc leaf_view;
      Codec.Enc.reset enc;
      Bnode.encode_into enc (Bnode.leaf_insert (Bnode.of_view leaf_view) k "rewritten");
      Codec.Enc.to_string_with_checksum enc
    in
    let rewrite_identical = Array.for_all (fun k -> String.equal (spliced k) (decoded k)) probes in
    (* The two sides alternate over five rounds, so a burst of host
       noise lands on both rather than on one. *)
    let rounds = 5 in
    let per_round = max 1 (iters / 20) in
    let rewrites = rounds * per_round in
    let rewrite_block f () =
      for i = 0 to per_round - 1 do
        sink := !sink + String.length (f (Array.unsafe_get probes (i land 255)))
      done
    in
    let splice_s = ref 0.0 and reencode_s = ref 0.0 in
    for _ = 1 to rounds do
      splice_s := !splice_s +. time (rewrite_block spliced);
      reencode_s := !reencode_s +. time (rewrite_block decoded)
    done;
    let splice_s = !splice_s and reencode_s = !reencode_s in
    ignore !sink;
    let ns side = side *. 1e9 /. float_of_int iters in
    let ns_rewrite side = side *. 1e9 /. float_of_int rewrites in
    let speedup = decode_s /. view_s in
    let rewrite_speedup = reencode_s /. splice_s in
    (* Falsifiability: flipping any slot-directory byte must fail the
       CRC on the decode path. *)
    let v = Bview.of_string payload in
    let dir_off, dir_len = Bview.dir_bounds v in
    let corrupt_caught = ref true in
    for i = dir_off to dir_off + dir_len - 1 do
      let mangled =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x5a) else c) payload
      in
      match Bnode.decode mangled with
      | (_ : Bnode.t) -> corrupt_caught := false
      | exception Codec.Decode_error _ -> ()
    done;
    (* Short simulated scan workload: decodes avoided and bytes copied
       per batched scan hop come from the typed node counters. The
       database's shared view memo must end with at most one entry per
       node pointer: no more than the node slots ever written, each of
       which holds a non-empty payload. The memnode heaps must store
       what was written: their resident pages, per written node slot,
       stay under half a slot. *)
    let config =
      {
        Minuet.Config.default with
        Minuet.Config.hosts = 3;
        max_keys_leaf = Some 4;
        max_keys_internal = Some 64;
      }
    in
    let view_hits, materialisations, bytes_copied, hops, memo_entries, node_slots, resident =
      Minuet.Harness.run ~seed ~until:60.0 ~config @@ fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 299 do
        Minuet.Session.put s (Printf.sprintf "k%05d" i) (Printf.sprintf "v%d" i)
      done;
      for i = 0 to 19 do
        let snap = Minuet.Session.snapshot s in
        ignore
          (Minuet.Session.scan_at s snap ~from:(Printf.sprintf "k%05d" (i * 10)) ~count:100
            : (string * string) list)
      done;
      let obs = Minuet.Db.obs db in
      let ns_ = Obs.node obs in
      let ss = Obs.scan obs in
      let c = Obs.Counter.value in
      let layout = config.Minuet.Config.layout in
      let cluster = Minuet.Db.cluster db in
      let node_slots = ref 0 and resident = ref 0 in
      for node = 0 to Sinfonia.Cluster.n_memnodes cluster - 1 do
        let heap =
          Sinfonia.Memnode.store_heap
            (Sinfonia.Memnode.primary (Sinfonia.Cluster.memnode cluster node))
        in
        resident := !resident + Sinfonia.Heap.resident heap;
        for index = 0 to layout.Btree.Layout.max_slots - 1 do
          let off = Btree.Layout.slot_off layout ~index + 8 in
          if Sinfonia.Heap.get_int32_le heap ~off <> 0l then incr node_slots
        done
      done;
      (c ns_.Obs.view_hits, c ns_.Obs.materialisations, c ns_.Obs.node_bytes_copied,
       c ss.Obs.scan_consumed_leaves, Btree.View_memo.length (Minuet.Db.view_memo db), !node_slots,
       !resident)
    in
    let resident_per_slot = float_of_int resident /. float_of_int (max 1 node_slots) in
    let node_size = config.Minuet.Config.layout.Btree.Layout.node_size in
    let decodes_avoided = view_hits - materialisations in
    let bytes_per_hop = if hops = 0 then 0.0 else float_of_int bytes_copied /. float_of_int hops in
    Printf.printf "node bench: view %.0f ns/lookup vs decode %.0f ns/lookup (%.2fx)\n"
      (ns view_s) (ns decode_s) speedup;
    Printf.printf "  rewrite: splice %.0f ns vs decode+encode %.0f ns (%.2fx)%s\n"
      (ns_rewrite splice_s) (ns_rewrite reencode_s) rewrite_speedup
      (if rewrite_identical then "" else ", BYTES DIFFER");
    Printf.printf "  workload: %d view hits, %d materialisations (%d decodes avoided)\n" view_hits
      materialisations decodes_avoided;
    Printf.printf "  %.0f bytes copied per batched scan hop over %d hops\n" bytes_per_hop hops;
    Printf.printf "  view memo: %d entries over %d written node slots\n" memo_entries node_slots;
    Printf.printf "  heap: %.0f resident bytes per written %d-byte node slot\n" resident_per_slot
      node_size;
    if not
      (Obs.Bench.write ~dir
         {
           Obs.Bench.bench = "node";
           seed = Some seed;
           wall_ms = wall_ms ();
           gates =
             [
               Obs.Bench.at_least "speedup" speedup 3.0;
               Obs.Bench.at_least "rewrite_speedup" rewrite_speedup 2.0;
               Obs.Bench.at_least "rewrite_identical" (if rewrite_identical then 1.0 else 0.0) 1.0;
               Obs.Bench.at_least "corrupt_dir_caught" (if !corrupt_caught then 1.0 else 0.0) 1.0;
               Obs.Bench.at_most "view_memo_entries" (float_of_int memo_entries)
                 (float_of_int node_slots);
               Obs.Bench.at_most "heap_resident_per_node_slot" resident_per_slot
                 (float_of_int (node_size / 2));
             ];
           fields =
             [
               ("iters", Obs.Json.Int iters);
               ("payload_bytes", Obs.Json.Int (String.length payload));
               ("view_ns_per_lookup", Obs.Json.Float (ns view_s));
               ("decode_ns_per_lookup", Obs.Json.Float (ns decode_s));
               ("speedup", Obs.Json.Float speedup);
               ("rewrites", Obs.Json.Int rewrites);
               ("splice_ns_per_rewrite", Obs.Json.Float (ns_rewrite splice_s));
               ("decode_encode_ns_per_rewrite", Obs.Json.Float (ns_rewrite reencode_s));
               ("rewrite_speedup", Obs.Json.Float rewrite_speedup);
               ("rewrite_identical", Obs.Json.Bool rewrite_identical);
               ("workload_view_hits", Obs.Json.Int view_hits);
               ("workload_materialisations", Obs.Json.Int materialisations);
               ("decodes_avoided", Obs.Json.Int decodes_avoided);
               ("bytes_copied_per_scan_hop", Obs.Json.Float bytes_per_hop);
               ("corrupt_dir_caught", Obs.Json.Bool !corrupt_caught);
               ("view_memo_entries", Obs.Json.Int memo_entries);
               ("heap_resident_per_node_slot", Obs.Json.Float resident_per_slot);
             ];
         })
    then exit 1
  in
  Cmd.v (Cmd.info "node" ~doc)
    Term.(const action $ seed_arg $ iters_arg $ dir_arg)

(* Scan benchmark: batched leaf scans (~batch:16) vs the per-leaf
   baseline (~batch:1) on the same seed, plus a crash storm proving
   caches recover by epoch revalidation rather than bulk flushes.
   Writes BENCH_scan.json; exits 1 when any of its gates fails. *)
let scan_cmd =
  let doc =
    "Benchmark batched leaf scans against the per-leaf baseline under contended 100-leaf \
     range scans, run a crash storm to exercise epoch-based cache revalidation, and write \
     BENCH_scan.json (ops/s both sides, leaves per round trip, cache hit rate, epoch \
     revalidation and bulk-eviction counts). Exits 1 when any acceptance gate fails."
  in
  let seed_arg =
    Arg.(value & opt int 0x5ca9 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")
  in
  let dir_arg =
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let action seed dir = if not (Experiments.Scan_bench.run ~seed ~dir ()) then exit 1 in
  Cmd.v (Cmd.info "scan" ~doc) Term.(const action $ seed_arg $ dir_arg)

(* Open-loop production-traffic scenarios with per-tenant SLO gates.
   Every scenario runs through the streaming checker; the report is
   throughput + open-loop latency quantiles + queueing delay + SLO and
   checker verdicts per tenant. *)
let traffic_cmd =
  let doc =
    "Run canned open-loop production-traffic scenarios (steady, diurnal, flash-crowd, \
     shard-hotspot, chaos-overlapped storm, fig17/fig18 traffic variants) against the \
     simulated cluster, gate each tenant on its SLO (p99/p999 open-loop latency and error \
     budget), verify every session's history with the streaming serializability checker, \
     and write BENCH_traffic.json. Latency is measured from each operation's scheduled \
     arrival, so queueing delay counts and coordinated omission is impossible. Exits 1 on \
     any SLO breach, checker violation or audit failure. Deterministic per seed. \
     '--scenario broken-slo' runs the deliberately under-provisioned falsifiability twin \
     (one worker against 1500 scans/s), which must exit 1."
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")
  in
  let duration_arg =
    Arg.(value & opt float 1.5
        & info [ "duration" ] ~docv:"SECONDS"
            ~doc:"Simulated seconds of scheduled traffic per scenario.")
  in
  let scenario_arg =
    let doc =
      "Comma-separated scenario names to run, or 'all' (default) for the full suite. Known: \
       steady, diurnal, flash-crowd, shard-hotspot, storm, fig17-traffic, fig18-traffic, \
       broken-slo."
    in
    Arg.(value & opt string "all" & info [ "scenario" ] ~docv:"NAMES" ~doc)
  in
  let dir_arg =
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let action seed duration scenarios dir =
    let wall_ms = Obs.Bench.stopwatch () in
    let chosen =
      match scenarios with
      | "all" -> Traffic.Scenario.all
      | s ->
          List.map
            (fun name ->
              match Traffic.Scenario.find name with
              | Some scenario -> (name, scenario)
              | None ->
                  Printf.eprintf "unknown scenario: %s (known: %s)\n" name
                    (String.concat ", " Traffic.Scenario.names);
                  exit 2)
            (String.split_on_char ',' s)
    in
    let module E = Traffic.Engine in
    let module Hist = Sim.Stats.Hist in
    let ms h q = Hist.quantile h q *. 1e3 in
    let reports =
      List.map
        (fun (name, scenario) ->
          Printf.printf "== %s ==\n%!" name;
          let report = E.run (scenario ~seed ~duration) in
          Format.printf "%a@." E.pp_report report;
          report)
        chosen
    in
    let tenant_json (t : E.tenant_result) =
      Obs.Json.Obj
        [
          ("name", Obs.Json.String t.E.tenant.Traffic.Tenant.name);
          ("offered", Obs.Json.Int t.E.offered);
          ("completed", Obs.Json.Int t.E.completed);
          ("errors", Obs.Json.Int t.E.errors);
          ("branch_blocked", Obs.Json.Int t.E.branch_blocked);
          ("throughput_ops_s", Obs.Json.Float t.E.throughput);
          ("latency_p50_ms", Obs.Json.Float (ms t.E.latency 0.5));
          ("latency_p99_ms", Obs.Json.Float (ms t.E.latency 0.99));
          ("latency_p999_ms", Obs.Json.Float (Hist.p999 t.E.latency *. 1e3));
          ("queueing_p50_ms", Obs.Json.Float (ms t.E.queueing 0.5));
          ("queueing_p99_ms", Obs.Json.Float (ms t.E.queueing 0.99));
          ("queueing_p999_ms", Obs.Json.Float (Hist.p999 t.E.queueing *. 1e3));
          ("service_p99_ms", Obs.Json.Float (ms t.E.service 0.99));
          ("slo_ok", Obs.Json.Bool (Traffic.Slo.ok t.E.slo));
          ( "slo_breaches",
            Obs.Json.List
              (List.map (fun b -> Obs.Json.String b) t.E.slo.Traffic.Slo.breaches) );
        ]
    in
    let scenario_json (r : E.report) =
      Obs.Json.Obj
        [
          ("name", Obs.Json.String r.E.config.E.name);
          ("passed", Obs.Json.Bool (E.passed r));
          ("checker_ok", Obs.Json.Bool (Check.Stream.ok r.E.verdict));
          ("slo_ok", Obs.Json.Bool (E.slo_ok r));
          ("audit_failures", Obs.Json.Int (List.length r.E.audit_failures));
          ("events", Obs.Json.Int r.E.events);
          ("sim_time_s", Obs.Json.Float r.E.sim_time);
          ("tenants", Obs.Json.List (List.map tenant_json r.E.tenants));
        ]
    in
    let failed = List.filter (fun r -> not (E.passed r)) reports in
    if not
      (Obs.Bench.write ~dir
         {
           Obs.Bench.bench = "traffic";
           seed = Some seed;
           wall_ms = wall_ms ();
           gates = [ Obs.Bench.at_most "failed_scenarios" (float_of_int (List.length failed)) 0.0 ];
           fields =
             [
               ("duration_s", Obs.Json.Float duration);
               ("scenarios", Obs.Json.List (List.map scenario_json reports));
             ];
         })
    then exit 1
  in
  Cmd.v (Cmd.info "traffic" ~doc)
    Term.(const action $ seed_arg $ duration_arg $ scenario_arg $ dir_arg)

let () =
  let doc = "Reproduce the evaluation of 'Minuet: A Scalable Distributed Multiversion B-Tree'" in
  let info = Cmd.info "minuet-bench" ~version:"1.0" ~doc in
  let cmds =
    all_cmd :: smoke_cmd :: check_report_cmd :: chaos_cmd :: checker_cmd :: node_cmd :: scan_cmd
    :: traffic_cmd
    :: List.map figure_cmd Experiments.all
  in
  exit (Cmd.eval (Cmd.group info cmds))
