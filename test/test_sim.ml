(* Tests for the discrete-event simulator substrate. *)

let check = Alcotest.check

let checkf msg expected actual =
  Alcotest.check (Alcotest.float 1e-9) msg expected actual

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_eq_ordering () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.push q ~time:3.0 "c";
  Sim.Event_queue.push q ~time:1.0 "a";
  Sim.Event_queue.push q ~time:2.0 "b";
  let pop () = match Sim.Event_queue.pop q with Some (_, v) -> v | None -> "-" in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  check Alcotest.bool "empty" true (Sim.Event_queue.is_empty q)

let test_eq_fifo_ties () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 99 do
    Sim.Event_queue.push q ~time:1.0 i
  done;
  for i = 0 to 99 do
    match Sim.Event_queue.pop q with
    | Some (_, v) -> check Alcotest.int "fifo" i v
    | None -> Alcotest.fail "queue drained early"
  done

let test_eq_interleaved () =
  let q = Sim.Event_queue.create () in
  let popped = ref [] in
  for i = 1 to 500 do
    Sim.Event_queue.push q ~time:(float_of_int (i mod 17)) i;
    if i mod 3 = 0 then
      match Sim.Event_queue.pop q with
      | Some (t, _) -> popped := t :: !popped
      | None -> ()
  done;
  let rec drain () =
    match Sim.Event_queue.pop q with
    | Some (t, _) ->
        popped := t :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  (* Each pop returns the minimum of what is in the queue at that moment,
     so after any interleaving the total pop count must match pushes. *)
  check Alcotest.int "count" 500 (List.length !popped)

let test_eq_peek () =
  let q = Sim.Event_queue.create () in
  check (Alcotest.option (Alcotest.float 0.0)) "empty peek" None (Sim.Event_queue.peek_time q);
  Sim.Event_queue.push q ~time:5.0 ();
  Sim.Event_queue.push q ~time:2.0 ();
  check (Alcotest.option (Alcotest.float 0.0)) "peek min" (Some 2.0) (Sim.Event_queue.peek_time q);
  check Alcotest.int "length" 2 (Sim.Event_queue.length q)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_rng_ranges () =
  let r = Sim.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.fail "int out of range";
    let f = Sim.Rng.unit_float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of range";
    let i = Sim.Rng.int_in r (-5) 5 in
    if i < -5 || i > 5 then Alcotest.fail "int_in out of range"
  done

let test_rng_int_covers () =
  let r = Sim.Rng.create 3 in
  let seen = Array.make 10 false in
  for _ = 1 to 5000 do
    seen.(Sim.Rng.int r 10) <- true
  done;
  Array.iteri (fun i b -> check Alcotest.bool (Printf.sprintf "bucket %d hit" i) true b) seen

let test_rng_split_independent () =
  let parent = Sim.Rng.create 99 in
  let child = Sim.Rng.split parent in
  (* Child stream should not simply replay the parent stream. *)
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rng.bits64 parent = Sim.Rng.bits64 child then incr equal
  done;
  check Alcotest.bool "streams differ" true (!equal < 4)

let test_rng_exponential_mean () =
  let r = Sim.Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Sim.Rng.exponential r ~mean:2.0 in
    if v < 0.0 then Alcotest.fail "negative exponential";
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean close to 2" true (abs_float (mean -. 2.0) < 0.1)

let test_rng_shuffle_permutes () =
  let r = Sim.Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Sim.Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let test_delay_advances_clock () =
  let final = ref 0.0 in
  Sim.run (fun () ->
      checkf "starts at 0" 0.0 (Sim.now ());
      Sim.delay 1.5;
      checkf "after delay" 1.5 (Sim.now ());
      Sim.delay 0.5;
      final := Sim.now ());
  checkf "total" 2.0 !final

let test_spawn_interleaving () =
  let trace = ref [] in
  let log tag = trace := tag :: !trace in
  Sim.run (fun () ->
      Sim.spawn (fun () ->
          Sim.delay 2.0;
          log "b2");
      Sim.spawn (fun () ->
          Sim.delay 1.0;
          log "a1");
      log "main";
      Sim.delay 3.0;
      log "main3");
  check (Alcotest.list Alcotest.string) "order" [ "main"; "a1"; "b2"; "main3" ]
    (List.rev !trace)

let test_yield_fairness () =
  let trace = ref [] in
  Sim.run (fun () ->
      Sim.spawn (fun () -> trace := "child" :: !trace);
      Sim.yield ();
      trace := "main" :: !trace);
  check (Alcotest.list Alcotest.string) "child ran first" [ "child"; "main" ] (List.rev !trace)

let test_suspend_wake () =
  let wakener = ref None in
  let result = ref 0 in
  Sim.run (fun () ->
      Sim.spawn (fun () ->
          let v = Sim.suspend (fun wake -> wakener := Some wake) in
          result := v);
      Sim.delay 5.0;
      match !wakener with Some wake -> wake 42 | None -> Alcotest.fail "not registered");
  check Alcotest.int "woken with value" 42 !result

let test_suspend_double_wake_ignored () =
  let count = ref 0 in
  Sim.run (fun () ->
      let wakener = ref None in
      Sim.spawn (fun () ->
          let (_ : int) = Sim.suspend (fun wake -> wakener := Some wake) in
          incr count);
      Sim.delay 1.0;
      (match !wakener with
      | Some wake ->
          wake 1;
          wake 2
      | None -> Alcotest.fail "not registered");
      Sim.delay 1.0);
  check Alcotest.int "resumed once" 1 !count

let test_until_cutoff () =
  let reached = ref false in
  Sim.run ~until:10.0 (fun () ->
      Sim.delay 100.0;
      reached := true);
  check Alcotest.bool "event past until dropped" false !reached

let test_stop () =
  let after = ref false in
  Sim.run (fun () ->
      Sim.spawn (fun () ->
          Sim.delay 1.0;
          after := true);
      Sim.stop ());
  check Alcotest.bool "no events after stop" false !after

let test_no_nesting () =
  Sim.run (fun () ->
      match Sim.run (fun () -> ()) with
      | () -> Alcotest.fail "nested run should fail"
      | exception Invalid_argument _ -> ())

let test_outside_now_fails () =
  match Sim.now () with
  | (_ : float) -> Alcotest.fail "now() outside run should fail"
  | exception Invalid_argument _ -> ()

let test_exception_propagates () =
  match Sim.run (fun () -> Sim.spawn (fun () -> failwith "boom")) with
  | () -> Alcotest.fail "exception should propagate"
  | exception Failure msg -> check Alcotest.string "message" "boom" msg

let test_determinism () =
  let run_trace () =
    let trace = Buffer.create 128 in
    Sim.run ~seed:7 (fun () ->
        let r = Sim.Rng.split (Sim.rng ()) in
        for i = 1 to 5 do
          let me = i in
          Sim.spawn (fun () ->
              Sim.delay (Sim.Rng.float r 3.0);
              Buffer.add_string trace (Printf.sprintf "%d@%.6f;" me (Sim.now ())))
        done);
    Buffer.contents trace
  in
  check Alcotest.string "identical traces" (run_trace ()) (run_trace ())

(* ------------------------------------------------------------------ *)
(* Mailbox / Ivar / Semaphore                                          *)
(* ------------------------------------------------------------------ *)

let test_mailbox_buffered () =
  Sim.run (fun () ->
      let mb = Sim.Mailbox.create () in
      Sim.Mailbox.send mb 1;
      Sim.Mailbox.send mb 2;
      check Alcotest.int "len" 2 (Sim.Mailbox.length mb);
      check Alcotest.int "fifo 1" 1 (Sim.Mailbox.recv mb);
      check Alcotest.int "fifo 2" 2 (Sim.Mailbox.recv mb);
      check (Alcotest.option Alcotest.int) "empty" None (Sim.Mailbox.try_recv mb))

let test_mailbox_blocking_recv () =
  let got = ref (-1) in
  Sim.run (fun () ->
      let mb = Sim.Mailbox.create () in
      Sim.spawn (fun () -> got := Sim.Mailbox.recv mb);
      Sim.delay 1.0;
      check Alcotest.int "still blocked" (-1) !got;
      Sim.Mailbox.send mb 7;
      Sim.delay 0.0;
      Sim.yield ());
  check Alcotest.int "received" 7 !got

let test_mailbox_fifo_waiters () =
  let order = ref [] in
  Sim.run (fun () ->
      let mb = Sim.Mailbox.create () in
      for i = 1 to 3 do
        Sim.spawn (fun () ->
            let v = Sim.Mailbox.recv mb in
            order := (i, v) :: !order)
      done;
      Sim.delay 1.0;
      Sim.Mailbox.send mb 10;
      Sim.Mailbox.send mb 20;
      Sim.Mailbox.send mb 30;
      Sim.delay 1.0);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "waiters FIFO"
    [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !order)

let test_ivar () =
  let observed = ref [] in
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      check Alcotest.bool "not filled" false (Sim.Ivar.is_filled iv);
      for i = 1 to 3 do
        Sim.spawn (fun () ->
            let v = Sim.Ivar.read iv in
            observed := (i, v) :: !observed)
      done;
      Sim.delay 1.0;
      Sim.Ivar.fill iv 99;
      (match Sim.Ivar.fill iv 100 with
      | () -> Alcotest.fail "double fill should fail"
      | exception Invalid_argument _ -> ());
      Sim.delay 1.0;
      check Alcotest.int "read after fill" 99 (Sim.Ivar.read iv));
  check Alcotest.int "all woken" 3 (List.length !observed);
  List.iter (fun (_, v) -> check Alcotest.int "value" 99 v) !observed

let test_semaphore_limits_concurrency () =
  let active = ref 0 and peak = ref 0 in
  Sim.run (fun () ->
      let sem = Sim.Semaphore.create 2 in
      for _ = 1 to 10 do
        Sim.spawn (fun () ->
            Sim.Semaphore.with_acquired sem (fun () ->
                incr active;
                if !active > !peak then peak := !active;
                Sim.delay 1.0;
                decr active))
      done);
  check Alcotest.int "peak concurrency" 2 !peak

let test_mutex () =
  let in_critical = ref false in
  Sim.run (fun () ->
      let m = Sim.Mutex.create () in
      for _ = 1 to 5 do
        Sim.spawn (fun () ->
            Sim.Mutex.with_lock m (fun () ->
                check Alcotest.bool "exclusive" false !in_critical;
                in_critical := true;
                Sim.delay 0.5;
                in_critical := false))
      done)

(* ------------------------------------------------------------------ *)
(* Resource                                                            *)
(* ------------------------------------------------------------------ *)

let test_resource_serializes () =
  let finish_times = ref [] in
  Sim.run (fun () ->
      let r = Sim.Resource.create ~servers:1 () in
      for _ = 1 to 3 do
        Sim.spawn (fun () ->
            Sim.Resource.use r ~service_time:1.0;
            finish_times := Sim.now () :: !finish_times)
      done);
  check (Alcotest.list (Alcotest.float 1e-9)) "sequential completion" [ 1.0; 2.0; 3.0 ]
    (List.rev !finish_times)

let test_resource_parallel_servers () =
  let finish_times = ref [] in
  Sim.run (fun () ->
      let r = Sim.Resource.create ~servers:2 () in
      for _ = 1 to 4 do
        Sim.spawn (fun () ->
            Sim.Resource.use r ~service_time:1.0;
            finish_times := Sim.now () :: !finish_times)
      done);
  check (Alcotest.list (Alcotest.float 1e-9)) "two at a time" [ 1.0; 1.0; 2.0; 2.0 ]
    (List.rev !finish_times)

let test_resource_utilization () =
  Sim.run (fun () ->
      let r = Sim.Resource.create ~servers:1 () in
      Sim.Resource.use r ~service_time:2.0;
      Sim.delay 2.0;
      (* busy 2s of 4s elapsed *)
      let u = Sim.Resource.utilization r ~since:0.0 in
      check (Alcotest.float 1e-6) "utilization 0.5" 0.5 u)

let test_resource_queue_length () =
  Sim.run (fun () ->
      let r = Sim.Resource.create ~servers:1 () in
      for _ = 1 to 3 do
        Sim.spawn (fun () -> Sim.Resource.use r ~service_time:1.0)
      done;
      Sim.delay 0.5;
      check Alcotest.int "two waiting" 2 (Sim.Resource.queue_length r);
      check Alcotest.int "one busy" 1 (Sim.Resource.busy r))

(* ------------------------------------------------------------------ *)
(* Net                                                                 *)
(* ------------------------------------------------------------------ *)

let test_net_delay_positive () =
  Sim.run (fun () ->
      let net = Sim.Net.create ~rng:(Sim.Rng.create 1) () in
      let t0 = Sim.now () in
      Sim.Net.transfer net ~bytes:1000;
      check Alcotest.bool "time advanced" true (Sim.now () > t0);
      check Alcotest.int "message counted" 1 (Sim.Net.messages_sent net);
      check Alcotest.int "bytes counted" 1000 (Sim.Net.bytes_sent net))

let test_net_size_dependence () =
  let net = Sim.Net.create ~jitter:0.0 ~rng:(Sim.Rng.create 1) () in
  let small = Sim.Net.sample_one_way net ~bytes:100 in
  let large = Sim.Net.sample_one_way net ~bytes:1_000_000 in
  check Alcotest.bool "larger message slower" true (large > small)

let test_net_fault_latency () =
  Sim.run (fun () ->
      let net = Sim.Net.create ~jitter:0.0 ~rng:(Sim.Rng.create 1) () in
      let timed f =
        let t0 = Sim.now () in
        f ();
        Sim.now () -. t0
      in
      let base = timed (fun () -> Sim.Net.transfer net ~src:0 ~dst:1 ~bytes:100) in
      Sim.Net.set_fault net ~src:0 ~dst:1 ~extra_latency:0.01 ();
      check Alcotest.int "one fault installed" 1 (Sim.Net.active_faults net);
      checkf "extra latency added" (base +. 0.01)
        (timed (fun () -> Sim.Net.transfer net ~src:0 ~dst:1 ~bytes:100));
      (* Faults are directional: the reverse link is untouched. *)
      checkf "reverse link clean" base
        (timed (fun () -> Sim.Net.transfer net ~src:1 ~dst:0 ~bytes:100));
      Sim.Net.clear_fault net ~src:0 ~dst:1;
      checkf "cleared fault costs nothing" base
        (timed (fun () -> Sim.Net.transfer net ~src:0 ~dst:1 ~bytes:100)))

let test_net_fault_drop () =
  Sim.run (fun () ->
      let rto = 1e-3 in
      let net = Sim.Net.create ~jitter:0.0 ~rto ~rng:(Sim.Rng.create 7) () in
      Sim.Net.set_fault net ~src:0 ~dst:1 ~drop:0.9 ();
      let t0 = Sim.now () in
      for _ = 1 to 20 do
        Sim.Net.transfer net ~src:0 ~dst:1 ~bytes:100
      done;
      let elapsed = Sim.now () -. t0 in
      check Alcotest.bool "some transmissions dropped" true (Sim.Net.drops net > 0);
      check Alcotest.bool "each drop costs one rto" true
        (elapsed > float_of_int (Sim.Net.drops net) *. rto);
      (* Every delivery eventually succeeds: lossy links delay, never cut. *)
      check Alcotest.bool "retransmissions counted" true
        (Sim.Net.messages_sent net = 20 + Sim.Net.drops net))

let test_net_fault_blocked () =
  let net = Sim.Net.create ~rng:(Sim.Rng.create 1) () in
  check Alcotest.bool "initially reachable" true (Sim.Net.reachable net ~src:0 ~dst:1);
  Sim.Net.set_fault net ~src:0 ~dst:1 ~blocked:true ();
  check Alcotest.bool "blocked" false (Sim.Net.reachable net ~src:0 ~dst:1);
  check Alcotest.bool "reverse direction open" true (Sim.Net.reachable net ~src:1 ~dst:0);
  (* Installing an all-benign fault removes the table entry entirely. *)
  Sim.Net.set_fault net ~src:0 ~dst:1 ();
  check Alcotest.int "benign fault clears entry" 0 (Sim.Net.active_faults net);
  Sim.Net.set_fault net ~src:2 ~dst:3 ~blocked:true ();
  Sim.Net.set_fault net ~src:4 ~dst:5 ~drop:0.5 ();
  Sim.Net.clear_all_faults net;
  check Alcotest.int "clear_all" 0 (Sim.Net.active_faults net);
  check Alcotest.bool "reachable again" true (Sim.Net.reachable net ~src:2 ~dst:3)

let test_net_anonymous_unfaulted () =
  Sim.run (fun () ->
      let net = Sim.Net.create ~jitter:0.0 ~rng:(Sim.Rng.create 1) () in
      Sim.Net.set_fault net ~src:0 ~dst:1 ~drop:0.9 ~extra_latency:1.0 ~blocked:true ();
      let t0 = Sim.now () in
      Sim.Net.transfer net ~bytes:100;
      (* Anonymous transfers never consult the fault table. *)
      check Alcotest.bool "no extra latency" true (Sim.now () -. t0 < 0.5);
      check Alcotest.int "no drops" 0 (Sim.Net.drops net))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let c = Sim.Stats.Counter.create () in
  Sim.Stats.Counter.incr c;
  Sim.Stats.Counter.add c 4;
  check Alcotest.int "value" 5 (Sim.Stats.Counter.value c);
  Sim.Stats.Counter.reset c;
  check Alcotest.int "reset" 0 (Sim.Stats.Counter.value c)

let test_hist_basic () =
  let h = Sim.Stats.Hist.create () in
  check (Alcotest.float 0.0) "empty mean" 0.0 (Sim.Stats.Hist.mean h);
  List.iter (Sim.Stats.Hist.add h) [ 0.001; 0.002; 0.003; 0.004 ];
  check Alcotest.int "count" 4 (Sim.Stats.Hist.count h);
  check (Alcotest.float 1e-9) "mean" 0.0025 (Sim.Stats.Hist.mean h);
  check (Alcotest.float 1e-9) "min" 0.001 (Sim.Stats.Hist.min h);
  check (Alcotest.float 1e-9) "max" 0.004 (Sim.Stats.Hist.max h)

let test_hist_quantiles () =
  let h = Sim.Stats.Hist.create () in
  for i = 1 to 1000 do
    Sim.Stats.Hist.add h (float_of_int i /. 1000.0)
  done;
  let p50 = Sim.Stats.Hist.quantile h 0.5 in
  let p95 = Sim.Stats.Hist.quantile h 0.95 in
  let p99 = Sim.Stats.Hist.quantile h 0.99 in
  check Alcotest.bool "p50 near 0.5" true (abs_float (p50 -. 0.5) < 0.03);
  check Alcotest.bool "p95 near 0.95" true (abs_float (p95 -. 0.95) < 0.05);
  check Alcotest.bool "p99 near 0.99" true (abs_float (p99 -. 0.99) < 0.05);
  check Alcotest.bool "monotone" true (p50 <= p95 && p95 <= p99)

(* The p999 must resolve a tail two orders of magnitude above the bulk:
   99.7% fast ops at ~1ms, 0.3% stragglers at 1s (safely above the
   0.1% boundary). The geometric buckets (gamma = 1.04) give ~4%
   relative error, so p99 stays near the bulk while p999 lands on the
   stragglers. *)
let test_hist_p999_tail_resolution () =
  let h = Sim.Stats.Hist.create () in
  for _round = 1 to 10 do
    for i = 1 to 997 do
      Sim.Stats.Hist.add h (0.001 +. (0.000001 *. float_of_int i))
    done;
    for _ = 1 to 3 do
      Sim.Stats.Hist.add h 1.0
    done
  done;
  let p99 = Sim.Stats.Hist.quantile h 0.99 in
  let p999 = Sim.Stats.Hist.p999 h in
  check Alcotest.bool "p99 in the bulk" true (p99 < 0.01);
  check Alcotest.bool "p999 sees the stragglers" true
    (abs_float (p999 -. 1.0) /. 1.0 < 0.05);
  check Alcotest.bool "ordered" true (p99 <= p999);
  check Alcotest.bool "p999 below max" true (p999 <= Sim.Stats.Hist.max h)

let test_hist_merge () =
  let a = Sim.Stats.Hist.create () and b = Sim.Stats.Hist.create () in
  Sim.Stats.Hist.add a 1.0;
  Sim.Stats.Hist.add b 3.0;
  Sim.Stats.Hist.merge_into ~dst:a b;
  check Alcotest.int "merged count" 2 (Sim.Stats.Hist.count a);
  check (Alcotest.float 1e-9) "merged mean" 2.0 (Sim.Stats.Hist.mean a);
  check (Alcotest.float 1e-9) "merged max" 3.0 (Sim.Stats.Hist.max a)

let test_series () =
  let s = Sim.Stats.Series.create ~width:1.0 in
  Sim.Stats.Series.add s ~time:0.5 1;
  Sim.Stats.Series.add s ~time:0.9 1;
  Sim.Stats.Series.add s ~time:2.5 3;
  let buckets = Sim.Stats.Series.buckets s in
  check Alcotest.int "bucket count" 3 (Array.length buckets);
  let times = Array.map fst buckets and counts = Array.map snd buckets in
  check (Alcotest.array (Alcotest.float 1e-9)) "times" [| 0.0; 1.0; 2.0 |] times;
  check (Alcotest.array Alcotest.int) "counts" [| 2; 0; 3 |] counts

let () =
  Alcotest.run "sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_eq_interleaved;
          Alcotest.test_case "peek/length" `Quick test_eq_peek;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
          Alcotest.test_case "spawn interleaving" `Quick test_spawn_interleaving;
          Alcotest.test_case "yield fairness" `Quick test_yield_fairness;
          Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
          Alcotest.test_case "double wake ignored" `Quick test_suspend_double_wake_ignored;
          Alcotest.test_case "until cutoff" `Quick test_until_cutoff;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "no nesting" `Quick test_no_nesting;
          Alcotest.test_case "outside now fails" `Quick test_outside_now_fails;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "mailbox buffered" `Quick test_mailbox_buffered;
          Alcotest.test_case "mailbox blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "mailbox fifo waiters" `Quick test_mailbox_fifo_waiters;
          Alcotest.test_case "ivar" `Quick test_ivar;
          Alcotest.test_case "semaphore" `Quick test_semaphore_limits_concurrency;
          Alcotest.test_case "mutex" `Quick test_mutex;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serializes" `Quick test_resource_serializes;
          Alcotest.test_case "parallel servers" `Quick test_resource_parallel_servers;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "queue length" `Quick test_resource_queue_length;
        ] );
      ( "net",
        [
          Alcotest.test_case "delay positive" `Quick test_net_delay_positive;
          Alcotest.test_case "size dependence" `Quick test_net_size_dependence;
          Alcotest.test_case "fault latency" `Quick test_net_fault_latency;
          Alcotest.test_case "fault drop" `Quick test_net_fault_drop;
          Alcotest.test_case "fault blocked" `Quick test_net_fault_blocked;
          Alcotest.test_case "anonymous unfaulted" `Quick test_net_anonymous_unfaulted;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "hist basic" `Quick test_hist_basic;
          Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "hist p999 tail resolution" `Quick test_hist_p999_tail_resolution;
          Alcotest.test_case "hist merge" `Quick test_hist_merge;
          Alcotest.test_case "series" `Quick test_series;
        ] );
    ]
