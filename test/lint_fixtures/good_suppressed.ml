(* Suppression coverage: [lint: allow] covers its own lines plus the
   next, [lint: allow-file] covers the whole file. Each suppressed
   finding is asserted with [expect-suppressed:]. *)
(* lint: allow-file poly-compare *)

let any_live tbl =
  (* Order-independent boolean OR-fold. *)
  (* lint: allow nondet-iteration *)
  Hashtbl.fold (fun _ live acc -> acc || live) tbl false (* expect-suppressed: nondet-iteration *)

let host_stamp () = Unix.gettimeofday () (* lint: allow wallclock-rng *) (* expect-suppressed: wallclock-rng *)

let same a_store b_store = a_store = b_store (* expect-suppressed: poly-compare *)
