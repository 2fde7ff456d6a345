(* Raw-sample quantiles and the run-to-run statistics of the compare
   rule. Latencies are kept as raw samples rather than in the
   simulator's log-bucketed histograms: a 4 % bucket edge would turn a
   sub-bucket shift into a whole-bucket jump between seeds. *)

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let grown = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 grown 0 t.n;
      t.data <- grown
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    a
end

(* Linear interpolation between closest ranks; 0 for no samples. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      (* Guarded so that infinite samples (failed ops) never yield nan. *)
      if frac = 0.0 || Float.equal a.(i) a.(i + 1) then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let quantile s q = quantile_sorted (Samples.sorted s) q

let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles exactly as Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method)
   computes them, so spreads printed here match the acceptance check. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let cut i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 3)

(* Inter-quartile distance as a share of the median. *)
let spread values =
  let q1, q3 = quartiles values in
  let med = median values in
  if med = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs med
