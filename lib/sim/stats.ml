module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }

  let incr t = t.n <- t.n + 1

  let add t k = t.n <- t.n + k

  let value t = t.n

  let reset t = t.n <- 0
end

module Hist = struct
  (* Buckets are geometric with ratio [gamma]; index 0 covers values up
     to [lo]. With gamma = 1.04, relative error per bucket is ~2% and
     covering 1e-9 .. 1e6 takes ~880 buckets. *)
  let lo = 1e-9

  let hi = 1e6

  let gamma = 1.04

  let log_gamma = log gamma

  let nbuckets = int_of_float (ceil (log (hi /. lo) /. log_gamma)) + 2

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create () =
    { buckets = Array.make nbuckets 0; count = 0; sum = 0.0; minv = infinity; maxv = neg_infinity }

  let bucket_of value =
    if value <= lo then 0
    else if value >= hi then nbuckets - 1
    else
      let idx = 1 + int_of_float (log (value /. lo) /. log_gamma) in
      if idx >= nbuckets then nbuckets - 1 else idx

  (* Upper edge of bucket [i]: the largest value mapping into it. *)
  let value_of_bucket i = if i = 0 then lo else lo *. (gamma ** float_of_int i)

  let add t v =
    let v = if v < 0.0 then 0.0 else v in
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v

  let count t = t.count

  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

  let min t = if t.count = 0 then 0.0 else t.minv

  let max t = if t.count = 0 then 0.0 else t.maxv

  let quantile t q =
    if t.count = 0 then 0.0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank = int_of_float (ceil (q *. float_of_int t.count)) in
      let rank = if rank < 1 then 1 else rank in
      let acc = ref 0 in
      let found = ref (nbuckets - 1) in
      (try
         for i = 0 to nbuckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= rank then begin
             found := i;
             raise Exit
           end
         done
       with Exit -> ());
      let v = value_of_bucket !found in
      (* Clamp into the observed range so tiny histograms don't report a
         bucket edge above the true max. *)
      if v > t.maxv then t.maxv else if v < t.minv then t.minv else v
    end

  let p999 t = quantile t 0.999

  let merge_into ~dst src =
    for i = 0 to nbuckets - 1 do
      dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
    done;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum +. src.sum;
    if src.minv < dst.minv then dst.minv <- src.minv;
    if src.maxv > dst.maxv then dst.maxv <- src.maxv
end

module Series = struct
  type t = { width : float; mutable counts : int array; mutable last : int }

  let create ~width =
    if width <= 0.0 then invalid_arg "Series.create: width must be positive";
    { width; counts = Array.make 16 0; last = -1 }

  let ensure t i =
    if i >= Array.length t.counts then begin
      let capacity = Stdlib.max (i + 1) (2 * Array.length t.counts) in
      let bigger = Array.make capacity 0 in
      Array.blit t.counts 0 bigger 0 (Array.length t.counts);
      t.counts <- bigger
    end

  let add t ~time k =
    if time < 0.0 then invalid_arg "Series.add: negative time";
    let i = int_of_float (time /. t.width) in
    ensure t i;
    t.counts.(i) <- t.counts.(i) + k;
    if i > t.last then t.last <- i

  let buckets t =
    Array.init (t.last + 1) (fun i -> (float_of_int i *. t.width, t.counts.(i)))
end
