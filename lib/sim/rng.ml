type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64, used to expand seeds into xoshiro state. *)
let splitmix64 (state : int64 ref) : int64 =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 (seed : int64) : t =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  (* xoshiro must not be seeded with all zeros. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
  else { s0; s1; s2; s3 }

let create seed = of_seed64 (Int64.of_int seed)

let rotl (x : int64) (k : int) : int64 =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_seed64 (bits64 t)

let int64 t bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Rng.int64: bound must be positive";
  (* Rejection sampling (retry while the draw falls in the biased tail)
     to avoid modulo bias. *)
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound) in
  let rec loop () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    if Int64.compare r limit >= 0 then loop () else Int64.rem r bound
  in
  loop ()

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (int64 t (Int64.of_int bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 high bits, as in the reference xoshiro double conversion. *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let bytes t n =
  String.init n (fun _ -> Char.chr (int t 256))
