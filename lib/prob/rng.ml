(* xoshiro256++ with SplitMix64 seeding.  All arithmetic on int64.

   The four state words live in one 32-byte buffer instead of four
   [mutable int64] record fields: every store into an [int64] field boxes
   the word, whereas [Bytes.set_int64_le] writes it raw.  With the
   accessors inlined, the native compiler keeps each intermediate word
   unboxed, so [bits64], [bool] and [int] allocate nothing and [split]
   allocates only the new 32-byte state.  The layout changes no output:
   test/test_rng.ml pins known answers for seeds, splits and floats. *)

type t = Bytes.t

let[@inline] word t i = Bytes.get_int64_le t (8 * i)
let[@inline] set_word t i w = Bytes.set_int64_le t (8 * i) w

let[@inline] make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set_word t 0 s0;
  set_word t 1 s1;
  set_word t 2 s2;
  set_word t 3 s3;
  t

(* SplitMix64 step: used to expand an integer seed into four well-mixed
   64-bit words, and to derive split streams.  Takes the advanced state
   directly rather than a [ref] so seeding stays allocation-free — stream
   splitting sits on the network-construction hot path. *)
let[@inline] splitmix64_mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] of_state_seed seed64 =
  let z1 = Int64.add seed64 golden_gamma in
  let z2 = Int64.add z1 golden_gamma in
  let z3 = Int64.add z2 golden_gamma in
  let z4 = Int64.add z3 golden_gamma in
  let s0 = splitmix64_mix z1 in
  let s1 = splitmix64_mix z2 in
  let s2 = splitmix64_mix z3 in
  let s3 = splitmix64_mix z4 in
  (* xoshiro must not be seeded with the all-zero state; the SplitMix64
     expansion makes that astronomically unlikely, but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    make 1L 2L 3L 4L
  else make s0 s1 s2 s3

let create ~seed = of_state_seed (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let s0 = word t 0 and s1 = word t 1 and s2 = word t 2 and s3 = word t 3 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set_word t 0 s0;
  set_word t 1 s1;
  set_word t 2 (Int64.logxor s2 tmp);
  set_word t 3 (rotl s3 45);
  result

let split t = of_state_seed (bits64 t)

let[@inline] unit_float t =
  (* Top 53 bits, scaled to [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float t bound =
  if not (bound > 0. && Float.is_finite bound) then
    invalid_arg "Rng.float: bound must be positive and finite";
  unit_float t *. bound

let float_range t ~lo ~hi =
  if not (lo < hi) then invalid_arg "Rng.float_range: requires lo < hi";
  lo +. (unit_float t *. (hi -. lo))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the low bits to avoid modulo bias, masked by
     the smallest all-ones word (at least 1) covering [bound - 1].  The
     mask is below 2^62, so every candidate is a non-negative [int]. *)
  let m = bound - 1 in
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  let m = m lor (m lsr 32) in
  let mask = Int64.of_int (m lor 1) in
  let candidate = ref (Int64.to_int (Int64.logand (bits64 t) mask)) in
  while !candidate >= bound do
    candidate := Int64.to_int (Int64.logand (bits64 t) mask)
  done;
  !candidate

let int_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_range: requires lo <= hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] bernoulli t p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Rng.bernoulli: p outside [0,1]";
  unit_float t < p

let bernoulli_at t probs i = bernoulli t probs.(i)

let exponential t ~mean =
  if not (mean > 0.) then invalid_arg "Rng.exponential: mean must be positive";
  (* Inverse transform; 1 - u avoids log 0. *)
  -. mean *. log (1. -. unit_float t)

let geometric t ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: p outside (0,1]";
  if p = 1. then 1
  else
    let u = 1. -. unit_float t in
    (* Inverse transform for the number of trials until first success. *)
    let trials = Float.to_int (Float.ceil (log u /. log (1. -. p))) in
    max 1 trials

let normal t ~mu ~sigma =
  if not (sigma >= 0.) then invalid_arg "Rng.normal: sigma must be non-negative";
  let u1 = 1. -. unit_float t and u2 = unit_float t in
  let radius = sqrt (-2. *. log u1) in
  mu +. (sigma *. radius *. cos (2. *. Float.pi *. u2))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
