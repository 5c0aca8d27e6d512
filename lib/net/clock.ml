type spec = {
  s_low : float;
  s_high : float;
}

let spec ~s_low ~s_high =
  if not (s_low > 0. && Float.is_finite s_high && s_high >= s_low) then
    invalid_arg "Clock.spec: requires 0 < s_low <= s_high < infinity";
  { s_low; s_high }

let perfect = { s_low = 1.; s_high = 1. }

(* [| rate; phase |], the phase being the local-time offset at real time
   0.  A flat float array, so [redraw] stores both draws without boxing
   either. *)
type t = float array

let redraw t s ~rng =
  if s.s_low = s.s_high then t.(0) <- s.s_low
  else begin
    if not (s.s_low < s.s_high) then
      invalid_arg "Rng.float_range: requires lo < hi";
    (* [Rng.float_range], with the draw kept flat. *)
    Abe_prob.Rng.unit_float_into rng t 0;
    t.(0) <- s.s_low +. (t.(0) *. (s.s_high -. s.s_low))
  end;
  Abe_prob.Rng.unit_float_into rng t 1

(* A perfect clock draws only its phase, the split stream's first draw. *)
let redraw_split t s ~master ~scratch =
  if s.s_low = s.s_high then begin
    t.(0) <- s.s_low;
    Abe_prob.Rng.split_unit_float_into master t 1
  end
  else begin
    Abe_prob.Rng.split_into master ~into:scratch;
    redraw t s ~rng:scratch
  end

let create s ~rng =
  let t = Array.make 2 0. in
  redraw t s ~rng;
  t

let[@inline] rate t = Array.unsafe_get t 0
let[@inline] phase t = Array.unsafe_get t 1

let[@inline] local_time t ~real = (rate t *. real) +. phase t

let[@inline] real_of_local t ~local = (local -. phase t) /. rate t

let first_tick t times locals i =
  let after = times.(i) in
  let local = Float.floor (local_time t ~real:after) +. 1. in
  let real = real_of_local t ~local in
  if real > after then begin
    locals.(i) <- local;
    times.(i) <- real
  end
  else begin
    let local = local +. 1. in
    locals.(i) <- local;
    times.(i) <- real_of_local t ~local
  end

(* Below 2^50 the round trip [local_time (real_of_local k)] is within half
   a unit of [k] (four roundings of at most 2^-53 relative each), so the
   general rule's floor reads [k - 1] or [k]. *)
let exact_below = 0x1p50

let[@inline] step_tick t times locals i =
  let local = Array.unsafe_get locals i +. 1. in
  let real = real_of_local t ~local in
  if local < exact_below && real > Array.unsafe_get times i then begin
    Array.unsafe_set locals i local;
    Array.unsafe_set times i real
  end
  else first_tick t times locals i
