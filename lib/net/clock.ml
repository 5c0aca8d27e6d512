type spec = {
  s_low : float;
  s_high : float;
}

let spec ~s_low ~s_high =
  if not (s_low > 0. && Float.is_finite s_high && s_high >= s_low) then
    invalid_arg "Clock.spec: requires 0 < s_low <= s_high < infinity";
  { s_low; s_high }

let perfect = { s_low = 1.; s_high = 1. }

let drift_ratio s = s.s_high /. s.s_low

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

let create s ~rng =
  let t = Array.make 2 0. in
  redraw t s ~rng;
  t

let[@inline] rate t = Array.unsafe_get t 0
let[@inline] phase t = Array.unsafe_get t 1

let[@inline] local_time t ~real = (rate t *. real) +. phase t

let[@inline] real_of_local t ~local = (local -. phase t) /. rate t

let[@inline] next_tick t ~after =
  let local_now = local_time t ~real:after in
  let candidate = Float.floor local_now +. 1. in
  let real = real_of_local t ~local:candidate in
  (* Guard against rounding collapsing the tick onto [after] itself. *)
  if real > after then real else real_of_local t ~local:(candidate +. 1.)

let advance_tick t times i = times.(i) <- next_tick t ~after:times.(i)

let tick_interval t = 1. /. rate t
