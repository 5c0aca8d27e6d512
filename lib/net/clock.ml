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

type t = {
  rate : float;
  phase : float;  (* local-time offset at real time 0 *)
}

let create s ~rng =
  let rate =
    if s.s_low = s.s_high then s.s_low
    else Abe_prob.Rng.float_range rng ~lo:s.s_low ~hi:s.s_high
  in
  { rate; phase = Abe_prob.Rng.unit_float rng }

let rate t = t.rate

let[@inline] local_time t ~real = (t.rate *. real) +. t.phase

let[@inline] real_of_local t ~local = (local -. t.phase) /. t.rate

let[@inline] next_tick t ~after =
  let local_now = local_time t ~real:after in
  let candidate = Float.floor local_now +. 1. in
  let real = real_of_local t ~local:candidate in
  (* Guard against rounding collapsing the tick onto [after] itself. *)
  if real > after then real else real_of_local t ~local:(candidate +. 1.)

let advance_tick t times i = times.(i) <- next_tick t ~after:times.(i)

let tick_interval t = 1. /. t.rate
