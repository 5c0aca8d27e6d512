open Abe_prob

type episode = {
  e_start : float;
  e_stop : float;
  factor : float;
}

type t = {
  dist : Dist.t;
  episodes : episode array;
}

let of_dist dist = Dist.validate dist; { dist; episodes = [||] }

let abe_exponential ~delta = of_dist (Dist.exponential ~mean:delta)

let abe_retransmission ~success ~slot = of_dist (Dist.retransmission ~success ~slot)

let abd_uniform ~bound = of_dist (Dist.uniform ~lo:0. ~hi:bound)

let abd_deterministic ~delay = of_dist (Dist.deterministic delay)

let modulated t ~episodes =
  let episodes = Array.copy episodes in
  Array.sort (fun a b -> Float.compare a.e_start b.e_start) episodes;
  { t with episodes }

(* [bad] takes [i] instead of capturing it, so that validating a good
   episode allocates nothing. *)
let bad i fmt = Format.kasprintf invalid_arg ("Delay_model: episode %d " ^^ fmt) i

let validate_episode i { e_start; e_stop; factor } =
  if not (Float.is_finite e_start && e_start >= 0.) then
    bad i "start %g must be finite and non-negative" e_start;
  if not (Float.is_finite e_stop && e_stop > e_start) then
    bad i "stop %g must be finite and after start %g" e_stop e_start;
  if not (Float.is_finite factor && factor > 0.) then
    bad i "factor %g must be finite and positive" factor

let validate t =
  Dist.validate t.dist;
  Array.iteri validate_episode t.episodes

let episodes t = t.episodes

let factor_at t ~now =
  (* Episodes are sorted by start; the latest-starting episode containing
     [now] wins, so a later spike can override a long background episode. *)
  let f = ref 1.0 in
  for i = 0 to Array.length t.episodes - 1 do
    let ep = t.episodes.(i) in
    if ep.e_start <= now && now < ep.e_stop then f := ep.factor
  done;
  !f

let dist t = t.dist

(* Without episodes the factor is 1.0, and [x *. 1.0 = x] exactly, so
   skipping the scan changes no drawn delay. *)
let sample_at t ~now rng =
  if Array.length t.episodes = 0 then Dist.sample t.dist rng
  else Dist.sample t.dist rng *. factor_at t ~now
let expected_delay t = Dist.mean t.dist
let hard_bound t = Dist.support_upper_bound t.dist
let is_abd t = Dist.bounded_support t.dist && Array.length t.episodes = 0

let pp ppf t =
  Fmt.pf ppf "%s[%a]" (if is_abd t then "ABD" else "ABE") Dist.pp t.dist;
  if Array.length t.episodes > 0 then
    Fmt.pf ppf "+%d episodes" (Array.length t.episodes)
