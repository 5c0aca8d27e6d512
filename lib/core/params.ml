type t = {
  delta : float;
  gamma : float;
  clock : Abe_net.Clock.spec;
}

let make ~delta ~gamma ~clock =
  if not (delta > 0. && Float.is_finite delta) then
    invalid_arg "Params.make: delta must be positive and finite";
  if not (gamma >= 0. && Float.is_finite gamma) then
    invalid_arg "Params.make: gamma must be non-negative and finite";
  { delta; gamma; clock }

let default = { delta = 1.; gamma = 0.; clock = Abe_net.Clock.perfect }

let tolerance = 1e-9

let admits_delay t model =
  Abe_net.Delay_model.expected_delay model <= t.delta *. (1. +. tolerance)

let admits_processing t proc =
  match proc with
  | None -> true
  | Some dist -> Abe_prob.Dist.mean dist <= t.gamma *. (1. +. tolerance) +. tolerance
