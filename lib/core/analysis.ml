let k_avg ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Analysis.k_avg: p outside (0,1]";
  1. /. p

let retransmission_delay_mean ~p ~slot =
  if not (slot > 0.) then
    invalid_arg "Analysis.retransmission_delay_mean: slot must be positive";
  slot *. k_avg ~p

let recommended_a0 ?(theta = 1.) n =
  if not (theta > 0.) then invalid_arg "Analysis.recommended_a0: theta must be > 0";
  if n < 2 then invalid_arg "Analysis.recommended_a0: n must be >= 2";
  Float.min 0.5 (theta /. float_of_int (n * n))

let chang_roberts_expected_messages ~n =
  if n < 2 then invalid_arg "Analysis.chang_roberts_expected_messages: n >= 2";
  (* n times the harmonic number H_n. *)
  let rec harmonic acc k =
    if k > n then acc else harmonic (acc +. (1. /. float_of_int k)) (k + 1)
  in
  float_of_int n *. harmonic 0. 1

let dkr_worst_case_messages ~n =
  if n < 2 then invalid_arg "Analysis.dkr_worst_case_messages: n >= 2";
  let fn = float_of_int n in
  fn *. ((log fn /. log 2.) +. 1.)
