open Abe_prob

(* Compare the analytic mean/variance of a distribution against a large
   sample; tolerance scales with the standard error. *)
let check_moments ?(samples = 200_000) ~name dist =
  let rng = Rng.create ~seed:(Hashtbl.hash name) in
  let stats = Stats.create () in
  for _ = 1 to samples do
    let x = Dist.sample dist rng in
    if x < 0. then Alcotest.failf "%s: negative sample %g" name x;
    Stats.add stats x
  done;
  let summary = Stats.summary stats in
  let measured = summary.Stats.mean in
  let expected = Dist.mean dist in
  let tolerance = (6. *. summary.Stats.std_error) +. 1e-9 in
  if Float.abs (measured -. expected) > tolerance then
    Alcotest.failf "%s: mean %g, expected %g (tolerance %g)" name measured
      expected tolerance;
  (* The sample variance only concentrates when the fourth moment exists;
     Lomax with alpha <= 4 is exempted. *)
  let heavy_tail =
    match dist with Dist.Lomax { alpha; _ } -> alpha <= 4. | _ -> false
  in
  match Dist.variance dist with
  | None -> ()
  | Some _ when heavy_tail -> ()
  | Some v ->
    let measured_v = summary.Stats.stddev ** 2. in
    let tol = 0.15 *. Float.max v 1e-6 in
    if Float.abs (measured_v -. v) > tol then
      Alcotest.failf "%s: variance %g, expected %g" name measured_v v

let moment_cases =
  [ ("deterministic", Dist.deterministic 2.5);
    ("uniform", Dist.uniform ~lo:0.5 ~hi:3.5);
    ("exponential", Dist.exponential ~mean:1.7);
    ("erlang", Dist.erlang ~shape:4 ~mean:2.);
    ("hyperexp", Dist.hyperexponential_cv2 ~mean:1. ~cv2:4.);
    ("lomax", Dist.lomax ~alpha:2.5 ~mean:1.);
    ("retransmission", Dist.retransmission ~success:0.25 ~slot:0.5);
    ("scaled", Dist.scaled (Dist.uniform ~lo:0. ~hi:2.) ~factor:3.) ]

let test_moments () =
  List.iter (fun (name, dist) -> check_moments ~name dist) moment_cases

let test_lomax_infinite_variance () =
  Alcotest.(check (option (float 1e-9)))
    "alpha <= 2 has no variance" None
    (Dist.variance (Dist.lomax ~alpha:1.5 ~mean:1.))

let test_lomax_mean_param () =
  let d = Dist.lomax ~alpha:3. ~mean:2. in
  Alcotest.(check (float 1e-9)) "lomax mean" 2. (Dist.mean d)

let test_cv2 () =
  let check name dist expected =
    match Dist.cv2 dist with
    | None -> Alcotest.failf "%s: cv2 undefined" name
    | Some c ->
      if Float.abs (c -. expected) > 1e-6 then
        Alcotest.failf "%s: cv2 %g, expected %g" name c expected
  in
  check "exponential" (Dist.exponential ~mean:3.) 1.;
  check "deterministic" (Dist.deterministic 3.) 0.;
  check "hyperexp" (Dist.hyperexponential_cv2 ~mean:2. ~cv2:4.) 4.

let test_support_bounds () =
  Alcotest.(check (option (float 1e-9)))
    "uniform bound" (Some 3.)
    (Dist.support_upper_bound (Dist.uniform ~lo:1. ~hi:3.));
  Alcotest.(check (option (float 1e-9)))
    "exponential unbounded" None
    (Dist.support_upper_bound (Dist.exponential ~mean:1.));
  Alcotest.(check bool)
    "deterministic is ABD" true
    (Dist.bounded_support (Dist.deterministic 1.));
  Alcotest.(check bool)
    "retransmission is not ABD" false
    (Dist.bounded_support (Dist.retransmission ~success:0.5 ~slot:1.));
  Alcotest.(check (option (float 1e-9)))
    "scaled bound" (Some 6.)
    (Dist.support_upper_bound
       (Dist.scaled (Dist.uniform ~lo:0. ~hi:2.) ~factor:3.))

let test_same_mean_family () =
  let family = Dist.same_mean_family ~mean:2. in
  Alcotest.(check bool) "family has several members" true
    (List.length family >= 5);
  List.iter
    (fun (name, dist) ->
       if Float.abs (Dist.mean dist -. 2.) > 1e-9 then
         Alcotest.failf "family member %s has mean %g, expected 2" name
           (Dist.mean dist))
    family

let test_validation_errors () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "negative deterministic" (fun () -> Dist.deterministic (-1.));
  expect_invalid "uniform lo=hi" (fun () -> Dist.uniform ~lo:1. ~hi:1.);
  expect_invalid "exponential 0" (fun () -> Dist.exponential ~mean:0.);
  expect_invalid "erlang shape 0" (fun () -> Dist.erlang ~shape:0 ~mean:1.);
  expect_invalid "lomax alpha 1" (fun () -> Dist.lomax ~alpha:1. ~mean:1.);
  expect_invalid "retransmission p=0" (fun () ->
      Dist.retransmission ~success:0. ~slot:1.);
  expect_invalid "retransmission p>1" (fun () ->
      Dist.retransmission ~success:1.5 ~slot:1.);
  expect_invalid "hyperexp cv2 < 1" (fun () ->
      Dist.hyperexponential_cv2 ~mean:1. ~cv2:0.5);
  expect_invalid "scaled factor 0" (fun () ->
      Dist.scaled (Dist.deterministic 1.) ~factor:0.)

let test_hyperexp_collapses_to_exponential () =
  match Dist.hyperexponential_cv2 ~mean:2. ~cv2:1. with
  | Dist.Exponential { mean } ->
    Alcotest.(check (float 1e-9)) "mean preserved" 2. mean
  | _ -> Alcotest.fail "cv2=1 should be exponential"

let test_pp_smoke () =
  List.iter
    (fun (_, dist) ->
       Alcotest.(check bool) "printable" true
         (String.length (Dist.to_string dist) > 0))
    moment_cases

let test_cdf_closed_forms () =
  let check name dist x expected =
    match Dist.cdf dist x with
    | Some f ->
      if Float.abs (f -. expected) > 1e-9 then
        Alcotest.failf "%s: cdf(%g) = %g, expected %g" name x f expected
    | None -> Alcotest.failf "%s: expected a closed form" name
  in
  check "uniform mid" (Dist.uniform ~lo:0. ~hi:2.) 0.5 0.25;
  check "exponential" (Dist.exponential ~mean:1.) 1. (1. -. exp (-1.));
  check "deterministic below" (Dist.deterministic 2.) 1.9 0.;
  check "deterministic at" (Dist.deterministic 2.) 2. 1.;
  check "negative" (Dist.exponential ~mean:1.) (-1.) 0.;
  check "retransmission step" (Dist.retransmission ~success:0.5 ~slot:1.) 2.5 0.75;
  (match Dist.cdf (Dist.erlang ~shape:4 ~mean:1.) 1. with
   | None -> ()
   | Some _ -> Alcotest.fail "erlang shape>1 should have no closed form");
  (* Scaling composes with the base cdf. *)
  check "scaled" (Dist.scaled (Dist.exponential ~mean:1.) ~factor:2.) 2.
    (1. -. exp (-1.))

let test_cdf_monotone_and_bounded () =
  List.iter
    (fun (name, dist) ->
       match Dist.cdf dist 0. with
       | None -> ()
       | Some _ ->
         let previous = ref (-1.) in
         for i = 0 to 100 do
           let x = float_of_int i /. 10. in
           match Dist.cdf dist x with
           | Some f ->
             if f < !previous -. 1e-12 || f < 0. || f > 1. then
               Alcotest.failf "%s: cdf not monotone/bounded at %g" name x;
             previous := f
           | None -> Alcotest.failf "%s: cdf vanished at %g" name x
         done)
    moment_cases

let test_ks_accepts_true_distribution () =
  List.iter
    (fun (name, dist) ->
       let rng = Rng.create ~seed:(Hashtbl.hash name + 1) in
       let samples = Array.init 2_000 (fun _ -> Dist.sample dist rng) in
       match Ks.test_dist ~samples ~dist ~alpha:0.01 with
       | None -> Alcotest.failf "%s: expected closed-form cdf" name
       | Some verdict ->
         if not verdict.Ks.accept then
           Alcotest.failf "%s: KS rejected its own sampler (D=%g > %g)" name
             verdict.Ks.d_statistic verdict.Ks.threshold)
    [ ("uniform", Dist.uniform ~lo:0.5 ~hi:3.5);
      ("exponential", Dist.exponential ~mean:1.7);
      ("hyperexp", Dist.hyperexponential_cv2 ~mean:1. ~cv2:4.);
      ("lomax", Dist.lomax ~alpha:2.5 ~mean:1.) ]

let test_ks_rejects_wrong_distribution () =
  (* Exponential samples tested against a uniform CDF must be rejected. *)
  let rng = Rng.create ~seed:42 in
  let samples =
    Array.init 2_000 (fun _ -> Dist.sample (Dist.exponential ~mean:1.) rng)
  in
  let verdict =
    Option.get
      (Ks.test_dist ~samples ~dist:(Dist.uniform ~lo:0. ~hi:2.) ~alpha:0.01)
  in
  Alcotest.(check bool) "rejected" false verdict.Ks.accept

let test_ks_statistic_small_case () =
  (* One sample at the median of U(0,1): D = 1/2. *)
  let d = Ks.statistic ~samples:[| 0.5 |] ~cdf:Fun.id in
  Alcotest.(check (float 1e-9)) "single point" 0.5 d;
  (* Critical values decrease with n and with alpha looser. *)
  Alcotest.(check bool) "ordering" true
    (Ks.critical_value ~n:100 ~alpha:0.01 > Ks.critical_value ~n:100 ~alpha:0.05);
  Alcotest.(check bool) "shrinks with n" true
    (Ks.critical_value ~n:400 ~alpha:0.05 < Ks.critical_value ~n:100 ~alpha:0.05)

let arbitrary_dist =
  let open QCheck.Gen in
  let base =
    oneof
      [ map
          (fun m -> Dist.deterministic (Float.abs m +. 0.1))
          (float_bound_exclusive 10.);
        map (fun hi -> Dist.uniform ~lo:0. ~hi:(hi +. 0.5)) (float_bound_exclusive 10.);
        map (fun m -> Dist.exponential ~mean:(m +. 0.1)) (float_bound_exclusive 10.);
        map
          (fun (k, m) -> Dist.erlang ~shape:(1 + (k mod 6)) ~mean:(m +. 0.1))
          (pair small_nat (float_bound_exclusive 10.));
        map
          (fun p -> Dist.retransmission ~success:(0.05 +. (0.9 *. p)) ~slot:1.)
          (float_bound_exclusive 1.) ]
  in
  QCheck.make base ~print:Dist.to_string

let prop_samples_within_support =
  QCheck.Test.make ~name:"samples within declared support" ~count:200
    QCheck.(pair arbitrary_dist small_int)
    (fun (dist, seed) ->
       let rng = Rng.create ~seed in
       let bound = Dist.support_upper_bound dist in
       List.for_all
         (fun _ ->
            let x = Dist.sample dist rng in
            x >= 0.
            && match bound with None -> true | Some b -> x <= b +. 1e-9)
         (List.init 50 Fun.id))

let () =
  Alcotest.run "dist"
    [ ( "moments",
        [ Alcotest.test_case "analytic vs sampled" `Slow test_moments;
          Alcotest.test_case "lomax infinite variance" `Quick
            test_lomax_infinite_variance;
          Alcotest.test_case "lomax mean parameterisation" `Quick
            test_lomax_mean_param;
          Alcotest.test_case "cv2" `Quick test_cv2 ] );
      ("support", [ Alcotest.test_case "support bounds" `Quick test_support_bounds ]);
      ( "transforms",
        [ Alcotest.test_case "same-mean family" `Quick test_same_mean_family;
          Alcotest.test_case "hyperexp cv2=1" `Quick
            test_hyperexp_collapses_to_exponential ] );
      ( "validation",
        [ Alcotest.test_case "constructor errors" `Quick test_validation_errors;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke ] );
      ( "cdf & goodness-of-fit",
        [ Alcotest.test_case "closed forms" `Quick test_cdf_closed_forms;
          Alcotest.test_case "monotone, bounded" `Quick
            test_cdf_monotone_and_bounded;
          Alcotest.test_case "KS accepts samplers" `Quick
            test_ks_accepts_true_distribution;
          Alcotest.test_case "KS rejects mismatch" `Quick
            test_ks_rejects_wrong_distribution;
          Alcotest.test_case "KS small cases" `Quick test_ks_statistic_small_case ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_samples_within_support ] ) ]
