open Abe_prob

let points f xs = Array.of_list (List.map (fun x -> (x, f x)) xs)
let xs = [ 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]

let test_linear_exact () =
  let line = Fit.linear (points (fun x -> 3. +. (2. *. x)) xs) in
  Alcotest.(check (float 1e-6)) "intercept" 3. line.Fit.intercept;
  Alcotest.(check (float 1e-6)) "slope" 2. line.Fit.slope;
  Alcotest.(check (float 1e-6)) "r2" 1. line.Fit.r2

let test_linear_noisy () =
  let rng = Rng.create ~seed:4 in
  let noisy =
    points (fun x -> 5. +. (1.5 *. x) +. Rng.normal rng ~mu:0. ~sigma:0.5) xs
  in
  let line = Fit.linear noisy in
  Alcotest.(check bool) "slope near 1.5" true
    (Float.abs (line.Fit.slope -. 1.5) < 0.1);
  Alcotest.(check bool) "r2 high" true (line.Fit.r2 > 0.99)

let test_proportional () =
  let line = Fit.proportional (points (fun x -> 4. *. x) xs) in
  Alcotest.(check (float 1e-6)) "slope" 4. line.Fit.slope;
  Alcotest.(check (float 1e-9)) "intercept" 0. line.Fit.intercept;
  Alcotest.(check (float 1e-6)) "r2" 1. line.Fit.r2

let test_linear_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Fit.linear: needs at least 2 points") (fun () ->
        ignore (Fit.linear [| (1., 1.) |]));
  Alcotest.check_raises "identical x"
    (Invalid_argument "Fit.linear: all x identical") (fun () ->
        ignore (Fit.linear [| (1., 1.); (1., 2.) |]))

let classify f = Fit.classify_growth (points f xs)

let test_classify_constant () =
  Alcotest.(check string) "constant" "O(1)"
    (Fmt.str "%a" Fit.pp_growth (classify (fun _ -> 7.)))

let test_classify_log () =
  Alcotest.(check string) "log" "O(log n)"
    (Fmt.str "%a" Fit.pp_growth (classify (fun x -> 3. *. log x)))

let test_classify_linear () =
  Alcotest.(check string) "linear" "O(n)"
    (Fmt.str "%a" Fit.pp_growth (classify (fun x -> (2. *. x) +. 5.)))

let test_classify_linearithmic () =
  Alcotest.(check string) "n log n" "O(n log n)"
    (Fmt.str "%a" Fit.pp_growth (classify (fun x -> 1.5 *. x *. log x)))

let test_classify_quadratic () =
  Alcotest.(check string) "quadratic" "O(n^2)"
    (Fmt.str "%a" Fit.pp_growth (classify (fun x -> 0.3 *. x *. x)))

let test_classify_noisy_linear () =
  let rng = Rng.create ~seed:9 in
  let noisy =
    points
      (fun x -> (2. *. x) *. (1. +. (0.05 *. Rng.normal rng ~mu:0. ~sigma:1.)))
      xs
  in
  Alcotest.(check string) "noisy linear" "O(n)"
    (Fmt.str "%a" Fit.pp_growth (Fit.classify_growth noisy))

let test_loglog_exponent () =
  let check name f expected =
    let beta = (Fit.loglog (points f xs)).Fit.slope in
    if Float.abs (beta -. expected) > 0.15 then
      Alcotest.failf "%s: beta %.3f, expected %.2f" name beta expected
  in
  check "linear" (fun x -> 3. *. x) 1.;
  check "quadratic" (fun x -> 0.5 *. x *. x) 2.;
  check "sqrt" sqrt 0.5;
  (* n log n has effective exponent slightly above 1 on this range. *)
  let beta = (Fit.loglog (points (fun x -> x *. log x) xs)).Fit.slope in
  Alcotest.(check bool) "n log n above linear" true (beta > 1.1 && beta < 1.6)

let test_loglog_validation () =
  match Fit.loglog [| (1., 0.); (2., 3.) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of non-positive data"

let test_residual_ordering () =
  (* The classifier returns the model of least residual, so the generating
     one must beat every other, the quadratic included. *)
  let data = points (fun x -> x *. log x) xs in
  Alcotest.(check bool) "correct model has smaller residual" true
    (Fit.classify_growth data = Fit.Linearithmic)

let prop_classify_recovers_shape =
  QCheck.Test.make ~name:"classifier recovers the generating shape" ~count:100
    QCheck.(pair (int_range 0 2) (float_range 0.5 10.))
    (fun (which, scale) ->
       let f, expected =
         match which with
         | 0 -> ((fun x -> scale *. x), Fit.Linear)
         | 1 -> ((fun x -> scale *. x *. log x), Fit.Linearithmic)
         | _ -> ((fun x -> scale *. x *. x), Fit.Quadratic)
       in
       Fit.classify_growth (points f xs) = expected)

let () =
  Alcotest.run "fit"
    [ ( "least-squares",
        [ Alcotest.test_case "linear exact" `Quick test_linear_exact;
          Alcotest.test_case "linear noisy" `Quick test_linear_noisy;
          Alcotest.test_case "proportional" `Quick test_proportional;
          Alcotest.test_case "errors" `Quick test_linear_errors ] );
      ( "classification",
        [ Alcotest.test_case "constant" `Quick test_classify_constant;
          Alcotest.test_case "logarithmic" `Quick test_classify_log;
          Alcotest.test_case "linear" `Quick test_classify_linear;
          Alcotest.test_case "linearithmic" `Quick test_classify_linearithmic;
          Alcotest.test_case "quadratic" `Quick test_classify_quadratic;
          Alcotest.test_case "noisy linear" `Quick test_classify_noisy_linear;
          Alcotest.test_case "residual ordering" `Quick test_residual_ordering;
          Alcotest.test_case "loglog exponent" `Quick test_loglog_exponent;
          Alcotest.test_case "loglog validation" `Quick test_loglog_validation ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_classify_recovers_shape ] ) ]
