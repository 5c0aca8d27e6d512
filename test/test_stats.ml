open Abe_prob

let feed values =
  let s = Stats.create () in
  Array.iter (Stats.add s) values;
  s

let naive_mean values =
  Array.fold_left ( +. ) 0. values /. float_of_int (Array.length values)

let naive_variance values =
  let m = naive_mean values in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. values
  /. float_of_int (Array.length values - 1)

let sample_data seed count =
  let rng = Rng.create ~seed in
  Array.init count (fun _ -> Rng.normal rng ~mu:10. ~sigma:3.)

let test_against_naive () =
  let values = sample_data 1 1_000 in
  let s = feed values in
  Alcotest.(check (float 1e-9)) "count" 1000. (float_of_int (Stats.count s));
  Alcotest.(check (float 1e-9)) "mean" (naive_mean values) (Stats.mean s);
  Alcotest.(check (float 1e-6)) "variance" (naive_variance values)
    (Stats.variance s)

let test_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count 0" 0 (Stats.count s);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check (float 0.)) "variance 0" 0. (Stats.variance s)

let test_single () =
  let s = feed [| 42. |] in
  Alcotest.(check (float 1e-9)) "mean" 42. (Stats.mean s);
  Alcotest.(check (float 0.)) "variance" 0. (Stats.variance s);
  Alcotest.(check (float 1e-9)) "min" 42. (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 42. (Stats.max_value s)

let test_min_max_total () =
  let s = feed [| 3.; -1.; 7.; 2. |] in
  Alcotest.(check (float 1e-9)) "min" (-1.) (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 7. (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "total" 11. (Stats.total s)

let test_merge () =
  let values = sample_data 2 500 in
  let left = feed (Array.sub values 0 200) in
  let right = feed (Array.sub values 200 300) in
  let merged = Stats.merge left right in
  let whole = feed values in
  Alcotest.(check int) "count" (Stats.count whole) (Stats.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean whole) (Stats.mean merged);
  Alcotest.(check (float 1e-6)) "variance" (Stats.variance whole)
    (Stats.variance merged);
  Alcotest.(check (float 1e-9)) "min" (Stats.min_value whole)
    (Stats.min_value merged)

let test_merge_with_empty () =
  let s = feed [| 1.; 2.; 3. |] in
  let e = Stats.create () in
  Alcotest.(check (float 1e-9)) "left empty" (Stats.mean s)
    (Stats.mean (Stats.merge e s));
  Alcotest.(check (float 1e-9)) "right empty" (Stats.mean s)
    (Stats.mean (Stats.merge s e))

let test_t_critical () =
  Alcotest.(check (float 1e-6)) "df=1" 12.706 (Stats.t_critical_95 1);
  Alcotest.(check (float 1e-6)) "df=10" 2.228 (Stats.t_critical_95 10);
  Alcotest.(check (float 1e-6)) "df=120 exact table row" 1.980
    (Stats.t_critical_95 120);
  Alcotest.(check (float 1e-3)) "df large converges to normal" 1.96
    (Stats.t_critical_95 10_000)

(* Regression: the critical value used to jump from 1.980 (df = 120)
   straight to 1.96 (df >= 121), so ci95_half_width dropped
   discontinuously when one more sample arrived.  The tail now interpolates in 1/df
   toward the normal limit: monotone non-increasing everywhere, always
   above 1.96, and continuous at the table edge. *)
let test_t_critical_monotone () =
  let previous = ref infinity in
  for df = 1 to 2_000 do
    let v = Stats.t_critical_95 df in
    if v > !previous +. 1e-12 then
      Alcotest.failf "t critical not monotone at df=%d (%g > %g)" df v
        !previous;
    if v < 1.96 then
      Alcotest.failf "t critical below the normal limit at df=%d (%g)" df v;
    previous := v
  done;
  (* No discontinuity at the last table row. *)
  let edge_gap = Stats.t_critical_95 120 -. Stats.t_critical_95 121 in
  Alcotest.(check bool) "continuous at the table edge" true
    (edge_gap >= 0. && edge_gap < 1e-3)

let test_ci_sane () =
  let values = sample_data 3 400 in
  let s = feed values in
  let half = Stats.ci95_half_width s in
  Alcotest.(check bool) "ci positive" true (half > 0.);
  (* For 400 normal samples with sigma=3, the CI should be ~0.3 wide. *)
  Alcotest.(check bool) "ci reasonable" true (half < 1.)

let test_summary () =
  let s = feed [| 1.; 2.; 3.; 4. |] in
  let summary = Stats.summary s in
  Alcotest.(check int) "n" 4 summary.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 2.5 summary.Stats.mean;
  Alcotest.(check bool) "pp smoke" true
    (String.length (Fmt.str "%a" Stats.pp_summary summary) > 0)

let test_reservoir_quantiles () =
  let r = Stats.Reservoir.create () in
  for i = 1 to 101 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 51. (Stats.Reservoir.median r);
  Alcotest.(check (float 1e-9)) "q0" 1. (Stats.Reservoir.quantile r 0.);
  Alcotest.(check (float 1e-9)) "q1" 101. (Stats.Reservoir.quantile r 1.);
  Alcotest.(check (float 1e-9)) "q25" 26. (Stats.Reservoir.quantile r 0.25)

let test_reservoir_interpolation () =
  let r = Stats.Reservoir.create () in
  List.iter (Stats.Reservoir.add r) [ 0.; 10. ];
  Alcotest.(check (float 1e-9)) "interpolated median" 5.
    (Stats.Reservoir.median r)

let test_reservoir_growth () =
  let r = Stats.Reservoir.create () in
  for i = 1 to 10_000 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check int) "count" 10_000 (Stats.Reservoir.count r);
  Alcotest.(check int) "samples length" 10_000
    (Array.length (Stats.Reservoir.samples r))

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.; 1.9; 2.; 5.5; 9.99; -1.; 10.; 42. ];
  Alcotest.(check (array int)) "counts" [| 2; 1; 1; 0; 1 |]
    (Stats.Histogram.counts h);
  Alcotest.(check int) "underflow" 1 (Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Stats.Histogram.overflow h);
  Alcotest.(check int) "total" 8 (Stats.Histogram.total h);
  let lo, hi = Stats.Histogram.bin_bounds h 1 in
  Alcotest.(check (float 1e-9)) "bin lo" 2. lo;
  Alcotest.(check (float 1e-9)) "bin hi" 4. hi

let prop_merge_equals_concat =
  QCheck.Test.make ~name:"merge == concatenation" ~count:300
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
       let a = feed (Array.of_list xs) and b = feed (Array.of_list ys) in
       let merged = Stats.merge a b in
       let whole = feed (Array.of_list (xs @ ys)) in
       Stats.count merged = Stats.count whole
       && (Stats.count whole = 0
           || Float.abs (Stats.mean merged -. Stats.mean whole) < 1e-6)
       && Float.abs (Stats.variance merged -. Stats.variance whole) < 1e-6)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles monotone in q" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-10.) 10.))
    (fun xs ->
       let r = Stats.Reservoir.create () in
       List.iter (Stats.Reservoir.add r) xs;
       let qs = [ 0.; 0.25; 0.5; 0.75; 1. ] in
       let values = List.map (Stats.Reservoir.quantile r) qs in
       let rec monotone = function
         | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
         | _ -> true
       in
       monotone values)

let () =
  Alcotest.run "stats"
    [ ( "welford",
        [ Alcotest.test_case "against naive" `Quick test_against_naive;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single" `Quick test_single;
          Alcotest.test_case "min/max/total" `Quick test_min_max_total ] );
      ( "merge",
        [ Alcotest.test_case "split halves" `Quick test_merge;
          Alcotest.test_case "with empty" `Quick test_merge_with_empty ] );
      ( "confidence",
        [ Alcotest.test_case "t critical" `Quick test_t_critical;
          Alcotest.test_case "t critical monotone" `Quick
            test_t_critical_monotone;
          Alcotest.test_case "ci sane" `Quick test_ci_sane;
          Alcotest.test_case "summary" `Quick test_summary ] );
      ( "reservoir",
        [ Alcotest.test_case "quantiles" `Quick test_reservoir_quantiles;
          Alcotest.test_case "interpolation" `Quick test_reservoir_interpolation;
          Alcotest.test_case "growth" `Quick test_reservoir_growth ] );
      ("histogram", [ Alcotest.test_case "binning" `Quick test_histogram ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_merge_equals_concat; prop_quantile_monotone ] ) ]
