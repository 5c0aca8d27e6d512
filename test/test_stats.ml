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
  let s = Stats.summary (feed values) in
  Alcotest.(check int) "count" 1000 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" (naive_mean values) s.Stats.mean;
  Alcotest.(check (float 1e-6)) "variance" (naive_variance values)
    (s.Stats.stddev ** 2.)

let test_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count 0" 0 (Stats.summary s).Stats.n;
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check (float 0.)) "variance 0" 0. (Stats.summary s).Stats.stddev

let test_single () =
  let s = Stats.summary (feed [| 42. |]) in
  Alcotest.(check (float 1e-9)) "mean" 42. s.Stats.mean;
  Alcotest.(check (float 0.)) "variance" 0. s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 42. s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 42. s.Stats.max

let test_min_max_total () =
  let s = Stats.summary (feed [| 3.; -1.; 7.; 2. |]) in
  Alcotest.(check (float 1e-9)) "min" (-1.) s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 7. s.Stats.max;
  Alcotest.(check (float 1e-9)) "total" 11.
    (s.Stats.mean *. float_of_int s.Stats.n)

(* The Student-t critical value that [ci95_half_width] applies to [df]
   degrees of freedom: the half-width over the standard error of [df + 1]
   samples alternating 0 and 1. *)
let t_critical_95 df =
  let samples = Array.init (df + 1) (fun i -> float_of_int (i land 1)) in
  let s = Stats.summary (feed samples) in
  s.Stats.ci95_half_width /. s.Stats.std_error

let test_t_critical () =
  Alcotest.(check (float 1e-6)) "df=1" 12.706 (t_critical_95 1);
  Alcotest.(check (float 1e-6)) "df=10" 2.228 (t_critical_95 10);
  Alcotest.(check (float 1e-6)) "df=120 exact table row" 1.980
    (t_critical_95 120);
  Alcotest.(check (float 1e-3)) "df large converges to normal" 1.96
    (t_critical_95 10_000)

(* Regression: the critical value used to jump from 1.980 (df = 120)
   straight to 1.96 (df >= 121), so ci95_half_width dropped
   discontinuously when one more sample arrived.  The tail now interpolates in 1/df
   toward the normal limit: monotone non-increasing everywhere, always
   above 1.96, and continuous at the table edge. *)
let test_t_critical_monotone () =
  let previous = ref infinity in
  for df = 1 to 2_000 do
    let v = t_critical_95 df in
    if v > !previous +. 1e-12 then
      Alcotest.failf "t critical not monotone at df=%d (%g > %g)" df v
        !previous;
    if v < 1.96 then
      Alcotest.failf "t critical below the normal limit at df=%d (%g)" df v;
    previous := v
  done;
  (* No discontinuity at the last table row. *)
  let edge_gap = t_critical_95 120 -. t_critical_95 121 in
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
  Alcotest.(check int) "samples length" 10_000
    (Array.length (Stats.Reservoir.samples r))

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.; 1.9; 2.; 5.5; 9.99; -1.; 10.; 42. ];
  Alcotest.(check (array int)) "counts" [| 2; 1; 1; 0; 1 |]
    (Stats.Histogram.counts h);
  (* The printed bins carry their bounds (bin 1 is [2, 4)); the last
     lines count the samples outside them. *)
  let lines = String.split_on_char '\n' (Fmt.str "%a" Stats.Histogram.pp h) in
  Alcotest.(check string) "underflow" "underflow: 1" (List.nth lines 5);
  Alcotest.(check string) "overflow" "overflow: 2" (List.nth lines 6);
  let bin1 = Printf.sprintf "[%8.3g, %8.3g) %6d " 2. 4. 1 in
  Alcotest.(check string) "bin 1 bounds" bin1
    (String.sub (List.nth lines 1) 0 (String.length bin1))

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
          [ prop_quantile_monotone ] ) ]
