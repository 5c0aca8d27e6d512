open Abe_core

let test_k_avg () =
  Alcotest.(check (float 1e-12)) "p=1" 1. (Analysis.k_avg ~p:1.);
  Alcotest.(check (float 1e-12)) "p=0.5" 2. (Analysis.k_avg ~p:0.5);
  Alcotest.(check (float 1e-12)) "p=0.1" 10. (Analysis.k_avg ~p:0.1)

let test_k_avg_matches_series () =
  (* k_avg = sum_{k>=0} (k+1)(1-p)^k p, the series in the paper. *)
  let p = 0.3 in
  let series = ref 0. in
  for k = 0 to 1000 do
    series := !series +. (float_of_int (k + 1) *. ((1. -. p) ** float_of_int k) *. p)
  done;
  Alcotest.(check (float 1e-6)) "series sums to 1/p" (Analysis.k_avg ~p) !series

let test_retransmission_delay () =
  Alcotest.(check (float 1e-12)) "slot scales" 8.
    (Analysis.retransmission_delay_mean ~p:0.25 ~slot:2.)

let test_recommended_a0_clamped () =
  Alcotest.(check (float 1e-9)) "clamped at 0.5" 0.5
    (Analysis.recommended_a0 ~theta:100. 2);
  Alcotest.(check (float 1e-12)) "1/n^2" (1. /. 4096.)
    (Analysis.recommended_a0 64)

(* The harmonic number H_n, through the Chang-Roberts prediction n H_n. *)
let harmonic n = Analysis.chang_roberts_expected_messages ~n /. float_of_int n

let test_harmonic () =
  Alcotest.(check (float 1e-12)) "H_2" 1.5 (harmonic 2);
  Alcotest.(check (float 1e-12)) "H_4" (1. +. 0.5 +. (1. /. 3.) +. 0.25)
    (harmonic 4);
  (* H_n ~ ln n + gamma *)
  Alcotest.(check bool) "asymptotics" true
    (Float.abs (harmonic 10_000 -. (log 10_000. +. 0.5772)) < 1e-3)

let test_chang_roberts_prediction () =
  let h8 = List.fold_left (fun acc k -> acc +. (1. /. float_of_int k)) 0.
      [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (float 1e-9)) "n * H_n" (8. *. h8)
    (Analysis.chang_roberts_expected_messages ~n:8)

let test_dkr_bound () =
  Alcotest.(check (float 1e-9)) "n(log2 n + 1)" (8. *. 4.)
    (Analysis.dkr_worst_case_messages ~n:8)

let test_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "k_avg p=0" (fun () -> Analysis.k_avg ~p:0.);
  expect_invalid "chang-roberts n=1" (fun () ->
      Analysis.chang_roberts_expected_messages ~n:1)

let () =
  Alcotest.run "analysis"
    [ ( "retransmission",
        [ Alcotest.test_case "k_avg" `Quick test_k_avg;
          Alcotest.test_case "series" `Quick test_k_avg_matches_series;
          Alcotest.test_case "delay mean" `Quick test_retransmission_delay ] );
      ( "activation",
        [ Alcotest.test_case "recommended a0" `Quick
            test_recommended_a0_clamped ] );
      ( "baselines",
        [ Alcotest.test_case "harmonic" `Quick test_harmonic;
          Alcotest.test_case "chang-roberts" `Quick test_chang_roberts_prediction;
          Alcotest.test_case "dkr bound" `Quick test_dkr_bound ] );
      ("validation", [ Alcotest.test_case "errors" `Quick test_validation ]) ]
