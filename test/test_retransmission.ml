open Abe_core

(* Every message's delay is [slot * attempts], so a batch's delay summary
   is its attempt summary scaled by the slot. *)
let check_structure ~arq ~p ~slot =
  let batch =
    Retransmission.run_batch ~arq ~seed:1 ~p ~slot ~messages:1000 ()
  in
  let a = batch.Retransmission.attempts
  and d = batch.Retransmission.delay in
  if a.Abe_prob.Stats.min < 1. then Alcotest.fail "attempts < 1";
  Alcotest.(check (float 1e-9)) "min delay = slot * min attempts"
    (slot *. a.Abe_prob.Stats.min) d.Abe_prob.Stats.min;
  Alcotest.(check (float 1e-9)) "max delay = slot * max attempts"
    (slot *. a.Abe_prob.Stats.max) d.Abe_prob.Stats.max;
  Alcotest.(check (float 1e-9)) "mean delay = slot * mean attempts" 1.
    (d.Abe_prob.Stats.mean /. (slot *. a.Abe_prob.Stats.mean))

let test_direct_structure () = check_structure ~arq:false ~p:0.5 ~slot:2.

let test_direct_p1 () =
  let batch =
    Retransmission.run_batch ~seed:2 ~p:1. ~slot:1. ~messages:100 ()
  in
  Alcotest.(check (float 0.)) "always first attempt" 1.
    batch.Retransmission.attempts.Abe_prob.Stats.max

let test_arq_structure () = check_structure ~arq:true ~p:0.4 ~slot:1.

let check_batch ~arq () =
  let batch =
    Retransmission.run_batch ~arq ~seed:5 ~p:0.25 ~slot:0.5 ~messages:30_000 ()
  in
  Alcotest.(check (float 1e-9)) "predicted attempts" 4.
    batch.Retransmission.predicted_attempts;
  Alcotest.(check (float 1e-9)) "predicted delay" 2.
    batch.Retransmission.predicted_delay;
  let attempts_mean = batch.Retransmission.attempts.Abe_prob.Stats.mean in
  let delay_mean = batch.Retransmission.delay.Abe_prob.Stats.mean in
  (* Section 1(iii): measured means match k_avg = 1/p and slot/p. *)
  Alcotest.(check bool) "attempts near 1/p" true
    (Float.abs (attempts_mean -. 4.) < 0.1);
  Alcotest.(check bool) "delay near slot/p" true
    (Float.abs (delay_mean -. 2.) < 0.05)

let test_batch_direct () = check_batch ~arq:false ()
let test_batch_arq () = check_batch ~arq:true ()

(* Section 1(iii), quantitatively: over a lossy link with per-attempt
   success probability p and unit slot, the empirical expected delay of a
   large batch must cover the paper's 1/p prediction within the batch's
   own 95% confidence band — from mild (p=0.9) through heavy (p=0.2)
   loss.  Deterministic in the seed, so the run either always passes or
   never does; the band still scales the tolerance honestly with the
   measured variance instead of a hand-picked epsilon. *)
let test_expected_delay_matches_inverse_p () =
  List.iter
    (fun p ->
       let batch =
         Retransmission.run_batch ~seed:11 ~p ~slot:1. ~messages:60_000 ()
       in
       let s = batch.Retransmission.delay in
       let predicted = 1. /. p in
       let err = Float.abs (s.Abe_prob.Stats.mean -. predicted) in
       if err > s.Abe_prob.Stats.ci95_half_width then
         Alcotest.failf
           "p=%g: |measured %.5f - predicted %.5f| = %.5f exceeds CI95 \
            half-width %.5f"
           p s.Abe_prob.Stats.mean predicted err
           s.Abe_prob.Stats.ci95_half_width)
    [ 0.9; 0.5; 0.2 ]

let test_delay_model_mean () =
  let model = Retransmission.delay_model ~p:0.2 ~slot:1. in
  Alcotest.(check (float 1e-9)) "expected delay 1/p" 5.
    (Abe_net.Delay_model.expected_delay model);
  (* [pp] names the class: ABD needs bounded support and no episodes. *)
  Alcotest.(check string) "unbounded (ABE, not ABD)" "ABE"
    (String.sub (Fmt.str "%a" Abe_net.Delay_model.pp model) 0 3)

let test_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "p=0" (fun () ->
      Retransmission.run_batch ~seed:1 ~p:0. ~slot:1. ~messages:1 ());
  expect_invalid "slot=0" (fun () ->
      Retransmission.run_batch ~seed:1 ~p:0.5 ~slot:0. ~messages:1 ());
  expect_invalid "messages=0" (fun () ->
      Retransmission.run_batch ~seed:1 ~p:0.5 ~slot:1. ~messages:0 ())

let prop_direct_vs_arq_same_law =
  (* With timeout = slot the two implementations sample the same
     distribution; compare means over batches. *)
  QCheck.Test.make ~name:"direct and ARQ agree in distribution" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
       let direct =
         Retransmission.run_batch ~arq:false ~seed ~p:0.5 ~slot:1.
           ~messages:5_000 ()
       in
       let arq =
         Retransmission.run_batch ~arq:true ~seed:(seed + 1) ~p:0.5 ~slot:1.
           ~messages:5_000 ()
       in
       Float.abs
         (direct.Retransmission.attempts.Abe_prob.Stats.mean
          -. arq.Retransmission.attempts.Abe_prob.Stats.mean)
       < 0.15)

let () =
  Alcotest.run "retransmission"
    [ ( "sampling",
        [ Alcotest.test_case "direct structure" `Quick test_direct_structure;
          Alcotest.test_case "direct p=1" `Quick test_direct_p1;
          Alcotest.test_case "arq structure" `Quick test_arq_structure ] );
      ( "batches",
        [ Alcotest.test_case "direct batch (E1)" `Quick test_batch_direct;
          Alcotest.test_case "arq batch (E1)" `Quick test_batch_arq;
          Alcotest.test_case "expected delay = 1/p within CI95" `Quick
            test_expected_delay_matches_inverse_p;
          Alcotest.test_case "delay model" `Quick test_delay_model_mean ] );
      ("validation", [ Alcotest.test_case "errors" `Quick test_validation ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_direct_vs_arq_same_law ] ) ]
