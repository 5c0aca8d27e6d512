open Abe_sim

let test_clean () =
  let o = Oracle.create () in
  Alcotest.(check (list reject)) "no violations" [] (Oracle.violations o)

let test_report_order () =
  let o = Oracle.create () in
  Oracle.reportf o ~time:1. ~invariant:"a" ~subject:"node 0" "first";
  Oracle.reportf o ~time:2. ~invariant:"b" ~subject:"node 1" "second";
  match Oracle.violations o with
  | [ v1; v2 ] ->
    Alcotest.(check string) "first invariant" "a" v1.Oracle.invariant;
    Alcotest.(check string) "first detail" "first" v1.Oracle.detail;
    Alcotest.(check (float 0.)) "first time" 1. v1.Oracle.time;
    Alcotest.(check string) "second subject" "node 1" v2.Oracle.subject
  | vs -> Alcotest.failf "expected 2 violations, got %d" (List.length vs)

let test_reportf () =
  let o = Oracle.create () in
  Oracle.reportf o ~time:3.5 ~invariant:"fifo" ~subject:"link 2"
    "seq %d after %d" 7 9;
  match Oracle.violations o with
  | [ v ] ->
    Alcotest.(check string) "formatted detail" "seq 7 after 9" v.Oracle.detail;
    Alcotest.(check string) "pp_violation"
      "violation[fifo] t=3.500 link 2: seq 7 after 9"
      (Fmt.str "%a" Oracle.pp_violation v)
  | _ -> Alcotest.fail "expected one violation"

let test_capacity_cap () =
  let o = Oracle.create ~capacity:3 () in
  for i = 1 to 10 do
    Oracle.reportf o ~time:(float_of_int i) ~invariant:"x" ~subject:"s" "%d" i
  done;
  Alcotest.(check int) "stored capped" 3 (List.length (Oracle.violations o));
  (* The stored ones are the first three — earliest violations matter most. *)
  Alcotest.(check (list string)) "earliest kept" [ "1"; "2"; "3" ]
    (List.map (fun v -> v.Oracle.detail) (Oracle.violations o))

let test_capacity_validation () =
  match Oracle.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of capacity 0"

let () =
  Alcotest.run "oracle"
    [ ( "oracle",
        [ Alcotest.test_case "clean" `Quick test_clean;
          Alcotest.test_case "report order" `Quick test_report_order;
          Alcotest.test_case "reportf" `Quick test_reportf;
          Alcotest.test_case "capacity cap" `Quick test_capacity_cap;
          Alcotest.test_case "capacity validation" `Quick
            test_capacity_validation ] ) ]
