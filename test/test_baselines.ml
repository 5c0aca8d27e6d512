open Abe_election

let test_itai_rodeh_elects () =
  for seed = 1 to 40 do
    let o = Itai_rodeh.run ~seed ~n:8 () in
    if not o.Itai_rodeh.elected then Alcotest.failf "seed %d: no leader" seed;
    if o.Itai_rodeh.leader_count <> 1 then
      Alcotest.failf "seed %d: %d leaders" seed o.Itai_rodeh.leader_count
  done

let test_itai_rodeh_sizes () =
  List.iter
    (fun n ->
       let o = Itai_rodeh.run ~seed:(50 + n) ~n () in
       Alcotest.(check bool) (Printf.sprintf "n=%d" n) true o.Itai_rodeh.elected;
       Alcotest.(check bool) "phases >= 1" true (o.Itai_rodeh.phases >= 1);
       Alcotest.(check bool) "rounds >= n" true (o.Itai_rodeh.rounds >= n))
    [ 2; 3; 4; 7; 16; 33; 64 ]

let test_itai_rodeh_message_scale () =
  (* Messages per election should be a small multiple of n. *)
  let n = 32 in
  let total = ref 0 in
  let reps = 20 in
  for seed = 1 to reps do
    let o = Itai_rodeh.run ~seed ~n () in
    total := !total + o.Itai_rodeh.messages
  done;
  let mean = float_of_int !total /. float_of_int reps in
  Alcotest.(check bool) "at least n" true (mean >= float_of_int n);
  Alcotest.(check bool) "at most ~8n on average" true
    (mean <= 8. *. float_of_int n)

let test_itai_rodeh_deterministic () =
  let a = Itai_rodeh.run ~seed:9 ~n:16 () in
  let b = Itai_rodeh.run ~seed:9 ~n:16 () in
  Alcotest.(check int) "same messages" a.Itai_rodeh.messages b.Itai_rodeh.messages;
  Alcotest.(check int) "same rounds" a.Itai_rodeh.rounds b.Itai_rodeh.rounds

let test_chang_roberts_elects () =
  for seed = 1 to 40 do
    let o = Chang_roberts.run ~seed ~n:8 () in
    if not o.Chang_roberts.elected then Alcotest.failf "seed %d: no leader" seed;
    if o.Chang_roberts.leader_count <> 1 then
      Alcotest.failf "seed %d: %d leaders" seed o.Chang_roberts.leader_count
  done

let test_chang_roberts_message_bounds () =
  (* Between n (all ids decreasing along the ring... minimum n for the
     winner's full lap plus at least 1 per other initiator) and n(n+1)/2. *)
  for seed = 1 to 30 do
    let n = 16 in
    let o = Chang_roberts.run ~seed ~n () in
    if o.Chang_roberts.messages < n then
      Alcotest.failf "fewer than n messages: %d" o.Chang_roberts.messages;
    if o.Chang_roberts.messages > n * (n + 1) / 2 then
      Alcotest.failf "above worst case: %d" o.Chang_roberts.messages
  done

let test_chang_roberts_average_near_nhn () =
  let n = 64 in
  let reps = 60 in
  let total = ref 0 in
  for seed = 1 to reps do
    let o = Chang_roberts.run ~seed ~n () in
    total := !total + o.Chang_roberts.messages
  done;
  let mean = float_of_int !total /. float_of_int reps in
  let predicted = Abe_core.Analysis.chang_roberts_expected_messages ~n in
  (* n·H_n = 303 for n=64; allow 15% statistical slack. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.0f near %.0f" mean predicted)
    true
    (Float.abs (mean -. predicted) /. predicted < 0.15)

let test_chang_roberts_rounds () =
  (* The winner's id travels the full ring: at least n rounds. *)
  let o = Chang_roberts.run ~seed:3 ~n:12 () in
  Alcotest.(check bool) "rounds >= n" true (o.Chang_roberts.rounds >= 12)

let test_dkr_elects () =
  for seed = 1 to 40 do
    let o = Dolev_klawe_rodeh.run ~seed ~n:8 () in
    if not o.Dolev_klawe_rodeh.elected then
      Alcotest.failf "seed %d: no leader" seed;
    if o.Dolev_klawe_rodeh.leader_count <> 1 then
      Alcotest.failf "seed %d: %d leaders" seed o.Dolev_klawe_rodeh.leader_count
  done

let test_dkr_sizes () =
  List.iter
    (fun n ->
       let o = Dolev_klawe_rodeh.run ~seed:(70 + n) ~n () in
       Alcotest.(check bool) (Printf.sprintf "n=%d" n) true
         o.Dolev_klawe_rodeh.elected)
    [ 2; 3; 5; 9; 17; 32; 65 ]

let test_dkr_message_bound () =
  (* Deterministic bound: phases <= ceil(log2 n) + 1, each phase at most 2n
     messages, plus the final lap. *)
  for seed = 1 to 20 do
    let n = 32 in
    let o = Dolev_klawe_rodeh.run ~seed ~n () in
    let log2n = int_of_float (Float.ceil (log (float_of_int n) /. log 2.)) in
    let bound = (2 * n * (log2n + 1)) + n in
    if o.Dolev_klawe_rodeh.messages > bound then
      Alcotest.failf "messages %d exceed bound %d" o.Dolev_klawe_rodeh.messages
        bound;
    if o.Dolev_klawe_rodeh.phases > log2n + 1 then
      Alcotest.failf "phases %d exceed log bound" o.Dolev_klawe_rodeh.phases
  done

let test_dkr_leader_holds_max () =
  (* DKR elects the node that ends up holding the maximum value; with ids
     1..n the winning value is n.  The leader must be unique. *)
  let o = Dolev_klawe_rodeh.run ~seed:5 ~n:16 () in
  Alcotest.(check int) "one leader" 1 o.Dolev_klawe_rodeh.leader_count

(* The three baselines' report lines over a grid of ring sizes and seeds,
   pinned by md5: the synchronous executor's delivery order, streams and
   round count decide every field. *)
let test_outcome_lines_pinned () =
  let b = Buffer.create 65536 in
  List.iter
    (fun n ->
       for seed = 1 to 20 do
         let line ~phases = Fmt.str "%a" (Sync_baseline.pp_outcome ~phases) in
         Printf.bprintf b "%s\n%s\n%s\n"
           (line ~phases:true (Itai_rodeh.run ~seed ~n ()))
           (line ~phases:false (Chang_roberts.run ~seed ~n ()))
           (line ~phases:true (Dolev_klawe_rodeh.run ~seed ~n ()))
       done)
    [ 2; 3; 4; 5; 8; 13; 16; 32; 64 ];
  Alcotest.(check string) "md5" "f2249c43cf91fd2225e91c675991d643"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_growth_shapes () =
  (* The headline comparison (E8): CR and DKR grow like n log n; the ring
     sizes here are small but the classifier already separates shapes. *)
  let sizes = [ 8; 16; 32; 64; 128 ] in
  let mean f =
    let reps = 15 in
    fun n ->
      let total = ref 0 in
      for seed = 1 to reps do
        total := !total + f ~seed ~n
      done;
      float_of_int !total /. float_of_int reps
  in
  let cr_points =
    List.map
      (fun n ->
         (float_of_int n,
          mean (fun ~seed ~n -> (Chang_roberts.run ~seed ~n ()).Chang_roberts.messages) n))
      sizes
  in
  let growth = Abe_prob.Fit.classify_growth (Array.of_list cr_points) in
  Alcotest.(check bool) "CR grows like n log n (or close)" true
    (growth = Abe_prob.Fit.Linearithmic || growth = Abe_prob.Fit.Linear)

let test_async_ir_elects_with_fifo () =
  for seed = 1 to 20 do
    let o = Async_baselines.itai_rodeh ~seed ~n:12 () in
    if not o.Async_baselines.elected then Alcotest.failf "seed %d: no leader" seed;
    if o.Async_baselines.leader_count <> 1 then
      Alcotest.failf "seed %d: %d leaders" seed o.Async_baselines.leader_count
  done

let prop_ir_unique_leader =
  QCheck.Test.make ~name:"Itai-Rodeh never elects two leaders" ~count:60
    QCheck.(pair (int_range 2 24) small_int)
    (fun (n, seed) ->
       let o = Itai_rodeh.run ~seed ~n () in
       o.Itai_rodeh.leader_count <= 1)

let prop_cr_leader_position =
  QCheck.Test.make ~name:"Chang-Roberts elects exactly one node" ~count:60
    QCheck.(pair (int_range 2 24) small_int)
    (fun (n, seed) ->
       let o = Chang_roberts.run ~seed ~n () in
       o.Chang_roberts.elected && o.Chang_roberts.leader_count = 1)

let prop_dkr_unique =
  QCheck.Test.make ~name:"DKR elects exactly one node" ~count:60
    QCheck.(pair (int_range 2 24) small_int)
    (fun (n, seed) ->
       let o = Dolev_klawe_rodeh.run ~seed ~n () in
       o.Dolev_klawe_rodeh.elected && o.Dolev_klawe_rodeh.leader_count = 1)

(* Pure-transition unit tests for the baseline cores. *)

let test_cr_transition () =
  let open Chang_roberts in
  (match transition (Contending { id = 5 }) 5 with
   | Leader { id = 5 }, Win -> ()
   | _ -> Alcotest.fail "own id should win");
  (match transition (Contending { id = 5 }) 9 with
   | Relaying { id = 5 }, Forward -> ()
   | _ -> Alcotest.fail "bigger id should beat");
  (match transition (Contending { id = 5 }) 3 with
   | Contending { id = 5 }, Drop -> ()
   | _ -> Alcotest.fail "smaller id should be dropped");
  (match transition (Relaying { id = 5 }) 9 with
   | Relaying _, Forward -> ()
   | _ -> Alcotest.fail "relays forward bigger ids");
  match transition (Leader { id = 5 }) 9 with
  | Leader _, Drop -> ()
  | _ -> Alcotest.fail "leader drops everything"

let test_ir_transition () =
  let open Itai_rodeh in
  let fresh_id () = 7 in
  let n = 6 in
  (* Own unbeaten token returns: leader. *)
  (match
     transition ~n ~fresh_id
       (Active { phase = 2; id = 3 })
       { phase = 2; id = 3; hop = n; bit = true }
   with
   | Leader { phase = 2 }, Won -> ()
   | _ -> Alcotest.fail "expected win");
  (* Own token returns flagged: next phase with a fresh identifier. *)
  (match
     transition ~n ~fresh_id
       (Active { phase = 2; id = 3 })
       { phase = 2; id = 3; hop = n; bit = false }
   with
   | Active { phase = 3; id = 7 }, Launch { phase = 3; id = 7; hop = 1; bit = true }
     -> ()
   | _ -> Alcotest.fail "expected next phase");
  (* Tie with another active node, mid-ring: flag and relay. *)
  (match
     transition ~n ~fresh_id
       (Active { phase = 2; id = 3 })
       { phase = 2; id = 3; hop = 2; bit = true }
   with
   | Active _, Relay { bit = false; hop = 3; _ } -> ()
   | _ -> Alcotest.fail "expected flagged relay");
  (* Beaten by a lexicographically larger token. *)
  (match
     transition ~n ~fresh_id
       (Active { phase = 2; id = 3 })
       { phase = 2; id = 5; hop = 1; bit = true }
   with
   | Passive, Relay { hop = 2; _ } -> ()
   | _ -> Alcotest.fail "expected knock-out");
  (* Stale token purged. *)
  match
    transition ~n ~fresh_id
      (Active { phase = 2; id = 3 })
      { phase = 1; id = 5; hop = 1; bit = true }
  with
  | Active _, Discard -> ()
  | _ -> Alcotest.fail "expected purge"

let () =
  Alcotest.run "baselines"
    [ ( "itai-rodeh",
        [ Alcotest.test_case "elects" `Quick test_itai_rodeh_elects;
          Alcotest.test_case "sizes" `Quick test_itai_rodeh_sizes;
          Alcotest.test_case "message scale" `Quick test_itai_rodeh_message_scale;
          Alcotest.test_case "deterministic" `Quick test_itai_rodeh_deterministic ]
      );
      ( "chang-roberts",
        [ Alcotest.test_case "elects" `Quick test_chang_roberts_elects;
          Alcotest.test_case "message bounds" `Quick
            test_chang_roberts_message_bounds;
          Alcotest.test_case "average n·H_n" `Slow
            test_chang_roberts_average_near_nhn;
          Alcotest.test_case "rounds" `Quick test_chang_roberts_rounds ] );
      ( "dolev-klawe-rodeh",
        [ Alcotest.test_case "elects" `Quick test_dkr_elects;
          Alcotest.test_case "sizes" `Quick test_dkr_sizes;
          Alcotest.test_case "message bound" `Quick test_dkr_message_bound;
          Alcotest.test_case "unique leader" `Quick test_dkr_leader_holds_max ] );
      ( "outcomes",
        [ Alcotest.test_case "report lines pinned" `Quick
            test_outcome_lines_pinned ] );
      ("growth", [ Alcotest.test_case "shapes" `Slow test_growth_shapes ]);
      ( "async-adapters",
        [ Alcotest.test_case "IR on ABE with FIFO" `Quick
            test_async_ir_elects_with_fifo ] );
      ( "pure transitions",
        [ Alcotest.test_case "chang-roberts" `Quick test_cr_transition;
          Alcotest.test_case "itai-rodeh" `Quick test_ir_transition ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ir_unique_leader; prop_cr_leader_position; prop_dkr_unique ] ) ]
