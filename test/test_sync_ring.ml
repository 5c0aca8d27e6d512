open Abe_election

(* A relay protocol: node 0 injects a counter that hops around the ring,
   incremented at each node, until it reaches a target. *)
module Counter = struct
  type state = int list  (* values seen, newest first *)
  type message = int
end

module Ring = Sync_ring.Make (Counter)

let relay_handlers ~target : Ring.handlers =
  { init =
      (fun ctx ->
         if ctx.Ring.node = 0 then ctx.Ring.send 0;
         []);
    on_round =
      (fun ctx seen incoming ->
         List.fold_left
           (fun seen v ->
              if v + 1 >= target then ctx.Ring.stop ()
              else ctx.Ring.send (v + 1);
              v :: seen)
           seen incoming) }

let test_relay_advances_one_hop_per_round () =
  let ring = Ring.create ~seed:1 ~n:5 (relay_handlers ~target:12) in
  let outcome = Ring.run ring in
  (match outcome with
   | Ring.Stopped rounds ->
     (* The counter reaches 11 after 12 hops = 12 rounds. *)
     Alcotest.(check int) "rounds = hops" 12 rounds
   | Ring.Quiescent _ | Ring.Round_limit -> Alcotest.fail "expected stop");
  Alcotest.(check int) "one message per round" 12 (Ring.messages_sent ring);
  (* The counter visits nodes 1,2,3,4,0,1,... — each value lands on ring
     position (v+1) mod 5. *)
  Array.iteri
    (fun node seen ->
       List.iter
         (fun v ->
            Alcotest.(check int)
              (Printf.sprintf "value %d at node %d" v node)
              ((v + 1) mod 5) node)
         seen)
    (Ring.states ring)

let test_quiescence_detected () =
  let handlers : Ring.handlers =
    { init = (fun _ -> []);
      on_round = (fun _ st _ -> st) }
  in
  let ring = Ring.create ~seed:1 ~n:4 handlers in
  match Ring.run ring with
  | Ring.Quiescent 0 -> ()
  | _ -> Alcotest.fail "expected immediate quiescence"

let test_round_limit () =
  (* A perpetual token never quiesces: the round limit must fire. *)
  let handlers : Ring.handlers =
    { init = (fun ctx -> if ctx.Ring.node = 0 then ctx.Ring.send 0; []);
      on_round =
        (fun ctx st incoming ->
           List.iter (fun v -> ctx.Ring.send v) incoming;
           st) }
  in
  let ring = Ring.create ~seed:1 ~n:3 handlers in
  match Ring.run ~max_rounds:50 ring with
  | Ring.Round_limit -> Alcotest.(check int) "ran 50 rounds" 50 (Ring.round ring)
  | _ -> Alcotest.fail "expected round limit"

let test_messages_per_round_log () =
  let ring = Ring.create ~seed:1 ~n:4 (relay_handlers ~target:5) in
  ignore (Ring.run ring);
  let log = Ring.messages_per_round ring in
  (* One message per round, except the final round where the handler stops
     without relaying. *)
  Alcotest.(check bool) "at most one message per round" true
    (List.for_all (fun c -> c <= 1) log);
  Alcotest.(check int) "log sums to the total" (Ring.messages_sent ring)
    (List.fold_left ( + ) 0 log)

let test_multiple_messages_same_round () =
  (* A node may send several messages in one round; they are delivered
     together, in sending order. *)
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           if ctx.Ring.node = 0 then List.iter ctx.Ring.send [ 1; 2; 3 ];
           []);
      on_round =
        (fun ctx st incoming ->
           if incoming <> [] then ctx.Ring.stop ();
           incoming @ st) }
  in
  let ring = Ring.create ~seed:1 ~n:3 handlers in
  ignore (Ring.run ring);
  Alcotest.(check (list int)) "delivered in sending order" [ 1; 2; 3 ]
    (Ring.states ring).(1)

let test_rng_is_per_node () =
  let draws = Array.make 4 0 in
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           draws.(ctx.Ring.node) <- Abe_prob.Rng.int ctx.Ring.rng 1_000_000;
           []);
      on_round = (fun _ st _ -> st) }
  in
  ignore (Ring.run (Ring.create ~seed:5 ~n:4 handlers));
  let distinct = List.sort_uniq compare (Array.to_list draws) in
  Alcotest.(check int) "independent node streams" 4 (List.length distinct)

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
  Alcotest.run "sync_ring"
    [ ( "engine",
        [ Alcotest.test_case "relay timing" `Quick
            test_relay_advances_one_hop_per_round;
          Alcotest.test_case "quiescence" `Quick test_quiescence_detected;
          Alcotest.test_case "round limit" `Quick test_round_limit;
          Alcotest.test_case "per-round log" `Quick test_messages_per_round_log;
          Alcotest.test_case "batched sends" `Quick
            test_multiple_messages_same_round;
          Alcotest.test_case "per-node rng" `Quick test_rng_is_per_node ] );
      ( "pure transitions",
        [ Alcotest.test_case "chang-roberts" `Quick test_cr_transition;
          Alcotest.test_case "itai-rodeh" `Quick test_ir_transition ] ) ]
