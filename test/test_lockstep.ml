open Abe_net

(* A relay protocol: node 0 injects a counter that hops around the ring,
   incremented at each node, until it reaches a target. *)
module Counter = struct
  type state = int list  (* values seen, newest first *)
  type message = int
end

module Ring = Lockstep.Make (Counter)

let ring = Topology.ring

let relay_handlers ~target : Ring.handlers =
  { init =
      (fun ctx ->
         if ctx.Ring.node = 0 then ctx.Ring.send 0 0;
         []);
    on_round =
      (fun ctx seen incoming ->
         List.fold_left
           (fun seen v ->
              if v + 1 >= target then ctx.Ring.stop ()
              else ctx.Ring.send 0 (v + 1);
              v :: seen)
           seen incoming) }

let test_relay_advances_one_hop_per_round () =
  let r = Ring.run ~seed:1 ~topology:(ring 5) (relay_handlers ~target:12) in
  (* The counter reaches 11 after 12 hops = 12 rounds. *)
  Alcotest.(check int) "rounds = hops" 12 r.Ring.rounds;
  Alcotest.(check int) "one message per round" 12 r.Ring.messages;
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
    r.Ring.states

let test_stop_with_message_in_flight () =
  (* The relay calls [stop] and still forwards the counter, so a message is
     in flight when the round ends: only [stop] can end the run there. *)
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           if ctx.Ring.node = 0 then ctx.Ring.send 0 0;
           []);
      on_round =
        (fun ctx seen incoming ->
           List.fold_left
             (fun seen v ->
                if v + 1 >= 12 then ctx.Ring.stop ();
                ctx.Ring.send 0 (v + 1);
                v :: seen)
             seen incoming) }
  in
  let r = Ring.run ~seed:1 ~topology:(ring 5) handlers in
  Alcotest.(check int) "ends at the stopping round" 12 r.Ring.rounds;
  Alcotest.(check int) "the last send counted" 13 r.Ring.messages;
  (* A stop in round 0 ends the run before round 1, its send undelivered. *)
  let init_stop : Ring.handlers =
    { init =
        (fun ctx ->
           if ctx.Ring.node = 0 then begin
             ctx.Ring.send 0 0;
             ctx.Ring.stop ()
           end;
           []);
      on_round = (fun _ st incoming -> incoming @ st) }
  in
  let r = Ring.run ~seed:1 ~topology:(ring 3) init_stop in
  Alcotest.(check int) "no round runs" 0 r.Ring.rounds;
  Alcotest.(check int) "one message sent" 1 r.Ring.messages;
  Alcotest.(check (list int)) "nothing delivered" [] r.Ring.states.(1)

let test_quiescence_detected () =
  let handlers : Ring.handlers =
    { init = (fun _ -> []);
      on_round = (fun _ st _ -> st) }
  in
  let r = Ring.run ~seed:1 ~topology:(ring 4) handlers in
  Alcotest.(check int) "no round runs" 0 r.Ring.rounds

let test_round_limit () =
  (* A perpetual token never quiesces: the round limit must fire. *)
  let handlers : Ring.handlers =
    { init = (fun ctx -> if ctx.Ring.node = 0 then ctx.Ring.send 0 0; []);
      on_round =
        (fun ctx st incoming ->
           List.iter (fun v -> ctx.Ring.send 0 v) incoming;
           st) }
  in
  let r = Ring.run ~max_rounds:50 ~seed:1 ~topology:(ring 3) handlers in
  Alcotest.(check int) "ran 50 rounds" 50 r.Ring.rounds;
  Alcotest.(check int) "one message per round" 51 r.Ring.messages

let test_multiple_messages_same_round () =
  (* A node may send several messages in one round; they are delivered
     together, in sending order. *)
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           if ctx.Ring.node = 0 then List.iter (ctx.Ring.send 0) [ 1; 2; 3 ];
           []);
      on_round =
        (fun ctx st incoming ->
           if incoming <> [] then ctx.Ring.stop ();
           incoming @ st) }
  in
  let r = Ring.run ~seed:1 ~topology:(ring 3) handlers in
  Alcotest.(check (list int)) "delivered in sending order" [ 1; 2; 3 ]
    r.Ring.states.(1)

let test_sender_order () =
  (* Node 2 has two predecessors, its link from node 1 listed first.  Each
     predecessor sends twice: node 2 still reads node 0's messages first,
     then node 1's, each in sending order. *)
  let topology = Topology.create ~nodes:3 ~edges:[ (1, 2); (0, 2) ] in
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           let node = ctx.Ring.node in
           if node < 2 then
             List.iter (ctx.Ring.send 0) [ (10 * node) + 1; (10 * node) + 2 ];
           []);
      on_round = (fun _ st incoming -> st @ incoming) }
  in
  let r = Ring.run ~seed:1 ~topology handlers in
  Alcotest.(check (list int)) "sender node, then send order" [ 1; 2; 11; 12 ]
    r.Ring.states.(2);
  Alcotest.(check int) "one round" 1 r.Ring.rounds

let test_invalid_link () =
  let handlers link : Ring.handlers =
    { init = (fun ctx -> ctx.Ring.send link 0; []);
      on_round = (fun _ st _ -> st) }
  in
  List.iter
    (fun link ->
       match Ring.run ~seed:1 ~topology:(ring 3) (handlers link) with
       | _ -> Alcotest.failf "out-link %d accepted" link
       | exception Invalid_argument msg ->
         Alcotest.(check string) "message"
           "Lockstep.send: invalid out-link index" msg)
    [ -1; 1 ]

let test_rng_is_per_node () =
  let draws = Array.make 4 0 in
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           draws.(ctx.Ring.node) <- Abe_prob.Rng.int ctx.Ring.rng 1_000_000;
           []);
      on_round = (fun _ st _ -> st) }
  in
  ignore (Ring.run ~seed:5 ~topology:(ring 4) handlers);
  let distinct = List.sort_uniq compare (Array.to_list draws) in
  Alcotest.(check int) "independent node streams" 4 (List.length distinct)

let () =
  Alcotest.run "lockstep"
    [ ( "engine",
        [ Alcotest.test_case "relay timing" `Quick
            test_relay_advances_one_hop_per_round;
          Alcotest.test_case "stop with a message in flight" `Quick
            test_stop_with_message_in_flight;
          Alcotest.test_case "quiescence" `Quick test_quiescence_detected;
          Alcotest.test_case "round limit" `Quick test_round_limit;
          Alcotest.test_case "batched sends" `Quick
            test_multiple_messages_same_round;
          Alcotest.test_case "sender order" `Quick test_sender_order;
          Alcotest.test_case "invalid out-link" `Quick test_invalid_link;
          Alcotest.test_case "per-node rng" `Quick test_rng_is_per_node ] ) ]
