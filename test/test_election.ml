open Abe_core

let state phase d = { Election.phase; d }

(* One receipt as [Runner] applies it: the new state and the reaction. *)
let receive ~n st hop =
  let rule = Election.rule ~n in
  (Election.receive rule st hop, Election.reaction rule st hop)

(* The counter a receipt forwards, read where the simulator and the real
   backend read it, from the send of [Runner.on_token]: [None] unless the
   receipt forwards. *)
let forwarded ~n st hop =
  let sent = ref None in
  let step =
    Runner.step (Runner.config ~n ())
      ~send:(fun () ~hop ~traversed:_ -> sent := Some hop)
      ~mark:(fun () _ ~traversed:_ -> ())
      ~unsound:(fun () ~hop:_ ~traversed:_ -> ())
  in
  ignore (Runner.on_token step () st ~hop ~traversed:hop : Election.state);
  !sent

let check_forwarded msg ~n st hop expected =
  Alcotest.(check (option int)) msg expected (forwarded ~n st hop)

let check_state msg expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected %s, got %s" msg
      (Fmt.str "%a" Election.pp_state expected)
      (Fmt.str "%a" Election.pp_state actual)

let test_initial () =
  check_state "initial" (state Election.Idle 1) Election.initial

let test_activation_probability_formula () =
  Alcotest.(check (float 1e-12)) "d=1 equals a0" 0.3
    (Election.activation_probability ~a0:0.3 ~d:1);
  Alcotest.(check (float 1e-12)) "d=2" (1. -. (0.7 *. 0.7))
    (Election.activation_probability ~a0:0.3 ~d:2);
  Alcotest.(check bool) "d large approaches 1" true
    (Election.activation_probability ~a0:0.3 ~d:100 > 0.999)

let test_activation_probability_monotone () =
  let previous = ref 0. in
  for d = 1 to 50 do
    let p = Election.activation_probability ~a0:0.2 ~d in
    if p <= !previous then Alcotest.failf "not monotone at d=%d" d;
    previous := p
  done

let test_activation_probability_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "a0=0" (fun () ->
      Election.activation_probability ~a0:0. ~d:1);
  expect_invalid "a0=1" (fun () ->
      Election.activation_probability ~a0:1. ~d:1);
  expect_invalid "d=0" (fun () ->
      Election.activation_probability ~a0:0.5 ~d:0)

let test_tick_only_idle_activates () =
  let rng = Abe_prob.Rng.create ~seed:1 in
  List.iter
    (fun phase ->
       let st, sent =
         Election.tick_decision ~a0:0.99 ~rng (state phase 5)
       in
       check_state "unchanged" (state phase 5) st;
       Alcotest.(check bool) "no send" false sent)
    [ Election.Active; Election.Passive; Election.Leader ]

let test_tick_idle_activation_rate () =
  let rng = Abe_prob.Rng.create ~seed:2 in
  let activations = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let st, sent = Election.tick_decision ~a0:0.2 ~rng (state Election.Idle 2) in
    if sent then begin
      incr activations;
      check_state "became active" (state Election.Active 2) st
    end
    else check_state "stays idle" (state Election.Idle 2) st
  done;
  let rate = float_of_int !activations /. float_of_int trials in
  let expected = Election.activation_probability ~a0:0.2 ~d:2 in
  Alcotest.(check bool) "rate matches formula" true
    (Float.abs (rate -. expected) < 0.005)

let test_receive_idle_becomes_passive () =
  let st, reaction = receive ~n:8 (state Election.Idle 1) 3 in
  check_state "passive with watermark" (state Election.Passive 3) st;
  Alcotest.(check bool) "forwards" true (reaction = Election.Forward);
  check_forwarded "forwards hop+1" ~n:8 (state Election.Idle 1) 3 (Some 4)

let test_receive_passive_forwards () =
  let st, reaction = receive ~n:8 (state Election.Passive 5) 2 in
  check_state "keeps watermark" (state Election.Passive 5) st;
  Alcotest.(check bool) "forwards" true (reaction = Election.Forward);
  (* The watermark only boosts activation; the forwarded counter is the
     true link count hop+1 = 3, NOT d+1 = 6 (the historical bug). *)
  check_forwarded "forwards hop+1" ~n:8 (state Election.Passive 5) 2 (Some 3)

let test_receive_orphan_purged () =
  (* A token with hop = n reaching a non-active node is an orphan (its
     origin was knocked out after emitting it): it must die, not be
     forwarded past n. *)
  let st, reaction = receive ~n:4 (state Election.Idle 1) 4 in
  check_state "idle stays idle with raised watermark" (state Election.Idle 4)
    st;
  Alcotest.(check bool) "idle purges orphan" true (reaction = Election.Purge);
  let st', reaction' = receive ~n:4 (state Election.Passive 2) 4 in
  check_state "passive keeps phase" (state Election.Passive 4) st';
  Alcotest.(check bool) "passive purges orphan" true
    (reaction' = Election.Purge)

(* Regression for the stale-watermark bug (forwarding [max d hop + 1]).

   Ring of n = 4.  Node 3 was knocked out earlier by a <3> token from an
   active node that has since been purged, so it is passive with a stale
   d = 3.  A fresh token from node 2 now arrives at node 3 with hop 1.

   Old rule: node 3 forwards d+1 = 4 = n, so active node 0 receives
   hop = n after the token traversed only 2 links — a false election.
   Fixed rule: node 3 forwards hop+1 = 2, node 0 sees a collision and
   purges.  No premature leader. *)
let test_stale_watermark_regression () =
  let n = 4 in
  let node3 = state Election.Passive 3 in
  let st3, r3 = receive ~n node3 1 in
  check_state "watermark untouched by smaller hop" (state Election.Passive 3)
    st3;
  (match r3 with
   | Election.Forward ->
     check_forwarded "forwards true link count" ~n node3 1 (Some 2);
     let node0 = state Election.Active 1 in
     let st0, r0 = receive ~n node0 2 in
     Alcotest.(check bool) "no premature election" true (r0 = Election.Purge);
     check_state "origin falls back to idle" (state Election.Idle 2) st0
   | Election.Purge | Election.Elected ->
     Alcotest.fail "fresh token must be forwarded");
  (* Sanity: the buggy counter value would indeed have elected node 0. *)
  let _, buggy = receive ~n (state Election.Active 1) (st3.Election.d + 1) in
  Alcotest.(check bool) "d+1 = n would falsely elect" true
    (buggy = Election.Elected)

(* Drive one token all the way around a 4-ring by hand: the counter must
   increase by exactly 1 per link and elect the origin — and only the
   origin — after traversing all n links. *)
let test_hand_driven_ring_single_leader () =
  let n = 4 in
  let states =
    Array.of_list
      [ state Election.Active 1;  (* origin, just activated and sent <1> *)
        state Election.Idle 1;
        state Election.Idle 2;    (* a different watermark must not matter *)
        state Election.Idle 1 ]
  in
  let hop = ref 1 in
  for node = 1 to 3 do
    let before = states.(node) in
    let st, reaction = receive ~n before !hop in
    states.(node) <- st;
    match reaction with
    | Election.Forward ->
      check_forwarded (Printf.sprintf "node %d forwards hop+1" node) ~n before
        !hop (Some (!hop + 1));
      incr hop
    | Election.Purge | Election.Elected ->
      Alcotest.failf "node %d should forward" node
  done;
  let st0, r0 = receive ~n states.(0) !hop in
  states.(0) <- st0;
  Alcotest.(check bool) "origin elected" true (r0 = Election.Elected);
  let leaders =
    Array.fold_left
      (fun acc st ->
         if st.Election.phase = Election.Leader then acc + 1 else acc)
      0 states
  in
  Alcotest.(check int) "exactly one leader" 1 leaders

let test_receive_active_purges () =
  let st, reaction = receive ~n:8 (state Election.Active 1) 4 in
  check_state "demoted to idle" (state Election.Idle 4) st;
  Alcotest.(check bool) "purged" true (reaction = Election.Purge)

let test_receive_active_elected () =
  let st, reaction = receive ~n:8 (state Election.Active 3) 8 in
  check_state "leader" (state Election.Leader 8) st;
  Alcotest.(check bool) "elected" true (reaction = Election.Elected)

let test_receive_leader_defensive () =
  let st, reaction = receive ~n:8 (state Election.Leader 8) 2 in
  Alcotest.(check bool) "leader unchanged" true
    (st.Election.phase = Election.Leader);
  Alcotest.(check bool) "purged" true (reaction = Election.Purge)

let test_receive_watermark_update () =
  let st, _ = receive ~n:10 (state Election.Idle 4) 7 in
  Alcotest.(check int) "d raised" 7 st.Election.d;
  let st2, _ = receive ~n:10 (state Election.Passive 7) 2 in
  Alcotest.(check int) "d kept" 7 st2.Election.d

let test_receive_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let rule = Election.rule ~n:5 in
  expect_invalid "hop 0" (fun () -> Election.receive rule Election.initial 0);
  expect_invalid "hop > n" (fun () -> Election.receive rule Election.initial 6);
  expect_invalid "reaction to hop 0" (fun () ->
      Election.reaction rule Election.initial 0);
  expect_invalid "reaction to hop > n" (fun () ->
      Election.reaction rule Election.initial 6);
  expect_invalid "n < 2" (fun () -> Election.rule ~n:1)

(* A forward builds nothing: a knockout gets the rule's shared passive
   record, a passive node keeps or swaps to one, and the reaction is an
   immediate.  Measured over every forwarding receipt of a 64-ring, against
   the words that reading the counter itself takes. *)
let test_forward_allocates_nothing () =
  let n = 64 in
  let rule = Election.rule ~n in
  (* States are built before counting: [state] allocates. *)
  let states =
    Array.init (n + 1) (fun d ->
        (state Election.Idle (max d 1), state Election.Passive (max d 1)))
  in
  let words_of f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = words_of (fun () -> ()) in
  let words =
    words_of (fun () ->
        for d = 1 to n do
          let idle, passive = states.(d) in
          for hop = 1 to n - 1 do
            ignore (Election.receive rule idle hop : Election.state);
            ignore (Election.reaction rule idle hop : Election.reaction);
            ignore (Election.receive rule passive hop : Election.state);
            ignore (Election.reaction rule passive hop : Election.reaction)
          done
        done)
  in
  if words > baseline then
    Alcotest.failf "%g minor words over %d forwards" (words -. baseline)
      (2 * n * (n - 1))

(* Property: receive never lowers d, never forwards beyond n when fed
   hops consistent with the reachable-state invariant (d <= hop bound). *)
let prop_receive_monotone_d =
  QCheck.Test.make ~name:"receive never lowers the watermark" ~count:500
    QCheck.(triple (int_range 2 64) (int_range 1 64) (int_range 1 64))
    (fun (n, d, hop) ->
       QCheck.assume (hop <= n && d <= n);
       let st = state Election.Passive d in
       let st', _ = receive ~n st hop in
       st'.Election.d >= d && st'.Election.d >= hop)

let prop_forward_hop_bounded =
  QCheck.Test.make ~name:"forwarded hop is hop+1 and never exceeds n"
    ~count:500
    QCheck.(triple (int_range 2 64) (int_range 1 64) (int_range 1 64))
    (fun (n, d, hop) ->
       QCheck.assume (hop <= n && d <= n);
       let st = state Election.Idle d in
       let _, reaction = receive ~n st hop in
       match reaction, forwarded ~n st hop with
       | Election.Forward, Some h -> hop < n && h = hop + 1 && h <= n
       | Election.Purge, None -> hop = n
       | (Election.Forward | Election.Purge | Election.Elected), _ -> false)

let prop_active_hop_n_elects =
  QCheck.Test.make ~name:"active + hop=n always elects" ~count:200
    QCheck.(pair (int_range 2 64) (int_range 1 64))
    (fun (n, d) ->
       QCheck.assume (d <= n);
       let st = state Election.Active d in
       let _, reaction = receive ~n st n in
       reaction = Election.Elected)

(* The receipt rule as it stood when it built a record per receipt and
   returned the forwarded counter in its reaction: the reference the
   allocation-free rule must equal. *)
type reference_reaction = Ref_forward of int | Ref_purge | Ref_elected

let reference_receive ~n (st : Election.state) hop =
  let st = { st with Election.d = max st.Election.d hop } in
  match st.Election.phase with
  | Election.Idle ->
    if hop = n then (st, Ref_purge)
    else ({ st with Election.phase = Election.Passive }, Ref_forward (hop + 1))
  | Election.Passive ->
    if hop = n then (st, Ref_purge) else (st, Ref_forward (hop + 1))
  | Election.Active ->
    if hop = n then ({ st with Election.phase = Election.Leader }, Ref_elected)
    else ({ st with Election.phase = Election.Idle }, Ref_purge)
  | Election.Leader -> (st, Ref_purge)

(* Over random rings, states and hops, [Election.receive] and
   [Election.reaction] give the reference's state and reaction, and a
   forward sends the reference's counter through [Runner.on_token].  It
   catches a record handed back with a stale d: a leader returned as it
   was given when a larger hop arrives fails here and in no other case of
   this file; so does the shared passive record looked up at the old
   watermark (which the orphan case also catches). *)
let prop_rule_matches_reference =
  let phases =
    [| Election.Idle; Election.Active; Election.Passive; Election.Leader |]
  in
  QCheck.Test.make ~name:"rule equals its reference"
    ~count:1000
    QCheck.(
      quad (int_range 2 64) (int_range 0 3) (int_range 1 64) (int_range 1 64))
    (fun (n, phase, d, hop) ->
       QCheck.assume (d <= n && hop <= n);
       let st = state phases.(phase) d in
       let expected_state, expected = reference_receive ~n st hop in
       let got_state, got = receive ~n st hop in
       got_state = expected_state
       &&
       match expected, got with
       | Ref_forward h, Election.Forward -> forwarded ~n st hop = Some h
       | Ref_purge, Election.Purge | Ref_elected, Election.Elected -> true
       | (Ref_forward _ | Ref_purge | Ref_elected), _ -> false)

let () =
  Alcotest.run "election"
    [ ( "activation",
        [ Alcotest.test_case "initial state" `Quick test_initial;
          Alcotest.test_case "probability formula" `Quick
            test_activation_probability_formula;
          Alcotest.test_case "monotone in d" `Quick
            test_activation_probability_monotone;
          Alcotest.test_case "validation" `Quick
            test_activation_probability_validation;
          Alcotest.test_case "only idle activates" `Quick
            test_tick_only_idle_activates;
          Alcotest.test_case "activation rate" `Quick
            test_tick_idle_activation_rate ] );
      ( "receive",
        [ Alcotest.test_case "idle -> passive" `Quick
            test_receive_idle_becomes_passive;
          Alcotest.test_case "passive forwards" `Quick
            test_receive_passive_forwards;
          Alcotest.test_case "orphan token purged" `Quick
            test_receive_orphan_purged;
          Alcotest.test_case "stale-watermark regression" `Quick
            test_stale_watermark_regression;
          Alcotest.test_case "hand-driven ring" `Quick
            test_hand_driven_ring_single_leader;
          Alcotest.test_case "active purges" `Quick test_receive_active_purges;
          Alcotest.test_case "active elected" `Quick test_receive_active_elected;
          Alcotest.test_case "leader defensive" `Quick
            test_receive_leader_defensive;
          Alcotest.test_case "watermark update" `Quick
            test_receive_watermark_update;
          Alcotest.test_case "validation" `Quick test_receive_validation;
          Alcotest.test_case "forward allocates nothing" `Quick
            test_forward_allocates_nothing ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_receive_monotone_d;
            prop_forward_hop_bounded;
            prop_active_hop_n_elects;
            prop_rule_matches_reference ] ) ]
