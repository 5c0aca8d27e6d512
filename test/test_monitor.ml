open Abe_net

(* The monitor is driven here with fabricated event streams — the point is
   to prove each check fires on a stream a correct network can never emit,
   and stays silent on a consistent one. *)

let stats () =
  { Network.sent = 0;
    delivered = 0;
    lost = 0;
    crashed_drops = 0;
    link_drops = 0;
    ticks = 0;
    sent_per_node = Array.make 2 0;
    delivered_per_node = Array.make 2 0 }

let link0 = { Topology.id = 0; src = 0; dst = 1 }

let monitor ?clock ?(fifo = false) ?dynamic ?(nodes = 2) ?(links = 2) () =
  let oracle = Abe_sim.Oracle.create () in
  (Monitor.create ~oracle ?clock ~fifo ?dynamic ~nodes ~links (), oracle)

let invariants oracle =
  List.map
    (fun v -> v.Abe_sim.Oracle.invariant)
    (Abe_sim.Oracle.violations oracle)

(* Emit a consistent send+deliver pair through the observer. *)
let send_then_deliver obs stats ~seq ~t_send ~t_deliver =
  stats.Network.sent <- stats.Network.sent + 1;
  obs ~time:t_send ~stats ~in_flight:1 (Network.Send { link = link0; seq });
  stats.Network.delivered <- stats.Network.delivered + 1;
  obs ~time:t_deliver ~stats ~in_flight:0
    (Network.Deliver { link = link0; seq; dst = 1 })

let test_consistent_stream_clean () =
  let m, oracle = monitor ~fifo:true () in
  let obs = Monitor.observer m in
  let st = stats () in
  send_then_deliver obs st ~seq:0 ~t_send:0. ~t_deliver:1.;
  send_then_deliver obs st ~seq:1 ~t_send:1. ~t_deliver:2.;
  Monitor.check_quiescence m ~time:2. ~outcome:Abe_sim.Engine.Drained
    ~in_flight:0;
  if Abe_sim.Oracle.violations oracle <> [] then
    Alcotest.failf "unexpected: %a" Fmt.(list Abe_sim.Oracle.pp_violation)
      (Abe_sim.Oracle.violations oracle)

let test_conservation_violation () =
  let m, oracle = monitor () in
  let obs = Monitor.observer m in
  let st = stats () in
  st.Network.sent <- 1;
  (* in_flight claims 0 while nothing was delivered/lost: the equation and
     the independent count both break. *)
  obs ~time:0. ~stats:st ~in_flight:0 (Network.Send { link = link0; seq = 0 });
  Alcotest.(check bool) "conservation fired" true
    (List.mem "conservation" (invariants oracle))

let test_accounting_violation () =
  let m, oracle = monitor () in
  let obs = Monitor.observer m in
  let st = stats () in
  (* The network's stats claim a delivery the monitor never observed. *)
  st.Network.sent <- 2;
  st.Network.delivered <- 1;
  obs ~time:0. ~stats:st ~in_flight:1 (Network.Send { link = link0; seq = 0 });
  Alcotest.(check bool) "accounting fired" true
    (List.mem "accounting" (invariants oracle))

let test_fifo_violation () =
  let m, oracle = monitor ~fifo:true () in
  let obs = Monitor.observer m in
  let st = stats () in
  st.Network.sent <- 2;
  obs ~time:0. ~stats:st ~in_flight:2 (Network.Send { link = link0; seq = 0 });
  obs ~time:0. ~stats:st ~in_flight:2 (Network.Send { link = link0; seq = 1 });
  (* Deliver seq 1 before seq 0 on the same link: out of order. *)
  st.Network.delivered <- 1;
  obs ~time:1. ~stats:st ~in_flight:1
    (Network.Deliver { link = link0; seq = 1; dst = 1 });
  st.Network.delivered <- 2;
  obs ~time:2. ~stats:st ~in_flight:0
    (Network.Deliver { link = link0; seq = 0; dst = 1 });
  Alcotest.(check bool) "fifo fired" true (List.mem "fifo" (invariants oracle))

let test_fifo_ignored_when_disabled () =
  let m, oracle = monitor ~fifo:false () in
  let obs = Monitor.observer m in
  let st = stats () in
  st.Network.sent <- 2;
  obs ~time:0. ~stats:st ~in_flight:2 (Network.Send { link = link0; seq = 0 });
  obs ~time:0. ~stats:st ~in_flight:2 (Network.Send { link = link0; seq = 1 });
  st.Network.delivered <- 1;
  obs ~time:1. ~stats:st ~in_flight:1
    (Network.Deliver { link = link0; seq = 1; dst = 1 });
  st.Network.delivered <- 2;
  obs ~time:2. ~stats:st ~in_flight:0
    (Network.Deliver { link = link0; seq = 0; dst = 1 });
  Alcotest.(check bool) "no fifo check on non-fifo links" false
    (List.mem "fifo" (invariants oracle))

let tick obs stats ~time ~node ~local_time =
  stats.Network.ticks <- stats.Network.ticks + 1;
  obs ~time ~stats ~in_flight:0 (Network.Tick { node; local_time })

let test_clock_monotonicity_violation () =
  let m, oracle = monitor ~clock:Clock.perfect () in
  let obs = Monitor.observer m in
  let st = stats () in
  tick obs st ~time:1. ~node:0 ~local_time:1.;
  tick obs st ~time:2. ~node:0 ~local_time:0.5;
  Alcotest.(check bool) "monotonicity fired" true
    (List.mem "clock-monotone" (invariants oracle))

let test_clock_drift_violation () =
  let spec = Clock.spec ~s_low:0.9 ~s_high:1.1 in
  let m, oracle = monitor ~clock:spec () in
  let obs = Monitor.observer m in
  let st = stats () in
  tick obs st ~time:1. ~node:0 ~local_time:1.;
  (* Local clock advanced 3 units in 1 real unit: rate 3 > s_high. *)
  tick obs st ~time:2. ~node:0 ~local_time:4.;
  Alcotest.(check bool) "drift fired" true
    (List.mem "clock-drift" (invariants oracle));
  (* A compliant pair on the other node stays silent. *)
  tick obs st ~time:1. ~node:1 ~local_time:1.;
  tick obs st ~time:2. ~node:1 ~local_time:2.05;
  let drift_count =
    List.length (List.filter (( = ) "clock-drift") (invariants oracle))
  in
  Alcotest.(check int) "exactly one drift violation" 1 drift_count

let violations oracle =
  List.map
    (fun v ->
       Abe_sim.Oracle.(v.invariant, v.subject, v.detail))
    (Abe_sim.Oracle.violations oracle)

(* The tick check builds its report text only when it reports; the text
   itself is part of the oracle's output and must not change. *)
let test_clock_report_text () =
  let spec = Clock.spec ~s_low:0.9 ~s_high:1.1 in
  let m, oracle = monitor ~clock:spec ~nodes:4 () in
  let obs = Monitor.observer m in
  let st = stats () in
  tick obs st ~time:1. ~node:3 ~local_time:1.;
  tick obs st ~time:2. ~node:3 ~local_time:0.5;
  tick obs st ~time:3. ~node:3 ~local_time:3.5;
  Alcotest.(check (list (triple string string string)))
    "subjects and details"
    [ ("clock-monotone", "node 3", "local clock went from 1.000000 to 0.500000");
      ("clock-drift", "node 3", "observed rate -0.500000000 outside [0.9, 1.1]");
      ("clock-drift", "node 3", "observed rate 3.000000000 outside [0.9, 1.1]") ]
    (violations oracle)

(* A crash does not forget the node's last reading: the first tick after
   the rejoin is still compared with the one before the crash. *)
let test_tick_after_rejoin () =
  let m, oracle =
    monitor ~clock:Clock.perfect ~dynamic:Monitor.Dynamic ()
  in
  let obs = Monitor.observer m in
  let st = stats () in
  tick obs st ~time:1. ~node:0 ~local_time:1.;
  obs ~time:2. ~stats:st ~in_flight:0 (Network.Crash { node = 0 });
  obs ~time:3. ~stats:st ~in_flight:0 (Network.Revive { node = 0 });
  tick obs st ~time:4. ~node:0 ~local_time:4.;
  Alcotest.(check bool) "a faithful clock across the gap is clean" true
    (Abe_sim.Oracle.violations oracle = []);
  obs ~time:5. ~stats:st ~in_flight:0 (Network.Crash { node = 0 });
  obs ~time:6. ~stats:st ~in_flight:0 (Network.Revive { node = 0 });
  tick obs st ~time:7. ~node:0 ~local_time:3.;
  Alcotest.(check (list string)) "compared with the pre-crash reading"
    [ "clock-monotone"; "clock-drift" ] (invariants oracle)

(* A checked run allocates little per event on the minor heap: the
   tick check stores its last reading in float arrays and formats
   nothing.  It measures ~5 words per event in the dev profile, most of
   them the network's event records and boxed instants; formatting a
   subject and boxing a reading on every tick costs ~27. *)
let test_check_minor_words () =
  let n = 48 in
  let config =
    Abe_core.Runner.config ~n
      ~a0:(Abe_core.Analysis.recommended_a0 ~theta:1. n)
      ~params:Abe_core.Params.default ()
  in
  let events = ref 0 in
  let before = Gc.minor_words () in
  for seed = 1 to 20 do
    let o = Abe_core.Runner.run ~check:true ~seed config in
    Alcotest.(check bool) "clean election" true
      (o.Abe_core.Runner.elected && o.Abe_core.Runner.violations = []);
    events := !events + o.Abe_core.Runner.executed_events
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int !events in
  if words > 8. then
    Alcotest.failf "%.2f minor words per event (bound 8)" words

let test_quiescence_violation () =
  let m, oracle = monitor () in
  Monitor.check_quiescence m ~time:9. ~outcome:Abe_sim.Engine.Drained
    ~in_flight:3;
  Alcotest.(check (list string)) "quiescence fired" [ "quiescence" ]
    (invariants oracle);
  (* An interrupted run may legitimately leave messages in flight. *)
  let m2, oracle2 = monitor () in
  Monitor.check_quiescence m2 ~time:9. ~outcome:Abe_sim.Engine.Stopped
    ~in_flight:3;
  Alcotest.(check bool) "stopped run not flagged" true
    (Abe_sim.Oracle.violations oracle2 = [])

(* Dynamic classes: a Static monitor must flag any topology event, a
   Dynamic monitor must accept a full churn sequence as long as the
   accounting stays consistent. *)

let test_static_flags_topology_events () =
  let m, oracle = monitor () in
  let obs = Monitor.observer m in
  let st = stats () in
  obs ~time:1. ~stats:st ~in_flight:0 (Network.Link_down { link = link0 });
  obs ~time:2. ~stats:st ~in_flight:0 (Network.Revive { node = 0 });
  Alcotest.(check int) "two dynamic-class violations" 2
    (List.length (List.filter (( = ) "dynamic-class") (invariants oracle)))

let test_dynamic_accepts_churn_stream () =
  let m, oracle = monitor ~dynamic:Monitor.Dynamic () in
  let obs = Monitor.observer m in
  let st = stats () in
  obs ~time:0.5 ~stats:st ~in_flight:0 (Network.Crash { node = 0 });
  st.Network.sent <- 1;
  obs ~time:1. ~stats:st ~in_flight:1 (Network.Send { link = link0; seq = 0 });
  obs ~time:1.2 ~stats:st ~in_flight:1 (Network.Link_down { link = link0 });
  (* The link died with the message in flight: the drop is accounted, so
     conservation still balances at the observer call. *)
  st.Network.link_drops <- 1;
  obs ~time:1.5 ~stats:st ~in_flight:0
    (Network.Link_drop { link = link0; seq = 0 });
  obs ~time:2. ~stats:st ~in_flight:0 (Network.Link_up { link = link0 });
  obs ~time:2.5 ~stats:st ~in_flight:0 (Network.Revive { node = 0 });
  Monitor.check_quiescence m ~time:3. ~outcome:Abe_sim.Engine.Drained
    ~in_flight:0;
  if Abe_sim.Oracle.violations oracle <> [] then
    Alcotest.failf "unexpected: %a" Fmt.(list Abe_sim.Oracle.pp_violation)
      (Abe_sim.Oracle.violations oracle)

let test_link_drop_conservation_violation () =
  let m, oracle = monitor ~dynamic:Monitor.Dynamic () in
  let obs = Monitor.observer m in
  let st = stats () in
  st.Network.sent <- 1;
  obs ~time:1. ~stats:st ~in_flight:1 (Network.Send { link = link0; seq = 0 });
  (* Link drop claimed without updating the stats: both the equation and
     the independent count break. *)
  obs ~time:2. ~stats:st ~in_flight:0
    (Network.Link_drop { link = link0; seq = 0 });
  Alcotest.(check bool) "conservation fired" true
    (List.mem "conservation" (invariants oracle))

let () =
  Alcotest.run "monitor"
    [ ( "monitor",
        [ Alcotest.test_case "consistent stream clean" `Quick
            test_consistent_stream_clean;
          Alcotest.test_case "conservation" `Quick test_conservation_violation;
          Alcotest.test_case "accounting" `Quick test_accounting_violation;
          Alcotest.test_case "fifo" `Quick test_fifo_violation;
          Alcotest.test_case "fifo disabled" `Quick
            test_fifo_ignored_when_disabled;
          Alcotest.test_case "clock monotonicity" `Quick
            test_clock_monotonicity_violation;
          Alcotest.test_case "clock drift" `Quick test_clock_drift_violation;
          Alcotest.test_case "quiescence" `Quick test_quiescence_violation;
          Alcotest.test_case "clock report text" `Quick test_clock_report_text;
          Alcotest.test_case "tick after rejoin" `Quick test_tick_after_rejoin;
          Alcotest.test_case "check minor words" `Quick test_check_minor_words
        ] );
      ( "dynamic classes",
        [ Alcotest.test_case "static flags topology events" `Quick
            test_static_flags_topology_events;
          Alcotest.test_case "dynamic accepts churn stream" `Quick
            test_dynamic_accepts_churn_stream;
          Alcotest.test_case "link-drop conservation" `Quick
            test_link_drop_conservation_violation ] ) ]
