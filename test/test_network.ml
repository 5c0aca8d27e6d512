open Abe_net

(* A tiny test protocol: integer messages, every node records what it
   receives (value, arrival time) and counts ticks. *)
module Proto = struct
  type state = {
    received : (int * float) list;  (* newest first *)
    ticks : int;
  }

  type message = int

  let pp_state ppf s =
    Fmt.pf ppf "received=%d ticks=%d" (List.length s.received) s.ticks

  let pp_message = Format.pp_print_int
end

module Net = Network.Make (Proto)

let recorder ?(on_tick = fun _ctx st -> st) ?(init_send = fun _ctx -> ()) () :
  Net.handlers =
  { init =
      (fun ctx ->
         init_send ctx;
         { Proto.received = []; ticks = 0 });
    on_message =
      (fun ctx st v ->
         { st with Proto.received = (v, ctx.Net.now ()) :: st.Proto.received });
    on_tick =
      (fun ctx st -> on_tick ctx { st with Proto.ticks = st.Proto.ticks + 1 }) }

let two_node_topology = Topology.ring 2

let test_deterministic_delivery () =
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:2.5))
      with Net.ticks_enabled = false }
  in
  let handlers =
    recorder
      ~init_send:(fun ctx -> if ctx.Net.node = 0 then ctx.Net.send 0 42)
      ()
  in
  let net = Net.create ~seed:1 config handlers in
  Alcotest.(check int) "one in flight" 1 (Net.in_flight net);
  Alcotest.(check bool) "drains" true (Net.run net = Abe_sim.Engine.Drained);
  Alcotest.(check int) "none in flight" 0 (Net.in_flight net);
  (match (Net.state net 1).Proto.received with
   | [ (42, at) ] -> Alcotest.(check (float 1e-9)) "arrival time" 2.5 at
   | _ -> Alcotest.fail "expected exactly one delivery at node 1");
  let stats = Net.stats net in
  Alcotest.(check int) "sent" 1 stats.Network.sent;
  Alcotest.(check int) "delivered" 1 stats.Network.delivered;
  Alcotest.(check int) "lost" 0 stats.Network.lost

let test_send_bad_link_rejected () =
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with Net.ticks_enabled = false }
  in
  let handlers =
    recorder
      ~init_send:(fun ctx ->
          if ctx.Net.node = 0 then
            match ctx.Net.send 5 1 with
            | exception Invalid_argument _ -> ()
            | () -> Alcotest.fail "expected invalid link rejection")
      ()
  in
  ignore (Net.create ~seed:1 config handlers)

let burst_config ~fifo =
  { (Net.default_config ~topology:two_node_topology
       ~delay:(Delay_model.abe_exponential ~delta:5.))
    with Net.ticks_enabled = false; fifo }

let burst_handlers =
  recorder
    ~init_send:(fun ctx ->
        if ctx.Net.node = 0 then
          for i = 1 to 100 do
            ctx.Net.send 0 i
          done)
    ()

let arrival_order net =
  List.rev_map fst (Net.state net 1).Proto.received

let test_non_fifo_reorders () =
  let net = Net.create ~seed:7 (burst_config ~fifo:false) burst_handlers in
  ignore (Net.run net);
  let order = arrival_order net in
  Alcotest.(check int) "all delivered" 100 (List.length order);
  Alcotest.(check bool) "order scrambled (iid exponential delays)" true
    (order <> List.init 100 (fun i -> i + 1));
  Alcotest.(check (list int)) "same multiset"
    (List.init 100 (fun i -> i + 1))
    (List.sort compare order)

let test_fifo_preserves_order () =
  let net = Net.create ~seed:7 (burst_config ~fifo:true) burst_handlers in
  ignore (Net.run net);
  Alcotest.(check (list int)) "fifo order" (List.init 100 (fun i -> i + 1))
    (arrival_order net)

let test_loss_accounting () =
  let config =
    { (burst_config ~fifo:false) with Net.loss_schedule = Some (Fun.const 0.5) }
  in
  let net = Net.create ~seed:9 config burst_handlers in
  ignore (Net.run net);
  let stats = Net.stats net in
  Alcotest.(check int) "sent" 100 stats.Network.sent;
  Alcotest.(check int) "sent = delivered + lost" 100
    (stats.Network.delivered + stats.Network.lost);
  Alcotest.(check bool) "some lost" true (stats.Network.lost > 20);
  Alcotest.(check bool) "some delivered" true (stats.Network.delivered > 20)

(* One constant-loss run, pinned: the stats and the trace of the burst
   (seed 11, loss 0.3) are the digests recorded when [Network.config] had
   a constant loss-probability field beside the schedule.  A constant
   schedule draws from the same loss stream with the same Bernoulli
   probability, so it reproduces both. *)
let test_constant_loss_golden () =
  let trace = Abe_sim.Trace.create ~enabled:true () in
  let config =
    { (burst_config ~fifo:false) with Net.loss_schedule = Some (Fun.const 0.3) }
  in
  let net = Net.create ~trace ~seed:11 config burst_handlers in
  ignore (Net.run net);
  let s = Net.stats net in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let stats =
    Printf.sprintf "%d %d %d %d %d %d [%s] [%s]" s.Network.sent
      s.Network.delivered s.Network.lost s.Network.crashed_drops
      s.Network.link_drops s.Network.ticks (ints s.Network.sent_per_node)
      (ints s.Network.delivered_per_node)
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "stats md5" "26855e5fef2e64a9d1b54ca4452ce2c8"
    (md5 stats);
  Alcotest.(check string) "trace md5" "cd953f9e605df255a8f4b0c2cb22b225"
    (md5 (Abe_sim.Trace.to_jsonl trace))

let test_processing_delay_serialises () =
  (* Three messages arrive at node 1 at t=1 (deterministic delay); handling
     each takes exactly 1.  Completions must be at 2, 3, 4. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with
      Net.ticks_enabled = false;
      proc_delay = Some (Abe_prob.Dist.deterministic 1.) }
  in
  let handlers =
    recorder
      ~init_send:(fun ctx ->
          if ctx.Net.node = 0 then List.iter (ctx.Net.send 0) [ 1; 2; 3 ])
      ()
  in
  let net = Net.create ~seed:3 config handlers in
  ignore (Net.run net);
  let arrivals = List.rev (Net.state net 1).Proto.received in
  Alcotest.(check (list (pair int (float 1e-9))))
    "serialised completions"
    [ (1, 2.); (2, 3.); (3, 4.) ]
    arrivals

let test_ticks_run_and_count () =
  let config =
    Net.default_config ~topology:two_node_topology
      ~delay:(Delay_model.abd_deterministic ~delay:1.)
  in
  let net = Net.create ~limit_time:10.5 ~seed:5 config (recorder ()) in
  Alcotest.(check bool) "hits time limit" true
    (Net.run net = Abe_sim.Engine.Hit_time_limit);
  (* Perfect clocks with phase in [0,1): 10 or 11 ticks each by t=10.5. *)
  Array.iter
    (fun st ->
       if st.Proto.ticks < 9 || st.Proto.ticks > 11 then
         Alcotest.failf "unexpected tick count %d" st.Proto.ticks)
    (Net.states net);
  let stats = Net.stats net in
  Alcotest.(check int) "global tick count matches"
    (Array.fold_left (fun acc st -> acc + st.Proto.ticks) 0 (Net.states net))
    stats.Network.ticks

let test_stop_from_handler () =
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with Net.ticks_enabled = false }
  in
  let handlers : Net.handlers =
    { init = (fun ctx -> if ctx.Net.node = 0 then ctx.Net.send 0 1;
                { Proto.received = []; ticks = 0 });
      on_message =
        (fun ctx st _ ->
           ctx.Net.stop ();
           st);
      on_tick = (fun _ st -> st) }
  in
  let net = Net.create ~seed:5 config handlers in
  Alcotest.(check bool) "stopped" true (Net.run net = Abe_sim.Engine.Stopped)

let test_heterogeneous_link_delays () =
  (* Per-link delay configuration: link 0 (node0 -> node1) is slow, link 1
     (node1 -> node0) fast; the echo round trip shows both. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with
      Net.ticks_enabled = false;
      delay_of_link =
        (fun link ->
           if link.Topology.id = 0 then Delay_model.abd_deterministic ~delay:5.
           else Delay_model.abd_deterministic ~delay:0.5) }
  in
  let handlers : Net.handlers =
    { init =
        (fun ctx ->
           if ctx.Net.node = 0 then ctx.Net.send 0 1;
           { Proto.received = []; ticks = 0 });
      on_message =
        (fun ctx st v ->
           if ctx.Net.node = 1 then ctx.Net.send 0 v;
           { st with Proto.received = (v, ctx.Net.now ()) :: st.Proto.received });
      on_tick = (fun _ st -> st) }
  in
  let net = Net.create ~seed:91 config handlers in
  ignore (Net.run net);
  (match (Net.state net 1).Proto.received with
   | [ (1, at) ] -> Alcotest.(check (float 1e-9)) "slow link" 5. at
   | _ -> Alcotest.fail "expected one delivery at node 1");
  match (Net.state net 0).Proto.received with
  | [ (1, at) ] -> Alcotest.(check (float 1e-9)) "fast link back" 5.5 at
  | _ -> Alcotest.fail "expected one delivery at node 0"

let test_crash_stops_delivery () =
  (* Node 1 crashes at t=5; messages sent at t=0 (arriving ~1) are
     delivered, messages arriving after the crash are dropped. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with
      Net.ticks_enabled = false;
      crash_times = [ (1, 5.) ] }
  in
  let handlers : Net.handlers =
    { init =
        (fun ctx ->
           if ctx.Net.node = 0 then ctx.Net.send 0 1;
           { Proto.received = []; ticks = 0 });
      on_message =
        (fun ctx st v ->
           (* Keep a ping-pong going so arrivals at node 1 land at
              t = 1, 3, 5, ... — some fall after the crash at t = 5. *)
           if ctx.Net.node = 0 then ctx.Net.send 0 (v + 1)
           else if v < 10 then ctx.Net.send 0 v;
           { st with Proto.received = (v, ctx.Net.now ()) :: st.Proto.received });
      on_tick = (fun _ st -> st) }
  in
  (* Messages: 0->1 at t0 (arr 1), 1->0 (arr 2), 0->1 (arr 3)... each hop
     adds 1; use more bounces so one lands past t=5. *)
  let net = Net.create ~seed:31 config handlers in
  ignore (Net.run net);
  let stats = Net.stats net in
  Alcotest.(check bool) "node 1 crashed" true (Net.crashed net 1);
  Alcotest.(check bool) "some deliveries happened" true (stats.Network.delivered > 0);
  Alcotest.(check bool) "post-crash messages dropped" true
    (stats.Network.crashed_drops > 0);
  Alcotest.(check int) "conservation" stats.Network.sent
    (stats.Network.delivered + stats.Network.lost + stats.Network.crashed_drops)

let test_crash_stops_ticks () =
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with Net.crash_times = [ (0, 3.5) ] }
  in
  let net = Net.create ~limit_time:10. ~seed:33 config (recorder ()) in
  ignore (Net.run net);
  let ticks0 = (Net.state net 0).Proto.ticks in
  let ticks1 = (Net.state net 1).Proto.ticks in
  Alcotest.(check bool) "crashed node stopped ticking" true (ticks0 <= 4);
  Alcotest.(check bool) "healthy node kept ticking" true (ticks1 >= 9)

let test_crash_validation () =
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with Net.crash_times = [ (7, 1.) ] }
  in
  match Net.create ~seed:1 config (recorder ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of out-of-range crash node"

(* Satellite: toggling loss must not shift the delay stream.  Delays come
   from a per-link RNG and loss draws from a separate dedicated one, so
   every message delivered in a lossy run arrives at exactly the time it
   arrives in the loss-free run. *)
let test_loss_delay_decoupling () =
  let arrivals loss_schedule =
    let config = { (burst_config ~fifo:false) with Net.loss_schedule } in
    let net = Net.create ~seed:41 config burst_handlers in
    ignore (Net.run net);
    (Net.state net 1).Proto.received
  in
  let reference = arrivals None in
  let lossy = arrivals (Some (Fun.const 0.4)) in
  Alcotest.(check int) "reference delivers all" 100 (List.length reference);
  Alcotest.(check bool) "lossy run lost some" true (List.length lossy < 100);
  Alcotest.(check bool) "lossy run delivered some" true (List.length lossy > 0);
  List.iter
    (fun (v, at) ->
       match List.assoc_opt v reference with
       | Some at' when at = at' -> ()
       | Some at' ->
         Alcotest.failf "message %d arrived at %.9f with loss, %.9f without" v
           at at'
       | None -> Alcotest.failf "message %d not in reference run" v)
    lossy

let test_loss_schedule () =
  (* A schedule that is 1/2 before t=0.5 and 0 after: the initial burst
     (sent at t=0) suffers losses, nothing else would.  And the constant-0
     schedule must behave exactly like no loss at all. *)
  let run schedule =
    let config =
      { (burst_config ~fifo:false) with Net.loss_schedule = schedule }
    in
    let net = Net.create ~seed:43 config burst_handlers in
    ignore (Net.run net);
    ((Net.state net 1).Proto.received, Net.stats net)
  in
  let plain, _ = run None in
  let zero, zero_stats = run (Some (fun _ -> 0.)) in
  Alcotest.(check int) "constant-0 schedule loses nothing" 0
    zero_stats.Network.lost;
  Alcotest.(check (list (pair int (float 1e-12))))
    "constant-0 schedule is byte-identical to no schedule" plain zero;
  let _, bursty_stats = run (Some (fun t -> if t < 0.5 then 0.5 else 0.)) in
  Alcotest.(check bool) "bursty schedule loses some" true
    (bursty_stats.Network.lost > 10);
  Alcotest.(check int) "conservation" bursty_stats.Network.sent
    (bursty_stats.Network.delivered + bursty_stats.Network.lost)

let test_bad_schedule_rejected () =
  (* The burst sends from init, so the invalid schedule value surfaces as
     Invalid_argument already during [create]. *)
  let config =
    { (burst_config ~fifo:false) with Net.loss_schedule = Some (fun _ -> 1.5) }
  in
  match Net.create ~seed:1 config burst_handlers with
  | exception Invalid_argument _ -> ()
  | _net -> Alcotest.fail "expected rejection of out-of-range schedule value"

(* Satellite: Network.create must validate every link's delay model, not
   just proc_delay — a NaN episode factor deep in one link's model is
   caught at construction. *)
let test_link_model_validation () =
  let bad_model factor =
    Delay_model.modulated
      (Delay_model.abd_deterministic ~delay:1.)
      ~episodes:[| { Delay_model.e_start = 0.; e_stop = 1.; factor } |]
  in
  List.iter
    (fun factor ->
       let config =
         { (Net.default_config ~topology:two_node_topology
              ~delay:(Delay_model.abd_deterministic ~delay:1.))
           with
           Net.ticks_enabled = false;
           delay_of_link =
             (fun link ->
                if link.Topology.id = 1 then bad_model factor
                else Delay_model.abd_deterministic ~delay:1.) }
       in
       match Net.create ~seed:1 config (recorder ()) with
       | exception Invalid_argument msg ->
         Alcotest.(check bool)
           (Printf.sprintf "message names the link (%s)" msg)
           true
           (String.starts_with ~prefix:"Network.create: link 1: " msg)
       | _ -> Alcotest.failf "expected rejection of factor %g" factor)
    [ Float.nan; -2.; 0.; Float.infinity ];
  (* A loss probability out of range is the schedule's value, checked when
     a send samples it: a network that sends nothing accepts it, and the
     burst's first send (during [create]'s init) rejects it. *)
  List.iter
    (fun p ->
       let config =
         { (burst_config ~fifo:false) with
           Net.loss_schedule = Some (Fun.const p) }
       in
       ignore (Net.create ~seed:1 config (recorder ()));
       match Net.create ~seed:1 config burst_handlers with
       | exception Invalid_argument msg ->
         Alcotest.(check bool)
           (Printf.sprintf "rejected at the sample (%s)" msg)
           true
           (String.starts_with ~prefix:"Links: loss_schedule returned" msg)
       | _ -> Alcotest.failf "loss probability %g must be rejected" p)
    [ -0.1; 1.5; Float.nan ]

let count_events events kind =
  List.length
    (List.filter
       (fun ev ->
          match ev, kind with
          | Network.Send _, `Send
          | Network.Deliver _, `Deliver
          | Network.Loss _, `Loss
          | Network.Crash_drop _, `Crash_drop
          | Network.Tick _, `Tick
          | Network.Crash _, `Crash -> true
          | _ -> false)
       events)

let test_observer_sees_every_event () =
  let events = ref [] in
  let observer ~at:_ ~stats:_ ~in_flight:_ ev = events := ev :: !events in
  let config =
    { (burst_config ~fifo:false) with Net.loss_schedule = Some (Fun.const 0.3) }
  in
  let net = Net.create ~observer ~seed:17 config burst_handlers in
  ignore (Net.run net);
  let stats = Net.stats net in
  let events = !events in
  Alcotest.(check int) "send events" stats.Network.sent
    (count_events events `Send);
  Alcotest.(check int) "deliver events" stats.Network.delivered
    (count_events events `Deliver);
  Alcotest.(check int) "loss events" stats.Network.lost
    (count_events events `Loss);
  Alcotest.(check bool) "losses happened" true (stats.Network.lost > 0)

(* ---- crash semantics under the conservation monitor (satellite) ---- *)

let checked_run ?(seed = 23) config handlers =
  let oracle = Abe_sim.Oracle.create () in
  let monitor =
    Monitor.create ~oracle ~clock:config.Net.clock_spec ~fifo:config.Net.fifo
      ~nodes:(Topology.node_count config.Net.topology)
      ~links:(Topology.link_count config.Net.topology)
      ()
  in
  let net =
    Net.create ~observer:(Monitor.observer monitor) ~limit_time:50. ~seed
      config handlers
  in
  let outcome = Net.run net in
  Monitor.check_quiescence monitor ~time:(Net.now net) ~outcome
    ~in_flight:(Net.in_flight net);
  (net, oracle)

let test_crash_accounting_monitored () =
  (* Same ping-pong as test_crash_stops_delivery, but every step checked by
     the conservation monitor, and exact in-flight accounting asserted. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with
      Net.ticks_enabled = false;
      crash_times = [ (1, 5.) ] }
  in
  let handlers : Net.handlers =
    { init =
        (fun ctx ->
           if ctx.Net.node = 0 then ctx.Net.send 0 1;
           { Proto.received = []; ticks = 0 });
      on_message =
        (fun ctx st v ->
           if ctx.Net.node = 0 then ctx.Net.send 0 (v + 1)
           else if v < 10 then ctx.Net.send 0 v;
           { st with Proto.received = (v, ctx.Net.now ()) :: st.Proto.received });
      on_tick = (fun _ st -> st) }
  in
  let net, oracle = checked_run ~seed:31 config handlers in
  let stats = Net.stats net in
  Alcotest.(check bool) "post-crash drops happened" true
    (stats.Network.crashed_drops > 0);
  Alcotest.(check int) "exact conservation at quiescence" stats.Network.sent
    (stats.Network.delivered + stats.Network.lost + stats.Network.crashed_drops);
  Alcotest.(check int) "nothing in flight" 0 (Net.in_flight net);
  if Abe_sim.Oracle.violations oracle <> [] then
    Alcotest.failf "oracle: %a" Fmt.(list Abe_sim.Oracle.pp_violation)
      (Abe_sim.Oracle.violations oracle)

let test_crash_between_arrival_and_processing () =
  (* Deterministic delay 1, processing time 1: the message arrives at node 1
     at t=1 and would be processed at t=2, but the node crashes at t=1.5 —
     the message must be dropped with exact accounting, not delivered. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with
      Net.ticks_enabled = false;
      proc_delay = Some (Abe_prob.Dist.deterministic 1.);
      crash_times = [ (1, 1.5) ] }
  in
  let handlers =
    recorder
      ~init_send:(fun ctx -> if ctx.Net.node = 0 then ctx.Net.send 0 99)
      ()
  in
  let net, oracle = checked_run config handlers in
  let stats = Net.stats net in
  Alcotest.(check int) "not delivered" 0 stats.Network.delivered;
  Alcotest.(check int) "dropped in the processing gap" 1
    stats.Network.crashed_drops;
  Alcotest.(check int) "nothing in flight" 0 (Net.in_flight net);
  Alcotest.(check (list (pair int (float 0.)))) "handler never ran" []
    (Net.state net 1).Proto.received;
  if Abe_sim.Oracle.violations oracle <> [] then
    Alcotest.failf "oracle: %a" Fmt.(list Abe_sim.Oracle.pp_violation)
      (Abe_sim.Oracle.violations oracle)

let test_crash_tick_shutdown_monitored () =
  (* Tick chains must shut down at the crash and the clock checks must stay
     clean for the surviving node. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with
      Net.clock_spec = Clock.spec ~s_low:0.8 ~s_high:1.25;
      crash_times = [ (0, 3.5) ] }
  in
  let net, oracle = checked_run ~seed:33 config (recorder ()) in
  Alcotest.(check bool) "crashed node stopped ticking" true
    ((Net.state net 0).Proto.ticks <= 5);
  Alcotest.(check bool) "healthy node kept ticking" true
    ((Net.state net 1).Proto.ticks >= 30);
  if Abe_sim.Oracle.violations oracle <> [] then
    Alcotest.failf "oracle: %a" Fmt.(list Abe_sim.Oracle.pp_violation)
      (Abe_sim.Oracle.violations oracle)

(* ---- dynamic topology: link outages and crash-recovery (tentpole) ---- *)

let test_link_outage_semantics () =
  (* Link 0 (node 0 -> node 1) is out over [2.5, 6): messages sent during
     the outage die at the send instant, a message already in flight when
     the link goes down dies at its arrival instant, and traffic resumes
     cleanly once the episode ends. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with Net.link_downs = [ (0, 2.5, 6.) ] }
  in
  let handlers : Net.handlers =
    { init = (fun _ -> { Proto.received = []; ticks = 0 });
      on_message =
        (fun ctx st v ->
           { st with Proto.received = (v, ctx.Net.now ()) :: st.Proto.received });
      on_tick =
        (fun ctx st ->
           if ctx.Net.node = 0 && ctx.Net.now () < 8. then
             ctx.Net.send 0 st.Proto.ticks;
           { st with Proto.ticks = st.Proto.ticks + 1 }) }
  in
  let net = Net.create ~limit_time:10. ~seed:51 config handlers in
  Alcotest.(check bool) "link starts up" true (Net.link_is_up net 0);
  ignore (Net.run net);
  Alcotest.(check bool) "link restored after the episode" true
    (Net.link_is_up net 0);
  let stats = Net.stats net in
  Alcotest.(check bool) "outage dropped messages" true
    (stats.Network.link_drops >= 3);
  Alcotest.(check bool) "deliveries before and after" true
    (stats.Network.delivered >= 3);
  List.iter
    (fun (_, at) ->
       if at >= 2.5 && at < 6. then
         Alcotest.failf "delivery at %g inside the outage" at)
    (Net.state net 1).Proto.received;
  Alcotest.(check int) "conservation with link drops" stats.Network.sent
    (stats.Network.delivered + stats.Network.lost + stats.Network.crashed_drops
     + stats.Network.link_drops);
  Alcotest.(check int) "in-flight drained" 0 (Net.in_flight net)

let test_manual_link_flip () =
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with Net.ticks_enabled = false }
  in
  let handlers =
    recorder ~init_send:(fun ctx -> if ctx.Net.node = 0 then ctx.Net.send 0 7) ()
  in
  let net = Net.create ~seed:1 config handlers in
  Net.set_link_up net 0 false;
  Net.set_link_up net 0 false;  (* absolute state, not a depth counter *)
  Alcotest.(check bool) "down" false (Net.link_is_up net 0);
  ignore (Net.run net);
  let stats = Net.stats net in
  Alcotest.(check int) "in-flight message dropped at arrival" 1
    stats.Network.link_drops;
  Alcotest.(check int) "nothing delivered" 0 stats.Network.delivered;
  Alcotest.(check int) "envelope released" 0 (Net.envelopes_in_use net);
  Net.set_link_up net 0 true;
  Alcotest.(check bool) "up again" true (Net.link_is_up net 0);
  match Net.set_link_up net 5 false with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range link must be rejected"

let test_revive_resets_state () =
  (* Delay 1, processing 1: three messages sent at t=0 arrive at t=1 and
     complete serially at t=2,3,4.  Node 1 crashes at 2.5 and rejoins at
     3.2: the first completion delivers, the second finds the node down
     (crash drop), and the third finds it live again — but its envelope was
     stamped with incarnation 0 at arrival, so it must be inert rather than
     deliver a pre-crash message into the revived node's fresh state. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with
      Net.ticks_enabled = false;
      proc_delay = Some (Abe_prob.Dist.deterministic 1.);
      crash_times = [ (1, 2.5) ];
      revive_times = [ (1, 3.2) ] }
  in
  let handlers =
    recorder
      ~init_send:(fun ctx ->
          if ctx.Net.node = 0 then List.iter (ctx.Net.send 0) [ 1; 2; 3 ])
      ()
  in
  let net = Net.create ~seed:3 config handlers in
  Alcotest.(check bool) "drains" true (Net.run net = Abe_sim.Engine.Drained);
  let stats = Net.stats net in
  Alcotest.(check int) "one delivery before the crash" 1 stats.Network.delivered;
  Alcotest.(check int) "down-window and stale-incarnation drops" 2
    stats.Network.crashed_drops;
  Alcotest.(check bool) "node is live again" false (Net.crashed net 1);
  Alcotest.(check int) "incarnation bumped once" 1 (Net.incarnation net 1);
  Alcotest.(check (list (pair int (float 0.))))
    "state reset: the fresh node saw nothing" []
    (Net.state net 1).Proto.received;
  Alcotest.(check int) "envelopes all returned" 0 (Net.envelopes_in_use net)

let test_rejoin_receives_and_ticks () =
  (* Crash-recovery end to end: node 1 is down over [2.5, 6.5); arrivals in
     the window are crash drops, arrivals after it deliver into the reset
     state, and the rejoined node's tick chain restarts. *)
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with
      Net.crash_times = [ (1, 2.5) ];
      revive_times = [ (1, 6.5) ] }
  in
  let handlers : Net.handlers =
    { init = (fun _ -> { Proto.received = []; ticks = 0 });
      on_message =
        (fun ctx st v ->
           { st with Proto.received = (v, ctx.Net.now ()) :: st.Proto.received });
      on_tick =
        (fun ctx st ->
           if ctx.Net.node = 0 && ctx.Net.now () < 12. then
             ctx.Net.send 0 st.Proto.ticks;
           { st with Proto.ticks = st.Proto.ticks + 1 }) }
  in
  let net = Net.create ~limit_time:15. ~seed:57 config handlers in
  ignore (Net.run net);
  let st1 = Net.state net 1 in
  Alcotest.(check bool) "revived node receives again" true
    (List.length st1.Proto.received >= 3);
  List.iter
    (fun (_, at) ->
       if at < 6.5 then Alcotest.failf "delivery at %g into the reset state" at)
    st1.Proto.received;
  Alcotest.(check bool) "tick chain restarted" true (st1.Proto.ticks >= 5);
  Alcotest.(check bool) "down-window drops counted" true
    ((Net.stats net).Network.crashed_drops >= 2)

let test_pool_occupancy_zero_at_quiescence () =
  (* Regression for the drop-path audit: every exit path — delivery, loss,
     crash drop, stale incarnation, link drop — must release its pooled
     job, so at quiescence the freelist holds the whole pool again.
     The ticking cases add processing time (γ = 0.6 against a tick period
     of 1), so tick completions and messages are pending together and a
     crash leaves tick completions of a dead incarnation behind; crashing
     both nodes at t = 20 ends the tick chains so the run drains. *)
  let ticking_handlers =
    recorder
      ~init_send:(fun ctx ->
          if ctx.Net.node = 0 then
            for i = 1 to 100 do
              ctx.Net.send 0 i
            done)
      ~on_tick:(fun ctx st ->
          ctx.Net.send 0 st.Proto.ticks;
          st)
      ()
  in
  List.iter
    (fun (what, ticking, crash_times, revive_times, link_downs) ->
       let config =
         { (burst_config ~fifo:false) with
           Net.loss_schedule = Some (Fun.const 0.3);
           crash_times;
           revive_times;
           link_downs }
       in
       let config, handlers =
         if ticking then
           ( { config with
               Net.ticks_enabled = true;
               proc_delay = Some (Abe_prob.Dist.exponential ~mean:0.6);
               crash_times = crash_times @ [ (0, 20.); (1, 20.) ] },
             ticking_handlers )
         else (config, burst_handlers)
       in
       let net = Net.create ~seed:61 config handlers in
       Alcotest.(check bool)
         (Printf.sprintf "%s: pool in use mid-run" what)
         true
         (Net.envelopes_in_use net > 0);
       Alcotest.(check bool)
         (Printf.sprintf "%s: drains" what)
         true
         (Net.run net = Abe_sim.Engine.Drained);
       let stats = Net.stats net in
       Alcotest.(check int)
         (Printf.sprintf "%s: conservation" what)
         stats.Network.sent
         (stats.Network.delivered + stats.Network.lost
          + stats.Network.crashed_drops + stats.Network.link_drops);
       Alcotest.(check bool)
         (Printf.sprintf "%s: ticks processed" what)
         ticking (stats.Network.ticks > 0);
       Alcotest.(check int)
         (Printf.sprintf "%s: pool fully released" what)
         0 (Net.envelopes_in_use net);
       Alcotest.(check int)
         (Printf.sprintf "%s: in-flight zero" what)
         0 (Net.in_flight net))
    [ ("crash", false, [ (1, 4.) ], [], []);
      ("crash+rejoin", false, [ (1, 4.) ], [ (1, 9.) ], []);
      ("link outage", false, [], [], [ (0, 3., 8.) ]);
      ("crash+outage", false, [ (1, 4.) ], [ (1, 9.) ], [ (0, 2., 6.) ]);
      ("ticking crash", true, [], [], []);
      ("ticking crash+rejoin", true, [ (1, 4.) ], [ (1, 9.) ], []);
      ("ticking crash+outage", true, [ (1, 4.) ], [ (1, 9.) ],
       [ (0, 2., 6.) ]) ]

let test_loss_schedule_bounds () =
  (* Both bounds of [0,1] are legal probabilities; anything outside is
     rejected at sample time (here: during [create]'s init sends). *)
  let run schedule =
    let config =
      { (burst_config ~fifo:false) with Net.loss_schedule = Some schedule }
    in
    let net = Net.create ~seed:43 config burst_handlers in
    ignore (Net.run net);
    Net.stats net
  in
  let all = run (fun _ -> 1.) in
  Alcotest.(check int) "p=1 drops everything" 100 all.Network.lost;
  Alcotest.(check int) "p=1 delivers nothing" 0 all.Network.delivered;
  let quiet = run (fun _ -> 0.) in
  Alcotest.(check int) "p=0 drops nothing" 0 quiet.Network.lost;
  List.iter
    (fun p ->
       let config =
         { (burst_config ~fifo:false) with Net.loss_schedule = Some (fun _ -> p) }
       in
       match Net.create ~seed:1 config burst_handlers with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.failf "schedule value %g must be rejected" p)
    [ -0.1; 1.0001; Float.nan; Float.infinity ]

let test_dynamic_config_validation () =
  let base =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with Net.ticks_enabled = false }
  in
  List.iter
    (fun (what, config) ->
       match Net.create ~seed:1 config (recorder ()) with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.failf "expected rejection: %s" what)
    [ ("revive node out of range",
       { base with Net.revive_times = [ (9, 1.) ] });
      ("negative revive time", { base with Net.revive_times = [ (0, -1.) ] });
      ("outage link out of range",
       { base with Net.link_downs = [ (7, 1., 2.) ] });
      ("empty outage", { base with Net.link_downs = [ (0, 2., 2.) ] });
      ("negative outage start",
       { base with Net.link_downs = [ (0, -1., 2.) ] }) ]

let test_determinism () =
  let run seed =
    let config = burst_config ~fifo:false in
    let net = Net.create ~seed config burst_handlers in
    ignore (Net.run net);
    arrival_order net
  in
  Alcotest.(check (list int)) "same seed, same order" (run 11) (run 11);
  Alcotest.(check bool) "different seed, different order" true
    (run 11 <> run 12)

let test_local_time_visible () =
  let captured = ref nan in
  let config =
    { (Net.default_config ~topology:two_node_topology
         ~delay:(Delay_model.abd_deterministic ~delay:1.))
      with Net.clock_spec = Clock.spec ~s_low:2. ~s_high:2. }
  in
  let handlers =
    recorder
      ~on_tick:(fun ctx st ->
          if Float.is_nan !captured && ctx.Net.node = 0 then
            captured := ctx.Net.local_time ();
          st)
      ()
  in
  let net = Net.create ~limit_time:3. ~seed:21 config handlers in
  ignore (Net.run net);
  (* At rate 2 the first tick is at local time ceil(phase)... an integer. *)
  Alcotest.(check bool) "local time integral at tick" true
    (Float.abs (!captured -. Float.round !captured) < 1e-6)

let test_per_node_stats () =
  let net = Net.create ~seed:13 (burst_config ~fifo:false) burst_handlers in
  ignore (Net.run net);
  let stats = Net.stats net in
  Alcotest.(check int) "node 0 sent all" 100 stats.Network.sent_per_node.(0);
  Alcotest.(check int) "node 1 sent none" 0 stats.Network.sent_per_node.(1);
  Alcotest.(check int) "node 1 received all" 100
    stats.Network.delivered_per_node.(1)

let prop_conservation =
  QCheck.Test.make ~name:"sent = delivered + lost + in-flight(0 after drain)"
    ~count:60
    QCheck.(pair small_int (float_bound_inclusive 0.8))
    (fun (seed, loss) ->
       let config =
         { (burst_config ~fifo:false) with
           Net.loss_schedule = Some (Fun.const loss) }
       in
       let net = Net.create ~seed config burst_handlers in
       ignore (Net.run net);
       let stats = Net.stats net in
       stats.Network.sent = stats.Network.delivered + stats.Network.lost
       && Net.in_flight net = 0)

(* Known-answer stream layout: the first output of the first delay,
   handler, clock and loss streams on a 4-ring (4 links, 4 nodes), pinned
   from the layout Network used before the link model had its own
   module.  Any reordering of the splits changes these values.  The clock
   stream is only visible through the clock it drew: a perfect clock's
   phase is the top 53 bits of the stream's first output. *)
let test_links_layout () =
  List.iter
    (fun (seed, delay, handler, clock, loss) ->
       match
         Links.create ~seed ~clock_spec:Clock.perfect
           ~loss_schedule:(Fun.const 0.5)
           ~delay_of_link:(fun _ -> Delay_model.abd_deterministic ~delay:1.)
           (Topology.ring 4)
       with
       | Error msg -> Alcotest.fail msg
       | Ok links ->
         let first name stream expected =
           Alcotest.(check int64)
             (Printf.sprintf "seed %d %s stream" seed name)
             expected
             (Abe_prob.Rng.bits64 stream)
         in
         first "delay" (Links.delay_stream links 0) delay;
         first "handler" (Links.handler_stream links 0) handler;
         Alcotest.(check (float 0.))
           (Printf.sprintf "seed %d clock phase" seed)
           (Int64.to_float (Int64.shift_right_logical clock 11) *. 0x1p-53)
           (Clock.local_time (Links.clock links 0) ~real:0.);
         first "loss" (Links.loss_stream links 0) loss)
    [ ( 1, 2736766839171971727L, 2183481035415131706L, 5885079701376307701L,
        -201003585121617336L );
      ( 42, 5745406364259058299L, -7235858365836093966L, -942218449629775664L,
        8085032174602334132L ) ]

(* Every message hops [v] more times, each hop on a random out-link, so
   sends spread over time (exercising delay episodes and loss schedules)
   and the network drains. *)
let hop_handlers : Net.handlers =
  let forward (ctx : Net.context) v =
    ctx.Net.send (Abe_prob.Rng.int ctx.Net.rng ctx.Net.out_degree) v
  in
  { init =
      (fun ctx ->
         for i = 0 to ctx.Net.out_degree - 1 do
           ctx.Net.send i 3
         done;
         { Proto.received = []; ticks = 0 });
    on_message =
      (fun ctx st v ->
         if v > 0 then forward ctx (v - 1);
         st);
    on_tick = (fun _ st -> st) }

let prop_links_replay =
  let topology_of shape n =
    match shape with
    | 0 -> Topology.ring n
    | 1 -> Topology.complete n
    | _ -> Topology.star n
  in
  let model_of = function
    | 0 -> Delay_model.abe_exponential ~delta:1.
    | 1 -> Delay_model.abd_uniform ~bound:2.
    | 2 -> Delay_model.abe_retransmission ~success:0.4 ~slot:0.5
    | _ ->
      Delay_model.modulated
        (Delay_model.abe_exponential ~delta:0.5)
        ~episodes:[| { Delay_model.e_start = 0.5; e_stop = 2.; factor = 4. } |]
  in
  let loss_of kind p =
    match kind with
    | 0 -> None
    | 1 -> Some (Fun.const p)
    | _ -> Some (fun t -> if t < 1. then p else 1. -. p)
  in
  let gen =
    QCheck.Gen.(
      tup5 (int_bound 2) (int_range 2 6)
        (pair (int_bound 3) (int_bound 3))
        (pair (int_bound 2) (float_bound_inclusive 1.))
        small_nat)
  in
  let print (shape, n, (m0, m1), (loss, p), seed) =
    Printf.sprintf "shape=%d n=%d models=%d/%d loss=%d p=%g seed=%d" shape n
      m0 m1 loss p seed
  in
  QCheck.Test.make
    ~name:"network delays and losses replay on a fresh Links" ~count:100
    (QCheck.make ~print gen)
    (fun (shape, n, (m0, m1), (loss, p), seed) ->
       let topology = topology_of shape n in
       let models = [| model_of m0; model_of m1 |] in
       let delay_of_link (link : Topology.link) =
         models.(link.Topology.id mod 2)
       in
       let loss_schedule = loss_of loss p in
       let config =
         { (Net.default_config ~topology ~delay:models.(0)) with
           Net.delay_of_link; loss_schedule;
           ticks_enabled = false }
       in
       let sends = ref [] in
       let outcome = Hashtbl.create 64 in
       let observer ~at ~stats:_ ~in_flight:_ (ev : Network.event) =
         let time = at.(0) in
         match ev with
         | Network.Send { link; seq } ->
           sends := (seq, link.Topology.id, time) :: !sends
         | Network.Deliver { seq; _ } -> Hashtbl.replace outcome seq (Some time)
         | Network.Loss { seq; _ } -> Hashtbl.replace outcome seq None
         | _ -> ()
       in
       let net = Net.create ~observer ~seed config hop_handlers in
       ignore (Net.run net);
       match
         Links.create ~seed ~clock_spec:Clock.perfect ?loss_schedule
           ~delay_of_link topology
       with
       | Error msg -> QCheck.Test.fail_report msg
       | Ok replay ->
         List.for_all
           (fun (seq, link, time) ->
              let drawn = [| 0. |] in
              Links.delay_into replay link ~now:time drawn 0;
              let delay = drawn.(0) in
              let lost = Links.lost replay link ~now:time in
              match Hashtbl.find_opt outcome seq with
              | Some None -> lost
              | Some (Some arrival) -> (not lost) && arrival = time +. delay
              | None -> false)
           (List.rev !sends))

(* [create ~reuse] is unobservable.  A chain of runs on one network —
   each cut short at a random event budget, so the next one inherits
   pending events, crashed nodes, a down link, busy horizons and
   envelopes in flight — shows through its observer exactly what the
   same run shows on a network created for it. *)
let reuse_config ~n ~fifo ~lossy ~drift ~gamma =
  { (Net.default_config ~topology:(Topology.ring n)
       ~delay:(Delay_model.abe_exponential ~delta:0.5))
    with
    Net.fifo;
    loss_schedule = (if lossy then Some (Fun.const 0.2) else None);
    proc_delay = (if gamma then Some (Abe_prob.Dist.exponential ~mean:0.2) else None);
    clock_spec =
      (if drift then Clock.spec ~s_low:0.8 ~s_high:1.25 else Clock.perfect);
    crash_times = [ (1, 2.) ];
    revive_times = [ (1, 6.) ];
    link_downs = [ (0, 1., 4.) ] }

(* Node 0 starts a token; every delivery forwards it, and a tick starts
   a new one with probability 1/4. *)
let reuse_handlers : Net.handlers =
  { init =
      (fun ctx ->
         if ctx.Net.node = 0 then ctx.Net.send 0 0;
         { Proto.received = []; ticks = 0 });
    on_message =
      (fun ctx st v ->
         ctx.Net.send 0 (v + 1);
         { st with Proto.received = (v, ctx.Net.now ()) :: st.Proto.received });
    on_tick =
      (fun ctx st ->
         if Abe_prob.Rng.int ctx.Net.rng 4 = 0 then ctx.Net.send 0 0;
         { st with Proto.ticks = st.Proto.ticks + 1 }) }

let reuse_run ?reuse config (seed, budget, scheduled) =
  let events = ref [] in
  let observer ~at ~stats:_ ~in_flight ev =
    let reading = match ev with Network.Tick _ -> Some at.(1) | _ -> None in
    events := (at.(0), reading, in_flight, ev) :: !events
  in
  let scheduler =
    if scheduled then
      Some
        { Abe_sim.Engine.window = 0.3;
          choose = (fun ~now:_ ~state_digest:_ c -> Array.length c - 1) }
    else None
  in
  let net =
    Net.create ?reuse ?scheduler ~observer ~limit_time:12.
      ~limit_events:budget ~seed config reuse_handlers
  in
  let outcome = Net.run net in
  let n = Topology.node_count config.Net.topology in
  let s = Net.stats net in
  let c = Net.counters net in
  ( net,
    ( outcome,
      List.rev !events,
      ( s.Network.sent, s.Network.delivered, s.Network.lost,
        s.Network.crashed_drops, s.Network.link_drops, s.Network.ticks ),
      (Array.copy s.Network.sent_per_node, Array.copy s.Network.delivered_per_node),
      ( Net.states net,
        c.Abe_sim.Engine.executed,
        c.Abe_sim.Engine.max_queue_depth,
        Net.in_flight net,
        Net.envelopes_in_use net ),
      List.init n (fun i -> (Net.crashed net i, Net.incarnation net i)),
      List.init n (fun i -> Net.link_is_up net i) ) )

let prop_reuse_replays_fresh =
  let gen =
    QCheck.Gen.(
      pair
        (pair (int_range 2 8) (quad bool bool bool bool))
        (list_repeat 4 (triple small_nat (int_range 1 400) bool)))
  in
  let print ((n, (fifo, lossy, drift, gamma)), runs) =
    Printf.sprintf "n=%d fifo=%b lossy=%b drift=%b gamma=%b runs=[%s]" n fifo
      lossy drift gamma
      (String.concat "; "
         (List.map
            (fun (seed, budget, scheduled) ->
               Printf.sprintf "%d/%d%s" seed budget
                 (if scheduled then "/sched" else ""))
            runs))
  in
  QCheck.Test.make ~name:"a reused network replays a fresh one" ~count:100
    (QCheck.make ~print gen)
    (fun ((n, (fifo, lossy, drift, gamma)), runs) ->
       let config = reuse_config ~n ~fifo ~lossy ~drift ~gamma in
       let pooled = ref None in
       List.for_all
         (fun run ->
            let net, seen = reuse_run ?reuse:!pooled config run in
            pooled := Some net;
            let _, fresh = reuse_run config run in
            compare seen fresh = 0)
         runs)

let test_reuse_needs_same_topology () =
  let config = reuse_config ~n:4 ~fifo:false ~lossy:false ~drift:false ~gamma:false in
  let net = Net.create ~seed:1 config reuse_handlers in
  let other = { config with Net.topology = Topology.ring 4 } in
  match Net.create ~reuse:net ~seed:1 other reuse_handlers with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reuse across topologies accepted"

(* Allocation of the hot paths, on a null protocol (unit state, unit
   message) so that only the network and the engine can allocate.  Words
   per event are the difference between a run of [events] and one of
   [events / 2], as the engine rung of the benchmark ladder measures it:
   creation, pool growth and the fixed cost of measuring cancel. *)
module Null = struct
  type state = unit
  type message = unit

  let pp_state ppf () = Fmt.string ppf "()"
  let pp_message ppf () = Fmt.string ppf "()"
end

module Null_net = Network.Make (Null)

let null_words_per_event ~ticks handlers ~events =
  let run events =
    let config =
      { (Null_net.default_config ~topology:(Topology.ring 48)
           ~delay:(Delay_model.abe_exponential ~delta:1.))
        with Null_net.ticks_enabled = ticks }
    in
    let net = Null_net.create ~limit_events:events ~seed:1 config handlers in
    let before = Gc.minor_words () in
    ignore (Null_net.run net);
    let words = Gc.minor_words () -. before in
    (words, float_of_int (Null_net.counters net).Abe_sim.Engine.executed)
  in
  let half_words, half_events = run (events / 2) in
  let words, events = run events in
  (words -. half_words) /. (events -. half_events)

let idle_handlers =
  { Null_net.init = (fun _ -> ());
    on_message = (fun _ s () -> s);
    on_tick = (fun _ s -> s) }

let token_handlers =
  { Null_net.init =
      (fun ctx -> if ctx.Null_net.node = 0 then ctx.Null_net.send 0 ());
    on_message = (fun ctx s () -> ctx.Null_net.send 0 (); s);
    on_tick = (fun _ s -> s) }

let test_tick_cycle_allocation_free () =
  let words =
    null_words_per_event ~ticks:true idle_handlers ~events:200_000
  in
  Alcotest.(check (float 0.)) "ticks-only ring: minor words per event" 0.
    words

let test_message_path_allocation () =
  (* Under the dev profile's [-opaque] a message still boxes two floats
     that cross a module boundary: [Engine.now] at the send and at the
     arrival.  The drawn delay is stored straight into the job's arrival
     column and boxes nothing.  Pinned from above so that a regression
     shows. *)
  let words =
    null_words_per_event ~ticks:false token_handlers ~events:200_000
  in
  if words > 2. then
    Alcotest.failf "token ring: %g minor words per event (bound 2)" words

(* A delivered payload stays in its freed job slot only while the run
   goes on: once [run] returns, it is collectable while the network lives
   on.  The first payload stored is the pool's filler and stays. *)
module Boxed = struct
  type state = unit
  type message = Bytes.t

  let pp_state ppf () = Fmt.string ppf "()"
  let pp_message ppf b = Fmt.int ppf (Bytes.length b)
end

module Boxed_net = Network.Make (Boxed)

(* Builds the payload in a helper, so that only the network can keep it
   alive. *)
let weak_payload w =
  let payload = Bytes.create 4096 in
  Weak.set w 0 (Some payload);
  payload

let test_delivered_payload_released () =
  let w = Weak.create 1 in
  let handlers =
    { Boxed_net.init =
        (fun ctx ->
           if ctx.Boxed_net.node = 0 then begin
             ctx.Boxed_net.send 0 Bytes.empty;
             ctx.Boxed_net.send 0 (weak_payload w)
           end);
      on_message = (fun _ s _ -> s);
      on_tick = (fun _ s -> s) }
  in
  let config =
    { (Boxed_net.default_config ~topology:(Topology.ring 2)
         ~delay:(Delay_model.abe_exponential ~delta:1.))
      with Boxed_net.ticks_enabled = false }
  in
  let net = Boxed_net.create ~seed:1 config handlers in
  ignore (Boxed_net.run net : Abe_sim.Engine.outcome);
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check w 0);
  Alcotest.(check int) "both delivered, network still live" 2
    (Boxed_net.stats net).Network.delivered

(* ---- where events wait ---- *)

(* With perfect clocks and instant processing, every tick round is
   appended to the engine's run and every handler completion runs inside
   the event it completes ([Engine.claim_now]), so the only events that
   wait in the heap are message arrivals: one heap insert per message sent, at n = 48 in the CLI's
   default regime and at n = 2000 in the token regime (δ = 0.1/n).  A
   tick round scheduled out of instant order puts ticks there too.  The
   runs end at their event budget, which puts nothing back. *)
let test_heap_holds_only_arrivals () =
  List.iter
    (fun (n, delta, events) ->
       let config =
         Null_net.default_config ~topology:(Topology.ring n)
           ~delay:(Delay_model.abe_exponential ~delta)
       in
       for seed = 1 to 3 do
         let net =
           Null_net.create ~limit_events:events ~seed config token_handlers
         in
         ignore (Null_net.run net : Abe_sim.Engine.outcome);
         let sent = (Null_net.stats net).Network.sent in
         let ticks = (Null_net.stats net).Network.ticks in
         if ticks < 2 * n then
           Alcotest.failf "n=%d seed %d: %d ticks" n seed ticks;
         Alcotest.(check int)
           (Printf.sprintf "n=%d seed %d: heap inserts" n seed)
           sent
           (Null_net.counters net).Abe_sim.Engine.heap_inserts
       done)
    [ (48, 1., 20_000); (2000, 0.1 /. 2000., 100_000) ]

(* ---- "net/ticks" on every exit from [run] ---- *)

exception Tick_boom

(* ["net/ticks"] is added once per exit from [Net.run], and must equal the
   stats' tick count after each: a run cut by its event budget and run
   again, one stopped by a tick handler and resumed, and one whose tick
   handler raises and is resumed.  A resumed run ends at the time budget,
   as tick chains never drain. *)
let test_ticks_metric_every_exit () =
  let config =
    Net.default_config ~topology:(Topology.ring 4)
      ~delay:(Delay_model.abe_exponential ~delta:1.)
  in
  let ticked = ref 0 in
  let on_tick stop_or_raise ctx st =
    incr ticked;
    if !ticked = 10 then stop_or_raise ctx;
    st
  in
  let check what net m ~ticks =
    let stats = (Net.stats net).Network.ticks in
    Alcotest.(check int) (what ^ ": stats") ticks stats;
    Alcotest.(check int) (what ^ ": net/ticks") stats
      (Abe_sim.Metrics.counter_value
         (Abe_sim.Metrics.counter m "net/ticks"))
  in
  let m = Abe_sim.Metrics.create () in
  let net =
    Net.create ~metrics:m ~limit_events:25 ~seed:1 config (recorder ())
  in
  Alcotest.(check bool) "budget hit" true
    (Net.run net = Abe_sim.Engine.Hit_event_limit);
  check "budget" net m ~ticks:12;
  ignore (Net.run net : Abe_sim.Engine.outcome);
  check "budget, run again" net m ~ticks:12;
  let m = Abe_sim.Metrics.create () in
  ticked := 0;
  let net =
    Net.create ~metrics:m ~limit_time:6. ~seed:1 config
      (recorder ~on_tick:(on_tick (fun ctx -> ctx.Net.stop ())) ())
  in
  Alcotest.(check bool) "stopped" true (Net.run net = Abe_sim.Engine.Stopped);
  check "stop" net m ~ticks:10;
  Alcotest.(check bool) "resumed" true
    (Net.run net = Abe_sim.Engine.Hit_time_limit);
  check "stop, resumed" net m ~ticks:24;
  let m = Abe_sim.Metrics.create () in
  ticked := 0;
  let net =
    Net.create ~metrics:m ~limit_time:6. ~seed:1 config
      (recorder ~on_tick:(on_tick (fun _ -> raise Tick_boom)) ())
  in
  Alcotest.check_raises "tick handler raises" Tick_boom (fun () ->
      ignore (Net.run net : Abe_sim.Engine.outcome));
  check "raise" net m ~ticks:10;
  Alcotest.(check bool) "resumed" true
    (Net.run net = Abe_sim.Engine.Hit_time_limit);
  check "raise, resumed" net m ~ticks:24

(* ---- golden: every message fate through every hook ---- *)

(* Two nodes, each sending its tick count on every tick, with delay 1 and
   processing 0.25; node 0 ticks at phase 0.243, node 1 at 0.130 (seed 5),
   so a message leaves at its sender's completion instant and arrives one
   unit later.  Link 0 (0 -> 1) is down over [3.5, 5.5): the message sent
   at 3.49 dies in flight at 4.49, those sent at 4.49 and 5.49 die at the
   send.  Node 0 crashes at 7.5 and rejoins at 9: the message that arrived
   at 7.38 dies mid-processing at 7.74, the one arriving at 8.38 dies at
   the arrival.  Loss 0.2 loses three more. *)
let golden_config =
  { (Net.default_config ~topology:two_node_topology
       ~delay:(Delay_model.abd_deterministic ~delay:1.))
    with
    Net.proc_delay = Some (Abe_prob.Dist.deterministic 0.25);
    loss_schedule = Some (Fun.const 0.2);
    link_downs = [ (0, 3.5, 5.5) ];
    crash_times = [ (0, 7.5) ];
    revive_times = [ (0, 9.) ] }

let golden_handlers : Net.handlers =
  { init = (fun _ -> { Proto.received = []; ticks = 0 });
    on_message =
      (fun ctx st v ->
         { st with Proto.received = (v, ctx.Net.now ()) :: st.Proto.received });
    on_tick =
      (fun ctx st ->
         if ctx.Net.now () < 11. then ctx.Net.send 0 st.Proto.ticks;
         { st with Proto.ticks = st.Proto.ticks + 1 }) }

let event_line ~at ~(stats : Network.stats) ~in_flight ev =
  let id (l : Topology.link) = l.Topology.id in
  let what =
    match ev with
    | Network.Send { link; seq } -> Printf.sprintf "send l%d #%d" (id link) seq
    | Deliver { link; seq; dst } ->
      Printf.sprintf "deliver l%d #%d n%d" (id link) seq dst
    | Loss { link; seq } -> Printf.sprintf "loss l%d #%d" (id link) seq
    | Crash_drop { link; seq; dst } ->
      Printf.sprintf "crash-drop l%d #%d n%d" (id link) seq dst
    | Link_drop { link; seq } -> Printf.sprintf "link-drop l%d #%d" (id link) seq
    | Tick { node } -> Printf.sprintf "tick n%d %g" node at.(1)
    | Crash { node } -> Printf.sprintf "crash n%d" node
    | Revive { node } -> Printf.sprintf "revive n%d" node
    | Link_down { link } -> Printf.sprintf "link-down l%d" (id link)
    | Link_up { link } -> Printf.sprintf "link-up l%d" (id link)
  in
  Printf.sprintf "%g %s | %d/%d/%d/%d/%d in-flight %d" at.(0) what
    stats.Network.sent stats.delivered stats.lost stats.link_drops
    stats.crashed_drops in_flight

let golden_fates ?(config = golden_config) () =
  let metrics = Abe_sim.Metrics.create () in
  let trace = Abe_sim.Trace.create ~enabled:true () in
  let causal = Abe_sim.Causal.create () in
  let events = ref [] in
  let observer ~at ~stats ~in_flight ev =
    events := event_line ~at ~stats ~in_flight ev :: !events
  in
  let net =
    Net.create ~metrics ~trace ~causal ~observer ~limit_time:12. ~seed:5
      config golden_handlers
  in
  let outcome = Net.run net in
  let rows =
    List.map (String.concat " ") (Abe_sim.Metrics.report_rows metrics)
  in
  let file = Filename.temp_file "abe_fates" ".json" in
  let spans =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
         let oc = open_out_bin file in
         Abe_sim.Causal.output_trace_json oc causal;
         close_out oc;
         let ic = open_in_bin file in
         let json = really_input_string ic (in_channel_length ic) in
         close_in ic;
         json)
  in
  (outcome, rows, Abe_sim.Trace.to_jsonl trace, List.rev !events, spans)

let md5 s = Digest.to_hex (Digest.string s)

(* The kind of a JSONL trace line. *)
let trace_kind line =
  let rec kind = function
    | "kind" :: ":" :: k :: _ -> k
    | _ :: rest -> kind rest
    | [] -> ""
  in
  kind (String.split_on_char '"' line)

(* Entries per fate kind in a JSONL trace. *)
let trace_kinds jsonl =
  let kinds = List.map trace_kind (String.split_on_char '\n' jsonl) in
  List.filter_map
    (fun k ->
       match List.length (List.filter (String.equal k) kinds) with
       | 0 -> None
       | count -> Some (Printf.sprintf "%s %d" k count))
    [ "send"; "recv"; "loss"; "link-drop"; "crash-drop" ]

(* Every export of one run that reaches all five message fates (sent,
   delivered, lost, link-dropped at the send and in flight, crash-dropped
   at the arrival and mid-processing), pinned byte for byte. *)
let test_golden_fates () =
  let outcome, rows, trace, events, spans = golden_fates () in
  Alcotest.(check bool) "hits the time limit" true
    (outcome = Abe_sim.Engine.Hit_time_limit);
  Alcotest.(check (list string)) "metrics rows"
    [ "engine/executed counter 81 - - - - - -";
      "engine/queue_depth histogram 81 - 5.87654 5.9073 9 9 9";
      "net/crashed_drops counter 2 - - - - - -";
      "net/delivered counter 13 - - - - - -";
      "net/in_flight histogram 42 - 2.21429 2.08855 2.95365 4 4";
      "net/latency histogram 14 - 1 1 1 1 1";
      "net/link/0000/latency histogram 5 - 1 1 1 1 1";
      "net/link/0001/latency histogram 9 - 1 1 1 1 1";
      "net/link_drops counter 3 - - - - - -";
      "net/lost counter 3 - - - - - -";
      "net/sent counter 21 - - - - - -";
      "net/ticks counter 23 - - - - - -" ]
    rows;
  let fate line =
    List.exists
      (fun word -> List.mem word (String.split_on_char ' ' line))
      [ "loss"; "link-drop"; "crash-drop"; "crash"; "revive"; "link-down";
        "link-up" ]
  in
  Alcotest.(check (list string)) "observer: every fate but send and deliver"
    [ "2.49332 loss l0 #5 | 6/2/1/0/0 in-flight 3";
      "3.5 link-down l0 | 8/4/1/0/0 in-flight 3";
      "4.49332 link-drop l0 #7 | 9/5/1/1/0 in-flight 2";
      "4.49332 link-drop l0 #9 | 10/5/1/2/0 in-flight 2";
      "5.49332 link-drop l0 #11 | 12/6/1/3/0 in-flight 2";
      "5.5 link-up l0 | 12/6/1/3/0 in-flight 2";
      "7.5 crash n0 | 16/8/1/3/0 in-flight 4";
      "7.74332 crash-drop l1 #12 n0 | 16/8/1/3/1 in-flight 3";
      "8.37957 crash-drop l1 #14 n0 | 16/9/1/3/2 in-flight 1";
      "8.37957 loss l1 #16 | 17/9/2/3/2 in-flight 1";
      "9 revive n0 | 17/10/2/3/2 in-flight 0";
      "10.4933 loss l0 #20 | 21/10/3/3/2 in-flight 3" ]
    (List.filter fate events);
  Alcotest.(check string) "observer md5" "3ac897e96e2b147e298898a0b3478960"
    (md5 (String.concat "\n" events));
  Alcotest.(check (list string)) "trace kinds"
    [ "send 21"; "recv 13"; "loss 3"; "link-drop 3"; "crash-drop 2" ]
    (trace_kinds trace);
  Alcotest.(check (list string)) "trace: crash drops"
    [ {|{"seq":28,"time":7.74332385588,"kind":"crash-drop","link":1,"payload":"6"}|};
      {|{"seq":30,"time":8.37957214364,"kind":"crash-drop","link":1,"payload":"7"}|} ]
    (List.filter
       (fun line -> trace_kind line = "crash-drop")
       (String.split_on_char '\n' trace));
  Alcotest.(check string) "trace md5" "883194e981ed22f9bacc1e873a6c22e7" (md5 trace);
  Alcotest.(check string) "span md5" "0f889836c24be924a5844e068c195de5" (md5 spans)

(* The same run at γ = 0: every tick and every delivery completes at the
   instant of its fire or arrival, the path where the completion runs
   inside the event that schedules it.  With no processing gap nothing
   dies mid-processing, so the crash drops all fall at the arrival.  The
   observer lines (each tick's local reading included), the metrics rows
   and the span JSON are pinned by md5. *)
let test_golden_fates_gamma0 () =
  let outcome, rows, trace, events, spans =
    golden_fates ~config:{ golden_config with Net.proc_delay = None } ()
  in
  Alcotest.(check bool) "hits the time limit" true
    (outcome = Abe_sim.Engine.Hit_time_limit);
  Alcotest.(check (list string)) "trace kinds"
    [ "send 21"; "recv 14"; "loss 3"; "link-drop 3"; "crash-drop 1" ]
    (trace_kinds trace);
  Alcotest.(check string) "observer md5" "f1be3b25c0154ac856e0ded3dbc8b287"
    (md5 (String.concat "\n" events));
  Alcotest.(check string) "metrics md5" "e78f2ba515ae38a5e727aadba0a7b2e0"
    (md5 (String.concat "\n" rows));
  Alcotest.(check string) "trace md5" "cfdc2542ece22952aa4b7331bba7f6ce"
    (md5 trace);
  Alcotest.(check string) "span md5" "32355057ffe5d5a1d12f724bb5094fee"
    (md5 spans)

let () =
  Alcotest.run "network"
    [ ( "delivery",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic_delivery;
          Alcotest.test_case "bad link" `Quick test_send_bad_link_rejected;
          Alcotest.test_case "non-fifo reorders" `Quick test_non_fifo_reorders;
          Alcotest.test_case "fifo preserves" `Quick test_fifo_preserves_order;
          Alcotest.test_case "loss accounting" `Quick test_loss_accounting;
          Alcotest.test_case "constant loss golden" `Quick
            test_constant_loss_golden ] );
      ( "nodes",
        [ Alcotest.test_case "processing serialises" `Quick
            test_processing_delay_serialises;
          Alcotest.test_case "ticks" `Quick test_ticks_run_and_count;
          Alcotest.test_case "stop" `Quick test_stop_from_handler;
          Alcotest.test_case "local time" `Quick test_local_time_visible;
          Alcotest.test_case "per-node stats" `Quick test_per_node_stats ] );
      ( "heterogeneous links",
        [ Alcotest.test_case "per-link delays" `Quick
            test_heterogeneous_link_delays ] );
      ( "failure injection",
        [ Alcotest.test_case "crash stops delivery" `Quick
            test_crash_stops_delivery;
          Alcotest.test_case "crash stops ticks" `Quick test_crash_stops_ticks;
          Alcotest.test_case "crash validation" `Quick test_crash_validation;
          Alcotest.test_case "loss schedule" `Quick test_loss_schedule;
          Alcotest.test_case "loss schedule bounds" `Quick
            test_loss_schedule_bounds;
          Alcotest.test_case "bad schedule rejected" `Quick
            test_bad_schedule_rejected ] );
      ( "dynamic topology",
        [ Alcotest.test_case "link outage semantics" `Quick
            test_link_outage_semantics;
          Alcotest.test_case "manual link flip" `Quick test_manual_link_flip;
          Alcotest.test_case "revive resets state" `Quick
            test_revive_resets_state;
          Alcotest.test_case "rejoin receives and ticks" `Quick
            test_rejoin_receives_and_ticks;
          Alcotest.test_case "pool occupancy returns to zero" `Quick
            test_pool_occupancy_zero_at_quiescence;
          Alcotest.test_case "delivered payload released" `Quick
            test_delivered_payload_released;
          Alcotest.test_case "config validation" `Quick
            test_dynamic_config_validation ] );
      ( "monitored crashes",
        [ Alcotest.test_case "crash accounting" `Quick
            test_crash_accounting_monitored;
          Alcotest.test_case "crash in processing gap" `Quick
            test_crash_between_arrival_and_processing;
          Alcotest.test_case "tick-chain shutdown" `Quick
            test_crash_tick_shutdown_monitored ] );
      ( "validation",
        [ Alcotest.test_case "per-link models" `Quick
            test_link_model_validation ] );
      ( "observer",
        [ Alcotest.test_case "sees every event" `Quick
            test_observer_sees_every_event ] );
      ( "golden",
        [ Alcotest.test_case "every message fate" `Quick test_golden_fates;
          Alcotest.test_case "every fate at gamma 0" `Quick
            test_golden_fates_gamma0;
          Alcotest.test_case "net/ticks on every exit" `Quick
            test_ticks_metric_every_exit ] );
      ( "determinism",
        [ Alcotest.test_case "seeded" `Quick test_determinism;
          Alcotest.test_case "loss/delay decoupled" `Quick
            test_loss_delay_decoupling ] );
      ( "links",
        [ Alcotest.test_case "stream layout" `Quick test_links_layout ] );
      ( "reuse",
        [ Alcotest.test_case "same topology only" `Quick
            test_reuse_needs_same_topology;
          QCheck_alcotest.to_alcotest prop_reuse_replays_fresh ] );
      ( "allocation",
        [ Alcotest.test_case "tick cycle allocates nothing" `Quick
            test_tick_cycle_allocation_free;
          Alcotest.test_case "message path" `Quick
            test_message_path_allocation ] );
      ( "engine queues",
        [ Alcotest.test_case "only arrivals wait in the heap" `Quick
            test_heap_holds_only_arrivals ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_conservation; prop_links_replay ] ) ]
