open Abe_net

type message =
  | Token of { hop : Election.message; traversed : int }
      (* [traversed] is the monitor-side link count of {!Runner.token};
         handlers never read it *)
  | Announce

type state = {
  election : Election.state;
  informed : bool;
}

module Net = Network.Make (struct
    type nonrec state = state
    type nonrec message = message

    let pp_state ppf s =
      Fmt.pf ppf "%a%s" Election.pp_state s.election
        (if s.informed then "!" else "")

    let pp_message ppf = function
      | Token { hop; _ } -> Election.pp_message ppf hop
      | Announce -> Format.pp_print_string ppf "<announce>"
  end)

type outcome = {
  election : Runner.outcome;
  announce_messages : int;
  all_informed : bool;
  informed_at : float;
}

type counters = {
  mutable activations : int;
  mutable knockouts : int;
  mutable purges : int;
  mutable elected_at : float;
  mutable leader : int option;
  mutable elections : int;
  mutable election_messages : int;
  mutable announce_messages : int;
  mutable informed_at : float;
  mutable activation_times : float list;
}

let run ?trace ?metrics ?causal ?(check = false) ~seed (config : Runner.config) =
  let counters =
    { activations = 0;
      knockouts = 0;
      purges = 0;
      elected_at = nan;
      leader = None;
      elections = 0;
      election_messages = 0;
      announce_messages = 0;
      informed_at = nan;
      activation_times = [] }
  in
  let oracle = if check then Some (Abe_sim.Oracle.create ()) else None in
  let net_config, dynamic = Runner.network config in
  let monitor =
    Option.map
      (fun oracle ->
         Monitor.create ~oracle ~clock:config.Runner.params.Params.clock
           ~fifo:false ~dynamic ~topology:config.Runner.topology
           ~nodes:config.Runner.n ~links:config.Runner.n ())
      oracle
  in
  let announce_counter =
    Option.map (fun m -> Abe_sim.Metrics.counter m "announce/messages") metrics
  in
  let cmark ~node ~time label =
    Option.iter (fun c -> Abe_sim.Causal.mark c ~node ~time label) causal
  in
  let send_token ctx ~hop ~traversed =
    counters.election_messages <- counters.election_messages + 1;
    ctx.Net.send 0 (Token { hop; traversed })
  in
  let send_announce ctx =
    counters.announce_messages <- counters.announce_messages + 1;
    Option.iter (fun c -> Abe_sim.Metrics.incr c) announce_counter;
    ctx.Net.send 0 Announce
  in
  let handlers : Net.handlers =
    { init = (fun _ctx -> { election = Election.initial; informed = false });
      on_tick =
        (fun ctx st ->
           let election, activated =
             Election.tick_decision ~a0:config.Runner.a0 ~rng:ctx.Net.rng
               st.election
           in
           if activated then begin
             counters.activations <- counters.activations + 1;
             counters.activation_times <-
               ctx.Net.now () :: counters.activation_times;
             cmark ~node:ctx.Net.node ~time:(ctx.Net.now ()) "activate";
             send_token ctx ~hop:1 ~traversed:1
           end;
           { st with election });
      on_message =
        (fun ctx st message ->
           match message with
           | Token { hop; traversed } ->
             let time = ctx.Net.now () in
             Option.iter
               (fun o ->
                  if hop <> traversed then
                    Abe_sim.Oracle.reportf o ~time ~invariant:"hop-soundness"
                      ~subject:(Printf.sprintf "node %d" ctx.Net.node)
                      "token hop %d but traversed %d links" hop traversed)
               oracle;
             let election, reaction =
               Election.receive ~n:config.Runner.n st.election hop
             in
             (match reaction with
              | Election.Forward hop' ->
                if st.election.Election.phase = Election.Idle then begin
                  counters.knockouts <- counters.knockouts + 1;
                  cmark ~node:ctx.Net.node ~time "knockout"
                end;
                send_token ctx ~hop:hop' ~traversed:(traversed + 1)
              | Election.Purge ->
                counters.purges <- counters.purges + 1;
                cmark ~node:ctx.Net.node ~time "purge"
              | Election.Elected ->
                counters.elections <- counters.elections + 1;
                Option.iter
                  (fun o ->
                     if traversed <> config.Runner.n then
                       Abe_sim.Oracle.reportf o ~time
                         ~invariant:"election-soundness"
                         ~subject:(Printf.sprintf "node %d" ctx.Net.node)
                         "elected by a token that traversed %d of %d links"
                         traversed config.Runner.n;
                     if counters.elections > 1 then
                       Abe_sim.Oracle.reportf o ~time
                         ~invariant:"unique-leader"
                         ~subject:(Printf.sprintf "node %d" ctx.Net.node)
                         "election #%d in one run" counters.elections)
                  oracle;
                counters.elected_at <- time;
                counters.leader <- Some ctx.Net.node;
                cmark ~node:ctx.Net.node ~time "elected";
                Option.iter Abe_sim.Causal.set_sink causal;
                (* Instead of halting, start the announcement lap. *)
                send_announce ctx);
             { st with election }
           | Announce ->
             if st.election.Election.phase = Election.Leader then begin
               (* The token completed the lap: everyone is informed. *)
               counters.informed_at <- ctx.Net.now ();
               cmark ~node:ctx.Net.node ~time:(ctx.Net.now ()) "informed";
               ctx.Net.stop ();
               { st with informed = true }
             end
             else begin
               send_announce ctx;
               { st with informed = true }
             end) }
  in
  let net =
    Net.create ?trace ?metrics ?causal
      ?observer:(Option.map Monitor.observer monitor)
      ~limit_time:config.Runner.limit_time
      ~limit_events:config.Runner.limit_events ~seed net_config handlers
  in
  let engine_outcome = Net.run net in
  let states = Net.states net in
  let leader_count =
    Array.fold_left
      (fun acc (st : state) ->
         if st.election.Election.phase = Election.Leader then acc + 1 else acc)
      0 states
  in
  let violations =
    match oracle, monitor with
    | Some o, Some m ->
      let time = Net.now net in
      if leader_count > 1 then
        Abe_sim.Oracle.reportf o ~time ~invariant:"unique-leader"
          ~subject:"ring" "%d nodes in the leader phase" leader_count;
      Monitor.check_quiescence m ~time ~outcome:engine_outcome
        ~in_flight:(Net.in_flight net);
      Abe_sim.Oracle.violations o
    | _ -> []
  in
  let all_informed = Array.for_all (fun (st : state) -> st.informed) states in
  let stats = Net.stats net in
  let engine_counters = Net.counters net in
  { election =
      { Runner.elected = Option.is_some counters.leader;
        leader = counters.leader;
        leader_count;
        elected_at = counters.elected_at;
        messages = counters.election_messages;
        activations = counters.activations;
        knockouts = counters.knockouts;
        purges = counters.purges;
        ticks = stats.Network.ticks;
        activation_times = Array.of_list (List.rev counters.activation_times);
        mass_samples = [||];
        phase_transitions = [||];
        executed_events = engine_counters.Abe_sim.Engine.executed;
        max_queue_depth = engine_counters.Abe_sim.Engine.max_queue_depth;
        wall_time = engine_counters.Abe_sim.Engine.wall_time;
        engine_outcome;
        violations;
        stalled = None };
    announce_messages = counters.announce_messages;
    all_informed;
    informed_at = counters.informed_at }

let pp_outcome ppf o =
  Fmt.pf ppf "%a | announce=%d all_informed=%b informed_at=%.3f"
    Runner.pp_outcome o.election o.announce_messages o.all_informed
    o.informed_at
