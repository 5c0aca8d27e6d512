open Abe_net

let required_window ~hard_bound =
  if not (hard_bound >= 0.) then
    invalid_arg "Abd_sync.required_window: hard_bound must be non-negative";
  (* A message must arrive before the receiver's pulse window closes,
     with one tick of initial phase skew on each side. *)
  int_of_float (Float.ceil (hard_bound +. 2.)) + 1

module Make (A : Sync_alg.S) = struct
  type wire = Bundle of { pulse : int; body : A.message }

  type wstate = {
    self : int;
    mutable alg : A.state;
    mutable pulse : int;       (* 0 until the first tick enters pulse 1 *)
    mutable tick_count : int;
    mutable finished : bool;
    inbox : (int, A.message list) Hashtbl.t;
  }

  module Net = Network.Make (struct
      type state = wstate
      type message = wire

      let pp_state ppf w =
        Fmt.pf ppf "node%d@@pulse%d(ticks=%d)" w.self w.pulse w.tick_count

      let pp_message ppf (Bundle { pulse; body }) =
        Fmt.pf ppf "bundle(p=%d,%a)" pulse A.pp_message body
    end)

  type run = {
    states : A.state array;
    pulses : int;
    payload_messages : int;
    violations : int;
    completed : bool;
  }

  let take_inbox w pulse =
    match Hashtbl.find_opt w.inbox pulse with
    | None -> []
    | Some messages ->
      Hashtbl.remove w.inbox pulse;
      List.rev messages

  let run ?(limit_events = max_int) ?scheduler ?oracle ~seed ~topology ~delay
      ~pulses ~window () =
    if pulses < 1 then invalid_arg "Abd_sync.run: pulses must be >= 1";
    if window < 1 then invalid_arg "Abd_sync.run: window must be >= 1";
    let n = Topology.node_count topology in
    let payload_count = ref 0 in
    let violation_count = ref 0 in
    let finished_count = ref 0 in
    let net_ref = ref None in
    let observe time event =
      Option.iter (fun o -> Skew.observe o ~time event) oracle
    in
    let enter_pulse (ctx : Net.context) w p =
      if p > pulses then begin
        if not w.finished then begin
          w.finished <- true;
          incr finished_count
        end
      end
      else begin
        w.pulse <- p;
        observe (ctx.Net.now ())
          (Skew.Pulse_entered { node = w.self; pulse = p });
        let inbox = take_inbox w (p - 1) in
        let alg', sends =
          A.pulse ~node:w.self ~pulse:p ~out_degree:ctx.Net.out_degree w.alg
            ~inbox
        in
        w.alg <- alg';
        List.iter
          (fun (link_index, body) ->
             incr payload_count;
             ctx.Net.send link_index (Bundle { pulse = p; body }))
          sends
      end
    in
    let handlers : Net.handlers =
      { init =
          (fun ctx ->
             { self = ctx.Net.node;
               alg =
                 A.init ~node:ctx.Net.node ~n ~out_degree:ctx.Net.out_degree
                   ~rng:ctx.Net.rng;
               pulse = 0;
               tick_count = 0;
               finished = false;
               inbox = Hashtbl.create 8 });
        on_tick =
          (fun ctx w ->
             w.tick_count <- w.tick_count + 1;
             if not w.finished then begin
               (* Enter pulse 1 at the first tick, then advance every
                  [window] ticks. *)
               if w.tick_count = 1 then enter_pulse ctx w 1
               else if (w.tick_count - 1) mod window = 0 then
                 enter_pulse ctx w (w.pulse + 1)
             end;
             (* Once everyone is done and the network has drained, halt the
                otherwise endless tick stream. *)
             if !finished_count = n then begin
               match !net_ref with
               | Some net when Net.in_flight net = 0 -> ctx.Net.stop ()
               | Some _ | None -> ()
             end;
             w);
        on_message =
          (fun ctx w (Bundle { pulse = q; body }) ->
             observe (ctx.Net.now ())
               (Skew.Payload_received
                  { node = w.self; node_pulse = w.pulse; payload_pulse = q });
             if q >= w.pulse then begin
               let previous =
                 Option.value ~default:[] (Hashtbl.find_opt w.inbox q)
               in
               Hashtbl.replace w.inbox q (body :: previous)
             end
             else
               (* Arrived after the receiver left pulse q: the ABD
                  assumption was violated (expected on ABE delays). *)
               incr violation_count;
             w) }
    in
    let net =
      Net.create ?scheduler ~limit_events ~seed
        (Net.default_config ~topology ~delay) handlers
    in
    net_ref := Some net;
    let outcome = Net.run net in
    let completed =
      !finished_count = n
      &&
      match outcome with
      | Abe_sim.Engine.Stopped | Abe_sim.Engine.Drained -> true
      | Abe_sim.Engine.Hit_time_limit | Abe_sim.Engine.Hit_event_limit
      | Abe_sim.Engine.Hit_wall_deadline -> false
    in
    { states = Array.map (fun w -> w.alg) (Net.states net);
      pulses;
      payload_messages = !payload_count;
      violations = !violation_count;
      completed }
end
