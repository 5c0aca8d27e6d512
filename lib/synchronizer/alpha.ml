open Abe_net

module Make (A : Sync_alg.S) = struct
  type wire =
    | Payload of { pulse : int; from : int; body : A.message }
    | Ack of int
    | Safe of int

  (* Wrapper state: one mutable record per node, threaded through the
     network functor unchanged. *)
  type wstate = {
    self : int;
    mutable alg : A.state;
    mutable pulse : int;      (* current pulse, 1-based *)
    mutable unacked : int;
    mutable safe_sent : bool;
    mutable finished : bool;
    inbox : (int, A.message list) Hashtbl.t;  (* future/current pulses *)
    safes : (int, int) Hashtbl.t;             (* safe count per pulse *)
  }

  module Net = Network.Make (struct
      type state = wstate
      type message = wire

      let pp_state ppf w =
        Fmt.pf ppf "node%d@@pulse%d(unacked=%d,safe=%b)" w.self w.pulse
          w.unacked w.safe_sent

      let pp_message ppf = function
        | Payload { pulse; from; body } ->
          Fmt.pf ppf "payload(p=%d,from=%d,%a)" pulse from A.pp_message body
        | Ack p -> Fmt.pf ppf "ack(%d)" p
        | Safe p -> Fmt.pf ppf "safe(%d)" p
    end)

  type run = {
    states : A.state array;
    pulses : int;
    payload_messages : int;
    ack_messages : int;
    safe_messages : int;
    control_messages : int;
    control_per_pulse : float;
    completed : bool;
  }

  (* For every node, the out-link index leading to a given neighbour —
     needed to route acknowledgements back.  Fails on asymmetric
     topologies. *)
  let reverse_routes topology =
    let n = Topology.node_count topology in
    Array.init n (fun v ->
        let table = Hashtbl.create 8 in
        Array.iteri
          (fun index link -> Hashtbl.replace table link.Topology.dst index)
          (Topology.out_links topology v);
        Array.iter
          (fun link ->
             if not (Hashtbl.mem table link.Topology.src) then
               invalid_arg
                 (Printf.sprintf
                    "Alpha: topology not symmetric (no back-link %d -> %d)" v
                    link.Topology.src))
          (Topology.in_links topology v);
        table)

  let take_inbox w pulse =
    match Hashtbl.find_opt w.inbox pulse with
    | None -> []
    | Some messages ->
      Hashtbl.remove w.inbox pulse;
      List.rev messages

  let run ?(limit_events = max_int) ?scheduler ?oracle ~seed ~topology ~delay
      ~pulses () =
    if pulses < 1 then invalid_arg "Alpha.run: pulses must be >= 1";
    let n = Topology.node_count topology in
    let routes = reverse_routes topology in
    let payload_count = ref 0 in
    let ack_count = ref 0 in
    let safe_count = ref 0 in
    let finished_count = ref 0 in
    let observe time event =
      Option.iter (fun o -> Skew.observe o ~time event) oracle
    in
    let rec enter_pulse (ctx : Net.context) w p =
      if p > pulses then begin
        w.finished <- true;
        incr finished_count;
        if !finished_count = n then ctx.Net.stop ()
      end
      else begin
        w.pulse <- p;
        observe (ctx.Net.now ())
          (Skew.Pulse_entered { node = w.self; pulse = p });
        w.safe_sent <- false;
        let inbox = take_inbox w (p - 1) in
        let alg', sends =
          A.pulse ~node:w.self ~pulse:p ~out_degree:ctx.Net.out_degree w.alg
            ~inbox
        in
        w.alg <- alg';
        w.unacked <- List.length sends;
        List.iter
          (fun (link_index, body) ->
             incr payload_count;
             ctx.Net.send link_index (Payload { pulse = p; from = w.self; body }))
          sends;
        if w.unacked = 0 then declare_safe ctx w
      end
    and declare_safe ctx w =
      w.safe_sent <- true;
      for link = 0 to ctx.Net.out_degree - 1 do
        incr safe_count;
        ctx.Net.send link (Safe w.pulse)
      done;
      try_advance ctx w
    and try_advance ctx w =
      if
        w.safe_sent
        && (not w.finished)
        && Option.value ~default:0 (Hashtbl.find_opt w.safes w.pulse)
           = Topology.in_degree topology w.self
      then begin
        Hashtbl.remove w.safes w.pulse;
        enter_pulse ctx w (w.pulse + 1)
      end
    in
    let handlers : Net.handlers =
      { init =
          (fun ctx ->
             let w =
               { self = ctx.Net.node;
                 alg =
                   A.init ~node:ctx.Net.node ~n
                     ~out_degree:ctx.Net.out_degree ~rng:ctx.Net.rng;
                 pulse = 0;
                 unacked = 0;
                 safe_sent = false;
                 finished = false;
                 inbox = Hashtbl.create 8;
                 safes = Hashtbl.create 8 }
             in
             enter_pulse ctx w 1;
             w);
        on_tick = (fun _ctx w -> w);
        on_message =
          (fun ctx w wire ->
             (match wire with
              | Payload { pulse = q; from; body } ->
                observe (ctx.Net.now ())
                  (Skew.Payload_received
                     { node = w.self; node_pulse = w.pulse; payload_pulse = q });
                (* Buffer for the pulse it belongs to and acknowledge. *)
                let previous =
                  Option.value ~default:[] (Hashtbl.find_opt w.inbox q)
                in
                Hashtbl.replace w.inbox q (body :: previous);
                incr ack_count;
                ctx.Net.send (Hashtbl.find routes.(w.self) from) (Ack q)
              | Ack q ->
                if q = w.pulse && not w.finished then begin
                  w.unacked <- w.unacked - 1;
                  if w.unacked = 0 && not w.safe_sent then declare_safe ctx w
                end
              | Safe q ->
                let count =
                  Option.value ~default:0 (Hashtbl.find_opt w.safes q) + 1
                in
                Hashtbl.replace w.safes q count;
                if q = w.pulse then try_advance ctx w);
             w) }
    in
    let config =
      { (Net.default_config ~topology ~delay) with Net.ticks_enabled = false }
    in
    let net =
      Net.create ?scheduler ~limit_events ~seed config handlers
    in
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
      ack_messages = !ack_count;
      safe_messages = !safe_count;
      control_messages = !ack_count + !safe_count;
      control_per_pulse = float_of_int (!ack_count + !safe_count) /. float_of_int pulses;
      completed }
end
