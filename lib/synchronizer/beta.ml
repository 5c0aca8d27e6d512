open Abe_net

module Make (A : Sync_alg.S) = struct
  type wire =
    | Payload of { pulse : int; from : int; body : A.message }
    | Ack of int
    | Ready of int   (* child -> parent: my subtree is safe for this pulse *)
    | Pulse of int   (* parent -> child: release this pulse *)

  type wstate = {
    self : int;
    mutable alg : A.state;
    mutable pulse : int;
    mutable unacked : int;
    mutable reported : bool;  (* ready sent (or, at the root, consumed) *)
    mutable finished : bool;
    inbox : (int, A.message list) Hashtbl.t;
    readies : (int, int) Hashtbl.t;  (* ready count per pulse *)
  }

  module Net = Network.Make (struct
      type state = wstate
      type message = wire

      let pp_state ppf w =
        Fmt.pf ppf "node%d@@pulse%d(unacked=%d)" w.self w.pulse w.unacked

      let pp_message ppf = function
        | Payload { pulse; from; body } ->
          Fmt.pf ppf "payload(p=%d,from=%d,%a)" pulse from A.pp_message body
        | Ack p -> Fmt.pf ppf "ack(%d)" p
        | Ready p -> Fmt.pf ppf "ready(%d)" p
        | Pulse p -> Fmt.pf ppf "pulse(%d)" p
    end)

  type run = {
    states : A.state array;
    pulses : int;
    payload_messages : int;
    ack_messages : int;
    tree_messages : int;
    control_messages : int;
    control_per_pulse : float;
    completed : bool;
  }

  (* Per-node routing table (out-link index per neighbour); the spanning
     tree itself comes from the topology library. *)
  let reverse_routes topology =
    Array.init (Topology.node_count topology) (fun v ->
        let table = Hashtbl.create 8 in
        Array.iteri
          (fun index link -> Hashtbl.replace table link.Topology.dst index)
          (Topology.out_links topology v);
        Array.iter
          (fun link ->
             if not (Hashtbl.mem table link.Topology.src) then
               invalid_arg
                 (Printf.sprintf
                    "Beta: topology not symmetric (no back-link %d -> %d)" v
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
    if pulses < 1 then invalid_arg "Beta.run: pulses must be >= 1";
    let n = Topology.node_count topology in
    let routes = reverse_routes topology in
    let tree =
      try Topology.bfs_spanning_tree topology ~root:0
      with Invalid_argument _ -> invalid_arg "Beta: topology not connected"
    in
    let parent = tree.Topology.parent in
    let children = tree.Topology.children in
    let payload_count = ref 0 in
    let ack_count = ref 0 in
    let tree_count = ref 0 in
    let finished_count = ref 0 in
    let send_to ctx w neighbour wire =
      ctx.Net.send (Hashtbl.find routes.(w.self) neighbour) wire
    in
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
        w.reported <- false;
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
        check_ready ctx w
      end
    and check_ready ctx w =
      if
        (not w.reported) && (not w.finished) && w.unacked = 0
        && Option.value ~default:0 (Hashtbl.find_opt w.readies w.pulse)
           = Array.length children.(w.self)
      then begin
        w.reported <- true;
        Hashtbl.remove w.readies w.pulse;
        if parent.(w.self) < 0 then release_next ctx w
        else begin
          incr tree_count;
          send_to ctx w parent.(w.self) (Ready w.pulse)
        end
      end
    and release_next ctx w =
      (* The root's subtree — the whole network — is safe: release the next
         pulse down the tree. *)
      let next = w.pulse + 1 in
      Array.iter
        (fun child ->
           incr tree_count;
           send_to ctx w child (Pulse next))
        children.(w.self);
      enter_pulse ctx w next
    and on_message ctx w wire =
      (match wire with
       | Payload { pulse = q; from; body } ->
         observe (ctx.Net.now ())
           (Skew.Payload_received
              { node = w.self; node_pulse = w.pulse; payload_pulse = q });
         let previous = Option.value ~default:[] (Hashtbl.find_opt w.inbox q) in
         Hashtbl.replace w.inbox q (body :: previous);
         incr ack_count;
         send_to ctx w from (Ack q)
       | Ack q ->
         if q = w.pulse && not w.finished then begin
           w.unacked <- w.unacked - 1;
           check_ready ctx w
         end
       | Ready q ->
         let count = Option.value ~default:0 (Hashtbl.find_opt w.readies q) + 1 in
         Hashtbl.replace w.readies q count;
         if q = w.pulse then check_ready ctx w
       | Pulse q ->
         (* Forward the release to the subtree, then advance. *)
         Array.iter
           (fun child ->
              incr tree_count;
              send_to ctx w child (Pulse q))
           children.(w.self);
         enter_pulse ctx w q);
      w
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
                 reported = false;
                 finished = false;
                 inbox = Hashtbl.create 8;
                 readies = Hashtbl.create 8 }
             in
             enter_pulse ctx w 1;
             w);
        on_tick = (fun _ctx w -> w);
        on_message }
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
      tree_messages = !tree_count;
      control_messages = !ack_count + !tree_count;
      control_per_pulse =
        float_of_int (!ack_count + !tree_count) /. float_of_int pulses;
      completed }
end
