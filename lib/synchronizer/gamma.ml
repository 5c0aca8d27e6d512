open Abe_net

type clustering = {
  cluster_of : int array;
  cluster_count : int;
  tree_parent : int array;
  tree_children : int array array;
  preferred : (int * int) list;
}

let check_symmetric topology =
  Array.iter
    (fun link ->
       let back_exists =
         Array.exists
           (fun l -> l.Topology.dst = link.Topology.src)
           (Topology.out_links topology link.Topology.dst)
       in
       if not back_exists then
         invalid_arg
           (Printf.sprintf "Gamma: topology not symmetric (no back-link %d -> %d)"
              link.Topology.dst link.Topology.src))
    (Topology.links topology)

let cluster topology ~radius =
  if radius < 0 then invalid_arg "Gamma.cluster: radius must be non-negative";
  check_symmetric topology;
  let n = Topology.node_count topology in
  let cluster_of = Array.make n (-1) in
  let tree_parent = Array.make n (-1) in
  let children = Array.make n [] in
  let cluster_count = ref 0 in
  (* Greedy ball growing: BFS from the lowest unclustered node, absorbing
     unclustered nodes up to [radius] hops away. *)
  for center = 0 to n - 1 do
    if cluster_of.(center) < 0 then begin
      let id = !cluster_count in
      incr cluster_count;
      let depth = Hashtbl.create 16 in
      Hashtbl.replace depth center 0;
      cluster_of.(center) <- id;
      let queue = Queue.create () in
      Queue.add center queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        let dv = Hashtbl.find depth v in
        if dv < radius then
          Array.iter
            (fun l ->
               let w = l.Topology.dst in
               if cluster_of.(w) < 0 then begin
                 cluster_of.(w) <- id;
                 tree_parent.(w) <- v;
                 children.(v) <- w :: children.(v);
                 Hashtbl.replace depth w (dv + 1);
                 Queue.add w queue
               end)
            (Topology.out_links topology v)
      done
    end
  done;
  if Array.exists (fun c -> c < 0) cluster_of then
    invalid_arg "Gamma.cluster: topology not connected";
  (* One preferred undirected link per adjacent cluster pair: the
     lexicographically smallest crossing edge. *)
  let best : (int * int, int * int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun l ->
       let a = cluster_of.(l.Topology.src) and b = cluster_of.(l.Topology.dst) in
       if a <> b then begin
         let key = (min a b, max a b) in
         let pair =
           (min l.Topology.src l.Topology.dst, max l.Topology.src l.Topology.dst)
         in
         match Hashtbl.find_opt best key with
         | Some existing when existing <= pair -> ()
         | Some _ | None -> Hashtbl.replace best key pair
       end)
    (Topology.links topology);
  { cluster_of;
    cluster_count = !cluster_count;
    tree_parent;
    tree_children = Array.map (fun c -> Array.of_list (List.rev c)) children;
    preferred = Hashtbl.fold (fun _ pair acc -> pair :: acc) best [] }

module Make (A : Sync_alg.S) = struct
  type wire =
    | Payload of { pulse : int; from : int; body : A.message }
    | Ack of int
    | Ready of int          (* subtree node-safe (up the cluster tree) *)
    | Cluster_safe of int   (* whole cluster safe (down the cluster tree) *)
    | Neighbor_safe of int  (* across a preferred inter-cluster link *)
    | Done of int           (* subtree fully released-ready (up the tree) *)
    | Pulse of int          (* release next pulse (down the tree) *)

  type wstate = {
    self : int;
    mutable alg : A.state;
    mutable pulse : int;
    mutable unacked : int;
    mutable ready_sent : bool;
    mutable done_sent : bool;
    mutable cluster_safe : bool;  (* for the current pulse *)
    mutable finished : bool;
    inbox : (int, A.message list) Hashtbl.t;
    readies : (int, int) Hashtbl.t;
    neighbor_safes : (int, int) Hashtbl.t;
    dones : (int, int) Hashtbl.t;
    early_cluster_safe : (int, bool) Hashtbl.t;
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
        | Cluster_safe p -> Fmt.pf ppf "cluster-safe(%d)" p
        | Neighbor_safe p -> Fmt.pf ppf "neighbor-safe(%d)" p
        | Done p -> Fmt.pf ppf "done(%d)" p
        | Pulse p -> Fmt.pf ppf "pulse(%d)" p
    end)

  type run = {
    states : A.state array;
    pulses : int;
    payload_messages : int;
    ack_messages : int;
    tree_messages : int;
    preferred_messages : int;
    control_messages : int;
    control_per_pulse : float;
    clusters : int;
    completed : bool;
  }

  let reverse_routes topology =
    Array.init (Topology.node_count topology) (fun v ->
        let table = Hashtbl.create 8 in
        Array.iteri
          (fun index link -> Hashtbl.replace table link.Topology.dst index)
          (Topology.out_links topology v);
        table)

  let take_inbox w pulse =
    match Hashtbl.find_opt w.inbox pulse with
    | None -> []
    | Some messages ->
      Hashtbl.remove w.inbox pulse;
      List.rev messages

  let bump table key =
    Hashtbl.replace table key
      (Option.value ~default:0 (Hashtbl.find_opt table key) + 1)

  let count table key = Option.value ~default:0 (Hashtbl.find_opt table key)

  let run ?(limit_events = max_int) ?scheduler ?oracle ~seed ~topology ~delay
      ~pulses ~radius () =
    if pulses < 1 then invalid_arg "Gamma.run: pulses must be >= 1";
    let n = Topology.node_count topology in
    let clustering = cluster topology ~radius in
    let routes = reverse_routes topology in
    (* Preferred-link peers of each node. *)
    let peers = Array.make n [] in
    List.iter
      (fun (a, b) ->
         peers.(a) <- b :: peers.(a);
         peers.(b) <- a :: peers.(b))
      clustering.preferred;
    let payload_count = ref 0 in
    let ack_count = ref 0 in
    let tree_count = ref 0 in
    let preferred_count = ref 0 in
    let finished_count = ref 0 in
    let parent v = clustering.tree_parent.(v) in
    let children v = clustering.tree_children.(v) in
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
        w.ready_sent <- false;
        w.done_sent <- false;
        w.cluster_safe <- Hashtbl.mem w.early_cluster_safe p;
        Hashtbl.remove w.early_cluster_safe p;
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
        check_ready ctx w;
        check_done ctx w
      end
    and check_ready ctx w =
      if
        (not w.ready_sent) && (not w.finished) && w.unacked = 0
        && count w.readies w.pulse = Array.length (children w.self)
      then begin
        w.ready_sent <- true;
        Hashtbl.remove w.readies w.pulse;
        if parent w.self < 0 then declare_cluster_safe ctx w w.pulse
        else begin
          incr tree_count;
          send_to ctx w (parent w.self) (Ready w.pulse)
        end
      end
    and declare_cluster_safe ctx w p =
      (* Runs at every cluster node, triggered from the root downward. *)
      if p = w.pulse then w.cluster_safe <- true
      else Hashtbl.replace w.early_cluster_safe p true;
      Array.iter
        (fun child ->
           incr tree_count;
           send_to ctx w child (Cluster_safe p))
        (children w.self);
      List.iter
        (fun peer ->
           incr preferred_count;
           send_to ctx w peer (Neighbor_safe p))
        peers.(w.self);
      if p = w.pulse then check_done ctx w
    and check_done ctx w =
      if
        (not w.done_sent) && (not w.finished) && w.cluster_safe
        && count w.neighbor_safes w.pulse = List.length peers.(w.self)
        && count w.dones w.pulse = Array.length (children w.self)
      then begin
        w.done_sent <- true;
        Hashtbl.remove w.neighbor_safes w.pulse;
        Hashtbl.remove w.dones w.pulse;
        if parent w.self < 0 then release ctx w
        else begin
          incr tree_count;
          send_to ctx w (parent w.self) (Done w.pulse)
        end
      end
    and release ctx w =
      let next = w.pulse + 1 in
      Array.iter
        (fun child ->
           incr tree_count;
           send_to ctx w child (Pulse next))
        (children w.self);
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
         bump w.readies q;
         if q = w.pulse then check_ready ctx w
       | Cluster_safe q ->
         declare_cluster_safe ctx w q
       | Neighbor_safe q ->
         bump w.neighbor_safes q;
         if q = w.pulse then check_done ctx w
       | Done q ->
         bump w.dones q;
         if q = w.pulse then check_done ctx w
       | Pulse q ->
         Array.iter
           (fun child ->
              incr tree_count;
              send_to ctx w child (Pulse q))
           (children w.self);
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
                 ready_sent = false;
                 done_sent = false;
                 cluster_safe = false;
                 finished = false;
                 inbox = Hashtbl.create 8;
                 readies = Hashtbl.create 8;
                 neighbor_safes = Hashtbl.create 8;
                 dones = Hashtbl.create 8;
                 early_cluster_safe = Hashtbl.create 8 }
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
    let control = !ack_count + !tree_count + !preferred_count in
    { states = Array.map (fun w -> w.alg) (Net.states net);
      pulses;
      payload_messages = !payload_count;
      ack_messages = !ack_count;
      tree_messages = !tree_count;
      preferred_messages = !preferred_count;
      control_messages = control;
      control_per_pulse = float_of_int control /. float_of_int pulses;
      clusters = clustering.cluster_count;
      completed }
end
