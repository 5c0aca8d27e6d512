module Make (P : sig
  type state
  type message
end) =
struct
  type context = {
    node : int;
    round : unit -> int;
    rng : Abe_prob.Rng.t;
    send : int -> P.message -> unit;
    stop : unit -> unit;
  }

  type handlers = {
    init : context -> P.state;
    on_round : context -> P.state -> P.message list -> P.state;
  }

  type run = {
    rounds : int;
    states : P.state array;
    messages : int;
  }

  let run ?(max_rounds = 1_000_000) ~seed ~topology handlers =
    let n = Topology.node_count topology in
    let master = Abe_prob.Rng.create ~seed in
    let rngs = Array.init n (fun _ -> Abe_prob.Rng.split master) in
    (* inboxes.(v): what v receives next round, newest first.  Nodes send
       in node order, so reversing yields sender order, then send order. *)
    let inboxes = Array.make n [] in
    let round = ref 0 and in_flight = ref 0 and messages = ref 0 in
    let stopped = ref false in
    let context node =
      let out = Topology.out_links topology node in
      { node;
        round = (fun () -> !round);
        rng = rngs.(node);
        send =
          (fun link message ->
             if link < 0 || link >= Array.length out then
               invalid_arg "Lockstep.send: invalid out-link index";
             let dst = out.(link).Topology.dst in
             inboxes.(dst) <- message :: inboxes.(dst);
             incr in_flight;
             incr messages);
        stop = (fun () -> stopped := true) }
    in
    let contexts = Array.init n context in
    let states = Array.map handlers.init contexts in
    while (not !stopped) && !round < max_rounds && !in_flight > 0 do
      incr round;
      in_flight := 0;
      let deliveries = Array.map List.rev inboxes in
      Array.fill inboxes 0 n [];
      for node = 0 to n - 1 do
        states.(node) <-
          handlers.on_round contexts.(node) states.(node) deliveries.(node)
      done
    done;
    { rounds = !round; states; messages = !messages }
end
