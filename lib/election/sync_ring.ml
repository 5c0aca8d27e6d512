module type PROTOCOL = sig
  type state
  type message
end

module Make (P : PROTOCOL) = struct
  type context = {
    node : int;
    n : int;
    round : unit -> int;
    rng : Abe_prob.Rng.t;
    send : P.message -> unit;
    stop : unit -> unit;
  }

  type t = {
    n : int;
    handlers : handlers;
    mutable states : P.state array;
    mutable contexts : context array;
    inboxes : P.message list array;   (* per node, next round's input, reversed *)
    outboxes : P.message list array;  (* per node, sent this round, reversed *)
    mutable current_round : int;
    mutable total_messages : int;
    mutable per_round : int list;     (* newest first *)
    mutable stop_requested : bool;
  }

  and handlers = {
    init : context -> P.state;
    on_round : context -> P.state -> P.message list -> P.state;
  }

  let create ~seed ~n handlers =
    if n < 2 then invalid_arg "Sync_ring.create: n must be >= 2";
    let master = Abe_prob.Rng.create ~seed in
    let rngs = Array.init n (fun _ -> Abe_prob.Rng.split master) in
    let t =
      { n;
        handlers;
        states = [||];
        contexts = [||];
        inboxes = Array.make n [];
        outboxes = Array.make n [];
        current_round = 0;
        total_messages = 0;
        per_round = [];
        stop_requested = false }
    in
    let make_context node =
      { node;
        n;
        round = (fun () -> t.current_round);
        rng = rngs.(node);
        send =
          (fun message ->
             t.total_messages <- t.total_messages + 1;
             t.outboxes.(node) <- message :: t.outboxes.(node));
        stop = (fun () -> t.stop_requested <- true) }
    in
    t.contexts <- Array.init n make_context;
    t.states <- Array.map handlers.init t.contexts;
    t

  type outcome =
    | Stopped of int
    | Quiescent of int
    | Round_limit

  (* Move this round's outboxes to the successors' inboxes. *)
  let flush_outboxes t =
    let moved = ref 0 in
    for node = 0 to t.n - 1 do
      let sent = List.rev t.outboxes.(node) in
      t.outboxes.(node) <- [];
      moved := !moved + List.length sent;
      let successor = (node + 1) mod t.n in
      t.inboxes.(successor) <- t.inboxes.(successor) @ sent
    done;
    !moved

  let run ?(max_rounds = 1_000_000) t =
    (* Deliver anything init sent. *)
    if t.current_round = 0 then begin
      let sent = flush_outboxes t in
      t.per_round <- sent :: t.per_round
    end;
    let rec loop () =
      if t.stop_requested then Stopped t.current_round
      else if t.current_round >= max_rounds then Round_limit
      else begin
        let in_flight = Array.exists (fun inbox -> inbox <> []) t.inboxes in
        if not in_flight then Quiescent t.current_round
        else begin
          t.current_round <- t.current_round + 1;
          (* Snapshot the inboxes: everything delivered this round. *)
          let deliveries = Array.copy t.inboxes in
          Array.fill t.inboxes 0 t.n [];
          for node = 0 to t.n - 1 do
            t.states.(node) <-
              t.handlers.on_round t.contexts.(node) t.states.(node)
                deliveries.(node)
          done;
          let sent = flush_outboxes t in
          t.per_round <- sent :: t.per_round;
          loop ()
        end
      end
    in
    loop ()

  let states t = Array.copy t.states
  let round t = t.current_round
  let messages_sent t = t.total_messages
  let messages_per_round t = List.rev t.per_round
end
