open Abe_prob
open Abe_net

type spawn_mode = Domains | Threads

(* The OCaml 5 runtime tops out around 128 live domains; a cluster needs
   one per node plus the caller's.  Threads are cheaper but each worker
   still costs a stack and two fds, so cap those too. *)
let max_domain_workers = 64
let max_thread_workers = 512

let open_fd_count () =
  match Sys.readdir "/proc/self/fd" with
  | entries ->
    (* The readdir itself holds one fd open; don't count it. *)
    Some (Array.length entries - 1)
  | exception Sys_error _ -> None

type config = {
  topology : Topology.t;
  delay_of_link : Topology.link -> Delay_model.t;
  loss_probability : float;
  clock_spec : Clock.spec;
  scale : float;
  wall_timeout : float;
  spawn_mode : spawn_mode;
}

let default_config ~topology ~delay =
  { topology;
    delay_of_link = (fun _ -> delay);
    loss_probability = 0.;
    clock_spec = Clock.perfect;
    scale = 0.005;
    wall_timeout = 60.;
    spawn_mode = Domains }

type outcome = {
  stopped : bool;
  stopper : int option;
  stopped_at : float;
  sent : int;
  delivered : int;
  lost : int;
  max_in_flight : int;
  node_sent : int array;
  node_recv : int array;
  ticks : int;
  aux : int;
  stats_missing : int;
  wall_time : float;
  worker_failure : string option;
  fidelity : Telemetry.Fidelity.summary;
}

module type PROTOCOL = sig
  type state
  type message

  val encode_message : message -> string
  val decode_message : string -> message option
end

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* How long the router waits for final [Stats] frames after broadcasting
   [Shutdown].  Workers answer from inside their select loop, so this is a
   bound on pathology, not a sleep. *)
let drain_grace = 5.0

type worker_handle = D of unit Domain.t | T of Thread.t

let join_handle = function D d -> Domain.join d | T t -> Thread.join t

module Make (P : PROTOCOL) = struct
  type context = {
    node : int;
    n : int;
    out_degree : int;
    rng : Rng.t;
    now : unit -> float;
    local_time : unit -> float;
    send : int -> P.message -> unit;
    stop : unit -> unit;
    mark : unit -> unit;
    note : string -> unit;
  }

  type handlers = {
    init : context -> P.state;
    on_message : context -> P.state -> P.message -> P.state;
    on_tick : context -> P.state -> P.state;
  }

  type worker_arg = {
    w_node : int;
    w_n : int;
    w_out_degree : int;
    w_fd : Unix.file_descr;
    w_rng : Rng.t;
    w_clock : Clock.t;
    w_scale : float;
    w_start_wall : float;
    w_error : string option ref;
    w_recorder : Telemetry.Recorder.t option;
  }

  (* Worker loop: alternate between the next tick deadline (absolute wall
     time derived from the shared start instant — lag never accumulates
     into drift) and frames from the router.  Exits on [Shutdown] or
     router EOF, answering with a final [Stats] frame either way. *)
  let worker handlers (a : worker_arg) =
    let sent = ref 0 and recv = ref 0 and ticks = ref 0 and aux = ref 0 in
    let stop_sent = ref false in
    let now_units () =
      (Unix.gettimeofday () -. a.w_start_wall) /. a.w_scale
    in
    let send_frame f = write_all a.w_fd (Wire.encode f) in
    let recorder = a.w_recorder in
    let ctx =
      { node = a.w_node;
        n = a.w_n;
        out_degree = a.w_out_degree;
        rng = a.w_rng;
        now = now_units;
        local_time =
          (fun () -> Clock.local_time a.w_clock ~real:(now_units ()));
        send =
          (fun link msg ->
             incr sent;
             let trace =
               match recorder with
               | Some r -> Telemetry.Recorder.send_trace r ~at:(now_units ())
               | None -> None
             in
             send_frame
               (Wire.Send { link; payload = P.encode_message msg; trace }));
        stop =
          (fun () ->
             if not !stop_sent then begin
               stop_sent := true;
               (* One timestamp serves both the Stop frame and the
                  enclosing span's end, so the traced sink ends exactly
                  at elected-at. *)
               let ts = now_units () in
               Option.iter
                 (fun r -> Telemetry.Recorder.note_stop r ~at:ts)
                 recorder;
               send_frame (Wire.Stop { node = a.w_node; at_units = ts })
             end);
        mark = (fun () -> incr aux);
        note =
          (fun label ->
             Option.iter
               (fun r -> Telemetry.Recorder.note r ~at:(now_units ()) label)
               recorder) }
    in
    (try
       let st = ref (handlers.init ctx) in
       let tick_time = ref (Clock.next_tick a.w_clock ~after:0.) in
       let reader = Wire.reader () in
       let scratch = Bytes.create 4096 in
       let running = ref true in
       while !running do
         let deadline = a.w_start_wall +. (!tick_time *. a.w_scale) in
         let timeout = deadline -. Unix.gettimeofday () in
         if timeout <= 0. then begin
           incr ticks;
           Option.iter
             (fun r ->
                Telemetry.Recorder.begin_proc r ~kind:`Tick
                  ~scheduled:!tick_time ~now:(now_units ()) ())
             recorder;
           st := handlers.on_tick ctx !st;
           Option.iter
             (fun r -> Telemetry.Recorder.finish_proc r ~now:(now_units ()))
             recorder;
           tick_time := Clock.next_tick a.w_clock ~after:!tick_time
         end
         else begin
           match Unix.select [ a.w_fd ] [] [] timeout with
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
           | [], _, _ -> ()  (* deadline reached; next turn fires the tick *)
           | _ :: _, _, _ ->
             let k = Unix.read a.w_fd scratch 0 (Bytes.length scratch) in
             if k = 0 then running := false
             else begin
               Wire.feed reader scratch k;
               let drained = ref false in
               while not !drained do
                 match Wire.next reader with
                 | Ok None -> drained := true
                 | Ok (Some (Wire.Deliver { payload; trace; _ })) ->
                   incr recv;
                   (match P.decode_message payload with
                    | Some msg ->
                      Option.iter
                        (fun r ->
                           let arrival = now_units () in
                           Telemetry.Recorder.begin_proc r ~kind:`Recv
                             ?cause:trace ~scheduled:arrival ~now:arrival ())
                        recorder;
                      st := handlers.on_message ctx !st msg;
                      Option.iter
                        (fun r ->
                           Telemetry.Recorder.finish_proc r
                             ~now:(now_units ()))
                        recorder
                    | None ->
                      failwith
                        (Printf.sprintf "node %d: undecodable payload"
                           a.w_node))
                 | Ok (Some Wire.Shutdown) ->
                   running := false;
                   drained := true
                 | Ok (Some _) -> ()  (* not router->worker kinds; ignore *)
                 | Error msg -> failwith msg
               done
             end
         end
       done
     with e -> a.w_error := Some (Printexc.to_string e));
    (* Final counters travel even off the failure path, so the router's
       drain never waits out its full grace on a crashed worker.  The
       span log drains first: Stats is the router's per-worker
       completion signal, so records sent before it are never raced by
       the drain deadline. *)
    try
      Option.iter
        (fun r ->
           List.iter send_frame (Telemetry.Recorder.frames r ~node:a.w_node))
        recorder;
      send_frame
        (Wire.Stats
           { node = a.w_node;
             sent = !sent;
             recv = !recv;
             ticks = !ticks;
             aux = !aux })
    with _ -> ()

  let validate config =
    let n = Topology.node_count config.topology in
    if n < 1 then Error "cluster: topology has no nodes"
    else if not (config.scale > 0. && Float.is_finite config.scale) then
      Error "cluster: scale must be positive and finite"
    else if
      not (config.wall_timeout > 0. && Float.is_finite config.wall_timeout)
    then Error "cluster: wall_timeout must be positive and finite"
    else
      match config.spawn_mode with
      | Domains when n > max_domain_workers ->
        Error
          (Printf.sprintf
             "cluster: %d nodes exceed the %d-domain worker cap (use the \
              thread spawn mode for larger clusters)"
             n max_domain_workers)
      | Threads when n > max_thread_workers ->
        Error
          (Printf.sprintf "cluster: %d nodes exceed the %d-thread worker cap"
             n max_thread_workers)
      | Domains | Threads -> Ok n

  let make_socketpairs n =
    let acc = ref [] in
    try
      for _ = 1 to n do
        acc := Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 :: !acc
      done;
      Ok (Array.of_list (List.rev !acc))
    with Unix.Unix_error (e, _, _) ->
      List.iter
        (fun (a, b) ->
           close_quiet a;
           close_quiet b)
        !acc;
      Error ("cluster: cannot create socketpairs: " ^ Unix.error_message e)

  let run ?metrics ?telemetry ?snapshots ~seed config handlers =
    match validate config with
    | Error _ as e -> e
    | Ok n ->
      let topo = config.topology in
      let link_count = Topology.link_count topo in
      (* Streams and per-send verdicts come from the link model the
         simulator uses (DESIGN.md §6k), so the real backend draws the
         same coins as Network. *)
      match
        Links.create ~seed ~clock_spec:config.clock_spec
          ~loss_probability:config.loss_probability
          ~delay_of_link:config.delay_of_link topo
      with
      | Error msg -> Error ("cluster: " ^ msg)
      | Ok model ->
      (* Broadcasting Shutdown into a closed worker end must not kill the
         process. *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ());
      (match make_socketpairs n with
       | Error _ as e -> e
       | Ok pairs ->
         let worker_fd = Array.map fst pairs in
         let router_fd = Array.map snd pairs in
         let close_all () =
           Array.iter close_quiet worker_fd;
           Array.iter close_quiet router_fd
         in
         let start_wall = Unix.gettimeofday () in
         let worker_errors = Array.init n (fun _ -> ref None) in
         let arg id =
           { w_node = id;
             w_n = n;
             w_out_degree = Topology.out_degree topo id;
             w_fd = worker_fd.(id);
             w_rng = Links.handler_stream model id;
             w_clock = Links.clock model id;
             w_scale = config.scale;
             w_start_wall = start_wall;
             w_error = worker_errors.(id);
             w_recorder =
               (match telemetry with
                | Some _ -> Some (Telemetry.Recorder.create ())
                | None -> None) }
         in
         let handles = Array.make n None in
         let spawn_failure = ref None in
         (try
            for id = 0 to n - 1 do
              let body () = worker handlers (arg id) in
              handles.(id) <-
                Some
                  (match config.spawn_mode with
                   | Domains -> D (Domain.spawn body)
                   | Threads -> T (Thread.create body ()))
            done
          with e -> spawn_failure := Some (Printexc.to_string e));
         let broadcast_shutdown () =
           let b = Wire.encode Wire.Shutdown in
           Array.iter
             (fun fd -> try write_all fd b with Unix.Unix_error _ -> ())
             router_fd
         in
         (match !spawn_failure with
          | Some msg ->
            (* Some workers may already be live: unwind them before
               reporting, so a failed spawn leaks nothing. *)
            broadcast_shutdown ();
            Array.iter (fun h -> Option.iter join_handle h) handles;
            close_all ();
            Error
              (Printf.sprintf
                 "cluster: cannot spawn %s worker: %s"
                 (match config.spawn_mode with
                  | Domains -> "domain"
                  | Threads -> "thread")
                 msg)
          | None ->
            (* ---- Router loop ---- *)
            let rstats = Rstats.create () in
            (* Held frame: destination, encoded bytes, transit id (-1
               when tracing is off), link id, accept instant and drawn
               delay (both simulated units) for the fidelity monitor. *)
            let holdq : (int * bytes * int * int * float * float) Holdq.t =
              Holdq.create ()
            in
            let fidelity =
              Telemetry.Fidelity.create ?metrics ~scale:config.scale
                ~links:link_count ()
            in
            let pending = Array.make n 0 in
            let fd_probe () =
              match open_fd_count () with Some k -> k | None -> -1
            in
            let readers = Array.init n (fun _ -> Wire.reader ()) in
            let active = Array.make n true in
            let node_of_fd fd =
              let found = ref (-1) in
              Array.iteri
                (fun i f -> if f = fd then found := i)
                router_fd;
              !found
            in
            let stop_request = ref None in
            let worker_stats = Array.make n None in
            let stats_count = ref 0 in
            let run_deadline = start_wall +. config.wall_timeout in
            let shutdown_sent = ref false in
            let drain_deadline = ref infinity in
            let do_shutdown () =
              if not !shutdown_sent then begin
                shutdown_sent := true;
                broadcast_shutdown ();
                drain_deadline := Unix.gettimeofday () +. drain_grace;
                Holdq.clear holdq;
                Array.fill pending 0 n 0
              end
            in
            let handle_frame src frame =
              match (frame : Wire.frame) with
              | Wire.Send { link; payload; trace } ->
                if not !shutdown_sent then begin
                  let out = Topology.out_links topo src in
                  if link < 0 || link >= Array.length out then
                    worker_errors.(src) :=
                      Some
                        (Printf.sprintf "node %d sent on out-link %d/%d" src
                           link (Array.length out))
                  else begin
                    let l = out.(link) in
                    let link_id = l.Topology.id in
                    Rstats.note_send rstats;
                    let now_units =
                      (Unix.gettimeofday () -. start_wall) /. config.scale
                    in
                    let delay = Links.delay model link_id ~now:now_units in
                    if Links.lost model link_id ~now:now_units then begin
                      Rstats.note_loss rstats;
                      Option.iter
                        (fun coll ->
                           Telemetry.Collector.note_loss coll ~link:link_id
                             ~src ~dst:l.Topology.dst ~trace ~now:now_units)
                        telemetry
                    end
                    else begin
                      let transit =
                        match telemetry with
                        | Some coll ->
                          Telemetry.Collector.note_send coll ~link:link_id
                            ~src ~dst:l.Topology.dst ~trace ~now:now_units
                            ~due:(now_units +. delay)
                        | None -> -1
                      in
                      let deliver_trace =
                        match telemetry with
                        | Some coll ->
                          Some (Telemetry.Collector.deliver_trace coll transit)
                        | None -> None
                      in
                      let due =
                        start_wall +. ((now_units +. delay) *. config.scale)
                      in
                      pending.(l.Topology.dst) <- pending.(l.Topology.dst) + 1;
                      Holdq.push holdq ~due
                        ( l.Topology.dst,
                          Wire.encode
                            (Wire.Deliver
                               { link = link_id;
                                 payload;
                                 trace = deliver_trace }),
                          transit,
                          link_id,
                          now_units,
                          delay )
                    end
                  end
                end
              | Wire.Stop { node; at_units } ->
                if !stop_request = None then stop_request := Some (node, at_units)
              | Wire.Stats { node; sent; recv; ticks; aux } ->
                if node >= 0 && node < n && worker_stats.(node) = None then begin
                  worker_stats.(node) <- Some (sent, recv, ticks, aux);
                  incr stats_count
                end
              | Wire.Telemetry { node; records } ->
                Option.iter
                  (fun coll ->
                     match
                       Telemetry.Collector.absorb coll ~node records
                     with
                     | Ok () -> ()
                     | Error msg ->
                       if !(worker_errors.(src)) = None then
                         worker_errors.(src) := Some msg)
                  telemetry
              | Wire.Deliver _ | Wire.Shutdown -> ()
            in
            let scratch = Bytes.create 8192 in
            let read_from src =
              match
                Unix.read router_fd.(src) scratch 0 (Bytes.length scratch)
              with
              | 0 -> active.(src) <- false
              | k ->
                Wire.feed readers.(src) scratch k;
                let drained = ref false in
                while !drained = false do
                  match Wire.next readers.(src) with
                  | Ok None -> drained := true
                  | Ok (Some frame) -> handle_frame src frame
                  | Error msg ->
                    active.(src) <- false;
                    drained := true;
                    if !(worker_errors.(src)) = None then
                      worker_errors.(src) := Some msg
                done
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            in
            let finished () =
              !shutdown_sent
              && (!stats_count = n
                  || Unix.gettimeofday () >= !drain_deadline)
            in
            while not (finished ()) do
              let now = Unix.gettimeofday () in
              if not !shutdown_sent then begin
                let rec release () =
                  match Holdq.pop_due holdq ~now with
                  | None -> ()
                  | Some (dst, frame, transit, link_id, accept, target) ->
                    Rstats.note_deliver rstats;
                    pending.(dst) <- Stdlib.max 0 (pending.(dst) - 1);
                    let release_units =
                      (Unix.gettimeofday () -. start_wall) /. config.scale
                    in
                    Telemetry.Fidelity.note fidelity ~link:link_id ~target
                      ~measured:(release_units -. accept);
                    Option.iter
                      (fun coll ->
                         if transit >= 0 then
                           Telemetry.Collector.note_release coll transit
                             ~now:release_units)
                      telemetry;
                    (try write_all router_fd.(dst) frame
                     with Unix.Unix_error _ -> ());
                    release ()
                in
                release ();
                if !stop_request <> None || now >= run_deadline then
                  do_shutdown ()
              end;
              Option.iter
                (fun snap ->
                   Telemetry.Snapshot.maybe snap ~now:(now -. start_wall)
                     ~sent:rstats.Rstats.sent
                     ~delivered:rstats.Rstats.delivered
                     ~lost:rstats.Rstats.lost ~in_flight:(Holdq.length holdq)
                     ~queues:pending ~fd:fd_probe)
                snapshots;
              if not (finished ()) then begin
                let timeout =
                  if !shutdown_sent then
                    Float.max 0.005
                      (Float.min 0.05 (!drain_deadline -. Unix.gettimeofday ()))
                  else
                    let horizon =
                      match Holdq.next_due holdq with
                      | Some d -> Float.min d run_deadline
                      | None -> run_deadline
                    in
                    (* Capped so the deadline checks stay responsive even if
                       a frame arrives the instant after select parks. *)
                    Float.min 0.25
                      (Float.max 0. (horizon -. Unix.gettimeofday ()))
                in
                let fds =
                  Array.to_list
                    (Array.of_seq
                       (Seq.filter_map
                          (fun i ->
                             if active.(i) then Some router_fd.(i) else None)
                          (Seq.init n Fun.id)))
                in
                if fds = [] then do_shutdown ()
                else
                  match Unix.select fds [] [] timeout with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                  | readable, _, _ ->
                    List.iter
                      (fun fd ->
                         let src = node_of_fd fd in
                         if src >= 0 then read_from src)
                      readable
              end
            done;
            (* Workers exit on Shutdown; joining them here is what makes
               the no-leak guarantee hold on every path. *)
            Array.iter (fun h -> Option.iter join_handle h) handles;
            close_all ();
            let wall_time = Unix.gettimeofday () -. start_wall in
            let node_sent = Array.make n 0 and node_recv = Array.make n 0 in
            Array.iteri
              (fun i st ->
                 match st with
                 | Some (sent, recv, ticks, aux) ->
                   node_sent.(i) <- sent;
                   node_recv.(i) <- recv;
                   Rstats.absorb_worker rstats ~ticks ~aux
                 | None -> ())
              worker_stats;
            let fidelity = Telemetry.Fidelity.summary fidelity in
            Option.iter (Rstats.publish rstats) metrics;
            Option.iter (fun m -> Telemetry.Fidelity.publish m fidelity) metrics;
            Option.iter
              (fun snap ->
                 Telemetry.Snapshot.final snap ~now:wall_time
                   ~sent:rstats.Rstats.sent ~delivered:rstats.Rstats.delivered
                   ~lost:rstats.Rstats.lost ~in_flight:(Holdq.length holdq)
                   ~queues:pending ~fd:fd_probe)
              snapshots;
            let worker_failure =
              Array.fold_left
                (fun acc r -> if acc = None then !r else acc)
                None worker_errors
            in
            Ok
              { stopped = !stop_request <> None;
                stopper = Option.map fst !stop_request;
                stopped_at =
                  (match !stop_request with
                   | Some (_, at) -> at
                   | None -> nan);
                sent = rstats.Rstats.sent;
                delivered = rstats.Rstats.delivered;
                lost = rstats.Rstats.lost;
                max_in_flight = rstats.Rstats.max_in_flight;
                node_sent;
                node_recv;
                ticks = rstats.Rstats.ticks;
                aux = rstats.Rstats.aux;
                stats_missing = n - !stats_count;
                wall_time;
                worker_failure;
                fidelity }))
end
