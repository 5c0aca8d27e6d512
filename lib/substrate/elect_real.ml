open Abe_prob
open Abe_net
open Abe_core

type config = {
  election : Runner.config;
  scale : float;
  wall_timeout : float;
  spawn_mode : Cluster.spawn_mode;
}

let config ?a0 ?params ?delay ?(scale = 0.005)
    ?(wall_timeout = 60.) ?(spawn_mode = Cluster.Domains) ~n () =
  let election = Runner.config ?a0 ?params ?delay ~n () in
  if election.Runner.params.Params.gamma > 0. then
    invalid_arg
      "Elect_real.config: the real backend does not emulate processing time \
       (gamma must be 0)";
  { election; scale; wall_timeout; spawn_mode }

type outcome = {
  elected : bool;
  leader : int option;
  elected_at : float;
  messages : int;
  activations : int;
  ticks : int;
  delivered : int;
  lost : int;
  wall_time : float;
  stats_missing : int;
  fidelity : Telemetry.Fidelity.summary;
}

(* The wire token: the hop counter the protocol reads plus the
   traversed-links tag the hop-soundness predicate checks, as 16 bytes. *)
let encode_token ~hop ~traversed =
  let b = Bytes.create 16 in
  Bytes.set_int64_be b 0 (Int64.of_int hop);
  Bytes.set_int64_be b 8 (Int64.of_int traversed);
  Bytes.unsafe_to_string b

(* What one worker runs on: its node, its end of the socketpair, its coin
   stream and clock, the shared start instant, and where to report a
   failure. *)
type worker = {
  node : int;
  fd : Unix.file_descr;
  rng : Rng.t;
  clock : Clock.t;
  scale : float;
  start_wall : float;
  error : string option ref;
  recorder : Telemetry.Recorder.t option;
}

(* Worker loop: alternate between the next tick deadline (absolute wall
   time derived from the shared start instant — lag never accumulates
   into drift) and frames from the router.  Exits on [Shutdown] or router
   EOF, answering with a final [Stats] frame either way. *)
let worker election (w : worker) =
  let sent = ref 0 and ticks = ref 0 in
  let activations = ref 0 and stop_sent = ref false in
  let now_units () = (Unix.gettimeofday () -. w.start_wall) /. w.scale in
  let send_frame f = Cluster.write_all w.fd (Wire.encode f) in
  let recorder = w.recorder in
  let stop () =
    if not !stop_sent then begin
      stop_sent := true;
      (* One timestamp serves both the Stop frame and the enclosing
         span's end, so the traced sink ends exactly at elected-at. *)
      let ts = now_units () in
      Option.iter (fun r -> Telemetry.Recorder.note_stop r ~at:ts) recorder;
      send_frame (Wire.Stop { node = w.node; at_units = ts })
    end
  in
  (* The protocol is Runner's step; the worker adds the wire, the span
     marks, the activation count and the stop. *)
  let step =
    Runner.step election
      ~send:(fun () ~hop ~traversed ->
          incr sent;
          let trace =
            match recorder with
            | Some r -> Telemetry.Recorder.send_trace r ~at:(now_units ())
            | None -> None
          in
          send_frame
            (Wire.Send
               { link = 0; payload = encode_token ~hop ~traversed; trace }))
      ~mark:(fun () mark ~traversed:_ ->
          (match mark with Runner.Activate -> incr activations | _ -> ());
          Option.iter
            (fun r ->
               Telemetry.Recorder.note r ~at:(now_units ())
                 (Runner.mark_label mark))
            recorder;
          match mark with Runner.Elected -> stop () | _ -> ())
      ~unsound:(fun () ~hop ~traversed ->
          failwith
            (Printf.sprintf
               "hop-soundness violated: token hop %d but traversed %d links"
               hop traversed))
  in
  (try
     let st = ref Election.initial in
     let tick_time = ref (Clock.next_tick w.clock ~after:0.) in
     let reader = Wire.reader () in
     let scratch = Bytes.create 4096 in
     let running = ref true in
     while !running do
       let deadline = w.start_wall +. (!tick_time *. w.scale) in
       let timeout = deadline -. Unix.gettimeofday () in
       if timeout <= 0. then begin
         incr ticks;
         Option.iter
           (fun r ->
              Telemetry.Recorder.begin_proc r ~kind:`Tick
                ~scheduled:!tick_time ~now:(now_units ()) ())
           recorder;
         st := Runner.on_tick step () ~rng:w.rng !st;
         Option.iter
           (fun r -> Telemetry.Recorder.finish_proc r ~now:(now_units ()))
           recorder;
         tick_time := Clock.next_tick w.clock ~after:!tick_time
       end
       else begin
         match Unix.select [ w.fd ] [] [] timeout with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | [], _, _ -> ()  (* deadline reached; next turn fires the tick *)
         | _ :: _, _, _ ->
           let k = Unix.read w.fd scratch 0 (Bytes.length scratch) in
           if k = 0 then running := false
           else begin
             Wire.feed reader scratch k;
             let drained = ref false in
             while not !drained do
               match Wire.next reader with
               | Ok None -> drained := true
               | Ok (Some (Wire.Deliver { payload; trace; _ })) ->
                 if String.length payload <> 16 then
                   failwith
                     (Printf.sprintf "node %d: undecodable payload" w.node);
                 let hop = Int64.to_int (String.get_int64_be payload 0) in
                 let traversed =
                   Int64.to_int (String.get_int64_be payload 8)
                 in
                 Option.iter
                   (fun r ->
                      let arrival = now_units () in
                      Telemetry.Recorder.begin_proc r ~kind:`Recv
                        ?cause:trace ~scheduled:arrival ~now:arrival ())
                   recorder;
                 st := Runner.on_token step () !st ~hop ~traversed;
                 Option.iter
                   (fun r ->
                      Telemetry.Recorder.finish_proc r ~now:(now_units ()))
                   recorder
               | Ok (Some Wire.Shutdown) ->
                 running := false;
                 drained := true
               | Ok (Some _) -> ()  (* not router->worker kinds; ignore *)
               | Error msg -> failwith msg
             done
           end
       end
     done
   with e -> w.error := Some (Printexc.to_string e));
  (* Final counters travel even off the failure path, so the router's
     drain never waits out its full grace on a crashed worker.  The span
     log drains first: Stats is the router's per-worker completion
     signal, so records sent before it are never raced by the drain
     deadline. *)
  try
    Option.iter
      (fun r ->
         List.iter send_frame (Telemetry.Recorder.frames r ~node:w.node))
      recorder;
    send_frame
      (Wire.Stats
         { node = w.node;
           sent = !sent;
           ticks = !ticks;
           activations = !activations })
  with _ -> ()

(* How long the router waits for final [Stats] frames after broadcasting
   [Shutdown].  Workers answer from inside their select loop, so this is a
   bound on pathology, not a sleep. *)
let drain_grace = 5.0

let validate (config : config) =
  if not (config.scale > 0. && Float.is_finite config.scale) then
    Error "cluster: scale must be positive and finite"
  else if
    not (config.wall_timeout > 0. && Float.is_finite config.wall_timeout)
  then Error "cluster: wall_timeout must be positive and finite"
  else Cluster.check_cap config.spawn_mode config.election.Runner.n

let ( let* ) = Result.bind

(* The router is the network: it holds the other end of every
   socketpair, draws each accepted token's delay and loss verdict from the
   simulator's link model, and holds the token in a [Holdq] until due. *)
let run ?metrics ?telemetry ?snapshots ~seed (config : config) =
  let* () = validate config in
  let election = config.election in
  let n = election.Runner.n in
  let topo = election.Runner.topology in
  (* Streams and per-send verdicts come from the link model the simulator
     uses (DESIGN.md §6k), so the real backend draws the same coins as
     Network. *)
  let* model =
    Links.create ~seed ~clock_spec:election.Runner.params.Params.clock
      ~delay_of_link:(fun _ -> election.Runner.delay)
      topo
    |> Result.map_error (fun msg -> "cluster: " ^ msg)
  in
  let* cluster = Cluster.socketpairs n in
  let router_fd = Array.init n (Cluster.router_fd cluster) in
  let start_wall = Unix.gettimeofday () in
  let worker_errors = Array.init n (fun _ -> ref None) in
  let* () =
    Cluster.spawn config.spawn_mode cluster (fun id ->
        worker election
          { node = id;
            fd = Cluster.worker_fd cluster id;
            rng = Links.handler_stream model id;
            clock = Links.clock model id;
            scale = config.scale;
            start_wall;
            error = worker_errors.(id);
            recorder =
              Option.map (fun _ -> Telemetry.Recorder.create ()) telemetry })
  in
  let sent = ref 0 and delivered = ref 0 and lost = ref 0 in
  let in_flight = ref 0 and max_in_flight = ref 0 in
  (* Held frame: destination, encoded bytes, transit id (-1 when tracing
     is off), link id, accept instant and drawn delay (both simulated
     units) for the fidelity monitor. *)
  let holdq : (int * bytes * int * int * float * float) Holdq.t =
    Holdq.create ()
  in
  let fidelity =
    Telemetry.Fidelity.create ?metrics ~scale:config.scale
      ~links:(Topology.link_count topo) ()
  in
  let pending = Array.make n 0 in
  let fd_probe () =
    match Cluster.open_fd_count () with Some k -> k | None -> -1
  in
  let readers = Array.init n (fun _ -> Wire.reader ()) in
  let active = Array.make n true in
  let node_of_fd fd =
    let found = ref (-1) in
    Array.iteri (fun i f -> if f = fd then found := i) router_fd;
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
      Cluster.broadcast_shutdown cluster;
      drain_deadline := Unix.gettimeofday () +. drain_grace;
      Holdq.clear holdq;
      Array.fill pending 0 n 0
    end
  in
  (* The one cell delays are drawn into: only the router draws. *)
  let drawn = [| 0. |] in
  let handle_frame src frame =
    match (frame : Wire.frame) with
    | Wire.Send { link; payload; trace } ->
      if not !shutdown_sent then begin
        let out = Topology.out_links topo src in
        if link < 0 || link >= Array.length out then
          worker_errors.(src) :=
            Some
              (Printf.sprintf "node %d sent on out-link %d/%d" src link
                 (Array.length out))
        else begin
          let l = out.(link) in
          let link_id = l.Topology.id in
          incr sent;
          incr in_flight;
          if !in_flight > !max_in_flight then max_in_flight := !in_flight;
          let now_units =
            (Unix.gettimeofday () -. start_wall) /. config.scale
          in
          Links.delay_into model link_id ~now:now_units drawn 0;
          let delay = drawn.(0) in
          if Links.lost model link_id ~now:now_units then begin
            incr lost;
            decr in_flight;
            Option.iter
              (fun coll ->
                 Telemetry.Collector.note_loss coll ~link:link_id ~src
                   ~dst:l.Topology.dst ~trace ~now:now_units)
              telemetry
          end
          else begin
            let transit =
              match telemetry with
              | Some coll ->
                Telemetry.Collector.note_send coll ~link:link_id ~src
                  ~dst:l.Topology.dst ~trace ~now:now_units
                  ~due:(now_units +. delay)
              | None -> -1
            in
            let deliver_trace =
              match telemetry with
              | Some coll ->
                Some (Telemetry.Collector.deliver_trace coll transit)
              | None -> None
            in
            let due = start_wall +. ((now_units +. delay) *. config.scale) in
            pending.(l.Topology.dst) <- pending.(l.Topology.dst) + 1;
            Holdq.push holdq ~due
              ( l.Topology.dst,
                Wire.encode
                  (Wire.Deliver
                     { link = link_id; payload; trace = deliver_trace }),
                transit,
                link_id,
                now_units,
                delay )
          end
        end
      end
    | Wire.Stop { node; at_units } ->
      if !stop_request = None then stop_request := Some (node, at_units)
    | Wire.Stats { node; sent = s; ticks = t; activations = a } ->
      if node >= 0 && node < n && worker_stats.(node) = None then begin
        worker_stats.(node) <- Some (s, t, a);
        incr stats_count
      end
    | Wire.Telemetry { node; records } ->
      Option.iter
        (fun coll ->
           match Telemetry.Collector.absorb coll ~node records with
           | Ok () -> ()
           | Error msg ->
             if !(worker_errors.(src)) = None then
               worker_errors.(src) := Some msg)
        telemetry
    | Wire.Deliver _ | Wire.Shutdown -> ()
  in
  let scratch = Bytes.create 8192 in
  let read_from src =
    match Unix.read router_fd.(src) scratch 0 (Bytes.length scratch) with
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
    && (!stats_count = n || Unix.gettimeofday () >= !drain_deadline)
  in
  while not (finished ()) do
    let now = Unix.gettimeofday () in
    if not !shutdown_sent then begin
      let rec release () =
        match Holdq.pop_due holdq ~now with
        | None -> ()
        | Some (dst, frame, transit, link_id, accept, target) ->
          incr delivered;
          decr in_flight;
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
          (try Cluster.write_all router_fd.(dst) frame
           with Unix.Unix_error _ -> ());
          release ()
      in
      release ();
      if !stop_request <> None || now >= run_deadline then do_shutdown ()
    end;
    Option.iter
      (fun snap ->
         Telemetry.Snapshot.maybe snap ~now:(now -. start_wall) ~sent:!sent
           ~delivered:!delivered ~lost:!lost ~in_flight:(Holdq.length holdq)
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
          (* Capped so the deadline checks stay responsive even if a frame
             arrives the instant after select parks. *)
          Float.min 0.25 (Float.max 0. (horizon -. Unix.gettimeofday ()))
      in
      let fds =
        Array.to_list
          (Array.of_seq
             (Seq.filter_map
                (fun i -> if active.(i) then Some router_fd.(i) else None)
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
  Cluster.join cluster;
  let wall_time = Unix.gettimeofday () -. start_wall in
  let worker_sent = ref 0 and ticks = ref 0 and activations = ref 0 in
  Array.iter
    (Option.iter (fun (s, t, a) ->
         worker_sent := !worker_sent + s;
         ticks := !ticks + t;
         activations := !activations + a))
    worker_stats;
  let fidelity = Telemetry.Fidelity.summary fidelity in
  Option.iter
    (fun m ->
       let open Abe_sim.Metrics in
       incr ~by:!sent (counter m "real/sent");
       incr ~by:!delivered (counter m "real/delivered");
       incr ~by:!lost (counter m "real/lost");
       incr ~by:!ticks (counter m "real/ticks");
       set_gauge (gauge m "real/in_flight") (float_of_int !in_flight);
       set_gauge (gauge m "real/max_in_flight") (float_of_int !max_in_flight);
       Telemetry.Fidelity.publish m fidelity)
    metrics;
  Option.iter
    (fun snap ->
       Telemetry.Snapshot.final snap ~now:wall_time ~sent:!sent
         ~delivered:!delivered ~lost:!lost ~in_flight:(Holdq.length holdq)
         ~queues:pending ~fd:fd_probe)
    snapshots;
  match Array.find_map (fun r -> !r) worker_errors with
  | Some msg -> Error ("worker failed: " ^ msg)
  | None ->
    let stats_missing = n - !stats_count in
    Ok
      { elected = !stop_request <> None;
        leader = Option.map fst !stop_request;
        elected_at =
          (match !stop_request with Some (_, at) -> at | None -> nan);
        messages = (if stats_missing = 0 then !worker_sent else !sent);
        activations = !activations;
        ticks = !ticks;
        delivered = !delivered;
        lost = !lost;
        wall_time;
        stats_missing;
        fidelity }

let pp_outcome ppf o =
  Fmt.pf ppf
    "elected=%b leader=%a time=%.3f messages=%d activations=%d ticks=%d \
     wall=%.3fs"
    o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.elected_at o.messages o.activations o.ticks o.wall_time
