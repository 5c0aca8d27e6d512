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
module Token = struct
  type state = Election.state
  type message = { hop : int; traversed : int }

  let encode_message { hop; traversed } =
    let b = Bytes.create 16 in
    Bytes.set_int64_be b 0 (Int64.of_int hop);
    Bytes.set_int64_be b 8 (Int64.of_int traversed);
    Bytes.unsafe_to_string b

  let decode_message s =
    if String.length s <> 16 then None
    else
      Some
        { hop = Int64.to_int (String.get_int64_be s 0);
          traversed = Int64.to_int (String.get_int64_be s 8) }
end

module C = Cluster.Make (Token)

let run ?metrics ?telemetry ?snapshots ~seed config =
  let election = config.election in
  let cluster_config =
    { Cluster.topology = election.Runner.topology;
      delay_of_link = (fun _ -> election.Runner.delay);
      clock_spec = election.Runner.params.Params.clock;
      scale = config.scale;
      wall_timeout = config.wall_timeout;
      spawn_mode = config.spawn_mode }
  in
  (* The protocol is Runner's step; this backend adds the wire, the span
     marks, the activation count and the stop. *)
  let step =
    Runner.step election
      ~send:(fun ctx ~hop ~traversed -> ctx.C.send 0 { Token.hop; traversed })
      ~mark:(fun ctx mark ~traversed:_ ->
          (match mark with Runner.Activate -> ctx.C.mark () | _ -> ());
          ctx.C.note (Runner.mark_label mark);
          match mark with Runner.Elected -> ctx.C.stop () | _ -> ())
      ~unsound:(fun _ ~hop ~traversed ->
          failwith
            (Printf.sprintf
               "hop-soundness violated: token hop %d but traversed %d links"
               hop traversed))
  in
  let handlers =
    { C.init = (fun _ctx -> Election.initial);
      on_tick = (fun ctx st -> Runner.on_tick step ctx ~rng:ctx.C.rng st);
      on_message =
        (fun ctx st { Token.hop; traversed } ->
           Runner.on_token step ctx st ~hop ~traversed) }
  in
  match C.run ?metrics ?telemetry ?snapshots ~seed cluster_config handlers with
  | Error _ as e -> e
  | Ok o ->
    (match o.Cluster.worker_failure with
     | Some msg -> Error ("worker failed: " ^ msg)
     | None ->
       let messages =
         if o.Cluster.stats_missing = 0 then
           Array.fold_left ( + ) 0 o.Cluster.node_sent
         else o.Cluster.sent
       in
       Ok
         { elected = o.Cluster.stopped;
           leader = o.Cluster.stopper;
           elected_at = o.Cluster.stopped_at;
           messages;
           activations = o.Cluster.aux;
           ticks = o.Cluster.ticks;
           delivered = o.Cluster.delivered;
           lost = o.Cluster.lost;
           wall_time = o.Cluster.wall_time;
           stats_missing = o.Cluster.stats_missing;
           fidelity = o.Cluster.fidelity })

let pp_outcome ppf o =
  Fmt.pf ppf
    "elected=%b leader=%a time=%.3f messages=%d activations=%d ticks=%d \
     wall=%.3fs"
    o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.elected_at o.messages o.activations o.ticks o.wall_time
