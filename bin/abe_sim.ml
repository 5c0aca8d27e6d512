(* abe-sim: command-line front end for the ABE network library.

   Subcommands:
     elect      one election on an anonymous unidirectional ABE ring
     sweep      ring-size sweep of average message/time complexity
     churn      election success probability under dynamic-topology churn
     baselines  Itai-Rodeh / Chang-Roberts / Dolev-Klawe-Rodeh
     sync       the Theorem-1 synchroniser comparison
     dist       inspect a delay distribution (analytic vs sampled moments) *)

open Cmdliner

(* ------------------------------------------------------- shared terms *)

let seed_term =
  let doc = "Random seed (runs are deterministic in the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_term =
  let doc =
    "Worker domains for replicated runs (1 = sequential).  Results are \
     identical for every value — each replicate owns its own random stream \
     and engine — so N only changes wall-clock time."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let driver_of_jobs jobs =
  match Abe_harness.Driver.of_jobs jobs with
  | driver -> Ok driver
  | exception Invalid_argument message -> Error (`Msg message)

let n_term ~default =
  let doc = "Ring size (number of anonymous nodes)." in
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc)

let delta_term =
  let doc = "Bound on the expected message delay (delta of Definition 1)." in
  Arg.(value & opt float 1. & info [ "delta" ] ~docv:"DELTA" ~doc)

let gamma_term =
  let doc =
    "Bound on the expected local-event processing time (gamma of \
     Definition 1); 0 disables processing delays."
  in
  Arg.(value & opt float 0. & info [ "gamma" ] ~docv:"GAMMA" ~doc)

let drift_term =
  let doc =
    "Clock drift ratio s_high/s_low (clock rates are spread \
     geometrically around 1)."
  in
  Arg.(value & opt float 1. & info [ "drift" ] ~docv:"RATIO" ~doc)

let a0_term =
  let doc =
    "Base activation parameter A0 in (0,1).  Default: theta/n^2, the \
     constant-activation-mass instantiation under which the paper's linear \
     complexity claim holds (see DESIGN.md)."
  in
  Arg.(value & opt (some float) None & info [ "a0" ] ~docv:"A0" ~doc)

let theta_term =
  let doc =
    "Activation mass per token circulation used when A0 is not given \
     explicitly: A0 = THETA/n^2."
  in
  Arg.(value & opt float 1. & info [ "theta" ] ~docv:"THETA" ~doc)

let delay_kind_term =
  let doc =
    "Delay distribution: one of exponential, uniform, deterministic, \
     erlang, hyperexp, lomax, retx:P (lossy channel with per-attempt \
     success probability P).  All are rescaled to mean DELTA."
  in
  Arg.(value & opt string "exponential" & info [ "delay" ] ~docv:"KIND" ~doc)

let trace_term =
  let doc = "Print an event trace of the execution (last 10000 events)." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let announce_term =
  let doc =
    "After the election, run the leader-announcement lap (termination      detection, +n messages)."
  in
  Arg.(value & flag & info [ "announce" ] ~doc)

let check_term =
  let doc =
    "Run the execution under the runtime invariant oracle (unique leader, \
     hop-counter soundness, message conservation, quiescence, clock drift).  \
     Checking changes no random draw: the outcome is identical with and \
     without it.  Any violation is reported and the command fails."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let fault_term =
  let doc =
    "Deterministic fault-injection scenario: none, bursty-loss, delay-spike, \
     heavy-tail, crash, rejoin, link-down or churn — optionally \
     parameterized (crash(3@2), rejoin(3@2:5), link-down(0@1:4), \
     churn(0.2)) and composed with '+' (bursty-loss+rejoin).  Scenarios \
     are derived from the seed through a dedicated RNG stream, so the same \
     seed + scenario always produces the same execution."
  in
  Arg.(value & opt string "none" & info [ "fault" ] ~docv:"SCENARIO" ~doc)

let metrics_term =
  let doc =
    "Collect structured metrics (counters, gauges, log-bucketed latency \
     histograms) during the run and render them as a summary table: to \
     standard output when $(docv) is omitted or $(b,-), to $(docv) \
     otherwise.  Recording draws no randomness, so every outcome line is \
     byte-identical with and without this flag, and the table is \
     byte-identical for every --jobs value."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_term =
  let doc =
    "Export the event trace as JSON Lines (one object per event: seq, \
     time, kind, node/link, payload) to $(docv).  Collects a trace even \
     without --trace; only --trace prints it."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let span_out_term =
  let doc =
    "Export the causal span DAG as Chrome trace-event JSON to $(docv) \
     (loadable in Perfetto / chrome://tracing): per-node and per-link \
     tracks, phase-transition instants, and flow arrows reconnecting \
     every delivered message to its send span.  Span recording is a pure \
     observation — the outcome line is byte-identical with and without \
     this flag."
  in
  Arg.(value & opt (some string) None & info [ "span-out" ] ~docv:"FILE" ~doc)

let telemetry_out_term =
  let doc =
    "Real backend only: stream live telemetry as JSON Lines to $(docv) \
     while the run executes (one object per ~250 ms).  For $(b,elect \
     --backend real): router counters, frames in flight, per-worker queue \
     depths and the open fd count.  For $(b,saturate): completed/failed \
     elections, sustained elections per second and the fd count."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-out" ] ~docv:"FILE" ~doc)

let with_out_channel path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* File I/O failures (unwritable --metrics/--trace-out/--repro-out paths,
   unreadable replay artifacts) must exit with a one-line error, not a
   backtrace: turn [Sys_error] into the [Error] branch of [term_result']. *)
let guard_io run =
  try run () with Sys_error message -> Error message

(* Shared by every subcommand that takes --metrics[=FILE]. *)
let emit_metrics destination registry =
  match destination with
  | None -> ()
  | Some dest ->
    let table = Abe_harness.Report.metrics_table registry in
    if dest = "-" then Abe_harness.Table.print table
    else
      with_out_channel dest (fun oc ->
          output_string oc (Abe_harness.Table.render table))

let registry_for destination =
  Option.map (fun _ -> Abe_sim.Metrics.create ()) destination

let causal_for span_out =
  Option.map (fun _ -> Abe_sim.Causal.create ()) span_out

let export_spans ?name span_out causal =
  Option.iter
    (fun path ->
       Option.iter
         (fun c ->
            with_out_channel path (fun oc ->
                Abe_sim.Causal.output_trace_json ?name oc c))
         causal)
    span_out

(* The critical-path one-liner printed under the outcome when spans were
   recorded and the run elected a leader (the DAG then has a sink). *)
let print_critpath causal =
  Option.iter
    (fun c ->
       Option.iter
         (fun b -> Fmt.pr "%a@." Abe_sim.Critpath.pp b)
         (Abe_sim.Critpath.analyze c))
    causal

let report_check ~label oracle_violations =
  match oracle_violations with
  | [] ->
    Fmt.pr "check: ok (0 violations)@.";
    Ok ()
  | vs ->
    List.iter (fun v -> Fmt.pr "%a@." Abe_sim.Oracle.pp_violation v) vs;
    Error
      (Printf.sprintf "%s: %d invariant violation%s detected" label
         (List.length vs)
         (if List.length vs = 1 then "" else "s"))

let parse_delay ~delta kind =
  let open Abe_prob.Dist in
  match String.split_on_char ':' kind with
  | [ "exponential" ] | [ "exp" ] -> Ok (exponential ~mean:delta)
  | [ "uniform" ] -> Ok (uniform ~lo:0. ~hi:(2. *. delta))
  | [ "deterministic" ] | [ "det" ] -> Ok (deterministic delta)
  | [ "erlang" ] -> Ok (erlang ~shape:4 ~mean:delta)
  | [ "hyperexp" ] -> Ok (hyperexponential_cv2 ~mean:delta ~cv2:4.)
  | [ "lomax" ] -> Ok (lomax ~alpha:2.5 ~mean:delta)
  | [ "retx"; p ] ->
    (match float_of_string_opt p with
     | Some p when p > 0. && p <= 1. ->
       Ok (retransmission ~success:p ~slot:(delta *. p))
     | Some _ | None -> Error (`Msg "retx success probability outside (0,1]"))
  | _ -> Error (`Msg (Printf.sprintf "unknown delay kind %S" kind))

let clock_of_drift ratio =
  if ratio < 1. then Error (`Msg "drift ratio must be >= 1")
  else if ratio = 1. then Ok Abe_net.Clock.perfect
  else
    let spread = sqrt ratio in
    Ok (Abe_net.Clock.spec ~s_low:(1. /. spread) ~s_high:spread)

let effective_a0 ~theta a0 n =
  match a0 with
  | Some a0 -> a0
  | None -> Abe_core.Analysis.recommended_a0 ~theta n

let build_config ?(fault = "none") ?limit_time ~n ~a0 ~theta ~delta ~gamma
    ~drift ~delay_kind ~seed () =
  let ( let* ) = Result.bind in
  let* dist = parse_delay ~delta delay_kind in
  let* clock = clock_of_drift drift in
  let* fault = Abe_net.Faults.of_string ~seed ~n ~delta fault in
  let params = Abe_core.Params.make ~delta ~gamma ~clock in
  let proc_delay =
    if gamma > 0. then Some (Abe_prob.Dist.exponential ~mean:gamma) else None
  in
  match
    Abe_core.Runner.config ~n ~a0:(effective_a0 ~theta a0 n) ~params
      ~delay:(Abe_net.Delay_model.of_dist dist)
      ~proc_delay ~fault ?limit_time ()
  with
  | config -> Ok config
  | exception Invalid_argument message -> Error (`Msg message)

(* ----------------------------------------- real backend (lib/substrate) *)

let backend_term =
  let doc =
    "Execution backend: $(b,sim) runs the discrete-event simulator, \
     $(b,real) runs every node as its own OS worker (domains connected by \
     Unix socketpairs) with wall-clock ABE delay emulation.  The real \
     backend drives the same pure protocol transitions as the simulator; \
     see DESIGN.md section 6i for what carries over and what does not."
  in
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("real", `Real) ]) `Sim
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let scale_term ~default =
  let doc =
    "Real-backend pacing: wall-clock seconds per simulated-time unit.  \
     Smaller runs faster but leaves less margin over OS scheduling jitter."
  in
  Arg.(value & opt float default & info [ "scale" ] ~docv:"SECS" ~doc)

let wall_timeout_term =
  let doc =
    "Real-backend wall-clock budget in seconds before a run is abandoned \
     (the cluster still shuts down cleanly on this path)."
  in
  Arg.(value & opt float 60. & info [ "wall-timeout" ] ~docv:"SECS" ~doc)

let threads_term =
  let doc =
    "Real backend only: run workers as threads instead of domains \
     (mandatory above the domain worker cap, and what $(b,saturate) \
     always uses)."
  in
  Arg.(value & flag & info [ "threads" ] ~doc)

let build_real_config ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind ~scale
    ~wall_timeout ~spawn_mode () =
  let ( let* ) = Result.bind in
  let* dist = parse_delay ~delta delay_kind in
  let* clock = clock_of_drift drift in
  let* () =
    if gamma > 0. then
      Error
        (`Msg
           "--backend real does not emulate processing time; leave --gamma \
            at 0")
    else Ok ()
  in
  let params = Abe_core.Params.make ~delta ~gamma:0. ~clock in
  match
    Abe_substrate.Elect_real.config ~n ~a0:(effective_a0 ~theta a0 n) ~params
      ~delay:(Abe_net.Delay_model.of_dist dist)
      ~scale ~wall_timeout ~spawn_mode ()
  with
  | config -> Ok config
  | exception Invalid_argument message -> Error (`Msg message)

(* --------------------------------------------------------------- elect *)

let elect_command =
  let run n a0 theta delta gamma drift delay_kind seed trace announce check
      fault jobs metrics_dest trace_out span_out backend scale wall_timeout
      threads telemetry_out =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let* _driver =
      (* A single election is inherently sequential; the flag is validated
         and accepted here so every replicated subcommand family shares one
         interface. *)
      Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs)
    in
    match backend with
    | `Real ->
      let reject flag unsupported =
        if unsupported then
          Error
            (Printf.sprintf
               "--backend real does not support %s; drop it or use --backend \
                sim"
               flag)
        else Ok ()
      in
      let* () = reject "--trace" trace in
      let* () = reject "--trace-out" (trace_out <> None) in
      let* () = reject "--announce" announce in
      let* () = reject "--check" check in
      let* () = reject "--fault" (fault <> "none") in
      let spawn_mode =
        if threads then Abe_substrate.Cluster.Threads
        else Abe_substrate.Cluster.Domains
      in
      let* config =
        Result.map_error
          (fun (`Msg m) -> m)
          (build_real_config ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind
             ~scale ~wall_timeout ~spawn_mode ())
      in
      let registry = registry_for metrics_dest in
      let collector =
        Option.map
          (fun _ -> Abe_substrate.Telemetry.Collector.create ~n)
          span_out
      in
      let with_snapshots k =
        match telemetry_out with
        | None -> k None
        | Some path ->
          with_out_channel path (fun oc ->
              k
                (Some
                   (Abe_substrate.Telemetry.Snapshot.create oc ~interval:0.25)))
      in
      let* outcome =
        with_snapshots (fun snapshots ->
            Abe_substrate.Elect_real.run ?metrics:registry
              ?telemetry:collector ?snapshots ~seed config)
      in
      Fmt.pr "%a@." Abe_substrate.Elect_real.pp_outcome outcome;
      (* The collector holds the distributed span log; merged, it is the
         same happens-before DAG the simulator records, so the critpath
         line and the Perfetto export are the sim path's code unchanged. *)
      let causal =
        Option.map Abe_substrate.Telemetry.Collector.merge collector
      in
      print_critpath causal;
      export_spans ~name:"abe-real" span_out causal;
      Option.iter (emit_metrics metrics_dest) registry;
      if outcome.Abe_substrate.Elect_real.elected then Ok ()
      else Error "no leader elected within the wall-clock budget"
    | `Sim ->
    let* () =
      if telemetry_out <> None then
        Error
          "--backend sim does not support --telemetry-out; drop it or use \
           --backend real"
      else Ok ()
    in
    match
      build_config ~fault ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind ~seed
        ()
    with
    | Error (`Msg m) -> Error m
    | Ok config ->
      let trace_buffer =
        if trace || trace_out <> None then
          Some (Abe_sim.Trace.create ~enabled:true ())
        else None
      in
      let registry = registry_for metrics_dest in
      let causal = causal_for span_out in
      let print_trace () =
        if trace then
          Option.iter
            (fun tr -> Fmt.pr "%a@." Abe_sim.Trace.pp tr)
            trace_buffer
      in
      let export () =
        Option.iter
          (fun path ->
             Option.iter
               (fun tr ->
                  with_out_channel path (fun oc ->
                      Abe_sim.Trace.output_jsonl oc tr))
               trace_buffer)
          trace_out;
        export_spans span_out causal;
        Option.iter (emit_metrics metrics_dest) registry
      in
      if announce then begin
        let outcome =
          Abe_core.Announce.run ?trace:trace_buffer ?metrics:registry ?causal
            ~check ~seed config
        in
        print_trace ();
        Fmt.pr "%a@." Abe_core.Announce.pp_outcome outcome;
        print_critpath causal;
        export ();
        let* () =
          if check then
            report_check ~label:"announce"
              outcome.Abe_core.Announce.election.Abe_core.Runner.violations
          else Ok ()
        in
        if outcome.Abe_core.Announce.all_informed then Ok ()
        else Error "announcement did not complete within the budget"
      end
      else begin
        let outcome =
          Abe_core.Runner.run ?trace:trace_buffer ?metrics:registry ?causal
            ~check ~seed config
        in
        print_trace ();
        Fmt.pr "%a@." Abe_core.Runner.pp_outcome outcome;
        print_critpath causal;
        export ();
        let* () =
          if check then
            report_check ~label:"elect" outcome.Abe_core.Runner.violations
          else Ok ()
        in
        if outcome.Abe_core.Runner.elected then Ok ()
        else
          Error
            (match outcome.Abe_core.Runner.stalled with
             | Some reason -> "no leader possible: " ^ reason
             | None -> "no leader elected within the simulation budget")
      end
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:16 $ a0_term $ theta_term $ delta_term
         $ gamma_term $ drift_term $ delay_kind_term $ seed_term $ trace_term
         $ announce_term $ check_term $ fault_term $ jobs_term $ metrics_term
         $ trace_out_term $ span_out_term $ backend_term
         $ scale_term ~default:0.005 $ wall_timeout_term $ threads_term
         $ telemetry_out_term))
  in
  Cmd.v
    (Cmd.info "elect"
       ~doc:"Run one leader election on an anonymous unidirectional ABE ring")
    term

(* -------------------------------------------------------------- parity *)

let parity_command =
  let runs_term =
    let doc = "Replications per backend (at least 2, for a confidence \
               interval)." in
    Arg.(value & opt int 30 & info [ "runs" ] ~docv:"K" ~doc)
  in
  let verbose_term =
    let doc =
      "Also print the per-backend numeric summaries.  These depend on \
       wall-clock jitter, so tests pin only the default verdict lines."
    in
    Arg.(value & flag & info [ "verbose" ] ~doc)
  in
  let json_term =
    let doc =
      "Write the machine-readable parity verdict (abe-parity/v1: leader \
       match, CI95 overlaps, fidelity drift gate, overall pass) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let fidelity_tolerance_term =
    let doc =
      "Fidelity gate: maximum per-link mean excess wall delay, in seconds, \
       the router may have added on top of the drawn ABE delays before \
       parity fails."
    in
    Arg.(
      value & opt float 0.05 & info [ "fidelity-tolerance" ] ~docv:"SECS" ~doc)
  in
  let run n a0 theta delta drift delay_kind seed runs scale wall_timeout
      threads jobs verbose json_out fidelity_tolerance metrics_dest trace_out
      span_out telemetry_out =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let reject flag unsupported =
      if unsupported then
        Error
          (Printf.sprintf
             "parity does not support %s; drop it (use elect --backend \
              sim|real for per-run observability)"
             flag)
      else Ok ()
    in
    let* () = reject "--metrics" (metrics_dest <> None) in
    let* () = reject "--trace-out" (trace_out <> None) in
    let* () = reject "--span-out" (span_out <> None) in
    let* () = reject "--telemetry-out" (telemetry_out <> None) in
    let* () =
      if runs < 2 then Error "parity: --runs must be at least 2" else Ok ()
    in
    let* driver =
      Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs)
    in
    let* sim_config =
      Result.map_error
        (fun (`Msg m) -> m)
        (build_config ~n ~a0 ~theta ~delta ~gamma:0. ~drift ~delay_kind ~seed
           ())
    in
    let spawn_mode =
      if threads then Abe_substrate.Cluster.Threads
      else Abe_substrate.Cluster.Domains
    in
    let* real_config =
      Result.map_error
        (fun (`Msg m) -> m)
        (build_real_config ~n ~a0 ~theta ~delta ~gamma:0. ~drift ~delay_kind
           ~scale ~wall_timeout ~spawn_mode ())
    in
    let sim_runs =
      Abe_harness.Exp.replicate ~driver ~base:seed ~count:runs (fun ~seed ->
          Abe_core.Runner.run ~seed sim_config)
    in
    let real_results =
      (* Sequential on purpose: each cluster already spawns [n] workers,
         and interleaved clusters would contend for the same cores and
         widen the wall-clock jitter parity is trying to bound. *)
      Abe_harness.Exp.replicate ~base:seed ~count:runs (fun ~seed ->
          Abe_substrate.Elect_real.run ~seed real_config)
    in
    let* real_runs =
      match
        List.find_map
          (function Error m -> Some m | Ok _ -> None)
          real_results
      with
      | Some m -> Error ("parity: real-backend run failed: " ^ m)
      | None -> Ok (List.filter_map Result.to_option real_results)
    in
    let sim_elected =
      List.length (List.filter (fun o -> o.Abe_core.Runner.elected) sim_runs)
    in
    let real_elected =
      List.length
        (List.filter
           (fun o -> o.Abe_substrate.Elect_real.elected)
           real_runs)
    in
    Fmt.pr "parity n=%d runs=%d: elected sim=%d/%d real=%d/%d@." n runs
      sim_elected runs real_elected runs;
    let* () =
      if sim_elected = runs && real_elected = runs then Ok ()
      else Error "parity: not every run elected a leader"
    in
    (* Leader identity at the base seed: the substrate mirrors the
       simulator's RNG stream-split order, so a fixed seed drives the same
       activation coins on both backends. *)
    let sim_one = Abe_core.Runner.run ~seed sim_config in
    let* real_one = Abe_substrate.Elect_real.run ~seed real_config in
    let leader_match =
      sim_one.Abe_core.Runner.leader = real_one.Abe_substrate.Elect_real.leader
    in
    Fmt.pr "leader(seed=%d): match=%b@." seed leader_match;
    let summary pick_sim pick_real =
      ( Abe_harness.Exp.summary_of pick_sim sim_runs,
        Abe_harness.Exp.summary_of pick_real real_runs )
    in
    let overlap (a : Abe_prob.Stats.summary) (b : Abe_prob.Stats.summary) =
      a.mean -. a.ci95_half_width <= b.mean +. b.ci95_half_width
      && b.mean -. b.ci95_half_width <= a.mean +. a.ci95_half_width
    in
    let sim_at, real_at =
      summary
        (fun o -> o.Abe_core.Runner.elected_at)
        (fun o -> o.Abe_substrate.Elect_real.elected_at)
    in
    let sim_msgs, real_msgs =
      summary
        (fun o -> float_of_int o.Abe_core.Runner.messages)
        (fun o -> float_of_int o.Abe_substrate.Elect_real.messages)
    in
    if verbose then begin
      Fmt.pr "elected_at: sim %a@." Abe_prob.Stats.pp_summary sim_at;
      Fmt.pr "elected_at: real %a@." Abe_prob.Stats.pp_summary real_at;
      Fmt.pr "messages: sim %a@." Abe_prob.Stats.pp_summary sim_msgs;
      Fmt.pr "messages: real %a@." Abe_prob.Stats.pp_summary real_msgs
    end;
    let at_ok = overlap sim_at real_at in
    let msgs_ok = overlap sim_msgs real_msgs in
    Fmt.pr "elected_at: ci95-overlap=%b@." at_ok;
    Fmt.pr "messages: ci95-overlap=%b@." msgs_ok;
    (* Third gate: delay-emulation fidelity.  Every delivery's measured
       wall delay is at least its drawn target (the hold queue never
       releases early); the gate bounds the mean scheduling lateness the
       router added, pooled over every real run, worst link. *)
    let module Fid = Abe_substrate.Telemetry.Fidelity in
    let fidelity =
      List.fold_left
        (fun acc o -> Fid.merge acc o.Abe_substrate.Elect_real.fidelity)
        real_one.Abe_substrate.Elect_real.fidelity real_runs
    in
    let excess_wall = Fid.worst_mean_excess fidelity *. scale in
    let drift_ok = excess_wall <= fidelity_tolerance in
    if verbose then
      Fmt.pr "fidelity: deliveries=%d max-drift=%.3f mean-excess=%.6fs@."
        (Fid.deliveries fidelity) (Fid.max_drift fidelity) excess_wall;
    Fmt.pr "fidelity: drift-ok=%b@." drift_ok;
    let pass = leader_match && at_ok && msgs_ok && drift_ok in
    Option.iter
      (fun path ->
         let opt_leader = function
           | Some node -> string_of_int node
           | None -> "null"
         in
         with_out_channel path (fun oc ->
             Printf.fprintf oc
               "{\n\
               \  \"schema\": \"abe-parity/v1\",\n\
               \  \"n\": %d,\n\
               \  \"runs\": %d,\n\
               \  \"seed\": %d,\n\
               \  \"scale\": %.6f,\n\
               \  \"sim_leader\": %s,\n\
               \  \"real_leader\": %s,\n\
               \  \"leader_match\": %b,\n\
               \  \"elected_at_ci95_overlap\": %b,\n\
               \  \"messages_ci95_overlap\": %b,\n\
               \  \"fidelity\": {\n\
               \    \"deliveries\": %d,\n\
               \    \"max_drift\": %.6f,\n\
               \    \"worst_mean_excess_wall_seconds\": %.6f,\n\
               \    \"tolerance_wall_seconds\": %.6f,\n\
               \    \"drift_ok\": %b\n\
               \  },\n\
               \  \"pass\": %b\n\
                }\n"
               n runs seed scale
               (opt_leader sim_one.Abe_core.Runner.leader)
               (opt_leader real_one.Abe_substrate.Elect_real.leader)
               leader_match at_ok msgs_ok (Fid.deliveries fidelity)
               (Fid.max_drift fidelity) excess_wall fidelity_tolerance
               drift_ok pass))
      json_out;
    if pass then begin
      Fmt.pr "parity: PASS@.";
      Ok ()
    end
    else Error "parity: FAIL (see verdict lines above)"
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:4 $ a0_term $ theta_term $ delta_term
         $ drift_term $ delay_kind_term $ seed_term $ runs_term
         $ scale_term ~default:0.002 $ wall_timeout_term $ threads_term
         $ jobs_term $ verbose_term $ json_term $ fidelity_tolerance_term
         $ metrics_term $ trace_out_term $ span_out_term
         $ telemetry_out_term))
  in
  Cmd.v
    (Cmd.info "parity"
       ~doc:
         "Gate the real backend against the simulator: same leader at a \
          fixed seed, and elected_at / message-count distributions within \
          each other's CI95")
    term

(* ------------------------------------------------------------ saturate *)

let saturate_command =
  let elections_term =
    let doc = "Total elections to run." in
    Arg.(value & opt int 200 & info [ "elections" ] ~docv:"K" ~doc)
  in
  let concurrency_term =
    let doc =
      "Concurrent elections in flight.  Each is an n-worker thread-mode \
       cluster, so the live thread count is about concurrency * (n + 1)."
    in
    Arg.(value & opt int 100 & info [ "concurrency" ] ~docv:"C" ~doc)
  in
  let out_term =
    let doc = "Path for the abe-real-bench/v1 JSON artifact." in
    Arg.(
      value & opt string "BENCH_real.json" & info [ "out" ] ~docv:"PATH" ~doc)
  in
  let run n a0 theta seed elections concurrency scale wall_timeout out
      metrics_dest trace_out span_out telemetry_out =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let reject flag unsupported =
      if unsupported then
        Error
          (Printf.sprintf
             "saturate does not support %s; drop it (--telemetry-out streams \
              live progress, elect --backend real traces single runs)"
             flag)
      else Ok ()
    in
    let* () = reject "--metrics" (metrics_dest <> None) in
    let* () = reject "--trace-out" (trace_out <> None) in
    let* () = reject "--span-out" (span_out <> None) in
    let saturate telemetry_out =
      Abe_substrate.Saturate.run ?telemetry_out ~a0:(effective_a0 ~theta a0 n)
        ~scale ~wall_timeout ~n ~elections ~concurrency ~seed ()
    in
    let* report =
      match telemetry_out with
      | None -> saturate None
      | Some path -> with_out_channel path (fun oc -> saturate (Some oc))
    in
    Abe_substrate.Saturate.write_json report out;
    Fmt.pr "%a@." Abe_substrate.Saturate.pp_summary report;
    Fmt.pr "wrote %s@." out;
    let open Abe_substrate.Saturate in
    let leaks =
      if report.fd_before < 0 || report.fd_after < 0 then 0
      else report.fd_after - report.fd_before
    in
    if report.failed > 0 then
      Error
        (Printf.sprintf "saturate: %d of %d elections failed" report.failed
           elections)
    else if leaks > 0 then
      Error (Printf.sprintf "saturate: leaked %d file descriptors" leaks)
    else Ok ()
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:4 $ a0_term $ theta_term $ seed_term
         $ elections_term $ concurrency_term $ scale_term ~default:0.005
         $ wall_timeout_term $ out_term $ metrics_term $ trace_out_term
         $ span_out_term $ telemetry_out_term))
  in
  Cmd.v
    (Cmd.info "saturate"
       ~doc:
         "Drive many concurrent real-backend elections and record sustained \
          throughput, tail latency, and fd hygiene")
    term

(* --------------------------------------------------------------- sweep *)

let sweep_command =
  let sizes_term =
    let doc = "Comma-separated ring sizes." in
    Arg.(
      value
      & opt (list int) [ 8; 16; 32; 64; 128 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc)
  in
  let reps_term =
    let doc = "Replications per ring size." in
    Arg.(value & opt int 30 & info [ "reps" ] ~docv:"R" ~doc)
  in
  let run sizes reps a0 theta delta gamma drift delay_kind seed check fault
      jobs metrics_dest =
    guard_io @@ fun () ->
    let table =
      Abe_harness.Table.create ~title:"ABE election sweep"
        ~columns:[ "n"; "messages"; "messages/n"; "time"; "time/n"; "elected" ]
    in
    let registry = registry_for metrics_dest in
    let total_replicates = ref 0 in
    let total_events = ref 0 in
    let total_elapsed = ref 0. in
    let total_violations = ref 0 in
    let go driver =
      let rec loop = function
      | [] -> Ok ()
      | n :: rest ->
        (match
           build_config ~fault ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind
             ~seed ()
         with
         | Error (`Msg m) -> Error m
         | Ok config ->
           let runs, timing =
             match registry with
             | None ->
               Abe_harness.Exp.replicate_timed ~driver ~base:seed ~count:reps
                 (fun ~seed -> Abe_core.Runner.run ~check ~seed config)
             | Some into ->
               (* Per-replicate registries, merged in seed order: the
                  aggregate is byte-identical for every --jobs value. *)
               let runs, merged, timing =
                 Abe_harness.Exp.replicate_merged ~driver ~base:seed
                   ~count:reps (fun ~seed ~metrics ->
                     Abe_core.Runner.run ~check ~metrics ~seed config)
               in
               Abe_sim.Metrics.merge_into ~into merged;
               (runs, timing)
           in
           total_replicates := !total_replicates + timing.Abe_harness.Driver.tasks;
           total_elapsed := !total_elapsed +. timing.Abe_harness.Driver.elapsed;
           List.iter
             (fun o ->
                total_events := !total_events + o.Abe_core.Runner.executed_events;
                total_violations :=
                  !total_violations
                  + List.length o.Abe_core.Runner.violations)
             runs;
           let messages =
             Abe_harness.Exp.summary_of
               (fun o -> float_of_int o.Abe_core.Runner.messages)
               runs
           in
           let time =
             Abe_harness.Exp.summary_of
               (fun o -> o.Abe_core.Runner.elected_at)
               runs
           in
           let ok =
             Abe_harness.Exp.fraction_of
               (fun o -> o.Abe_core.Runner.elected)
               runs
           in
           Abe_harness.Table.add_row table
             [ Abe_harness.Table.cell_int n;
               Abe_harness.Table.cell_summary messages;
               Abe_harness.Table.cell_float
                 (messages.Abe_prob.Stats.mean /. float_of_int n);
               Abe_harness.Table.cell_summary time;
               Abe_harness.Table.cell_float
                 (time.Abe_prob.Stats.mean /. float_of_int n);
               Printf.sprintf "%.0f%%" (100. *. ok) ];
           loop rest)
      in
      loop sizes
    in
    let ( let* ) = Result.bind in
    let* driver = Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs) in
    let* () = go driver in
    Abe_harness.Table.print table;
    Option.iter (emit_metrics metrics_dest) registry;
    let throughput =
      Abe_harness.Report.throughput
        ~label:(Fmt.str "election sweep (%a)" Abe_harness.Driver.pp driver)
        ~replicates:!total_replicates ~events:!total_events
        ~elapsed:!total_elapsed ()
    in
    Fmt.pr "%a@." Abe_harness.Report.pp_throughput throughput;
    if check then begin
      Fmt.pr "oracle: %d runs checked, %d violations@." !total_replicates
        !total_violations;
      if !total_violations > 0 then
        Error
          (Printf.sprintf "sweep: %d invariant violations detected"
             !total_violations)
      else Ok ()
    end
    else Ok ()
  in
  let term =
    Term.(
      term_result'
        (const run $ sizes_term $ reps_term $ a0_term $ theta_term
         $ delta_term $ gamma_term $ drift_term $ delay_kind_term $ seed_term
         $ check_term $ fault_term $ jobs_term $ metrics_term))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Average complexity of the election across ring sizes")
    term

(* ----------------------------------------------------------- baselines *)

let baselines_command =
  let algorithm_term =
    let doc = "Algorithm: ir (Itai-Rodeh), cr (Chang-Roberts), dkr \
               (Dolev-Klawe-Rodeh) or all." in
    Arg.(value & opt string "all" & info [ "algorithm" ] ~docv:"ALG" ~doc)
  in
  let run n algorithm seed check jobs metrics_dest trace_out span_out =
    guard_io @@ fun () ->
    (* Each [show] returns the report line, the unique-leader verdict
       ([elected] with [leader_count = 1]) for --check, and the counters
       the run contributes to --metrics. *)
    let show_ir () =
      let o = Abe_election.Itai_rodeh.run ~seed ~n () in
      ( Fmt.str "itai-rodeh:        %a" Abe_election.Itai_rodeh.pp_outcome o,
        o.Abe_election.Itai_rodeh.elected
        && o.Abe_election.Itai_rodeh.leader_count = 1,
        [ ("baseline/ir/messages", o.Abe_election.Itai_rodeh.messages);
          ("baseline/ir/rounds", o.Abe_election.Itai_rodeh.rounds);
          ("baseline/ir/phases", o.Abe_election.Itai_rodeh.phases) ] )
    in
    let show_cr () =
      let o = Abe_election.Chang_roberts.run ~seed ~n () in
      ( Fmt.str "chang-roberts:     %a" Abe_election.Chang_roberts.pp_outcome o,
        o.Abe_election.Chang_roberts.elected
        && o.Abe_election.Chang_roberts.leader_count = 1,
        [ ("baseline/cr/messages", o.Abe_election.Chang_roberts.messages);
          ("baseline/cr/rounds", o.Abe_election.Chang_roberts.rounds) ] )
    in
    let show_dkr () =
      let o = Abe_election.Dolev_klawe_rodeh.run ~seed ~n () in
      ( Fmt.str "dolev-klawe-rodeh: %a"
          Abe_election.Dolev_klawe_rodeh.pp_outcome o,
        o.Abe_election.Dolev_klawe_rodeh.elected
        && o.Abe_election.Dolev_klawe_rodeh.leader_count = 1,
        [ ("baseline/dkr/messages", o.Abe_election.Dolev_klawe_rodeh.messages);
          ("baseline/dkr/rounds", o.Abe_election.Dolev_klawe_rodeh.rounds);
          ("baseline/dkr/phases", o.Abe_election.Dolev_klawe_rodeh.phases) ] )
    in
    let ( let* ) = Result.bind in
    let* driver = Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs) in
    let* selected =
      match algorithm with
      | "ir" -> Ok [ show_ir ]
      | "cr" -> Ok [ show_cr ]
      | "dkr" -> Ok [ show_dkr ]
      | "all" -> Ok [ show_ir; show_cr; show_dkr ]
      | other -> Error (Printf.sprintf "unknown algorithm %S" other)
    in
    (* The algorithms are independent runs: fan them out over the driver,
       then print in the fixed ir/cr/dkr order.  Metrics are recorded here,
       after the fan-out, so the registry is never shared across domains. *)
    let results = Abe_harness.Driver.map driver (fun show -> show ()) selected in
    List.iter (fun (line, _, _) -> Fmt.pr "%s@." line) results;
    (* The baseline runners are round-driven, not engine-driven, so the
       exported trace records the harness-level outcomes: one entry per
       algorithm, in report order. *)
    Option.iter
      (fun path ->
         let tr = Abe_sim.Trace.create ~enabled:true () in
         List.iter
           (fun (line, _, _) ->
              Abe_sim.Trace.record tr ~time:0. ~kind:"outcome"
                ~source:Abe_sim.Trace.Sim line)
           results;
         with_out_channel path (fun oc -> Abe_sim.Trace.output_jsonl oc tr))
      trace_out;
    (* Same harness-level stance for spans: the baselines are round-driven,
       so the exported DAG has one process span per algorithm on its own
       track, spanning [0, rounds]. *)
    Option.iter
      (fun path ->
         let c = Abe_sim.Causal.create () in
         List.iteri
           (fun i (line, _, counters) ->
              let label =
                match String.index_opt line ':' with
                | Some k -> String.sub line 0 k
                | None -> line
              in
              let rounds =
                List.fold_left
                  (fun acc (name, value) ->
                     if Filename.check_suffix name "/rounds" then
                       float_of_int value
                     else acc)
                  0. counters
              in
              ignore
                (Abe_sim.Causal.process c ~node:i ~label ~t_begin:0.
                   ~t_busy:0. ~t_end:rounds ()))
           results;
         with_out_channel path (fun oc ->
             Abe_sim.Causal.output_trace_json oc c))
      span_out;
    (match registry_for metrics_dest with
     | None -> ()
     | Some registry ->
       List.iter
         (fun (_, _, counters) ->
            List.iter
              (fun (name, value) ->
                 Abe_sim.Metrics.incr ~by:value
                   (Abe_sim.Metrics.counter registry name))
              counters)
         results;
       emit_metrics metrics_dest registry);
    if check then begin
      let failed = List.filter (fun (_, ok, _) -> not ok) results in
      if failed = [] then begin
        Fmt.pr "check: ok (unique leader in every run)@.";
        Ok ()
      end
      else
        Error
          (Printf.sprintf
             "baselines: %d run(s) did not end with a unique leader"
             (List.length failed))
    end
    else Ok ()
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:32 $ algorithm_term $ seed_term
         $ check_term $ jobs_term $ metrics_term $ trace_out_term
         $ span_out_term))
  in
  Cmd.v
    (Cmd.info "baselines" ~doc:"Run the baseline election algorithms")
    term

(* ---------------------------------------------------------------- sync *)

let sync_command =
  let reps_term =
    let doc = "Replications for the ABD-synchroniser variants." in
    Arg.(value & opt int 20 & info [ "reps" ] ~docv:"R" ~doc)
  in
  let run n delta reps seed jobs metrics_dest trace_out span_out =
    guard_io @@ fun () ->
    if n < 4 then Error "n must be >= 4"
    else begin
      let ( let* ) = Result.bind in
      let* driver = Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs) in
      let report =
        Abe_synchronizer.Measure.bfs_comparison ~driver ~replications:reps
          ~seed ~n ~delta ()
      in
      Fmt.pr "%a@." Abe_synchronizer.Measure.pp_report report;
      (* The comparison aggregates replicated engine runs, so the exported
         trace records the harness-level verdicts: one entry per variant. *)
      Option.iter
        (fun path ->
           let tr = Abe_sim.Trace.create ~enabled:true () in
           let record (v : Abe_synchronizer.Measure.variant_result) =
             Abe_sim.Trace.recordf tr ~time:0. ~kind:"variant"
               ~source:Abe_sim.Trace.Sim
               "%s: payload=%d control=%d control/pulse=%.3f violations=%d \
                correct=%b"
               v.Abe_synchronizer.Measure.label
               v.Abe_synchronizer.Measure.payload_messages
               v.Abe_synchronizer.Measure.control_messages
               v.Abe_synchronizer.Measure.control_per_pulse
               v.Abe_synchronizer.Measure.violations
               v.Abe_synchronizer.Measure.correct
           in
           record report.Abe_synchronizer.Measure.alpha_on_abe;
           record report.Abe_synchronizer.Measure.beta_on_abe;
           record report.Abe_synchronizer.Measure.abd_on_abd;
           record report.Abe_synchronizer.Measure.abd_on_abe;
           with_out_channel path (fun oc -> Abe_sim.Trace.output_jsonl oc tr))
        trace_out;
      (* Harness-level spans, one per variant: the comparison aggregates
         replicated runs, so the span length is the total message volume
         (payload + control). *)
      Option.iter
        (fun path ->
           let c = Abe_sim.Causal.create () in
           let record i (v : Abe_synchronizer.Measure.variant_result) =
             ignore
               (Abe_sim.Causal.process c ~node:i
                  ~label:v.Abe_synchronizer.Measure.label ~t_begin:0.
                  ~t_busy:0.
                  ~t_end:
                    (float_of_int
                       (v.Abe_synchronizer.Measure.payload_messages
                        + v.Abe_synchronizer.Measure.control_messages))
                  ())
           in
           record 0 report.Abe_synchronizer.Measure.alpha_on_abe;
           record 1 report.Abe_synchronizer.Measure.beta_on_abe;
           record 2 report.Abe_synchronizer.Measure.abd_on_abd;
           record 3 report.Abe_synchronizer.Measure.abd_on_abe;
           with_out_channel path (fun oc ->
               Abe_sim.Causal.output_trace_json oc c))
        span_out;
      (match registry_for metrics_dest with
       | None -> ()
       | Some registry ->
         let record key (v : Abe_synchronizer.Measure.variant_result) =
           let counter suffix value =
             Abe_sim.Metrics.incr ~by:value
               (Abe_sim.Metrics.counter registry
                  (Printf.sprintf "sync/%s/%s" key suffix))
           in
           counter "payload_messages" v.Abe_synchronizer.Measure.payload_messages;
           counter "control_messages" v.Abe_synchronizer.Measure.control_messages;
           counter "violations" v.Abe_synchronizer.Measure.violations;
           Abe_sim.Metrics.set_gauge
             (Abe_sim.Metrics.gauge registry
                (Printf.sprintf "sync/%s/control_per_pulse" key))
             v.Abe_synchronizer.Measure.control_per_pulse
         in
         record "alpha_on_abe" report.Abe_synchronizer.Measure.alpha_on_abe;
         record "beta_on_abe" report.Abe_synchronizer.Measure.beta_on_abe;
         record "abd_on_abd" report.Abe_synchronizer.Measure.abd_on_abd;
         record "abd_on_abe" report.Abe_synchronizer.Measure.abd_on_abe;
         emit_metrics metrics_dest registry);
      Ok ()
    end
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:32 $ delta_term $ reps_term $ seed_term
         $ jobs_term $ metrics_term $ trace_out_term $ span_out_term))
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:"Theorem 1: synchroniser cost and correctness on ABD vs ABE")
    term

(* ------------------------------------------------------------- metrics *)

let metrics_command =
  let reps_term =
    let doc = "Replications to aggregate into the table." in
    Arg.(value & opt int 10 & info [ "reps" ] ~docv:"R" ~doc)
  in
  let out_term =
    let doc =
      "Write the table to $(docv) instead of standard output (handy for \
       diffing two runs byte-for-byte)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run n reps a0 theta delta gamma drift delay_kind seed check fault jobs
      out =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let* driver = Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs) in
    match
      build_config ~fault ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind ~seed
        ()
    with
    | Error (`Msg m) -> Error m
    | Ok config ->
      let runs, merged, _timing =
        Abe_harness.Exp.replicate_merged ~driver ~base:seed ~count:reps
          (fun ~seed ~metrics ->
             Abe_core.Runner.run ~check ~metrics ~seed config)
      in
      emit_metrics (Some (Option.value ~default:"-" out)) merged;
      let violations =
        List.fold_left
          (fun acc o -> acc + List.length o.Abe_core.Runner.violations)
          0 runs
      in
      if check && violations > 0 then
        Error
          (Printf.sprintf "metrics: %d invariant violations detected"
             violations)
      else if List.for_all (fun o -> o.Abe_core.Runner.elected) runs then Ok ()
      else Error "metrics: not every replicate elected a leader"
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:16 $ reps_term $ a0_term $ theta_term
         $ delta_term $ gamma_term $ drift_term $ delay_kind_term $ seed_term
         $ check_term $ fault_term $ jobs_term $ out_term))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Aggregate election metrics over replicated runs into one summary \
          table (byte-identical for every --jobs value)")
    term

(* ------------------------------------------------------------ critpath *)

let critpath_command =
  let sizes_term =
    let doc = "Comma-separated ring sizes." in
    Arg.(
      value
      & opt (list int) [ 8; 16; 32; 64 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc)
  in
  let reps_term =
    let doc = "Replications per ring size." in
    Arg.(value & opt int 5 & info [ "reps" ] ~docv:"R" ~doc)
  in
  let run sizes reps a0 theta delta gamma drift delay_kind seed jobs
      metrics_dest span_out =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let* driver = Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs) in
    let registry = registry_for metrics_dest in
    let all_elected = ref true in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest ->
        (match
           build_config ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind ~seed ()
         with
         | Error (`Msg m) -> Error m
         | Ok config ->
           (* Per-replicate recorder + registry, analyzed inside the
              replicate and folded in seed order: the table and the merged
              critpath/* histograms are byte-identical for every --jobs. *)
           let results, merged, _timing =
             Abe_harness.Exp.replicate_merged ~driver ~base:seed ~count:reps
               (fun ~seed ~metrics ->
                  let causal = Abe_sim.Causal.create () in
                  let outcome =
                    Abe_core.Runner.run ~metrics ~causal ~seed config
                  in
                  let breakdown = Abe_sim.Critpath.analyze causal in
                  Option.iter (Abe_sim.Critpath.record metrics) breakdown;
                  (outcome, breakdown))
           in
           Option.iter
             (fun into -> Abe_sim.Metrics.merge_into ~into merged)
             registry;
           List.iter
             (fun (o, _) ->
                if not o.Abe_core.Runner.elected then all_elected := false)
             results;
           let breakdowns = List.filter_map snd results in
           collect ((n, breakdowns) :: acc) rest)
    in
    let* rows = collect [] sizes in
    Abe_harness.Table.print (Abe_harness.Report.critpath_table rows);
    Option.iter (emit_metrics metrics_dest) registry;
    (* --span-out exports the DAG of the first replicate of the first size
       (re-run with a fresh recorder; determinism makes it the same run). *)
    Option.iter
      (fun path ->
         match sizes with
         | [] -> ()
         | n :: _ ->
           (match
              build_config ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind
                ~seed ()
            with
            | Error _ -> ()
            | Ok config ->
              let causal = Abe_sim.Causal.create () in
              let first_seed =
                match Abe_harness.Exp.seeds ~base:seed ~count:1 with
                | s :: _ -> s
                | [] -> seed
              in
              ignore (Abe_core.Runner.run ~causal ~seed:first_seed config);
              with_out_channel path (fun oc ->
                  Abe_sim.Causal.output_trace_json oc causal)))
      span_out;
    if !all_elected then Ok ()
    else Error "critpath: not every replicate elected a leader"
  in
  let term =
    Term.(
      term_result'
        (const run $ sizes_term $ reps_term $ a0_term $ theta_term
         $ delta_term $ gamma_term $ drift_term $ delay_kind_term $ seed_term
         $ jobs_term $ metrics_term $ span_out_term))
  in
  Cmd.v
    (Cmd.info "critpath"
       ~doc:
         "Critical-path analysis of the election across ring sizes: attribute \
          the elected-at time to link delay, processing and idle wait along \
          the happens-before critical path (byte-identical for every --jobs \
          value)")
    term

(* --------------------------------------------------------------- churn *)

let churn_command =
  let rates_term =
    let doc =
      "Comma-separated churn rates.  Each rate r drives a generated \
       scenario (RNG salt 4, derived from the seed) where link outages and \
       node crash-and-rejoin events arrive with Exp(delta/r) gaps."
    in
    Arg.(
      value
      & opt (list float) [ 0.05; 0.1; 0.2 ]
      & info [ "rates" ] ~docv:"R,R,..." ~doc)
  in
  let reps_term =
    let doc = "Replications per churn rate." in
    Arg.(value & opt int 20 & info [ "reps" ] ~docv:"R" ~doc)
  in
  let limit_term =
    let doc =
      "Simulation time budget per replicate.  Default 500 * n * delta: \
       generous for quiet runs, finite so churned-out elections register \
       as failures instead of running forever."
    in
    Arg.(value & opt (some float) None & info [ "limit-time" ] ~docv:"T" ~doc)
  in
  let run rates reps limit n a0 theta delta gamma drift delay_kind seed check
      jobs metrics_dest =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let* driver = Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs) in
    let* () =
      if rates = [] then Error "churn: need at least one rate" else Ok ()
    in
    let registry = registry_for metrics_dest in
    let limit_time =
      match limit with
      | Some t -> t
      | None -> 500. *. float_of_int n *. delta
    in
    let total_replicates = ref 0 and total_events = ref 0 in
    let total_elapsed = ref 0. and total_violations = ref 0 in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | rate :: rest ->
        (match
           build_config
             ~fault:(Printf.sprintf "churn(%g)" rate)
             ~limit_time ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind ~seed ()
         with
         | Error (`Msg m) -> Error m
         | Ok config ->
           (* Per-replicate recorder + registry, analyzed inside the
              replicate and folded in seed order: table and merged metrics
              are byte-identical for every --jobs. *)
           let results, merged, timing =
             Abe_harness.Exp.replicate_merged ~driver ~base:seed ~count:reps
               (fun ~seed ~metrics ->
                  let causal = Abe_sim.Causal.create () in
                  let outcome =
                    Abe_core.Runner.run ~check ~metrics ~causal ~seed config
                  in
                  let breakdown = Abe_sim.Critpath.analyze causal in
                  Option.iter (Abe_sim.Critpath.record metrics) breakdown;
                  (outcome, breakdown))
           in
           Option.iter
             (fun into -> Abe_sim.Metrics.merge_into ~into merged)
             registry;
           total_replicates :=
             !total_replicates + timing.Abe_harness.Driver.tasks;
           total_elapsed := !total_elapsed +. timing.Abe_harness.Driver.elapsed;
           List.iter
             (fun (o, _) ->
                total_events :=
                  !total_events + o.Abe_core.Runner.executed_events;
                total_violations :=
                  !total_violations + List.length o.Abe_core.Runner.violations)
             results;
           let breakdowns =
             List.filter_map
               (fun (o, b) -> if o.Abe_core.Runner.elected then b else None)
               results
           in
           collect ((rate, reps, breakdowns) :: acc) rest)
    in
    let* rows = collect [] rates in
    Abe_harness.Table.print (Abe_harness.Report.churn_table rows);
    Option.iter (emit_metrics metrics_dest) registry;
    let throughput =
      Abe_harness.Report.throughput
        ~label:(Fmt.str "churn sweep (%a)" Abe_harness.Driver.pp driver)
        ~replicates:!total_replicates ~events:!total_events
        ~elapsed:!total_elapsed ()
    in
    Fmt.pr "%a@." Abe_harness.Report.pp_throughput throughput;
    if check then begin
      Fmt.pr "oracle: %d runs checked, %d violations@." !total_replicates
        !total_violations;
      if !total_violations > 0 then
        Error
          (Printf.sprintf "churn: %d invariant violations detected"
             !total_violations)
      else Ok ()
    end
    else Ok ()
  in
  let term =
    Term.(
      term_result'
        (const run $ rates_term $ reps_term $ limit_term $ n_term ~default:8
         $ a0_term $ theta_term $ delta_term $ gamma_term $ drift_term
         $ delay_kind_term $ seed_term $ check_term $ jobs_term
         $ metrics_term))
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Election success probability and completion time under dynamic \
          churn: links flap and nodes crash-and-rejoin at each given rate, \
          with critical-path attribution of the successful runs \
          (byte-identical for every --jobs value)")
    term

(* ---------------------------------------------------------------- dist *)

let dist_command =
  let samples_term =
    let doc = "Number of samples." in
    Arg.(value & opt int 100_000 & info [ "samples" ] ~docv:"K" ~doc)
  in
  let histogram_term =
    let doc = "Print an ASCII histogram of the samples." in
    Arg.(value & flag & info [ "histogram" ] ~doc)
  in
  let run delta delay_kind samples histogram seed =
    match parse_delay ~delta delay_kind with
    | Error (`Msg m) -> Error m
    | Ok dist ->
      let rng = Abe_prob.Rng.create ~seed in
      let stats = Abe_prob.Stats.Reservoir.create () in
      for _ = 1 to samples do
        Abe_prob.Stats.Reservoir.add stats (Abe_prob.Dist.sample dist rng)
      done;
      Fmt.pr "distribution: %a@." Abe_prob.Dist.pp dist;
      Fmt.pr "analytic mean: %g   variance: %s   ABD-admissible: %b@."
        (Abe_prob.Dist.mean dist)
        (match Abe_prob.Dist.variance dist with
         | Some v -> Printf.sprintf "%g" v
         | None -> "infinite")
        (Abe_prob.Dist.bounded_support dist);
      Fmt.pr "sampled  mean: %g   p50: %g   p99: %g   max: %g@."
        (Abe_prob.Stats.Reservoir.mean stats)
        (Abe_prob.Stats.Reservoir.median stats)
        (Abe_prob.Stats.Reservoir.quantile stats 0.99)
        (Abe_prob.Stats.Reservoir.quantile stats 1.);
      if histogram then begin
        let hi = Abe_prob.Stats.Reservoir.quantile stats 0.995 in
        let h = Abe_prob.Stats.Histogram.create ~lo:0. ~hi ~bins:20 in
        Array.iter
          (Abe_prob.Stats.Histogram.add h)
          (Abe_prob.Stats.Reservoir.samples stats);
        Fmt.pr "%a" Abe_prob.Stats.Histogram.pp h
      end;
      Ok ()
  in
  let term =
    Term.(
      term_result'
        (const run $ delta_term $ delay_kind_term $ samples_term
         $ histogram_term $ seed_term))
  in
  Cmd.v
    (Cmd.info "dist" ~doc:"Inspect a delay distribution (analytic vs sampled)")
    term

(* -------------------------------------------------------------- family *)

let family_command =
  let pulses_term =
    let doc = "Number of synchronous pulses to simulate." in
    Arg.(value & opt (some int) None & info [ "pulses" ] ~docv:"P" ~doc)
  in
  let run n delta pulses seed =
    if n < 4 then Error "n must be >= 4"
    else begin
      let module Ref_bfs =
        Abe_synchronizer.Reference.Make (Abe_synchronizer.Sync_alg.Bfs) in
      let module Alpha_bfs =
        Abe_synchronizer.Alpha.Make (Abe_synchronizer.Sync_alg.Bfs) in
      let module Beta_bfs =
        Abe_synchronizer.Beta.Make (Abe_synchronizer.Sync_alg.Bfs) in
      let module Gamma_bfs =
        Abe_synchronizer.Gamma.Make (Abe_synchronizer.Sync_alg.Bfs) in
      let topology = Abe_net.Topology.bidirectional_ring n in
      let pulses = Option.value ~default:((n / 2) + 2) pulses in
      let delay = Abe_net.Delay_model.abe_exponential ~delta in
      let reference = Ref_bfs.run ~seed ~topology ~pulses in
      let expected =
        Array.map Abe_synchronizer.Sync_alg.Bfs.distance reference.Ref_bfs.states
      in
      let correct states =
        Array.map Abe_synchronizer.Sync_alg.Bfs.distance states = expected
      in
      let table =
        Abe_harness.Table.create
          ~title:
            (Printf.sprintf
               "synchroniser family, BFS on the bidirectional ring (n=%d)" n)
          ~columns:[ "synchroniser"; "control/pulse"; "correct" ]
      in
      let alpha = Alpha_bfs.run ~seed:(seed + 1) ~topology ~delay ~pulses () in
      Abe_harness.Table.add_row table
        [ "alpha";
          Abe_harness.Table.cell_float alpha.Alpha_bfs.control_per_pulse;
          Abe_harness.Table.cell_bool (correct alpha.Alpha_bfs.states) ];
      let beta = Beta_bfs.run ~seed:(seed + 2) ~topology ~delay ~pulses () in
      Abe_harness.Table.add_row table
        [ "beta";
          Abe_harness.Table.cell_float beta.Beta_bfs.control_per_pulse;
          Abe_harness.Table.cell_bool (correct beta.Beta_bfs.states) ];
      List.iter
        (fun radius ->
           let g =
             Gamma_bfs.run ~seed:(seed + 3 + radius) ~topology ~delay ~pulses
               ~radius ()
           in
           Abe_harness.Table.add_row table
             [ Printf.sprintf "gamma r=%d (%d clusters)" radius
                 g.Gamma_bfs.clusters;
               Abe_harness.Table.cell_float g.Gamma_bfs.control_per_pulse;
               Abe_harness.Table.cell_bool (correct g.Gamma_bfs.states) ])
        [ 0; 1; 2 ];
      Abe_harness.Table.print table;
      Ok ()
    end
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:32 $ delta_term $ pulses_term $ seed_term))
  in
  Cmd.v
    (Cmd.info "family"
       ~doc:"Compare the alpha/beta/gamma synchroniser family on an ABE ring")
    term

(* ------------------------------------------------------------- explore *)

let explore_command =
  let fuzz_term =
    let doc =
      "Randomised schedule search: permute delivery order among \
       near-simultaneous events with probability --flip per decision \
       point.  This is the default mode."
    in
    Arg.(value & flag & info [ "fuzz" ] ~doc)
  in
  let exhaustive_term =
    let doc =
      "Bounded exhaustive search: DFS over every scheduler decision, \
       pruning states already visited (by state digest).  Feasible for \
       small rings only."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let quantile_term =
    let doc =
      "Delay-quantile adversary: force link subsets (smallest first) to a \
       deterministic --tail x expected delay, outside the admissibility \
       envelope, and check the invariants still hold."
    in
    Arg.(value & flag & info [ "quantile" ] ~doc)
  in
  let por_term =
    let doc =
      "Exhaustive mode: dynamic partial-order reduction — skip alternative \
       picks whose (node, link) footprints prove them commuting with every \
       earlier candidate.  Typically shrinks the schedule tree by an order \
       of magnitude, making rings exhaustible that plain DFS cannot finish."
    in
    Arg.(value & flag & info [ "por" ] ~doc)
  in
  let liveness_term =
    let doc =
      "Fairness bound for liveness checking: cap every schedule at $(docv) \
       engine events and report any fair schedule that fails to elect a \
       leader within them as a liveness-election violation (shrunk and \
       replayable like a safety violation).  $(b,--liveness) without a \
       value uses 20000."
    in
    Arg.(
      value
      & opt ~vopt:(Some 20000) (some int) None
      & info [ "liveness" ] ~docv:"EVENTS" ~doc)
  in
  let expect_elects_term =
    let doc =
      "Verdict assertion for liveness runs: fail the command unless every \
       explored fair schedule elected (no violation of any kind found).  \
       Requires $(b,--liveness)."
    in
    Arg.(value & flag & info [ "expect-elects" ] ~doc)
  in
  let budget_term =
    let doc = "Maximum number of schedules to explore." in
    Arg.(value & opt int 1000 & info [ "budget" ] ~docv:"K" ~doc)
  in
  let time_budget_term =
    let doc =
      "Wall-clock budget in seconds (unset: none).  Racy by nature — CI \
       and reproducible runs should use --budget."
    in
    Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECS" ~doc)
  in
  let window_term =
    let doc =
      "Commutation window: pending events within WINDOW of the earliest \
       one are reorderable candidates."
    in
    Arg.(value & opt float 0.5 & info [ "window" ] ~docv:"WINDOW" ~doc)
  in
  let flip_term =
    let doc = "Fuzz mode: probability of a non-default pick per decision point." in
    Arg.(value & opt float 0.25 & info [ "flip" ] ~docv:"P" ~doc)
  in
  let tail_term =
    let doc = "Quantile mode: delay multiplier applied to slowed links." in
    Arg.(value & opt float 25. & info [ "tail" ] ~docv:"FACTOR" ~doc)
  in
  let mutate_term =
    let doc =
      "Seeded mutation of the protocol under test: none; stale-max \
       (forward max(d, hop)+1 instead of hop+1 — the historical bug the \
       hop-soundness invariant exists to catch); or drop-token (silently \
       drop tokens that traversed two or more links — no schedule can then \
       elect, the bug the liveness checker exists to catch).  Exploration \
       against a known mutation validates that the search can find real \
       violations."
    in
    Arg.(value & opt string "none" & info [ "mutate" ] ~docv:"MUTATION" ~doc)
  in
  let repro_out_term =
    let doc =
      "Write the shrunk counterexample as a JSONL repro artifact to \
       $(docv), replayable byte-identically with $(b,abe-sim replay)."
    in
    Arg.(value & opt (some string) None & info [ "repro-out" ] ~docv:"FILE" ~doc)
  in
  let expect_term =
    let doc =
      "Verdict assertion: $(b,violation) fails the command when the search \
       finds none, $(b,clean) fails it when one is found.  Unset: report \
       only."
    in
    Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"VERDICT" ~doc)
  in
  let run n a0 theta delta gamma drift delay_kind seed fault jobs metrics_dest
      fuzz exhaustive quantile por liveness expect_elects budget time_budget
      window flip tail mutate repro_out expect =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let* driver = Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs) in
    let* mode =
      match (fuzz, exhaustive, quantile) with
      | _, false, false -> Ok (Abe_check.Explore.Fuzz { flip })
      | false, true, false -> Ok (Abe_check.Explore.Exhaustive { por })
      | false, false, true -> Ok (Abe_check.Explore.Quantile { tail })
      | _ -> Error "choose at most one of --fuzz, --exhaustive, --quantile"
    in
    let* () =
      if por && not exhaustive then Error "--por requires --exhaustive"
      else Ok ()
    in
    let* () =
      match liveness with
      | Some b when b < 1 -> Error "--liveness bound must be >= 1"
      | _ -> Ok ()
    in
    let* () =
      if expect_elects && liveness = None then
        Error "--expect-elects requires --liveness"
      else if expect_elects && expect <> None then
        Error "choose at most one of --expect, --expect-elects"
      else Ok ()
    in
    let* forwarding =
      match mutate with
      | "none" -> Ok Abe_core.Runner.Paper
      | "stale-max" -> Ok Abe_core.Runner.Stale_max
      | "drop-token" -> Ok Abe_core.Runner.Drop_token
      | other -> Error (Printf.sprintf "unknown mutation %S" other)
    in
    let* expect =
      match expect with
      | None -> Ok (if expect_elects then `Elects else `Report)
      | Some "violation" -> Ok `Violation
      | Some "clean" -> Ok `Clean
      | Some other -> Error (Printf.sprintf "unknown verdict %S" other)
    in
    match
      build_config ~fault ~n ~a0 ~theta ~delta ~gamma ~drift ~delay_kind ~seed
        ()
    with
    | Error (`Msg m) -> Error m
    | Ok config ->
      let registry = registry_for metrics_dest in
      let* report =
        match
          Abe_check.Explore.run ?metrics:registry ~driver ~window ~budget
            ?time_budget ~forwarding ?liveness ~mode ~seed config
        with
        | report -> Ok report
        | exception Invalid_argument m -> Error m
      in
      Fmt.pr "%a@." Abe_check.Explore.pp_report report;
      Option.iter
        (fun path ->
           match report.Abe_check.Explore.finding with
           | None -> ()
           | Some finding ->
             let artifact =
               Abe_check.Explore.to_repro
                 ~mode_name:(Abe_check.Explore.mode_name mode) ~seed
                 ~a0:(effective_a0 ~theta a0 n) ~delta ~gamma ~drift
                 ~delay:delay_kind ~fault ~window ~tail:(match mode with
                     | Abe_check.Explore.Quantile { tail } -> tail
                     | _ -> 0.)
                 ~forwarding
                 ~fairness:(Option.value liveness ~default:0)
                 ~n finding
             in
             Abe_check.Repro.to_file path artifact;
             Fmt.pr "repro artifact written to %s@." path)
        repro_out;
      Option.iter (emit_metrics metrics_dest) registry;
      (match (expect, report.Abe_check.Explore.finding) with
       | `Report, _ | `Violation, Some _ | (`Clean | `Elects), None -> Ok ()
       | `Violation, None ->
         Error
           (Printf.sprintf "explore: no violation found within %d schedules"
              report.Abe_check.Explore.schedules)
       | `Clean, Some f ->
         Error
           (Printf.sprintf "explore: unexpected %s violation"
              f.Abe_check.Explore.invariant)
       | `Elects, Some f ->
         Error
           (Printf.sprintf
              "explore: expected every fair schedule to elect, found %s"
              f.Abe_check.Explore.invariant))
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:6 $ a0_term $ theta_term $ delta_term
         $ gamma_term $ drift_term $ delay_kind_term $ seed_term $ fault_term
         $ jobs_term $ metrics_term $ fuzz_term $ exhaustive_term
         $ quantile_term $ por_term $ liveness_term $ expect_elects_term
         $ budget_term $ time_budget_term $ window_term
         $ flip_term $ tail_term $ mutate_term $ repro_out_term $ expect_term))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Search delivery schedules (fuzz / bounded-exhaustive / \
          delay-quantile adversary) for invariant violations; shrink and \
          export any counterexample as a replayable repro artifact")
    term

(* -------------------------------------------------------------- replay *)

let replay_command =
  let file_term =
    let doc = "Repro artifact (JSONL) produced by $(b,abe-sim explore --repro-out)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file seed_override jobs metrics_dest trace_out =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let* _driver =
      (* A replay is one deterministic execution; the flag is validated for
         interface uniformity and because CI diffs --jobs 1 vs --jobs N. *)
      Result.map_error (fun (`Msg m) -> m) (driver_of_jobs jobs)
    in
    let* artifact = Abe_check.Repro.of_file file in
    let artifact =
      match seed_override with
      | None -> artifact
      | Some seed -> { artifact with Abe_check.Repro.seed }
    in
    let* config =
      Result.map_error
        (fun (`Msg m) -> m)
        (build_config ~fault:artifact.Abe_check.Repro.fault
           ~n:artifact.Abe_check.Repro.n
           ~a0:(Some artifact.Abe_check.Repro.a0)
           ~theta:1. ~delta:artifact.Abe_check.Repro.delta
           ~gamma:artifact.Abe_check.Repro.gamma
           ~drift:artifact.Abe_check.Repro.drift
           ~delay_kind:artifact.Abe_check.Repro.delay
           ~seed:artifact.Abe_check.Repro.seed ())
    in
    let trace_buffer =
      Option.map (fun _ -> Abe_sim.Trace.create ~enabled:true ()) trace_out
    in
    let registry = registry_for metrics_dest in
    Fmt.pr "%a@." Abe_check.Repro.pp artifact;
    let* outcome =
      Abe_check.Explore.replay_run ?trace:trace_buffer ?metrics:registry
        ~artifact config
    in
    List.iter
      (fun v -> Fmt.pr "%a@." Abe_sim.Oracle.pp_violation v)
      outcome.Abe_core.Runner.violations;
    Option.iter
      (fun path ->
         Option.iter
           (fun tr ->
              with_out_channel path (fun oc -> Abe_sim.Trace.output_jsonl oc tr))
           trace_buffer)
      trace_out;
    Option.iter (emit_metrics metrics_dest) registry;
    let reproduced =
      List.exists
        (fun v ->
           v.Abe_sim.Oracle.invariant = artifact.Abe_check.Repro.invariant)
        outcome.Abe_core.Runner.violations
    in
    if reproduced then begin
      Fmt.pr "replay: reproduced invariant %S (%d violation%s)@."
        artifact.Abe_check.Repro.invariant
        (List.length outcome.Abe_core.Runner.violations)
        (if List.length outcome.Abe_core.Runner.violations = 1 then ""
         else "s");
      Ok ()
    end
    else
      Error
        (Printf.sprintf "replay: invariant %S was not reproduced"
           artifact.Abe_check.Repro.invariant)
  in
  let seed_override_term =
    let doc =
      "Override the artifact's recorded seed (the violation is then not \
       expected to reproduce; useful for probing how schedule-dependent it \
       is)."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let term =
    Term.(
      term_result'
        (const run $ file_term $ seed_override_term $ jobs_term $ metrics_term
         $ trace_out_term))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a repro artifact byte-identically and check the \
          recorded invariant violation reproduces")
    term

(* ------------------------------------------------------------- certify *)

let certify_command =
  let variant_term =
    let doc =
      "Synchroniser to certify: alpha, beta, gamma, abd, or all.  The \
       message-driven synchronisers are held to round monotonicity and \
       arrival skew <= 1; the timeout-based abd variant (run on ABE \
       delays, where its hard-bound assumption fails by design) to \
       monotonicity only."
    in
    Arg.(value & opt string "all" & info [ "variant" ] ~docv:"NAME" ~doc)
  in
  let pulses_term =
    let doc = "Pulses to simulate per run (default: n/2 + 2, enough for BFS)." in
    Arg.(value & opt (some int) None & info [ "pulses" ] ~docv:"P" ~doc)
  in
  let radius_term =
    let doc = "Gamma clustering radius." in
    Arg.(value & opt int 1 & info [ "radius" ] ~docv:"R" ~doc)
  in
  let budget_term =
    let doc = "Maximum number of schedules to explore per variant." in
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"K" ~doc)
  in
  let time_budget_term =
    let doc =
      "Wall-clock budget in seconds per variant (unset: none).  Racy by \
       nature — CI and reproducible runs should use --budget."
    in
    Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECS" ~doc)
  in
  let no_por_term =
    let doc =
      "Disable dynamic partial-order reduction (explore every alternative \
       pick, commuting or not)."
    in
    Arg.(value & flag & info [ "no-por" ] ~doc)
  in
  let window_term =
    let doc =
      "Commutation window: pending events within WINDOW of the earliest \
       one are reorderable candidates."
    in
    Arg.(value & opt float 0.5 & info [ "window" ] ~docv:"WINDOW" ~doc)
  in
  let run n seed variant pulses radius budget time_budget no_por window =
    guard_io @@ fun () ->
    let ( let* ) = Result.bind in
    let* variants =
      if variant = "all" then
        Ok Abe_check.Certify.[ Alpha; Beta; Gamma; Abd ]
      else
        Result.map
          (fun v -> [ v ])
          (Result.map_error
             (fun (`Msg m) -> m)
             (Abe_check.Certify.variant_of_string variant))
    in
    let* reports =
      match
        List.map
          (fun v ->
             Abe_check.Certify.run ~window ~budget ?time_budget
               ~por:(not no_por) ?pulses ~radius ~seed ~n v)
          variants
      with
      | reports -> Ok reports
      | exception Invalid_argument m -> Error m
    in
    List.iter (fun r -> Fmt.pr "@[<v>%a@]@." Abe_check.Certify.pp_report r) reports;
    let failed =
      List.filter (fun r -> not (Abe_check.Certify.certified r)) reports
    in
    if failed = [] then Ok ()
    else
      Error
        (Printf.sprintf "certify: %s not certified"
           (String.concat ", "
              (List.map (fun r -> r.Abe_check.Certify.variant) failed)))
  in
  let term =
    Term.(
      term_result'
        (const run $ n_term ~default:3 $ seed_term $ variant_term $ pulses_term
         $ radius_term $ budget_term $ time_budget_term $ no_por_term
         $ window_term))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Certify the synchroniser family's safety invariants (round \
          monotonicity, bounded arrival skew) over every explored delivery \
          schedule")
    term

let () =
  let doc = "asynchronous bounded expected delay (ABE) network simulator" in
  let info = Cmd.info "abe-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ elect_command; parity_command; saturate_command; sweep_command;
            baselines_command; sync_command; metrics_command;
            critpath_command; churn_command; family_command; dist_command;
            explore_command; replay_command; certify_command ]))
