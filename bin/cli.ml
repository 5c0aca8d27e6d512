(* The one declaration path for abe-sim subcommands.

     command    Cmd.v plus the error discipline every subcommand shares
     Ring       the ring flags and the Runner.config builder
     Observe    --metrics, --trace/--trace-out, --span-out, --telemetry-out
     Replicate  each size/rate -> replicate -> merge metrics -> tally, and
                the harness-level export of per-row results *)

open Cmdliner

let ( let* ) = Result.bind

(* ------------------------------------------------------------ command *)

(* Every subcommand prints through [Format.std_formatter].  A write or a
   flush that fails there (a full disk, a closed pipe) is kept instead of
   raised, so that the run goes on and writes every file it was asked
   for.  The returned function flushes standard output and gives the
   first failure. *)
let defer_stdout_failures () =
  let failure = ref None in
  let keep f =
    try f () with Sys_error message ->
      if Option.is_none !failure then failure := Some message
  in
  let out = Format.pp_get_formatter_out_functions Format.std_formatter () in
  Format.pp_set_formatter_out_functions Format.std_formatter
    { out with
      out_string = (fun s i n -> keep (fun () -> out.out_string s i n));
      out_flush = (fun () -> keep out.out_flush) };
  fun () ->
    keep (fun () ->
        Format.pp_print_flush Format.std_formatter ();
        flush stdout);
    !failure

(* Every run function takes a final [()], so the whole run happens inside
   [guard].  File I/O failures (unwritable output paths, unreadable replay
   artifacts, a failed write to standard output) and the libraries' input
   validation ([Invalid_argument]) exit with a one-line error and code
   124, never a backtrace. *)
let command name ~doc term =
  let guard run =
    let stdout_failure = defer_stdout_failures () in
    let result =
      try run () with Sys_error message | Invalid_argument message ->
        Error message
    in
    match stdout_failure () with
    | None -> result
    | Some message ->
      (* What standard output still buffers cannot be written: drop it,
         so that the flush at exit does not fail a second time. *)
      close_out_noerr stdout;
      Error message
  in
  Cmd.v (Cmd.info name ~doc) Term.(term_result' (const guard $ term))

let of_msg = function Ok _ as ok -> ok | Error (`Msg message) -> Error message

(* [flags] lists the flags a command accepts but cannot honour, each with
   whether it was given; the first one given is refused. *)
let refuse ~by ~hint flags =
  match List.find_opt snd flags with
  | Some (flag, _) ->
    Error (Printf.sprintf "%s does not support %s; drop it%s" by flag hint)
  | None -> Ok ()

let with_out_channel path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* [f] gets the channel of [path] when one is given. *)
let with_out_file path f =
  match path with
  | None -> f None
  | Some path -> with_out_channel path (fun oc -> f (Some oc))

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

let window_term =
  let doc =
    "Commutation window: pending events within WINDOW of the earliest \
     one are reorderable candidates."
  in
  Arg.(
    value
    & opt float Abe_check.Schedulers.default_window
    & info [ "window" ] ~docv:"WINDOW" ~doc)

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

(* ------------------------------------------------------------- ring *)

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
     | Some _ | None -> Error "retx success probability outside (0,1]")
  | _ -> Error (Printf.sprintf "unknown delay kind %S" kind)

let effective_a0 ~theta a0 n =
  match a0 with
  | Some a0 -> a0
  | None -> Abe_core.Analysis.recommended_a0 ~theta n

module Ring = struct
  type t = {
    n : int;  (* 0 for the commands that take --sizes instead of -n *)
    a0 : float option;
    theta : float;
    delta : float;
    gamma : float;
    drift : float;
    delay : string;
    fault : string;
    seed : int;
  }

  (* [n] is the -n default (no -n flag when absent); without [gamma] or
     [fault] the command has no such flag and the value is the default. *)
  let term ?n ?(gamma = true) ?(fault = true) () =
    let make n a0 theta delta gamma drift delay fault seed =
      { n; a0; theta; delta; gamma; drift; delay; fault; seed }
    in
    let n =
      match n with Some default -> n_term ~default | None -> Term.const 0
    in
    Term.(
      const make $ n $ a0_term $ theta_term $ delta_term
      $ (if gamma then gamma_term else const 0.)
      $ drift_term $ delay_kind_term
      $ (if fault then fault_term else const "none")
      $ seed_term)

  let a0 r = effective_a0 ~theta:r.theta r.a0 r.n

  let delay_and_clock r =
    let* dist = parse_delay ~delta:r.delta r.delay in
    let* clock =
      if r.drift < 1. then Error "drift ratio must be >= 1"
      else if r.drift = 1. then Ok Abe_net.Clock.perfect
      else
        let spread = sqrt r.drift in
        Ok (Abe_net.Clock.spec ~s_low:(1. /. spread) ~s_high:spread)
    in
    Ok (dist, clock)

  let config ?limit_time r =
    let* dist, clock = delay_and_clock r in
    let* fault =
      of_msg
        (Abe_net.Faults.of_string ~seed:r.seed ~n:r.n ~delta:r.delta r.fault)
    in
    let params = Abe_core.Params.make ~delta:r.delta ~gamma:r.gamma ~clock in
    let proc_delay =
      if r.gamma > 0. then Some (Abe_prob.Dist.exponential ~mean:r.gamma)
      else None
    in
    Ok
      (Abe_core.Runner.config ~n:r.n ~a0:(a0 r) ~params
         ~delay:(Abe_net.Delay_model.of_dist dist)
         ~proc_delay ~fault ?limit_time ())

  let real_config ~scale ~wall_timeout ~threads r =
    let* dist, clock = delay_and_clock r in
    let* () =
      if r.gamma > 0. then
        Error
          "--backend real does not emulate processing time; leave --gamma \
           at 0"
      else Ok ()
    in
    let params = Abe_core.Params.make ~delta:r.delta ~gamma:0. ~clock in
    let spawn_mode =
      if threads then Abe_substrate.Cluster.Threads
      else Abe_substrate.Cluster.Domains
    in
    Ok
      (Abe_substrate.Elect_real.config ~n:r.n ~a0:(a0 r) ~params
         ~delay:(Abe_net.Delay_model.of_dist dist)
         ~scale ~wall_timeout ~spawn_mode ())
end

(* ---------------------------------------------------------- observe *)

let write_metrics destination registry =
  let table = Abe_harness.Report.metrics_table registry in
  if destination = "-" then Abe_harness.Table.print table
  else
    with_out_channel destination (fun oc ->
        output_string oc (Abe_harness.Table.render table))

module Observe = struct
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

  let trace_term =
    let doc = "Print an event trace of the execution (last 10000 events)." in
    Arg.(value & flag & info [ "trace" ] ~doc)

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

  (* The flags given and a fresh recorder for each: [tracer] for --trace
     or --trace-out, [registry] for --metrics, [causal] for --span-out. *)
  type t = {
    metrics : string option;
    trace : bool;
    trace_out : string option;
    span_out : string option;
    telemetry_out : string option;
    tracer : Abe_sim.Trace.t option;
    registry : Abe_sim.Metrics.t option;
    causal : Abe_sim.Causal.t option;
  }

  (* --metrics always; each other flag only where the command declares
     it. *)
  let term ?(trace = false) ?(trace_out = false) ?(span_out = false)
      ?(telemetry_out = false) () =
    let make metrics trace trace_out span_out telemetry_out =
      let recorder flag create = Option.map (fun _ -> create ()) flag in
      { metrics; trace; trace_out; span_out; telemetry_out;
        tracer =
          (if trace || trace_out <> None then
             Some (Abe_sim.Trace.create ~enabled:true ())
           else None);
        registry = recorder metrics Abe_sim.Metrics.create;
        causal = recorder span_out Abe_sim.Causal.create }
    in
    let declared present term absent =
      if present then term else Term.const absent
    in
    Term.(
      const make $ metrics_term
      $ declared trace trace_term false
      $ declared trace_out trace_out_term None
      $ declared span_out span_out_term None
      $ declared telemetry_out telemetry_out_term None)

  (* Write each recording to its flag's destination: the trace, then the
     spans, then the metrics table. *)
  let finish ?name o =
    let export path recorder write =
      match path, recorder with
      | Some path, Some recorder ->
        with_out_channel path (fun oc -> write oc recorder)
      | _ -> ()
    in
    export o.trace_out o.tracer Abe_sim.Trace.output_jsonl;
    export o.span_out o.causal (Abe_sim.Causal.output_trace_json ?name);
    match o.metrics, o.registry with
    | Some destination, Some registry -> write_metrics destination registry
    | _ -> ()
end

(* -------------------------------------------------------- replicate *)

module Replicate = struct
  type tally = {
    mutable replicates : int;
    mutable events : int;
    mutable elapsed : float;
    mutable violations : int;
    mutable all_elected : bool;
  }

  (* [reps] replicates of [run] on [config p] at each point [p], in
     order: the results per point, and the tally over all of them.  A
     replicate gets a registry only with --metrics, and those
     per-replicate registries are merged in seed order into [metrics], so
     the aggregate is byte-identical for every --jobs value. *)
  let points ~name ~what ~driver ~metrics ~seed ~reps ~config run points =
    let t =
      { replicates = 0; events = 0; elapsed = 0.; violations = 0;
        all_elected = true }
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc, t)
      | p :: rest ->
        let* config = config p in
        let results, timing =
          match metrics with
          | None ->
            Abe_harness.Exp.replicate_timed ~driver ~base:seed ~count:reps
              (fun ~seed -> run config ~seed ~metrics:None)
          | Some into ->
            let results, merged, timing =
              Abe_harness.Exp.replicate_merged ~driver ~base:seed ~count:reps
                (fun ~seed ~metrics -> run config ~seed ~metrics:(Some metrics))
            in
            Abe_sim.Metrics.merge_into ~into merged;
            (results, timing)
        in
        t.replicates <- t.replicates + timing.Abe_harness.Driver.tasks;
        t.elapsed <- t.elapsed +. timing.Abe_harness.Driver.elapsed;
        List.iter
          (fun ((o : Abe_core.Runner.outcome), _) ->
             t.events <- t.events + o.executed_events;
             t.violations <- t.violations + List.length o.violations;
             if not o.elected then t.all_elected <- false)
          results;
        go ((p, results) :: acc) rest
    in
    if points = [] then
      Error (Printf.sprintf "%s: need at least one %s" name what)
    else go [] points

  (* The throughput line, and under --check the oracle line and
     verdict. *)
  let summary ~name ~label ~check ~driver t =
    let throughput =
      Abe_harness.Report.throughput
        ~label:(Fmt.str "%s (%a)" label Abe_harness.Driver.pp driver)
        ~replicates:t.replicates ~events:t.events ~elapsed:t.elapsed ()
    in
    Fmt.pr "%a@." Abe_harness.Report.pp_throughput throughput;
    if check then begin
      Fmt.pr "oracle: %d runs checked, %d violations@." t.replicates
        t.violations;
      if t.violations > 0 then
        Error
          (Printf.sprintf "%s: %d invariant violations detected" name
             t.violations)
      else Ok ()
    end
    else Ok ()

  (* One result of a harness-level comparison (baselines, sync), which
     runs no engine of its own to trace. *)
  type row = {
    kind : string;  (* trace entry kind *)
    line : string;  (* trace entry *)
    label : string;  (* span label *)
    length : float;  (* span end; the span starts at 0 *)
    counters : (string * int) list;
    gauges : (string * float) list;
  }

  (* The exported trace has one entry per row, the span DAG one process
     span per row on its own track, the registry each row's counters and
     gauges. *)
  let export (o : Observe.t) rows =
    List.iteri
      (fun i r ->
         Option.iter
           (fun tr ->
              Abe_sim.Trace.record tr ~time:0. ~kind:r.kind
                ~source:Abe_sim.Trace.Sim r.line)
           o.tracer;
         Option.iter
           (fun c ->
              ignore
                (Abe_sim.Causal.process c ~node:i ~label:r.label ~t_begin:0.
                   ~t_busy:0. ~t_end:r.length ()))
           o.causal;
         Option.iter
           (fun m ->
              List.iter
                (fun (name, by) ->
                   Abe_sim.Metrics.incr ~by (Abe_sim.Metrics.counter m name))
                r.counters;
              List.iter
                (fun (name, value) ->
                   Abe_sim.Metrics.set_gauge (Abe_sim.Metrics.gauge m name)
                     value)
                r.gauges)
           o.registry)
      rows;
    Observe.finish o
end
