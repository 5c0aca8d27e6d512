(* abe-sim: command-line front end for the ABE network library.

   Subcommands:
     elect      one election on an anonymous unidirectional ABE ring
     parity     gate the real backend against the simulator
     saturate   many concurrent real-backend elections
     sweep      ring-size sweep of average message/time complexity
     baselines  Itai-Rodeh / Chang-Roberts / Dolev-Klawe-Rodeh
     sync       the Theorem-1 synchroniser comparison
     metrics    replicated election metrics in one table
     critpath   critical-path attribution across ring sizes
     churn      election success probability under dynamic-topology churn
     family     the alpha/beta/gamma synchroniser family
     dist       inspect a delay distribution (analytic vs sampled moments)
     explore    schedule search for invariant violations
     replay     re-execute a repro artifact
     certify    certify the synchronisers over explored schedules
     reproduce  the paper's experiment suite and claim scoreboard
                (experiments.ml)

   Every subcommand is declared the same way (see cli.ml): a run function
   ending in [()] applied to its terms, wrapped by [command]. *)

open Cmdliner
open Cli

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

(* The replicates of Replicate.points.  [election_replicate] is one plain
   election; [critpath_replicate] records it with a fresh span recorder
   and analyzes it inside the replicate: the outcome and its
   critical-path breakdown, recorded into the replicate's registry when
   there is one. *)
let election_replicate ~check config ~seed ~metrics =
  (Abe_core.Runner.run ~check ?metrics ~seed config, ())

let critpath_replicate ~check config ~seed ~metrics =
  let causal = Abe_sim.Causal.create () in
  let outcome = Abe_core.Runner.run ~check ?metrics ~causal ~seed config in
  let breakdown = Abe_sim.Critpath.analyze causal in
  Option.iter
    (fun m -> Option.iter (Abe_sim.Critpath.record m) breakdown)
    metrics;
  (outcome, breakdown)

(* --------------------------------------------------------------- elect *)

let elect_command =
  let announce_term =
    let doc =
      "After the election, run the leader-announcement lap (termination      detection, +n messages)."
    in
    Arg.(value & flag & info [ "announce" ] ~doc)
  in
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
  in
  let run (ring : Ring.t) announce check jobs (obs : Observe.t) backend scale
      wall_timeout threads () =
    (* A single election is inherently sequential; the flag is validated
       and accepted here so every replicated subcommand family shares one
       interface. *)
    ignore (Abe_harness.Driver.of_jobs jobs);
    let seed = ring.seed in
    match backend with
    | `Real ->
      let* () =
        refuse ~by:"--backend real" ~hint:" or use --backend sim"
          [ ("--trace", obs.trace);
            ("--trace-out", obs.trace_out <> None);
            ("--announce", announce);
            ("--check", check);
            ("--fault", ring.fault <> "none") ]
      in
      let* config = Ring.real_config ~scale ~wall_timeout ~threads ring in
      let collector =
        Option.map
          (fun _ -> Abe_substrate.Telemetry.Collector.create ~n:ring.n)
          obs.span_out
      in
      let* outcome =
        with_out_file obs.telemetry_out (fun telemetry ->
            let snapshots =
              Option.map
                (fun oc ->
                   Abe_substrate.Telemetry.Snapshot.create oc ~interval:0.25)
                telemetry
            in
            Abe_substrate.Elect_real.run ?metrics:obs.registry
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
      Observe.finish ~name:"abe-real" { obs with causal };
      if outcome.Abe_substrate.Elect_real.elected then Ok ()
      else Error "no leader elected within the wall-clock budget"
    | `Sim ->
      let* () =
        refuse ~by:"--backend sim" ~hint:" or use --backend real"
          [ ("--telemetry-out", obs.telemetry_out <> None) ]
      in
      let* config = Ring.config ring in
      let trace = obs.tracer and metrics = obs.registry in
      let causal = obs.causal in
      let outcome, lap =
        if announce then
          let lap =
            Abe_core.Runner.announce ?trace ?metrics ?causal ~check ~seed config
          in
          (lap.Abe_core.Runner.election, Some lap)
        else
          ( Abe_core.Runner.run ?trace ?metrics ?causal ~check ~seed config,
            None )
      in
      if obs.trace then
        Option.iter (fun tr -> Fmt.pr "%a@." Abe_sim.Trace.pp tr) trace;
      (match lap with
       | Some lap -> Fmt.pr "%a@." Abe_core.Runner.pp_announced lap
       | None -> Fmt.pr "%a@." Abe_core.Runner.pp_outcome outcome);
      print_critpath causal;
      Observe.finish obs;
      let* () =
        if check then
          report_check
            ~label:(if announce then "announce" else "elect")
            outcome.Abe_core.Runner.violations
        else Ok ()
      in
      let elected = outcome.Abe_core.Runner.elected in
      match outcome.Abe_core.Runner.stalled, lap with
      | _, Some { Abe_core.Runner.all_informed = true; _ } -> Ok ()
      | _, None when elected -> Ok ()
      | Some reason, _ ->
        Error
          ((if elected then "announcement impossible: "
            else "no leader possible: ")
           ^ reason)
      | None, Some _ -> Error "announcement did not complete within the budget"
      | None, None -> Error "no leader elected within the simulation budget"
  in
  command "elect"
    ~doc:"Run one leader election on an anonymous unidirectional ABE ring"
    Term.(
      const run $ Ring.term ~n:16 () $ announce_term $ check_term $ jobs_term
      $ Observe.term ~trace:true ~trace_out:true ~span_out:true
          ~telemetry_out:true ()
      $ backend_term $ scale_term ~default:0.005 $ wall_timeout_term
      $ threads_term)

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
  let run (ring : Ring.t) runs scale wall_timeout threads jobs verbose json_out
      fidelity_tolerance (obs : Observe.t) () =
    let n = ring.n and seed = ring.seed in
    let* () =
      refuse ~by:"parity"
        ~hint:" (use elect --backend sim|real for per-run observability)"
        [ ("--metrics", obs.metrics <> None);
          ("--trace-out", obs.trace_out <> None);
          ("--span-out", obs.span_out <> None);
          ("--telemetry-out", obs.telemetry_out <> None) ]
    in
    let* () =
      if runs < 2 then Error "parity: --runs must be at least 2" else Ok ()
    in
    let driver = Abe_harness.Driver.of_jobs jobs in
    let* sim_config = Ring.config ring in
    let* real_config = Ring.real_config ~scale ~wall_timeout ~threads ring in
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
  command "parity"
    ~doc:
      "Gate the real backend against the simulator: same leader at a \
       fixed seed, and elected_at / message-count distributions within \
       each other's CI95"
    Term.(
      const run $ Ring.term ~n:4 ~gamma:false ~fault:false () $ runs_term
      $ scale_term ~default:0.002 $ wall_timeout_term $ threads_term
      $ jobs_term $ verbose_term $ json_term $ fidelity_tolerance_term
      $ Observe.term ~trace_out:true ~span_out:true ~telemetry_out:true ())

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
      (obs : Observe.t) () =
    let* () =
      refuse ~by:"saturate"
        ~hint:
          " (--telemetry-out streams live progress, elect --backend real \
           traces single runs)"
        [ ("--metrics", obs.metrics <> None);
          ("--trace-out", obs.trace_out <> None);
          ("--span-out", obs.span_out <> None) ]
    in
    let* report =
      with_out_file obs.telemetry_out (fun telemetry_out ->
          Abe_substrate.Saturate.run ?telemetry_out
            ~a0:(effective_a0 ~theta a0 n) ~scale ~wall_timeout ~n ~elections
            ~concurrency ~seed ())
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
  command "saturate"
    ~doc:
      "Drive many concurrent real-backend elections and record sustained \
       throughput, tail latency, and fd hygiene"
    Term.(
      const run $ n_term ~default:4 $ a0_term $ theta_term $ seed_term
      $ elections_term $ concurrency_term $ scale_term ~default:0.005
      $ wall_timeout_term $ out_term
      $ Observe.term ~trace_out:true ~span_out:true ~telemetry_out:true ())

(* --------------------------------------------------------------- sweep *)

let sizes_term ~default =
  let doc = "Comma-separated ring sizes." in
  Arg.(value & opt (list int) default & info [ "sizes" ] ~docv:"N,N,..." ~doc)

let reps_term ~default =
  let doc = "Replications per ring size." in
  Arg.(value & opt int default & info [ "reps" ] ~docv:"R" ~doc)

let sweep_command =
  let run sizes reps (ring : Ring.t) check jobs (obs : Observe.t) () =
    let driver = Abe_harness.Driver.of_jobs jobs in
    let* rows, tally =
      Replicate.points ~name:"sweep" ~what:"size" ~driver
        ~metrics:obs.registry ~seed:ring.seed ~reps
        ~config:(fun n -> Ring.config { ring with n })
        (election_replicate ~check) sizes
    in
    let table =
      Abe_harness.Table.create ~title:"ABE election sweep"
        ~columns:[ "n"; "messages"; "messages/n"; "time"; "time/n"; "elected" ]
    in
    List.iter
      (fun (n, results) ->
         let runs = List.map fst results in
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
             Printf.sprintf "%.0f%%" (100. *. ok) ])
      rows;
    Abe_harness.Table.print table;
    Observe.finish obs;
    Replicate.summary ~name:"sweep" ~label:"election sweep" ~check ~driver
      tally
  in
  command "sweep" ~doc:"Average complexity of the election across ring sizes"
    Term.(
      const run $ sizes_term ~default:[ 8; 16; 32; 64; 128 ]
      $ reps_term ~default:30 $ Ring.term () $ check_term $ jobs_term
      $ Observe.term ())

(* ----------------------------------------------------------- baselines *)

let baselines_command =
  let algorithm_term =
    let doc = "Algorithm: ir (Itai-Rodeh), cr (Chang-Roberts), dkr \
               (Dolev-Klawe-Rodeh) or all." in
    Arg.(value & opt string "all" & info [ "algorithm" ] ~docv:"ALG" ~doc)
  in
  let run n algorithm seed check jobs obs () =
    (* One row per algorithm: its --algorithm key (also its metrics key),
       its report label, its run, and whether it reports phases. *)
    let rows =
      let open Abe_election in
      [ ("ir", "itai-rodeh", Itai_rodeh.run, true);
        ("cr", "chang-roberts", Chang_roberts.run, false);
        ("dkr", "dolev-klawe-rodeh", Dolev_klawe_rodeh.run, true) ]
    in
    (* [show] returns the exported row (the report line, and the counters
       the run contributes to --metrics) and the unique-leader verdict
       ([elected] with [leader_count = 1]) for --check. *)
    let show (key, label, run, phases) =
      let o : Abe_election.Sync_baseline.outcome = run ~seed ~n () in
      let counter name value = ("baseline/" ^ key ^ "/" ^ name, value) in
      ( { Replicate.kind = "outcome";
          line =
            Fmt.str "%-19s%a" (label ^ ":")
              (Abe_election.Sync_baseline.pp_outcome ~phases)
              o;
          label;
          length = float_of_int o.rounds;
          counters =
            [ counter "messages" o.messages; counter "rounds" o.rounds ]
            @ (if phases then [ counter "phases" o.phases ] else []);
          gauges = [] },
        o.elected && o.leader_count = 1 )
    in
    let driver = Abe_harness.Driver.of_jobs jobs in
    let* selected =
      match algorithm with
      | "all" -> Ok rows
      | key ->
        (match List.filter (fun (k, _, _, _) -> k = key) rows with
         | [] -> Error (Printf.sprintf "unknown algorithm %S" key)
         | matched -> Ok matched)
    in
    (* The algorithms are independent runs: fan them out over the driver,
       then print in the fixed ir/cr/dkr order.  The baseline runners are
       round-driven, not engine-driven, so the exports record
       harness-level outcomes: one trace entry per algorithm, in report
       order, and one process span per algorithm spanning [0, rounds]. *)
    let results = Abe_harness.Driver.map driver show selected in
    List.iter (fun (row, _) -> Fmt.pr "%s@." row.Replicate.line) results;
    Replicate.export obs (List.map fst results);
    if check then begin
      let failed = List.filter (fun (_, ok) -> not ok) results in
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
  command "baselines" ~doc:"Run the baseline election algorithms"
    Term.(
      const run $ n_term ~default:32 $ algorithm_term $ seed_term $ check_term
      $ jobs_term $ Observe.term ~trace_out:true ~span_out:true ())

(* ---------------------------------------------------------------- sync *)

let sync_command =
  let reps_term =
    let doc = "Replications for the ABD-synchroniser variants." in
    Arg.(value & opt int 20 & info [ "reps" ] ~docv:"R" ~doc)
  in
  let run n delta reps seed jobs obs () =
    if n < 4 then Error "n must be >= 4"
    else begin
      let module M = Abe_synchronizer.Measure in
      let driver = Abe_harness.Driver.of_jobs jobs in
      let report =
        M.bfs_comparison ~driver ~replications:reps ~seed ~n ~delta ()
      in
      Fmt.pr "%a@." M.pp_report report;
      (* The comparison aggregates replicated engine runs, so the exports
         record the harness-level verdicts: one trace entry per variant,
         and one span per variant whose length is the total message
         volume (payload + control). *)
      let row key (v : M.variant_result) =
        let name suffix = Printf.sprintf "sync/%s/%s" key suffix in
        { Replicate.kind = "variant";
          line =
            Printf.sprintf
              "%s: payload=%d control=%d control/pulse=%.3f violations=%d \
               correct=%b"
              v.label v.payload_messages v.control_messages
              v.control_per_pulse v.violations v.correct;
          label = v.label;
          length = float_of_int (v.payload_messages + v.control_messages);
          counters =
            [ (name "payload_messages", v.payload_messages);
              (name "control_messages", v.control_messages);
              (name "violations", v.violations) ];
          gauges = [ (name "control_per_pulse", v.control_per_pulse) ] }
      in
      Replicate.export obs
        [ row "alpha_on_abe" report.M.alpha_on_abe;
          row "beta_on_abe" report.M.beta_on_abe;
          row "abd_on_abd" report.M.abd_on_abd;
          row "abd_on_abe" report.M.abd_on_abe ];
      Ok ()
    end
  in
  command "sync"
    ~doc:"Theorem 1: synchroniser cost and correctness on ABD vs ABE"
    Term.(
      const run $ n_term ~default:32 $ delta_term $ reps_term $ seed_term
      $ jobs_term $ Observe.term ~trace_out:true ~span_out:true ())

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
  let run (ring : Ring.t) reps check jobs out () =
    let driver = Abe_harness.Driver.of_jobs jobs in
    let metrics = Abe_sim.Metrics.create () in
    let* _, tally =
      Replicate.points ~name:"metrics" ~what:"size" ~driver
        ~metrics:(Some metrics) ~seed:ring.seed ~reps
        ~config:(fun _ -> Ring.config ring)
        (election_replicate ~check) [ ring.n ]
    in
    write_metrics (Option.value ~default:"-" out) metrics;
    if check && tally.violations > 0 then
      Error
        (Printf.sprintf "metrics: %d invariant violations detected"
           tally.violations)
    else if tally.all_elected then Ok ()
    else Error "metrics: not every replicate elected a leader"
  in
  command "metrics"
    ~doc:
      "Aggregate election metrics over replicated runs into one summary \
       table (byte-identical for every --jobs value)"
    Term.(
      const run $ Ring.term ~n:16 () $ reps_term $ check_term $ jobs_term
      $ out_term)

(* ------------------------------------------------------------ critpath *)

let critpath_command =
  let run sizes reps (ring : Ring.t) jobs (obs : Observe.t) () =
    let driver = Abe_harness.Driver.of_jobs jobs in
    (* The table and the merged critpath/* histograms are byte-identical
       for every --jobs. *)
    let* rows, tally =
      Replicate.points ~name:"critpath" ~what:"size" ~driver
        ~metrics:obs.registry ~seed:ring.seed ~reps
        ~config:(fun n -> Ring.config { ring with n })
        (critpath_replicate ~check:false) sizes
    in
    Abe_harness.Table.print
      (Abe_harness.Report.critpath_table
         (List.map
            (fun (n, results) -> (n, List.filter_map snd results))
            rows));
    Observe.finish { obs with causal = None };
    (* --span-out exports the DAG of the first replicate of the first size,
       after the metrics (re-run with a fresh recorder; determinism makes
       it the same run). *)
    let* () =
      match obs.causal with
      | None -> Ok ()
      | Some causal ->
        let* config = Ring.config { ring with n = List.hd sizes } in
        let seed = List.hd (Abe_harness.Exp.seeds ~base:ring.seed ~count:1) in
        ignore (Abe_core.Runner.run ~causal ~seed config);
        Observe.finish { obs with registry = None };
        Ok ()
    in
    if tally.all_elected then Ok ()
    else Error "critpath: not every replicate elected a leader"
  in
  command "critpath"
    ~doc:
      "Critical-path analysis of the election across ring sizes: attribute \
       the elected-at time to link delay, processing and idle wait along \
       the happens-before critical path (byte-identical for every --jobs \
       value)"
    Term.(
      const run $ sizes_term ~default:[ 8; 16; 32; 64 ] $ reps_term ~default:5
      $ Ring.term ~fault:false () $ jobs_term $ Observe.term ~span_out:true ())

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
  let run rates reps limit (ring : Ring.t) check jobs (obs : Observe.t) () =
    let driver = Abe_harness.Driver.of_jobs jobs in
    let limit_time =
      match limit with
      | Some t -> t
      | None -> 500. *. float_of_int ring.n *. ring.delta
    in
    let* rows, tally =
      Replicate.points ~name:"churn" ~what:"rate" ~driver
        ~metrics:obs.registry ~seed:ring.seed ~reps
        ~config:(fun rate ->
            let fault = Printf.sprintf "churn(%g)" rate in
            Ring.config ~limit_time { ring with fault })
        (critpath_replicate ~check) rates
    in
    Abe_harness.Table.print
      (Abe_harness.Report.churn_table
         (List.map
            (fun (rate, results) ->
               ( rate,
                 reps,
                 List.filter_map
                   (fun (o, b) -> if o.Abe_core.Runner.elected then b else None)
                   results ))
            rows));
    Observe.finish obs;
    Replicate.summary ~name:"churn" ~label:"churn sweep" ~check ~driver tally
  in
  command "churn"
    ~doc:
      "Election success probability and completion time under dynamic \
       churn: links flap and nodes crash-and-rejoin at each given rate, \
       with critical-path attribution of the successful runs \
       (byte-identical for every --jobs value)"
    Term.(
      const run $ rates_term $ reps_term $ limit_term
      $ Ring.term ~n:8 ~fault:false () $ check_term $ jobs_term
      $ Observe.term ())

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
  let run delta delay_kind samples histogram seed () =
    let* dist = parse_delay ~delta delay_kind in
    let* () =
      if samples < 1 then Error "dist: --samples must be at least 1" else Ok ()
    in
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
  command "dist" ~doc:"Inspect a delay distribution (analytic vs sampled)"
    Term.(
      const run $ delta_term $ delay_kind_term $ samples_term $ histogram_term
      $ seed_term)

(* -------------------------------------------------------------- family *)

let family_command =
  let pulses_term =
    let doc = "Number of synchronous pulses to simulate." in
    Arg.(value & opt (some int) None & info [ "pulses" ] ~docv:"P" ~doc)
  in
  let run n delta pulses seed () =
    if n < 4 then Error "n must be >= 4"
    else begin
      let open Abe_synchronizer.Measure in
      let members =
        family ~seed ~gamma_seed:(fun radius -> seed + 3 + radius)
          ~topology:(Abe_net.Topology.bidirectional_ring n)
          ~delay:(Abe_net.Delay_model.abe_exponential ~delta)
          ~pulses:(Option.value ~default:((n / 2) + 2) pulses)
          ~radii:[ 0; 1; 2 ] ()
      in
      let table =
        Abe_harness.Table.create
          ~title:
            (Printf.sprintf
               "synchroniser family, BFS on the bidirectional ring (n=%d)" n)
          ~columns:[ "synchroniser"; "control/pulse"; "correct" ]
      in
      List.iter
        (fun m ->
           Abe_harness.Table.add_row table
             [ (match m.kind with
                | Gamma radius ->
                  Printf.sprintf "gamma r=%d (%d clusters)" radius
                    m.run.clusters
                | kind -> Abe_synchronizer.Synchronizer.name kind);
               Abe_harness.Table.cell_float m.run.control_per_pulse;
               Abe_harness.Table.cell_bool m.correct ])
        members;
      Abe_harness.Table.print table;
      Ok ()
    end
  in
  command "family"
    ~doc:"Compare the alpha/beta/gamma synchroniser family on an ABE ring"
    Term.(const run $ n_term ~default:32 $ delta_term $ pulses_term $ seed_term)

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
  let run (ring : Ring.t) jobs (obs : Observe.t) fuzz exhaustive quantile por
      liveness expect_elects budget time_budget window flip tail mutate
      repro_out expect () =
    let driver = Abe_harness.Driver.of_jobs jobs in
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
    let* config = Ring.config ring in
    let report =
      Abe_check.Explore.run ?metrics:obs.registry ~driver ~window ~budget
        ?time_budget ~forwarding ?liveness ~mode ~seed:ring.seed config
    in
    Fmt.pr "%a@." Abe_check.Explore.pp_report report;
    Option.iter
      (fun path ->
         match report.Abe_check.Explore.finding with
         | None -> ()
         | Some finding ->
           let artifact =
             Abe_check.Explore.to_repro
               ~mode_name:(Abe_check.Explore.mode_name mode) ~seed:ring.seed
               ~a0:(Ring.a0 ring) ~delta:ring.delta ~gamma:ring.gamma
               ~drift:ring.drift ~delay:ring.delay ~fault:ring.fault ~window
               ~tail:(match mode with
                   | Abe_check.Explore.Quantile { tail } -> tail
                   | _ -> 0.)
               ~forwarding
               ~fairness:(Option.value liveness ~default:0)
               ~n:ring.n finding
           in
           Abe_check.Repro.to_file path artifact;
           Fmt.pr "repro artifact written to %s@." path)
      repro_out;
    Observe.finish obs;
    match (expect, report.Abe_check.Explore.finding) with
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
           f.Abe_check.Explore.invariant)
  in
  command "explore"
    ~doc:
      "Search delivery schedules (fuzz / bounded-exhaustive / \
       delay-quantile adversary) for invariant violations; shrink and \
       export any counterexample as a replayable repro artifact"
    Term.(
      const run $ Ring.term ~n:6 () $ jobs_term $ Observe.term () $ fuzz_term
      $ exhaustive_term $ quantile_term $ por_term $ liveness_term
      $ expect_elects_term $ budget_term $ time_budget_term $ window_term
      $ flip_term $ tail_term $ mutate_term $ repro_out_term $ expect_term)

(* -------------------------------------------------------------- replay *)

let replay_command =
  let file_term =
    let doc = "Repro artifact (JSONL) produced by $(b,abe-sim explore --repro-out)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let seed_override_term =
    let doc =
      "Override the artifact's recorded seed (the violation is then not \
       expected to reproduce; useful for probing how schedule-dependent it \
       is)."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run file seed_override jobs (obs : Observe.t) () =
    (* A replay is one deterministic execution; the flag is validated for
       interface uniformity and because CI diffs --jobs 1 vs --jobs N. *)
    ignore (Abe_harness.Driver.of_jobs jobs);
    let* artifact = Abe_check.Repro.of_file file in
    let artifact =
      match seed_override with
      | None -> artifact
      | Some seed -> { artifact with Abe_check.Repro.seed }
    in
    let* config =
      Ring.config
        { Ring.n = artifact.n; a0 = Some artifact.a0; theta = 1.;
          delta = artifact.delta; gamma = artifact.gamma;
          drift = artifact.drift; delay = artifact.delay;
          fault = artifact.fault; seed = artifact.seed }
    in
    Fmt.pr "%a@." Abe_check.Repro.pp artifact;
    let* outcome =
      Abe_check.Explore.replay_run ?trace:obs.tracer ?metrics:obs.registry
        ~artifact config
    in
    let violations = outcome.Abe_core.Runner.violations in
    List.iter (fun v -> Fmt.pr "%a@." Abe_sim.Oracle.pp_violation v) violations;
    Observe.finish obs;
    let invariant = artifact.invariant in
    if
      List.exists (fun v -> v.Abe_sim.Oracle.invariant = invariant) violations
    then begin
      Fmt.pr "replay: reproduced invariant %S (%d violation%s)@." invariant
        (List.length violations)
        (if List.length violations = 1 then "" else "s");
      Ok ()
    end
    else
      Error (Printf.sprintf "replay: invariant %S was not reproduced" invariant)
  in
  command "replay"
    ~doc:
      "Re-execute a repro artifact byte-identically and check the \
       recorded invariant violation reproduces"
    Term.(
      const run $ file_term $ seed_override_term $ jobs_term
      $ Observe.term ~trace_out:true ())

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
  let run n seed variant pulses radius budget time_budget no_por window () =
    let module S = Abe_synchronizer.Synchronizer in
    let* () =
      if radius < 0 then Error "certify: --radius must be >= 0" else Ok ()
    in
    (* The ABD window is sized for the contrasting 2δ hard bound, as in
       Measure. *)
    let all =
      S.[ Alpha; Beta; Gamma radius; Abd (required_window ~hard_bound:2.0) ]
    in
    let* kinds =
      match
        List.filter (fun k -> variant = "all" || S.name k = variant) all
      with
      | [] ->
        Error
          (Printf.sprintf
             "unknown synchroniser %S (expected alpha, beta, gamma or abd)"
             variant)
      | kinds -> Ok kinds
    in
    let reports =
      List.map
        (Abe_check.Certify.run ~window ~budget ?time_budget ~por:(not no_por)
           ?pulses ~seed ~n)
        kinds
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
              (List.map (fun r -> r.Abe_check.Certify.synchroniser) failed)))
  in
  command "certify"
    ~doc:
      "Certify the synchroniser family's safety invariants (round \
       monotonicity, bounded arrival skew) over every explored delivery \
       schedule"
    Term.(
      const run $ n_term ~default:3 $ seed_term $ variant_term $ pulses_term
      $ radius_term $ budget_term $ time_budget_term $ no_por_term
      $ window_term)

let () =
  let doc = "asynchronous bounded expected delay (ABE) network simulator" in
  let info = Cmd.info "abe-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ elect_command; parity_command; saturate_command; sweep_command;
            baselines_command; sync_command; metrics_command;
            critpath_command; churn_command; family_command; dist_command;
            explore_command; replay_command; certify_command;
            Experiments.command ]))
