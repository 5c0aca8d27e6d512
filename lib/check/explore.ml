(* Schedule exploration over the ABE election: a mini model-checker.

   All three modes re-execute the simulation from scratch per schedule
   (stateless search): events are closures, so there is no state to
   snapshot — a schedule is identified by its decision sequence and
   re-running it is cheap.  Determinism of Runner.run in (seed, schedule)
   makes every finding replayable. *)

type mode =
  | Fuzz of { flip : float }
  | Exhaustive of { por : bool }
  | Quantile of { tail : float }

type finding = {
  trial : int;
  invariant : string;
  violations : Abe_sim.Oracle.violation list;
  deviations : Schedulers.deviations;
  slow_links : int list;
  shrink_probes : int;
}

type report = {
  mode : mode;
  schedules : int;
  pruned : int;
  coverage : Por.coverage option;
  finding : finding option;
}

let pp_mode ppf = function
  | Fuzz { flip } -> Fmt.pf ppf "fuzz(flip=%g)" flip
  | Exhaustive { por } ->
    Fmt.string ppf (if por then "exhaustive+por" else "exhaustive")
  | Quantile { tail } -> Fmt.pf ppf "quantile(tail=%g)" tail

let mode_name = function
  | Fuzz _ -> "fuzz"
  | Exhaustive _ -> "exhaustive"
  | Quantile _ -> "quantile"

let forwarding_of_string = function
  | "paper" -> Ok Abe_core.Runner.Paper
  | "stale-max" -> Ok Abe_core.Runner.Stale_max
  | "drop-token" -> Ok Abe_core.Runner.Drop_token
  | other -> Error (Printf.sprintf "unknown forwarding rule %S" other)

let string_of_forwarding = function
  | Abe_core.Runner.Paper -> "paper"
  | Abe_core.Runner.Stale_max -> "stale-max"
  | Abe_core.Runner.Drop_token -> "drop-token"

(* ------------------------------------------------- slow-link override *)

(* Force the listed links to the tail of their delay model: replace each
   one's distribution by the deterministic [tail * expected_delay].  The
   record update deliberately bypasses Runner.config's admissibility
   validation — the adversary's whole point is to push chosen links past
   the advertised delta and watch whether any invariant (as opposed to a
   performance bound) depends on it. *)
let apply_slow_links ~tail links (config : Abe_core.Runner.config) =
  if links = [] then config
  else begin
    let base =
      match config.Abe_core.Runner.link_delays with
      | Some models -> Array.copy models
      | None -> Array.make config.Abe_core.Runner.n config.Abe_core.Runner.delay
    in
    List.iter
      (fun l ->
         if l < 0 || l >= Array.length base then
           invalid_arg (Printf.sprintf "Explore: slow link %d out of range" l);
         let slowed =
           tail *. Abe_net.Delay_model.expected_delay base.(l)
         in
         base.(l) <- Abe_net.Delay_model.of_dist (Abe_prob.Dist.deterministic slowed))
      links;
    Abe_core.Runner.with_link_delays config base
  end

(* ------------------------------------------------------------- trials *)

(* Liveness checking: a fairness bound of [liveness] engine events per
   schedule.  Under the bound a fair schedule of the ABE election elects
   (ticks fire forever, so a run that has not elected when the bound
   lands is stalled or circulating uselessly), and a bounded non-electing
   schedule becomes a structured "liveness-election" violation with the
   same shrink/repro treatment as a safety violation.  [liveness <= 0]
   turns the check off.  A run cut short by the wall deadline proves
   nothing about liveness and is never reported.

   [run] clamps once and hands the clamped configuration to every mode and
   to the shrinker, so all schedules of one exploration share the
   configuration's pool of networks (a clamped copy has a pool of its
   own). *)

let clamp_fairness ~liveness (config : Abe_core.Runner.config) =
  if liveness <= 0 then config
  else
    Abe_core.Runner.with_limit_events config
      (min config.Abe_core.Runner.limit_events liveness)

let liveness_violation ~liveness (o : Abe_core.Runner.outcome) =
  let detail =
    match o.Abe_core.Runner.stalled with
    | Some reason ->
      Printf.sprintf "no leader elected: %s (fairness bound %d, %d events \
                      executed)"
        reason liveness o.Abe_core.Runner.executed_events
    | None ->
      Printf.sprintf
        "no leader elected within the fairness bound (%d, %d events executed)"
        liveness o.Abe_core.Runner.executed_events
  in
  { Abe_sim.Oracle.time = 0.; invariant = "liveness-election";
    subject = "network"; detail }

let outcome_violations ~liveness (o : Abe_core.Runner.outcome) =
  let violations = o.Abe_core.Runner.violations in
  if
    liveness > 0
    && (not o.Abe_core.Runner.elected)
    && o.Abe_core.Runner.engine_outcome <> Abe_sim.Engine.Hit_wall_deadline
  then violations @ [ liveness_violation ~liveness o ]
  else violations

let violations_of ~liveness ~wall_deadline ~forwarding ~scheduler ~seed config =
  let o =
    Abe_core.Runner.run ~scheduler ~check:true ~forwarding ~wall_deadline ~seed
      config
  in
  outcome_violations ~liveness o

let same_invariant invariant violations =
  List.exists (fun v -> v.Abe_sim.Oracle.invariant = invariant) violations

(* Shrink a counterexample: ddmin the deviation list (and, for the
   quantile adversary, the slow-link set), validating each probe by full
   re-execution.  The final violation list comes from one last run of the
   minimal repro, so it is exactly what `abe-sim replay` will print.
   Probes run without a wall deadline — a deadline hit mid-shrink would
   make probes spuriously pass and corrupt the minimal repro — but under
   the fairness clamp of [config], so each one is bounded. *)
let shrink_finding ~window ~forwarding ~liveness ~seed ~config ~trial
    ~invariant ~deviations ~slow_links ~tail =
  let run_with ~deviations ~slow_links =
    let config = apply_slow_links ~tail slow_links config in
    violations_of ~liveness ~wall_deadline:infinity ~forwarding
      ~scheduler:(Schedulers.replay ~window deviations)
      ~seed config
  in
  let deviations, dev_probes =
    Shrink.ddmin
      ~test:(fun ds -> same_invariant invariant (run_with ~deviations:ds ~slow_links))
      deviations
  in
  let slow_links, link_probes =
    Shrink.ddmin
      ~test:(fun ls -> same_invariant invariant (run_with ~deviations ~slow_links:ls))
      slow_links
  in
  let violations = run_with ~deviations ~slow_links in
  { trial; invariant; violations; deviations; slow_links;
    shrink_probes = dev_probes + link_probes }

let first_invariant violations =
  match violations with
  | [] -> invalid_arg "Explore: no violation to report"
  | v :: _ -> v.Abe_sim.Oracle.invariant

(* --------------------------------------------------------------- fuzz *)

(* Trials are independent, so they fan out over the driver in fixed
   batches of [batch_size].  The batch size is a constant — NOT derived
   from the worker count — and batch results are scanned in trial order,
   so the first finding (and therefore every output byte) is identical
   for every --jobs value. *)
let batch_size = 32

let fuzz_seed ~seed i = (seed + ((i + 1) * 999_983)) land max_int

let run_fuzz ~driver ~window ~budget ~deadline ~forwarding ~liveness ~flip
    ~seed config =
  let schedules = ref 0 in
  let finding = ref None in
  let trial i =
    let scheduler, recorded =
      Schedulers.fuzz ~window ~flip ~seed:(fuzz_seed ~seed i) ()
    in
    let violations =
      violations_of ~liveness ~wall_deadline:deadline ~forwarding ~scheduler
        ~seed config
    in
    (i, recorded (), violations)
  in
  let rec batches from =
    if !finding <> None || from >= budget || Unix.gettimeofday () > deadline
    then ()
    else begin
      let upto = min budget (from + batch_size) in
      let trials = List.init (upto - from) (fun k -> from + k) in
      let results = Abe_harness.Driver.map driver trial trials in
      schedules := !schedules + List.length results;
      List.iter
        (fun (i, deviations, violations) ->
           if !finding = None && violations <> [] then
             finding := Some (i, deviations, violations))
        results;
      batches upto
    end
  in
  batches 0;
  let finding =
    Option.map
      (fun (trial, deviations, violations) ->
         shrink_finding ~window ~forwarding ~liveness ~seed ~config ~trial
           ~invariant:(first_invariant violations)
           ~deviations ~slow_links:[] ~tail:0.)
      !finding
  in
  (!schedules, 0, finding, None)

(* --------------------------------------------------------- exhaustive *)

(* The shared DFS of {!Por.search}, with the election runner's verdict. *)
let run_exhaustive ~por ~window ~budget ~deadline ~forwarding ~liveness ~seed
    config =
  let r =
    Por.search ~por ~window ~budget ~deadline (fun scheduler ->
        violations_of ~liveness ~wall_deadline:deadline ~forwarding ~scheduler
          ~seed config)
  in
  let finding =
    Option.map
      (fun (trial, deviations, violations) ->
         shrink_finding ~window ~forwarding ~liveness ~seed ~config ~trial
           ~invariant:(first_invariant violations)
           ~deviations ~slow_links:[] ~tail:0.)
      r.Por.finding
  in
  (r.Por.schedules, r.Por.pruned, finding, Some r.Por.coverage)

(* ----------------------------------------------------------- quantile *)

(* Adversarial delay placement: force subsets of links to the [tail]
   quantile of their delay model, smallest subsets first.  Runs execute
   in scheduler mode (with the identity schedule) so their artifacts
   share the replay semantics of the other modes. *)
let run_quantile ~window ~budget ~deadline ~forwarding ~liveness ~tail ~seed
    config =
  let n = config.Abe_core.Runner.n in
  if n > 20 then
    invalid_arg "Explore: quantile mode enumerates link subsets; n must be <= 20";
  let popcount mask =
    let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
    go 0 mask
  in
  let masks =
    List.init ((1 lsl n) - 1) (fun i -> i + 1)
    |> List.stable_sort (fun a b -> compare (popcount a) (popcount b))
  in
  let links_of mask =
    List.filter (fun l -> mask land (1 lsl l) <> 0) (List.init n Fun.id)
  in
  let schedules = ref 0 in
  let finding = ref None in
  let rec go trial = function
    | [] -> ()
    | _ when !finding <> None || !schedules >= budget
             || Unix.gettimeofday () > deadline -> ()
    | mask :: rest ->
      let slow_links = links_of mask in
      let config' = apply_slow_links ~tail slow_links config in
      let violations =
        violations_of ~liveness ~wall_deadline:deadline ~forwarding
          ~scheduler:(Schedulers.quantile ~window ())
          ~seed config'
      in
      incr schedules;
      if violations <> [] then finding := Some (trial, slow_links, violations);
      go (trial + 1) rest
  in
  go 0 masks;
  let finding =
    Option.map
      (fun (trial, slow_links, violations) ->
         shrink_finding ~window ~forwarding ~liveness ~seed ~config ~trial
           ~invariant:(first_invariant violations)
           ~deviations:[] ~slow_links ~tail)
      !finding
  in
  (!schedules, 0, finding, None)

(* ----------------------------------------------------------- entry *)

let run ?metrics ~driver ~window ~budget ?(time_budget = infinity) ~forwarding
    ?(liveness = 0) ~mode ~seed config =
  if budget < 1 then invalid_arg "Explore: budget must be >= 1";
  let deadline =
    if Float.is_finite time_budget then Unix.gettimeofday () +. time_budget
    else infinity
  in
  let config = clamp_fairness ~liveness config in
  let schedules, pruned, finding, coverage =
    match mode with
    | Fuzz { flip } ->
      run_fuzz ~driver ~window ~budget ~deadline ~forwarding ~liveness ~flip
        ~seed config
    | Exhaustive { por } ->
      run_exhaustive ~por ~window ~budget ~deadline ~forwarding ~liveness
        ~seed config
    | Quantile { tail } ->
      if not (tail >= 1.) then
        invalid_arg "Explore: quantile tail must be >= 1"
      else
        run_quantile ~window ~budget ~deadline ~forwarding ~liveness ~tail
          ~seed config
  in
  (match metrics with
   | None -> ()
   | Some registry ->
     let incr_by name v =
       Abe_sim.Metrics.incr ~by:v (Abe_sim.Metrics.counter registry name)
     in
     incr_by "check/schedules" schedules;
     incr_by "check/pruned" pruned;
     (match coverage with
      | None -> ()
      | Some c ->
        incr_by "check/states" c.Por.states;
        incr_by "check/transitions" c.Por.transitions;
        incr_by "check/sleep_skips" c.Por.sleep_skips;
        incr_by "check/digest_collisions" c.Por.collisions);
     (match finding with
      | None -> incr_by "check/violations" 0
      | Some f ->
        incr_by "check/violations" (List.length f.violations);
        incr_by "check/shrink_steps" f.shrink_probes));
  { mode; schedules; pruned; coverage; finding }

(* ----------------------------------------------------------- replay *)

let replay_run ?trace ?metrics ~artifact config =
  match forwarding_of_string artifact.Repro.forwarding with
  | Error msg -> Error msg
  | Ok forwarding ->
    let liveness = artifact.Repro.fairness in
    let config =
      apply_slow_links ~tail:artifact.Repro.tail artifact.Repro.slow_links
        config
    in
    let config = clamp_fairness ~liveness config in
    let scheduler =
      Schedulers.replay ~window:artifact.Repro.window artifact.Repro.deviations
    in
    let o =
      Abe_core.Runner.run ?trace ?metrics ~scheduler ~check:true ~forwarding
        ~seed:artifact.Repro.seed config
    in
    Ok { o with Abe_core.Runner.violations = outcome_violations ~liveness o }

let to_repro ~mode_name:mode ~seed ~a0 ~delta ~gamma ~drift ~delay ~fault
    ~window ~tail ~forwarding ~fairness ~n (f : finding) =
  { Repro.mode; seed; n; a0; delta; gamma; drift; delay; fault;
    forwarding = string_of_forwarding forwarding; window; tail;
    invariant = f.invariant; fairness; deviations = f.deviations;
    slow_links = f.slow_links }

let pp_finding ppf f =
  Fmt.pf ppf "violation[%s] at schedule %d: %d deviation%s, %d slow link%s@,"
    f.invariant f.trial
    (List.length f.deviations)
    (if List.length f.deviations = 1 then "" else "s")
    (List.length f.slow_links)
    (if List.length f.slow_links = 1 then "" else "s");
  Fmt.list ~sep:Fmt.cut Abe_sim.Oracle.pp_violation ppf f.violations

let pp_report ppf r =
  Fmt.pf ppf "@[<v>explore[%a]: %d schedule%s, %d pruned, %s%a%a@]" pp_mode
    r.mode r.schedules
    (if r.schedules = 1 then "" else "s")
    r.pruned
    (match r.finding with
     | None -> "no violation"
     | Some f -> Printf.sprintf "1 counterexample (%d shrink probes)" f.shrink_probes)
    (fun ppf -> function
       | None -> ()
       | Some c -> Fmt.pf ppf "@,coverage: %a" Por.pp_coverage c)
    r.coverage
    (fun ppf -> function
       | None -> ()
       | Some f -> Fmt.pf ppf "@,%a" pp_finding f)
    r.finding
