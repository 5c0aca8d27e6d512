open Abe_synchronizer
module Sync_bfs = Synchronizer.Make (Sync_alg.Bfs)

type report = {
  synchroniser : string;
  skew_bound : int option;
  schedules : int;
  pruned : int;
  coverage : Por.coverage;
  events_checked : int;
  max_skew : int;
  completed_runs : int;
  deviations : Schedulers.deviations;
  violations : Abe_sim.Oracle.violation list;
}

let certified r =
  r.violations = [] && r.coverage.Por.complete && r.completed_runs = r.schedules

(* Events are plentiful under exploration (every pulse of every node plus
   every payload), but the BFS payload is sparse; this bound guards
   against a scheduler choice wedging the tick-driven abd variant.  A run
   it cuts did not complete, so its variant is not certified. *)
let limit_events = 200_000

let run ~window ~budget ?(time_budget = infinity) ~por ?pulses ~seed ~n kind =
  if n < 3 then invalid_arg "Certify.run: n must be >= 3";
  if budget < 1 then invalid_arg "Certify.run: budget must be >= 1";
  if not (time_budget > 0.) then
    invalid_arg "Certify.run: time_budget must be > 0";
  let pulses = Option.value pulses ~default:((n / 2) + 2) in
  if pulses < 1 then invalid_arg "Certify.run: pulses must be >= 1";
  let topology = Abe_net.Topology.bidirectional_ring n in
  let delay = Abe_net.Delay_model.abe_exponential ~delta:1.0 in
  let skew_bound =
    match kind with
    | Synchronizer.Alpha | Beta | Gamma _ -> Some 1
    | Abd _ -> None
  in
  let deadline =
    if Float.is_finite time_budget then Unix.gettimeofday () +. time_budget
    else infinity
  in
  (* The shared DFS of Por.search, with the oracle's verdict in place of
     the election runner's; the oracle's counters accumulate across
     runs. *)
  let events_checked = ref 0 in
  let max_skew = ref 0 in
  let completed_runs = ref 0 in
  let r =
    Por.search ~por ~window ~budget ~deadline (fun scheduler ->
        let oracle = Skew.create ?skew_bound ~n () in
        if
          (Sync_bfs.run ~limit_events ~scheduler ~oracle ~seed ~topology
             ~delay ~pulses kind)
            .Sync_bfs.completed
        then incr completed_runs;
        events_checked := !events_checked + Skew.events_checked oracle;
        max_skew := max !max_skew (Skew.max_skew oracle);
        Skew.violations oracle)
  in
  let deviations, violations =
    match r.Por.finding with None -> ([], []) | Some (_, d, v) -> (d, v)
  in
  { synchroniser = Synchronizer.name kind;
    skew_bound;
    schedules = r.Por.schedules;
    pruned = r.Por.pruned;
    coverage = r.Por.coverage;
    events_checked = !events_checked;
    max_skew = !max_skew;
    completed_runs = !completed_runs;
    deviations;
    violations }

let pp_report ppf r =
  Fmt.pf ppf
    "certify[%s%s]: %d schedule(s), %d pruned, %d/%d runs completed, %d \
     event(s) checked, max skew %d, %s@,  coverage: %a"
    r.synchroniser
    (match r.skew_bound with
     | Some b -> Printf.sprintf ", skew<=%d" b
     | None -> ", monotonicity only")
    r.schedules r.pruned r.completed_runs r.schedules r.events_checked
    r.max_skew
    (if r.violations <> [] then "VIOLATED"
     else if certified r then "certified"
     else "clean (truncated)")
    Por.pp_coverage r.coverage;
  if r.violations <> [] then begin
    Fmt.pf ppf "@,  deviations: %s"
      (String.concat ","
         (List.map (fun (d, p) -> Printf.sprintf "%d:%d" d p) r.deviations));
    List.iter
      (fun v ->
         Fmt.pf ppf "@,  violation: [%s] %s: %s" v.Abe_sim.Oracle.invariant
           v.Abe_sim.Oracle.subject v.Abe_sim.Oracle.detail)
      r.violations
  end
