open Abe_net

module Ref_bfs = Reference.Make (Sync_alg.Bfs)
module Sync_bfs = Synchronizer.Make (Sync_alg.Bfs)

type variant_result = {
  label : string;
  payload_messages : int;
  control_messages : int;
  control_per_pulse : float;
  violations : int;
  correct : bool;
  completed : bool;
}

type report = {
  n : int;
  pulses : int;
  window : int;
  reference_payload : int;
  alpha_on_abe : variant_result;
  beta_on_abe : variant_result;
  abd_on_abd : variant_result;
  abd_on_abe : variant_result;
}

type member = {
  kind : Synchronizer.kind;
  run : Sync_bfs.run;
  correct : bool;
}

let distances states = Array.map Sync_alg.Bfs.distance states

(* One run, checked against the reference distances.  Runs are
   independent, and a driver returns them in input order, so whatever
   gathers them is the same under any driver. *)
let measure ~expected ~topology ~pulses (kind, delay, seed) =
  let run = Sync_bfs.run ~seed ~topology ~delay ~pulses kind in
  { kind; run; correct = distances run.Sync_bfs.states = expected }

(* Totals over a variant's replications; control per pulse is the mean of
   the runs'. *)
let summarise label (members : member list) =
  let sum f = List.fold_left (fun acc m -> acc + f m.run) 0 members in
  let control = sum (fun r -> r.Sync_bfs.acks + r.tree + r.preferred) in
  let pulses = sum (fun r -> r.Sync_bfs.pulses) in
  { label;
    payload_messages = sum (fun r -> r.Sync_bfs.payload);
    control_messages = control;
    control_per_pulse = float_of_int control /. float_of_int pulses;
    violations = sum (fun r -> r.Sync_bfs.violations);
    correct = List.for_all (fun m -> m.correct) members;
    completed = List.for_all (fun m -> m.run.Sync_bfs.completed) members }

let bfs_comparison ?(driver = Abe_harness.Driver.Sequential) ?(replications = 20)
    ~seed ~n ~delta () =
  if n < 4 then invalid_arg "Measure.bfs_comparison: n must be >= 4";
  if replications < 1 then
    invalid_arg "Measure.bfs_comparison: replications must be >= 1";
  if not (delta > 0.) then invalid_arg "Measure.bfs_comparison: delta must be > 0";
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let abe_delay = Delay_model.abe_exponential ~delta in
  (* The contrasting ABD network: same mean delay, hard bound 2δ. *)
  let abd_delay = Delay_model.abd_uniform ~bound:(2. *. delta) in
  let hard_bound = Option.get (Delay_model.hard_bound abd_delay) in
  let window = Synchronizer.required_window ~hard_bound in
  let reference = Ref_bfs.run ~seed ~topology ~pulses in
  let expected = distances reference.Ref_bfs.states in
  (* The ABD synchroniser variants aggregate several replications: BFS is
     deliberately sparse, so a single run exposes few messages to the delay
     tail; totals over replications make the violation count a stable
     observable. *)
  let abd label ~delay ~seed =
    List.init replications (fun rep ->
        (label, (Synchronizer.Abd window, delay, seed + rep)))
  in
  let runs =
    Abe_harness.Driver.map driver
      (fun (label, run) -> (label, measure ~expected ~topology ~pulses run))
      (("alpha on ABE", (Synchronizer.Alpha, abe_delay, seed + 1))
       :: ("beta on ABE", (Synchronizer.Beta, abe_delay, seed + 2))
       :: (abd "ABD-sync on ABD" ~delay:abd_delay ~seed:(seed + 1000)
           @ abd "ABD-sync on ABE" ~delay:abe_delay ~seed:(seed + 2000)))
  in
  let variant label =
    summarise label
      (List.filter_map (fun (l, m) -> if l = label then Some m else None) runs)
  in
  { n;
    pulses;
    window;
    reference_payload = reference.Ref_bfs.payload_messages;
    alpha_on_abe = variant "alpha on ABE";
    beta_on_abe = variant "beta on ABE";
    abd_on_abd = variant "ABD-sync on ABD";
    abd_on_abe = variant "ABD-sync on ABE" }

let family ?(driver = Abe_harness.Driver.Sequential) ~seed ~gamma_seed
    ~topology ~delay ~pulses ~radii () =
  let expected = distances (Ref_bfs.run ~seed ~topology ~pulses).Ref_bfs.states in
  Abe_harness.Driver.map driver
    (measure ~expected ~topology ~pulses)
    ((Synchronizer.Alpha, delay, seed + 1)
     :: (Synchronizer.Beta, delay, seed + 2)
     :: List.map
       (fun radius -> (Synchronizer.Gamma radius, delay, gamma_seed radius))
       radii)

let pp_variant ppf v =
  Fmt.pf ppf
    "%-16s payload=%-6d control=%-6d control/pulse=%-8.1f violations=%-4d \
     correct=%b completed=%b"
    v.label v.payload_messages v.control_messages v.control_per_pulse
    v.violations v.correct v.completed

let pp_report ppf r =
  Fmt.pf ppf "n=%d pulses=%d window=%d reference payload=%d@." r.n r.pulses
    r.window r.reference_payload;
  Fmt.pf ppf "  %a@." pp_variant r.alpha_on_abe;
  Fmt.pf ppf "  %a@." pp_variant r.beta_on_abe;
  Fmt.pf ppf "  %a@." pp_variant r.abd_on_abd;
  Fmt.pf ppf "  %a@." pp_variant r.abd_on_abe
