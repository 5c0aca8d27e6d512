open Abe_net

module Ref_bfs = Reference.Make (Sync_alg.Bfs)
module Alpha_bfs = Alpha.Make (Sync_alg.Bfs)
module Beta_bfs = Beta.Make (Sync_alg.Bfs)
module Gamma_bfs = Gamma.Make (Sync_alg.Bfs)
module Abd_bfs = Abd_sync.Make (Sync_alg.Bfs)

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

let distances states = Array.map Sync_alg.Bfs.distance states

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
  let window = Abd_sync.required_window ~hard_bound in
  let reference = Ref_bfs.run ~seed ~topology ~pulses in
  let expected = distances reference.Ref_bfs.states in
  let alpha =
    let r =
      Alpha_bfs.run ~seed:(seed + 1) ~topology ~delay:abe_delay ~pulses ()
    in
    { label = "alpha on ABE";
      payload_messages = r.Alpha_bfs.payload_messages;
      control_messages = r.Alpha_bfs.control_messages;
      control_per_pulse = r.Alpha_bfs.control_per_pulse;
      violations = 0;
      correct = distances r.Alpha_bfs.states = expected;
      completed = r.Alpha_bfs.completed }
  in
  let beta =
    let r =
      Beta_bfs.run ~seed:(seed + 2) ~topology ~delay:abe_delay ~pulses ()
    in
    { label = "beta on ABE";
      payload_messages = r.Beta_bfs.payload_messages;
      control_messages = r.Beta_bfs.control_messages;
      control_per_pulse = r.Beta_bfs.control_per_pulse;
      violations = 0;
      correct = distances r.Beta_bfs.states = expected;
      completed = r.Beta_bfs.completed }
  in
  (* The ABD synchroniser variants aggregate several replications: BFS is
     deliberately sparse, so a single run exposes few messages to the delay
     tail; totals over replications make the violation count a stable
     observable. *)
  let abd_variant label ~delay ~seed =
    (* Replications are independent runs, so they go through the driver;
       aggregation folds the returned list in replication order, keeping
       the report identical between sequential and parallel drivers. *)
    let runs =
      Abe_harness.Driver.map driver
        (fun rep -> Abd_bfs.run ~seed:(seed + rep) ~topology ~delay ~pulses ~window ())
        (List.init replications Fun.id)
    in
    let payload = ref 0 and violations = ref 0 in
    let correct = ref true and completed = ref true in
    List.iter
      (fun r ->
         payload := !payload + r.Abd_bfs.payload_messages;
         violations := !violations + r.Abd_bfs.violations;
         correct := !correct && distances r.Abd_bfs.states = expected;
         completed := !completed && r.Abd_bfs.completed)
      runs;
    { label;
      payload_messages = !payload;
      control_messages = 0;
      control_per_pulse = 0.;
      violations = !violations;
      correct = !correct;
      completed = !completed }
  in
  { n;
    pulses;
    window;
    reference_payload = reference.Ref_bfs.payload_messages;
    alpha_on_abe = alpha;
    beta_on_abe = beta;
    abd_on_abd =
      abd_variant "ABD-sync on ABD" ~delay:abd_delay ~seed:(seed + 1000);
    abd_on_abe =
      abd_variant "ABD-sync on ABE" ~delay:abe_delay ~seed:(seed + 2000) }

type synchroniser = Alpha | Beta | Gamma of int

type member = {
  synchroniser : synchroniser;
  control_per_pulse : float;
  acks : int;
  tree : int;
  preferred : int;
  clusters : int;
  correct : bool;
}

let family ?(driver = Abe_harness.Driver.Sequential) ~seed ~gamma_seed
    ~topology ~delay ~pulses ~radii () =
  let expected = distances (Ref_bfs.run ~seed ~topology ~pulses).Ref_bfs.states in
  let correct states = distances states = expected in
  let measure = function
    | Alpha ->
      let r = Alpha_bfs.run ~seed:(seed + 1) ~topology ~delay ~pulses () in
      { synchroniser = Alpha;
        control_per_pulse = r.Alpha_bfs.control_per_pulse;
        acks = r.Alpha_bfs.ack_messages;
        tree = 0;
        preferred = r.Alpha_bfs.safe_messages;
        clusters = Topology.node_count topology;
        correct = correct r.Alpha_bfs.states }
    | Beta ->
      let r = Beta_bfs.run ~seed:(seed + 2) ~topology ~delay ~pulses () in
      { synchroniser = Beta;
        control_per_pulse = r.Beta_bfs.control_per_pulse;
        acks = r.Beta_bfs.ack_messages;
        tree = r.Beta_bfs.tree_messages;
        preferred = 0;
        clusters = 1;
        correct = correct r.Beta_bfs.states }
    | Gamma radius ->
      let r =
        Gamma_bfs.run ~seed:(gamma_seed radius) ~topology ~delay ~pulses
          ~radius ()
      in
      { synchroniser = Gamma radius;
        control_per_pulse = r.Gamma_bfs.control_per_pulse;
        acks = r.Gamma_bfs.ack_messages;
        tree = r.Gamma_bfs.tree_messages;
        preferred = r.Gamma_bfs.preferred_messages;
        clusters = r.Gamma_bfs.clusters;
        correct = correct r.Gamma_bfs.states }
  in
  Abe_harness.Driver.map driver measure
    (Alpha :: Beta :: List.map (fun radius -> Gamma radius) radii)

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
