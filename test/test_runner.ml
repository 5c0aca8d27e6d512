open Abe_core

(* Most runner tests use small rings so a single run is milliseconds. *)

(* A crash, rejoin or link-down scenario by its CLI name. *)
let fault spec =
  match Abe_net.Faults.of_string ~seed:0 ~n:8 ~delta:1. spec with
  | Ok f -> f
  | Error (`Msg m) -> invalid_arg m

let run ?(n = 8) ?(a0 = 0.1) ?delay ?proc_delay ?params ~seed () =
  let config = Runner.config ~n ~a0 ?delay ?proc_delay ?params () in
  Runner.run ~seed config

let test_elects_unique_leader () =
  for seed = 1 to 30 do
    let outcome = run ~seed () in
    if not outcome.Runner.elected then Alcotest.failf "seed %d: no leader" seed;
    if outcome.Runner.leader_count <> 1 then
      Alcotest.failf "seed %d: %d leaders" seed outcome.Runner.leader_count
  done

let test_various_ring_sizes () =
  List.iter
    (fun n ->
       let outcome = run ~n ~seed:(100 + n) () in
       Alcotest.(check bool) (Printf.sprintf "n=%d elected" n) true
         outcome.Runner.elected;
       Alcotest.(check int) (Printf.sprintf "n=%d unique" n) 1
         outcome.Runner.leader_count)
    [ 2; 3; 4; 5; 8; 13; 21; 32 ]

let test_deterministic_in_seed () =
  let a = run ~seed:42 () and b = run ~seed:42 () in
  Alcotest.(check int) "same messages" a.Runner.messages b.Runner.messages;
  Alcotest.(check (float 1e-9)) "same time" a.Runner.elected_at b.Runner.elected_at;
  Alcotest.(check bool) "same leader" true (a.Runner.leader = b.Runner.leader)

let test_counters_consistent () =
  let outcome = run ~seed:7 () in
  (* Every activation sends one fresh token; every knockout and forward
     sends one message.  messages = activations + knockouts + passive
     forwards >= activations. *)
  Alcotest.(check bool) "messages >= activations" true
    (outcome.Runner.messages >= outcome.Runner.activations);
  (* Each purge destroys a token created by an activation; the winning
     token accounts for the last activation. *)
  Alcotest.(check bool) "purges < activations" true
    (outcome.Runner.purges < outcome.Runner.activations);
  Alcotest.(check bool) "knockouts at most n-1" true
    (outcome.Runner.knockouts <= 7);
  Alcotest.(check int) "activation times recorded" outcome.Runner.activations
    (Array.length outcome.Runner.activation_times)

let test_elected_time_positive () =
  let outcome = run ~seed:3 () in
  Alcotest.(check bool) "positive time" true (outcome.Runner.elected_at > 0.);
  Alcotest.(check bool) "engine stopped on election" true
    (outcome.Runner.engine_outcome = Abe_sim.Engine.Stopped)

let test_works_on_abd_delays () =
  let delay = Abe_net.Delay_model.abd_uniform ~bound:2. in
  let outcome = run ~delay ~seed:11 () in
  Alcotest.(check bool) "elected under ABD delays" true outcome.Runner.elected

let test_works_with_deterministic_delay () =
  (* Fully deterministic delays: asynchrony comes only from clock phases
     and coin flips. *)
  let delay = Abe_net.Delay_model.abd_deterministic ~delay:1. in
  let outcome = run ~delay ~seed:13 () in
  Alcotest.(check bool) "elected" true outcome.Runner.elected

let test_works_with_retransmission_delays () =
  let delay = Abe_net.Delay_model.abe_retransmission ~success:0.5 ~slot:0.5 in
  let outcome = run ~delay ~seed:17 () in
  Alcotest.(check bool) "elected over lossy channel" true outcome.Runner.elected

let test_works_with_heavy_tail () =
  let delay =
    Abe_net.Delay_model.of_dist (Abe_prob.Dist.lomax ~alpha:2.2 ~mean:1.)
  in
  let outcome = run ~delay ~seed:19 () in
  Alcotest.(check bool) "elected under heavy tail" true outcome.Runner.elected

let test_works_with_clock_drift () =
  let params =
    Params.make ~delta:1. ~gamma:0.
      ~clock:(Abe_net.Clock.spec ~s_low:0.5 ~s_high:2.)
  in
  let outcome = run ~params ~seed:23 () in
  Alcotest.(check bool) "elected with drifting clocks" true
    outcome.Runner.elected

let test_works_with_processing_delay () =
  let params = Params.make ~delta:1. ~gamma:0.2 ~clock:Abe_net.Clock.perfect in
  let proc_delay = Some (Abe_prob.Dist.exponential ~mean:0.2) in
  let outcome = run ~params ~proc_delay ~seed:29 () in
  Alcotest.(check bool) "elected with processing delay" true
    outcome.Runner.elected

let test_n2_ring () =
  for seed = 1 to 20 do
    let outcome = run ~n:2 ~a0:0.3 ~seed () in
    Alcotest.(check bool) "n=2 elects" true outcome.Runner.elected;
    Alcotest.(check int) "n=2 unique" 1 outcome.Runner.leader_count
  done

let test_config_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "n=1" (fun () -> Runner.config ~n:1 ());
  expect_invalid "a0=0" (fun () -> Runner.config ~n:4 ~a0:0. ());
  expect_invalid "a0=1" (fun () -> Runner.config ~n:4 ~a0:1. ());
  (* Delay mean above delta: not an honest ABE network. *)
  expect_invalid "delay exceeds delta" (fun () ->
      Runner.config ~n:4
        ~delay:(Abe_net.Delay_model.abe_exponential ~delta:5.)
        ());
  (* Processing mean above gamma. *)
  expect_invalid "processing exceeds gamma" (fun () ->
      Runner.config ~n:4
        ~proc_delay:(Some (Abe_prob.Dist.exponential ~mean:1.))
        ())

(* A fault naming a node or link outside the ring is rejected when the
   configuration is built, naming the scenario, not at the first run. *)
let test_fault_indices () =
  Alcotest.check_raises "rejoin of node 9 on 8 nodes"
    (Invalid_argument
       "Runner.config: fault rejoin(9@2:5) names node 9, but the ring has \
        nodes 0..7")
    (fun () -> ignore (Runner.config ~n:8 ~fault:(fault "rejoin(9@2:5)") ()));
  Alcotest.check_raises "crash of node 8 on 8 nodes"
    (Invalid_argument
       "Runner.config: fault crash(8@1) names node 8, but the ring has nodes \
        0..7")
    (fun () -> ignore (Runner.config ~n:8 ~fault:(fault "crash(8@1)") ()));
  Alcotest.check_raises "outage of link 8 on 8 links"
    (Invalid_argument
       "Runner.config: fault link-down(8@1:2) names link 8, but the ring has \
        links 0..7")
    (fun () ->
       ignore (Runner.config ~n:8 ~fault:(fault "link-down(8@1:2)") ()));
  (* The last node and link are in range. *)
  ignore (Runner.config ~n:8 ~fault:(fault "rejoin(7@2:5)+link-down(7@1:2)") ())

let test_naive_variant_small_ring () =
  (* The naive constant-probability ablation still elects on small rings;
     its weakness is the heavy tail of the endgame, not small cases. *)
  for seed = 1 to 10 do
    let config = Runner.naive (Runner.config ~n:4 ~a0:0.2 ()) in
    let outcome = Runner.run ~seed config in
    Alcotest.(check bool) "naive elects on n=4" true outcome.Runner.elected;
    Alcotest.(check int) "naive unique" 1 outcome.Runner.leader_count
  done

let test_budget_exhaustion_reported () =
  (* A microscopic event budget cannot finish: the runner must report
     honestly instead of looping. *)
  let config = Runner.config ~n:8 ~a0:0.1 ~limit_events:50 () in
  let outcome = Runner.run ~seed:31 config in
  Alcotest.(check bool) "not elected" false outcome.Runner.elected;
  Alcotest.(check bool) "hit event budget" true
    (outcome.Runner.engine_outcome = Abe_sim.Engine.Hit_event_limit)

let test_heterogeneous_links () =
  (* Section 2: non-homogeneous links, one common bound (the max mean). *)
  let n = 8 in
  let wired = Abe_net.Delay_model.abd_uniform ~bound:0.2 in
  let radio = Abe_net.Delay_model.abe_exponential ~delta:1. in
  let link_delays = Array.init n (fun i -> if i mod 2 = 0 then wired else radio) in
  let config = Runner.config ~n ~a0:0.1 ~link_delays () in
  let o = Runner.run ~seed:3 config in
  Alcotest.(check bool) "elected" true o.Runner.elected;
  Alcotest.(check int) "unique" 1 o.Runner.leader_count

let test_heterogeneous_links_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (* Wrong arity. *)
  expect_invalid "wrong length" (fun () ->
      Runner.config ~n:8
        ~link_delays:(Array.make 3 (Abe_net.Delay_model.abe_exponential ~delta:1.))
        ());
  (* A link whose mean exceeds delta: not an honest ABE network. *)
  expect_invalid "link above delta" (fun () ->
      Runner.config ~n:4
        ~link_delays:
          [| Abe_net.Delay_model.abe_exponential ~delta:1.;
             Abe_net.Delay_model.abe_exponential ~delta:1.;
             Abe_net.Delay_model.abe_exponential ~delta:5.;
             Abe_net.Delay_model.abe_exponential ~delta:1. |]
        ())

let test_crash_blocks_election () =
  (* Negative result: the algorithm needs reliable nodes.  Crash one node
     early with no rejoin; tokens die at the gap, so no leader can ever be
     elected — and the runner detects that at the crash instant, stopping
     with a structured stall reason instead of burning the time budget. *)
  let config =
    Runner.config ~n:6 ~a0:0.2 ~limit_time:2_000. ~fault:(fault "crash(3@2)") ()
  in
  for seed = 1 to 5 do
    let o = Runner.run ~seed config in
    Alcotest.(check bool) "no leader with a dead node" false o.Runner.elected;
    Alcotest.(check bool) "stopped early, not budget-exhausted" true
      (o.Runner.engine_outcome = Abe_sim.Engine.Stopped);
    Alcotest.(check (option string)) "structured stall reason"
      (Some
         "node 3 crashed with no rejoin at t=2: ring election cannot complete")
      o.Runner.stalled
  done

let test_crash_after_election_harmless () =
  (* A crash long after the election finished does not affect the result. *)
  let base = Runner.config ~n:8 ~a0:0.1 () in
  let plain = Runner.run ~seed:41 base in
  Alcotest.(check bool) "sanity: plain run elects" true plain.Runner.elected;
  let crash_late =
    Runner.config ~n:8 ~a0:0.1
      ~fault:
        (fault
           (Printf.sprintf "crash(0@%.17g)" (plain.Runner.elected_at +. 100.)))
      ()
  in
  let o = Runner.run ~seed:41 crash_late in
  Alcotest.(check bool) "still elects" true o.Runner.elected;
  Alcotest.(check bool) "same leader" true (o.Runner.leader = plain.Runner.leader)

let test_activation_times_increasing () =
  let outcome = run ~seed:37 () in
  let times = outcome.Runner.activation_times in
  let sorted = Array.copy times in
  Array.sort Float.compare sorted;
  Alcotest.(check bool) "recorded in order" true (times = sorted)

let test_announce_completes () =
  for seed = 1 to 20 do
    let config = Runner.config ~n:8 ~a0:0.1 () in
    let o = Runner.announce ~seed config in
    if not o.Runner.election.Runner.elected then
      Alcotest.failf "seed %d: no leader" seed;
    if not o.Runner.all_informed then
      Alcotest.failf "seed %d: not all nodes informed" seed;
    Alcotest.(check int) "announcement lap is exactly n messages" 8
      o.Runner.announce_messages;
    Alcotest.(check bool) "informed after elected" true
      (o.Runner.informed_at >= o.Runner.election.Runner.elected_at)
  done

let test_announce_matches_plain_election () =
  (* Same seed, same config: the election phase of announce mode must
     match the plain run exactly (the announcement only replaces the
     halt) — including under faults and per-link delay models, and in the
     election-layer metrics. *)
  let open Abe_net in
  (* The CLI's default activation parameter for [elect -n 8]. *)
  let a0 = Analysis.recommended_a0 ~theta:1. 8 in
  let heterogeneous =
    Runner.with_link_delays (Runner.config ~n:8 ~a0:0.1 ())
      (Array.init 8 (fun i ->
           let delta = if i mod 2 = 0 then 0.5 else 2. in
           Delay_model.abe_exponential ~delta))
  in
  let module M = Abe_sim.Metrics in
  List.iter
    (fun (label, seed, config) ->
       let plain_metrics = M.create () and announced_metrics = M.create () in
       let plain = Runner.run ~metrics:plain_metrics ~seed config in
       let announced =
         Runner.announce ~metrics:announced_metrics ~seed config
       in
       Alcotest.(check bool) (label ^ ": plain elects") true
         plain.Runner.elected;
       Alcotest.(check (option int)) (label ^ ": same leader")
         plain.Runner.leader announced.Runner.election.Runner.leader;
       Alcotest.(check int) (label ^ ": same election messages")
         plain.Runner.messages announced.Runner.election.Runner.messages;
       Alcotest.(check (float 1e-9)) (label ^ ": same election time")
         plain.Runner.elected_at announced.Runner.election.Runner.elected_at;
       (* The election-layer metrics come from the same step in both
          modes; the lap adds only its own counter. *)
       List.iter
         (fun name ->
            Alcotest.(check int) (label ^ ": same " ^ name)
              (M.counter_value (M.counter plain_metrics name))
              (M.counter_value (M.counter announced_metrics name)))
         [ "election/activations"; "election/knockouts"; "election/purges" ];
       Alcotest.(check (option (float 1e-9)))
         (label ^ ": same elected_at gauge")
         (M.gauge_value (M.gauge plain_metrics "election/elected_at"))
         (M.gauge_value (M.gauge announced_metrics "election/elected_at"));
       Alcotest.(check int) (label ^ ": announce/messages = n")
         config.Runner.n
         (M.counter_value (M.counter announced_metrics "announce/messages")))
    [ ("fault-free", 5, Runner.config ~n:8 ~a0:0.1 ());
      ( "rejoin(3@2:5)", 1,
        Runner.config ~n:8 ~a0
          ~fault:(fault "rejoin(3@2:5)") () );
      ("heterogeneous links", 7, heterogeneous);
      ( "link-down(2@1:2)", 3,
        Runner.config ~n:8 ~a0
          ~fault:(fault "link-down(2@1:2)") () ) ]

let test_announce_n2 () =
  (* Smallest ring: the announcement lap is 2 messages. *)
  for seed = 1 to 10 do
    let config = Runner.config ~n:2 ~a0:0.3 () in
    let o = Runner.announce ~seed config in
    Alcotest.(check bool) "elected" true o.Runner.election.Runner.elected;
    Alcotest.(check bool) "informed" true o.Runner.all_informed;
    Alcotest.(check int) "two announce messages" 2 o.Runner.announce_messages
  done

let test_mass_samples_recorded () =
  (* A hot configuration has purges, so mass samples must be present, have
     non-decreasing times, and respect 0 <= sum_d and k <= n. *)
  let n = 16 in
  let config = Runner.config ~n ~a0:0.2 () in
  let o = Runner.run ~seed:3 config in
  let samples = o.Runner.mass_samples in
  Alcotest.(check bool) "samples recorded" true (Array.length samples > 0);
  let previous = ref neg_infinity in
  Array.iter
    (fun (t, sum_d, k) ->
       if t < !previous then Alcotest.fail "sample times not monotone";
       previous := t;
       if k < 0 || k > n then Alcotest.failf "bad population %d" k;
       if sum_d < k then Alcotest.failf "sum_d %d below population %d" sum_d k)
    samples

let fault_of scenario ~seed ~n =
  match Abe_net.Faults.of_string ~seed ~n ~delta:1. scenario with
  | Ok f -> f
  | Error (`Msg m) -> Alcotest.fail m

let fail_violation ~seed ~scenario v =
  Alcotest.failf "seed %d, %s: %s" seed scenario
    (Fmt.str "%a" Abe_sim.Oracle.pp_violation v)

(* (mass samples, phase transitions, md5 of both) over seeds 1..20 of an
   n = 16 ring under each fault.  A rejoin resets the node's state and so
   its share of the wake-up mass; crashes, rejoins and churn all move the
   samples, and floats are pinned to the bit by [%h]. *)
let test_faulted_mass_goldens () =
  let n = 16 in
  let fingerprint scenario =
    let buf = Buffer.create 4096 in
    let samples = ref 0 and transitions = ref 0 in
    for seed = 1 to 20 do
      let config =
        Runner.config ~n ~a0:0.2 ~limit_events:200_000
          ~fault:(fault_of scenario ~seed ~n) ()
      in
      let o = Runner.run ~seed config in
      Printf.bprintf buf "seed %d\n" seed;
      Array.iter
        (fun (t, sum_d, k) -> Printf.bprintf buf "m %h %d %d\n" t sum_d k)
        o.Runner.mass_samples;
      Array.iter
        (fun (t, node, phase) ->
           Printf.bprintf buf "p %h %d %d\n" t node
             (match phase with
              | Election.Idle -> 0
              | Election.Active -> 1
              | Election.Passive -> 2
              | Election.Leader -> 3))
        o.Runner.phase_transitions;
      samples := !samples + Array.length o.Runner.mass_samples;
      transitions := !transitions + Array.length o.Runner.phase_transitions
    done;
    let md5 = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    (!samples, (!transitions, md5))
  in
  List.iter
    (fun (scenario, expected) ->
       Alcotest.(check (pair int (pair int string))) scenario expected
         (fingerprint scenario))
    [ ("none", (1571, (2842, "06479a5ce22b94a18273cd6180593e78")));
      ("crash(2@5)", (319, (528, "d5827176189f83bab9680eb7b776aac6")));
      ( "rejoin(2@5:9)",
        (11361, (22478, "7994d88cc4f6232ada96269273cd01f8")) );
      ( "rejoin(1@2:5)+rejoin(3@4:30)",
        (23346, (46587, "fdb36496e77f6eb7d7818215759e9430")) );
      ( "churn(0.2)",
        (40644, (84898, "2ec359eb35ba6eb55dca289d9385da52")) ) ]

let test_checked_runs_clean () =
  (* 200 checked runs across fault scenarios.  Faults break the liveness
     guarantee — a lost token can stall the election forever (the active
     node waits for a message that never comes) — so runs get a small
     explicit budget and we assert only safety: zero invariant
     violations. *)
  let n = 8 in
  List.iter
    (fun scenario ->
       for seed = 1 to 50 do
         let fault = fault_of scenario ~seed ~n in
         let config =
           Runner.config ~n ~a0:0.15 ~fault ~limit_time:300.
             ~limit_events:300_000 ()
         in
         let o = Runner.run ~check:true ~seed config in
         match o.Runner.violations with
         | [] -> ()
         | v :: _ -> fail_violation ~seed ~scenario v
       done)
    [ "none"; "bursty-loss"; "delay-spike"; "heavy-tail" ]

let test_checked_crash_runs_clean () =
  (* Crash-stop breaks the ring, so these runs exhaust their budget; the
     conservation monitor still has to account for every message, including
     the ones swallowed by the dead node. *)
  for seed = 1 to 20 do
    let fault = fault_of "crash" ~seed ~n:8 in
    let config =
      Runner.config ~n:8 ~a0:0.15 ~fault ~limit_time:100.
        ~limit_events:200_000 ()
    in
    let o = Runner.run ~check:true ~seed config in
    (match o.Runner.violations with
     | [] -> ()
     | v :: _ -> fail_violation ~seed ~scenario:"crash" v);
    (* A leader is still possible — the winning token may have cleared the
       crash site before it died — but never more than one. *)
    Alcotest.(check bool) "at most one leader" true
      (o.Runner.leader_count <= 1)
  done

let test_checked_churn_runs_clean () =
  (* Satellite: 200 checked runs over composed loss + crash + rejoin
     scenarios.  The monitor runs in its Dynamic class — conservation must
     account for link drops and crash-window drops exactly, and the
     unique-leader oracle must survive nodes rejoining mid-election. *)
  let n = 8 in
  List.iter
    (fun scenario ->
       for seed = 1 to 50 do
         let fault = fault_of scenario ~seed ~n in
         let config =
           Runner.config ~n ~a0:0.15 ~fault ~limit_time:300.
             ~limit_events:300_000 ()
         in
         let o = Runner.run ~check:true ~seed config in
         (match o.Runner.violations with
          | [] -> ()
          | v :: _ -> fail_violation ~seed ~scenario v);
         Alcotest.(check bool) "at most one leader" true
           (o.Runner.leader_count <= 1)
       done)
    [ "rejoin"; "churn(0.1)"; "bursty-loss+rejoin"; "churn(0.3)+bursty-loss" ]

let test_rejoin_election_can_complete () =
  (* Crash-recovery restores liveness: the ring is broken only over
     [2, 30), so elections can complete after the rejoin — active nodes
     whose token died at the crash site re-idle when the next token
     reaches them, and the rejoined node restarts from Idle. *)
  let fault = fault "rejoin(3@2:30)" in
  let elected_after = ref 0 in
  for seed = 1 to 30 do
    let config = Runner.config ~n:6 ~a0:0.15 ~fault ~limit_time:3_000. () in
    let o = Runner.run ~check:true ~seed config in
    (match o.Runner.violations with
     | [] -> ()
     | v :: _ -> fail_violation ~seed ~scenario:"crash-rejoin" v);
    Alcotest.(check bool) "at most one leader" true (o.Runner.leader_count <= 1);
    Alcotest.(check (option string)) "rejoin is scheduled: no stall" None
      o.Runner.stalled;
    if o.Runner.elected && o.Runner.elected_at > 30. then incr elected_after
  done;
  Alcotest.(check bool) "some run elects after the rejoin" true
    (!elected_after > 0)

let test_stale_max_mutation_caught () =
  (* Reintroduce the historical forwarding bug — max d hop + 1 instead of
     hop + 1 — behind the [Stale_max] flag: the hop-soundness /
     unique-leader monitors must catch it.  The same seeds under the paper
     rule stay clean (that is [test_checked_runs_clean]). *)
  let tripped = ref 0 and relevant = ref 0 in
  for seed = 1 to 50 do
    let config = Runner.config ~n:16 ~a0:0.2 ~limit_time:2_000. () in
    let o =
      Runner.run ~check:true ~forwarding:Runner.Stale_max ~seed config
    in
    if o.Runner.violations <> [] then begin
      incr tripped;
      if
        List.exists
          (fun v ->
             match v.Abe_sim.Oracle.invariant with
             | "hop-soundness" | "unique-leader" | "election-soundness" ->
               true
             | _ -> false)
          o.Runner.violations
      then incr relevant
    end
  done;
  if !tripped = 0 then
    Alcotest.fail "seeded mutation never detected by the oracle";
  Alcotest.(check bool)
    (Printf.sprintf "hop/leader monitors fired (%d/%d runs tripped)" !relevant
       !tripped)
    true (!relevant > 0)

let test_check_does_not_perturb () =
  (* The oracle must be a pure observer: enabling it changes no random draw
     and no event ordering. *)
  let config = Runner.config ~n:8 ~a0:0.1 () in
  let a = Runner.run ~seed:42 config in
  let b = Runner.run ~check:true ~seed:42 config in
  Alcotest.(check int) "messages" a.Runner.messages b.Runner.messages;
  Alcotest.(check int) "ticks" a.Runner.ticks b.Runner.ticks;
  Alcotest.(check (float 0.)) "elected_at" a.Runner.elected_at
    b.Runner.elected_at;
  Alcotest.(check bool) "leader" true (a.Runner.leader = b.Runner.leader);
  Alcotest.(check bool) "unchecked run reports no violations" true
    (a.Runner.violations = []);
  Alcotest.(check bool) "checked run is clean" true (b.Runner.violations = [])

let test_fault_runs_deterministic () =
  (* Same seed + same scenario => identical outcome, including under the
     oracle. *)
  let outcome scenario =
    let fault = fault_of scenario ~seed:9 ~n:8 in
    let config =
      Runner.config ~n:8 ~a0:0.15 ~fault ~limit_time:300.
        ~limit_events:300_000 ()
    in
    let o = Runner.run ~check:true ~seed:9 config in
    (o.Runner.elected, o.Runner.messages, o.Runner.ticks, o.Runner.elected_at)
  in
  List.iter
    (fun scenario ->
       let ea, ma, ta, tta = outcome scenario in
       let eb, mb, tb, ttb = outcome scenario in
       if
         not
           (ea = eb && ma = mb && ta = tb && Float.compare tta ttb = 0)
       then Alcotest.failf "%s: outcome not deterministic" scenario)
    [ "bursty-loss"; "delay-spike"; "heavy-tail"; "crash" ]

let test_announce_checked_clean () =
  for seed = 1 to 10 do
    let config = Runner.config ~n:8 ~a0:0.1 () in
    let o = Runner.announce ~check:true ~seed config in
    Alcotest.(check bool) "informed" true o.Runner.all_informed;
    match o.Runner.election.Runner.violations with
    | [] -> ()
    | v :: _ -> fail_violation ~seed ~scenario:"announce" v
  done

let test_announce_stall_matches_plain () =
  (* A permanent crash before the election stalls both modes at the same
     instant: the lap needs every link too, so announce mode must not
     spin until the time budget runs out. *)
  let config =
    Runner.config ~n:8
      ~a0:(Analysis.recommended_a0 ~theta:1. 8)
      ~fault:(fault "crash(4@8)")
      ()
  in
  let plain = Runner.run ~check:true ~seed:1 config in
  let announced = Runner.announce ~check:true ~seed:1 config in
  Alcotest.(check bool) "plain stalls" true (plain.Runner.stalled <> None);
  Alcotest.(check int) "same ticks" plain.Runner.ticks
    announced.Runner.election.Runner.ticks;
  Alcotest.(check (option string)) "same stall reason" plain.Runner.stalled
    announced.Runner.election.Runner.stalled;
  Alcotest.(check int) "no announcement" 0 announced.Runner.announce_messages;
  Alcotest.(check bool) "not informed" false announced.Runner.all_informed;
  (* After the election (t=44.632, lap closed at t=53.473 fault-free) only
     a node the announcement has yet to pass is needed: at t=50 it has
     passed node 3 but not node 7. *)
  let crash_at_50 node =
    Runner.announce ~check:true ~seed:1
      (Runner.config ~n:8
         ~a0:(Analysis.recommended_a0 ~theta:1. 8)
         ~fault:(fault (Printf.sprintf "crash(%d@50)" node))
         ())
  in
  let passed = crash_at_50 3 and ahead = crash_at_50 7 in
  Alcotest.(check bool) "passed node: lap closes" true
    passed.Runner.all_informed;
  Alcotest.(check (option string)) "passed node: no stall" None
    passed.Runner.election.Runner.stalled;
  Alcotest.(check bool) "node ahead: elected" true
    ahead.Runner.election.Runner.elected;
  Alcotest.(check (option string)) "node ahead: lap stalls"
    (Some "node 7 crashed with no rejoin at t=50: announcement lap cannot \
           complete")
    ahead.Runner.election.Runner.stalled;
  List.iter
    (fun o ->
       match o.Runner.violations with
       | [] -> ()
       | v :: _ -> fail_violation ~seed:1 ~scenario:"crash" v)
    [ plain; announced.Runner.election; passed.Runner.election;
      ahead.Runner.election ]

let prop_safety_unique_leader =
  QCheck.Test.make ~name:"never more than one leader (any seed, any size)"
    ~count:60
    QCheck.(pair (int_range 2 16) small_int)
    (fun (n, seed) ->
       let config = Runner.config ~n ~a0:0.15 () in
       let outcome = Runner.run ~seed config in
       outcome.Runner.leader_count <= 1
       && (not outcome.Runner.elected)
          || outcome.Runner.leader_count = 1)

let prop_announce_informs_everyone =
  QCheck.Test.make ~name:"announcement lap always informs the whole ring"
    ~count:40
    QCheck.(pair (int_range 2 16) small_int)
    (fun (n, seed) ->
       let config = Runner.config ~n ~a0:0.15 () in
       let o = Runner.announce ~seed config in
       o.Runner.election.Runner.elected
       && o.Runner.all_informed
       && o.Runner.announce_messages = n)

let prop_knockouts_bounded =
  QCheck.Test.make ~name:"knockouts bounded by n-1" ~count:40
    QCheck.(pair (int_range 2 16) small_int)
    (fun (n, seed) ->
       let config = Runner.config ~n ~a0:0.15 () in
       let outcome = Runner.run ~seed config in
       outcome.Runner.knockouts <= n - 1)

(* [Runner.config] builds the ring once and every run shares it.  The
   shared topology must be exactly [Topology.ring n], and running other
   seeds (and the announce variant) on the same configuration in between
   must not perturb a replay — the shared ring is never mutated. *)
let test_shared_topology () =
  let n = 12 in
  let config = Runner.config ~n ~a0:0.1 () in
  let module T = Abe_net.Topology in
  let links t =
    Array.to_list (Array.map (fun l -> (l.T.id, l.T.src, l.T.dst)) (T.links t))
  in
  let ring = T.ring n in
  Alcotest.(check int) "node count" (T.node_count ring)
    (T.node_count config.Runner.topology);
  Alcotest.(check (list (triple int int int))) "ring links in order"
    (links ring) (links config.Runner.topology);
  let replayable o = { o with Runner.wall_time = 0. } in
  let first = Runner.run ~seed:1 config in
  let second = Runner.run ~seed:2 config in
  ignore (Runner.announce ~seed:2 config : Runner.announced);
  let third = Runner.run ~seed:1 config in
  Alcotest.(check bool) "seed 2 differs from seed 1" true
    (compare (replayable first) (replayable second) <> 0);
  Alcotest.(check bool) "seed 1 replays after other runs" true
    (compare (replayable first) (replayable third) = 0);
  Alcotest.(check (list (triple int int int))) "ring unchanged after runs"
    (links ring) (links config.Runner.topology)

(* The tick rule's table: [config] precomputes the activation probability
   per watermark, and the lookup must reproduce the pure reference in
   [Election] bit for bit. *)
let test_activation_table_exact () =
  List.iter
    (fun n ->
       List.iter
         (fun a0 ->
            let config = Runner.config ~n ~a0 () in
            let table = config.Runner.activation in
            let naive = (Runner.naive config).Runner.activation in
            Alcotest.(check int) "table length" (n + 1) (Array.length table);
            Alcotest.(check int) "naive length" (n + 1) (Array.length naive);
            for d = 1 to n do
              let expected = Election.activation_probability ~a0 ~d in
              if
                Int64.bits_of_float table.(d)
                <> Int64.bits_of_float expected
              then
                Alcotest.failf "n=%d a0=%g d=%d: table %h, reference %h" n a0
                  d table.(d) expected;
              if Int64.bits_of_float naive.(d) <> Int64.bits_of_float a0 then
                Alcotest.failf "n=%d a0=%g d=%d: naive %h" n a0 d naive.(d)
            done)
         [ 0.001; Analysis.recommended_a0 ~theta:1. n; 0.7 ])
    [ 2; 48; 2000 ]

(* [Runner.on_tick] against [Election.tick_decision] on copies of one
   stream: same new state, same activation, same number of draws. *)
let test_tick_decision_matches_reference () =
  let n = 48 and a0 = 0.3 in
  let config = Runner.config ~n ~a0 () in
  let sends = ref 0 in
  let step =
    Runner.step config
      ~send:(fun () ~hop:_ ~traversed:_ -> incr sends)
      ~mark:(fun () _ ~traversed:_ -> ())
      ~unsound:(fun () ~hop:_ ~traversed:_ -> ())
  in
  let rng = Abe_prob.Rng.create ~seed:17 in
  List.iter
    (fun phase ->
       for d = 1 to n do
         for _ = 1 to 4 do
           let st = { Election.phase; d } in
           let reference = Abe_prob.Rng.copy rng in
           let expected, activated =
             Election.tick_decision ~a0 ~rng:reference st
           in
           sends := 0;
           let got = Runner.on_tick step () ~rng st in
           if got <> expected || (!sends = 1) <> activated then
             Alcotest.failf "state %a: runner %a (sent %d), reference %a"
               Election.pp_state st Election.pp_state got !sends
               Election.pp_state expected;
           if Abe_prob.Rng.bits64 rng <> Abe_prob.Rng.bits64 reference then
             Alcotest.failf "state %a: streams diverged" Election.pp_state st
         done
       done)
    [ Election.Idle; Election.Active; Election.Passive; Election.Leader ]

(* sim-ticks' configuration: almost every event is a tick or its γ = 0
   completion, and that cycle allocates nothing, so whole runs — set-up
   and the rare token included — stay under one minor word per event. *)
let test_tick_regime_allocation () =
  let n = 48 in
  let config =
    Runner.config ~n ~a0:(Analysis.recommended_a0 ~theta:1. n)
      ~params:Params.default ()
  in
  let words = ref 0. and events = ref 0 in
  for seed = 1 to 20 do
    let before = Gc.minor_words () in
    let outcome = Runner.run ~seed config in
    words := !words +. (Gc.minor_words () -. before);
    events := !events + outcome.Runner.executed_events
  done;
  let per_event = !words /. float_of_int !events in
  if per_event > 1. then
    Alcotest.failf "%g minor words per event over %d events (bound 1)"
      per_event !events

(* ------------------------------------------------------- token regime *)

(* perfbench's sim-tokens ring: n = 2000 by default, δ = 0.1/n, a0 = 1/n,
   so tokens lap the ring between tick rounds; the O(n^2) mass samples and
   the phase log are off.  With processing delay the run is cut at time 4:
   a hop's processing then takes thousands of times its transit, and the
   election does not finish in a test's time. *)
let token_config ?(n = 2000) ?(gamma = 0.) ?(clock = Abe_net.Clock.perfect)
    () =
  let inv_n = 1. /. float_of_int n in
  let params = Params.make ~delta:(0.1 *. inv_n) ~gamma ~clock in
  let proc_delay =
    if gamma > 0. then Some (Abe_prob.Dist.exponential ~mean:gamma) else None
  in
  Runner.config ~n ~a0:inv_n ~params ~proc_delay
    ~limit_time:(if gamma > 0. then 4. else 1e7)
    ~record_mass:false ~record_phases:false ()

(* (events, messages, ticks, elected_at bits, leader) of three seeds under
   perfect clocks, clock rates spread 1000-fold (the CLI's --drift 1000)
   and processing delay γ = 0.2, and of seed 1 on a perfect n = 10^4 ring.
   Any change to the order in which the engine executes a tick round — the
   first one included — shows in them. *)
let test_token_goldens () =
  let spread = sqrt 1000. in
  let settings =
    [ ( "perfect",
        token_config (),
        [ (1, (8364, 2000, 2182, 4607611858196869292L, 216));
          (2, (18636, 2000, 7318, 4615394041769722670L, 1928));
          (3, (7354, 2000, 1677, 4605745465544454780L, 282)) ] );
      ( "drift 1000",
        token_config
          ~clock:(Abe_net.Clock.spec ~s_low:(1. /. spread) ~s_high:spread)
          (),
        [ (1, (30102, 4000, 11051, 4600038926378667761L, 1320));
          (2, (38660, 6000, 13330, 4601144641300992301L, 1557));
          (3, (38814, 6000, 13407, 4601238462187445607L, 1434)) ] );
      ( "n=10000 perfect",
        token_config ~n:10_000 (),
        [ (1, (24158, 10000, 2079, 4596731509748980398L, 4198)) ] );
      ( "gamma 0.2",
        token_config ~gamma:0.2 (),
        [ (1, (15637, 34, 7573, 9221120237041090561L, -1));
          (2, (15673, 27, 7623, 9221120237041090561L, -1));
          (3, (15703, 51, 7606, 9221120237041090561L, -1)) ] ) ]
  in
  let pin = Alcotest.(pair int (pair int (pair int (pair int64 int)))) in
  List.iter
    (fun (name, config, expected) ->
       List.iter
         (fun (seed, (events, messages, ticks, elected_at, leader)) ->
            let o = Runner.run ~seed config in
            Alcotest.check pin
              (Printf.sprintf "%s seed %d" name seed)
              (events, (messages, (ticks, (elected_at, leader))))
              ( o.Runner.executed_events,
                ( o.Runner.messages,
                  ( o.Runner.ticks,
                    ( Int64.bits_of_float o.Runner.elected_at,
                      Option.value o.Runner.leader ~default:(-1) ) ) ) ))
         expected)
    settings

(* The token regime's message path takes no closure and no clock read per
   message for a hook that is off: a warm n = 2000 run allocates at most 5
   minor words per event (the token, the election's reaction and the
   floats boxed across module boundaries). *)
let test_token_regime_allocation () =
  let config = token_config () in
  ignore (Runner.run ~seed:100 config : Runner.outcome);
  let words = ref 0. and events = ref 0 in
  for seed = 1 to 10 do
    let before = Gc.minor_words () in
    let outcome = Runner.run ~seed config in
    words := !words +. (Gc.minor_words () -. before);
    events := !events + outcome.Runner.executed_events
  done;
  let per_event = !words /. float_of_int !events in
  if per_event > 5. then
    Alcotest.failf "%g minor words per event over %d events (bound 5)"
      per_event !events

(* ------------------------------------------------------ pooled rings *)

let test_budget_validation () =
  let expect_config_error name f =
    match f () with
    | exception Invalid_argument msg ->
      if not (String.starts_with ~prefix:"Runner.config:" msg) then
        Alcotest.failf "%s: message %S" name msg
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_config_error "limit_events=0" (fun () ->
      Runner.config ~n:4 ~limit_events:0 ());
  expect_config_error "limit_events<0" (fun () ->
      Runner.config ~n:4 ~limit_events:(-3) ());
  expect_config_error "limit_time=nan" (fun () ->
      Runner.config ~n:4 ~limit_time:nan ());
  expect_config_error "limit_time=0" (fun () ->
      Runner.config ~n:4 ~limit_time:0. ());
  expect_config_error "limit_time<0" (fun () ->
      Runner.config ~n:4 ~limit_time:(-1.) ());
  let config = Runner.config ~n:4 () in
  expect_config_error "with_limit_events 0" (fun () ->
      Runner.with_limit_events config 0);
  let capped = Runner.with_limit_events config 5 in
  Alcotest.(check int) "positive budget kept" 5 capped.Runner.limit_events;
  Alcotest.(check int) "budget honoured" 5
    (Runner.run ~seed:1 capped).Runner.executed_events

(* The variants, faults and hooks the reuse property draws from. *)
type variant = Plain | Naive | Announce | Gamma | Drift | Link_delays

type hook =
  | No_hook
  | Metrics_hook
  | Causal_hook
  | Check_hook
  | Trace_hook
  | Scheduler_hook
  | Past_deadline
  | Event_budget  (* the configuration's [with_limit_events _ 3] copy *)

let variants = [| Plain; Naive; Announce; Gamma; Drift; Link_delays |]

let scenarios =
  [| "none"; "delay-spike"; "crash"; "rejoin"; "link-down(0@5:40)";
     "bursty-loss" |]

let hooks =
  [| No_hook; Metrics_hook; Causal_hook; Check_hook; Trace_hook;
     Scheduler_hook; Past_deadline; Event_budget |]

let variant_name = function
  | Plain -> "plain" | Naive -> "naive" | Announce -> "announce"
  | Gamma -> "gamma" | Drift -> "drift" | Link_delays -> "link-delays"

let hook_name = function
  | No_hook -> "none" | Metrics_hook -> "metrics" | Causal_hook -> "causal"
  | Check_hook -> "check" | Trace_hook -> "trace"
  | Scheduler_hook -> "scheduler" | Past_deadline -> "past-deadline"
  | Event_budget -> "limit-events-3"

(* A small time budget: faults may stall an election for good. *)
let pooled_config variant scenario n =
  let fault = fault_of scenario ~seed:3 ~n in
  let config ?params ?proc_delay () =
    Runner.config ~n ~a0:0.15 ?params ?proc_delay ~fault ~limit_time:150. ()
  in
  match variant with
  | Plain | Announce -> config ()
  | Naive -> Runner.naive (config ())
  | Gamma ->
    config
      ~params:(Params.make ~delta:1. ~gamma:0.3 ~clock:Abe_net.Clock.perfect)
      ~proc_delay:(Some (Abe_prob.Dist.exponential ~mean:0.3))
      ()
  | Drift ->
    config
      ~params:
        (Params.make ~delta:1. ~gamma:0.
           ~clock:(Abe_net.Clock.spec ~s_low:0.8 ~s_high:1.25))
      ()
  | Link_delays ->
    Runner.with_link_delays (config ())
      (Array.init n (fun i ->
           if i mod 2 = 0 then Abe_net.Delay_model.abe_exponential ~delta:0.5
           else Abe_net.Delay_model.abd_uniform ~bound:2.))

let causal_export c =
  let path = Filename.temp_file "abe_pooled" ".json" in
  let oc = open_out path in
  Abe_sim.Causal.output_trace_json oc c;
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  text

(* One run of [variant] on [config] (or its event-budget copy), rendered
   to everything it shows: the outcome without [wall_time], and the
   export of whichever hook is on. *)
let pooled_step variant ~config ~capped (seed, hook) =
  let metrics =
    if hook = Metrics_hook then Some (Abe_sim.Metrics.create ()) else None
  in
  let causal =
    if hook = Causal_hook then Some (Abe_sim.Causal.create ()) else None
  in
  let trace =
    if hook = Trace_hook then Some (Abe_sim.Trace.create ~enabled:true ())
    else None
  in
  let check = hook = Check_hook in
  let choices = ref [] in
  let scheduler =
    if hook = Scheduler_hook then
      Some
        { Abe_sim.Engine.window = 0.5;
          choose =
            (fun ~now ~state_digest candidates ->
               choices := (now, state_digest, candidates) :: !choices;
               state_digest mod Array.length candidates) }
    else None
  in
  let wall_deadline = if hook = Past_deadline then Some 0. else None in
  let config = if hook = Event_budget then capped else config in
  let replayable o = { o with Runner.wall_time = 0. } in
  let outcome =
    match variant with
    | Announce ->
      let a = Runner.announce ?trace ?metrics ?causal ~check ~seed config in
      `Announced { a with Runner.election = replayable a.Runner.election }
    | Plain | Naive | Gamma | Drift | Link_delays ->
      `Outcome
        (replayable
           (Runner.run ?trace ?metrics ?scheduler ?causal ~check
              ?wall_deadline ~seed config))
  in
  ( outcome,
    Option.map Abe_sim.Metrics.report_rows metrics,
    Option.map causal_export causal,
    Option.map Abe_sim.Trace.to_jsonl trace,
    List.rev !choices )

(* Reuse is unobservable: six runs in a row on one configuration — each
   resetting whatever network the one before left behind, be it stopped,
   over a budget, past its wall deadline or elected — show exactly what
   each run shows on a configuration built just for it. *)
let prop_run_order_irrelevant =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 40) (oneofa variants) (oneofa scenarios)
        (list_repeat 6 (pair (int_range 1 1000) (oneofa hooks))))
  in
  let print (n, variant, scenario, steps) =
    Printf.sprintf "n=%d %s fault=%s runs=[%s]" n (variant_name variant)
      scenario
      (String.concat "; "
         (List.map
            (fun (seed, hook) -> Printf.sprintf "%d:%s" seed (hook_name hook))
            steps))
  in
  QCheck.Test.make ~name:"pooled runs equal fresh runs, in any order"
    ~count:60 (QCheck.make ~print gen)
    (fun (n, variant, scenario, steps) ->
       let config = pooled_config variant scenario n in
       let capped = Runner.with_limit_events config 3 in
       List.for_all
         (fun step ->
            let pooled = pooled_step variant ~config ~capped step in
            let fresh_config = pooled_config variant scenario n in
            let fresh =
              pooled_step variant ~config:fresh_config
                ~capped:(Runner.with_limit_events fresh_config 3)
                step
            in
            compare pooled fresh = 0)
         steps)

(* An exception out of a run still hands its network back, and the next
   run resets it: a scheduler that throws mid-run leaves no trace. *)
let test_reset_after_exception () =
  let config = Runner.config ~n:12 ~a0:0.1 () in
  let replayable o = { o with Runner.wall_time = 0. } in
  let expected = replayable (Runner.run ~seed:5 (Runner.config ~n:12 ~a0:0.1 ())) in
  let calls = ref 0 in
  let throwing =
    { Abe_sim.Engine.window = 1.;
      choose =
        (fun ~now:_ ~state_digest:_ _ ->
           incr calls;
           if !calls = 3 then failwith "scheduler gave up";
           0) }
  in
  (match Runner.run ~scheduler:throwing ~seed:5 config with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "the scheduler's exception was swallowed");
  Alcotest.(check bool) "next run equals a fresh one" true
    (compare expected (replayable (Runner.run ~seed:5 config)) = 0)

(* Words allocated by a run, minor and major alike; [Gc.minor] first, so
   the counters are up to date. *)
let words_of f =
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () in
  Gc.minor ();
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* A warm run does no per-node allocation: after one warm-up, a run cut to
   one event allocates the same at n = 4000 as at n = 250, up to a fixed
   slack — with and without a fault's delay overlay, and with clock rates
   spread 1000-fold, whose clustered first tick instants the network
   orders by heapsort. *)
let test_warm_setup_constant () =
  let slack = 1024. in
  let spread = sqrt 1000. in
  let drift = Abe_net.Clock.spec ~s_low:(1. /. spread) ~s_high:spread in
  List.iter
    (fun (scenario, clock) ->
       let warm n =
         let config =
           Runner.config ~n ~a0:0.1 ~limit_events:1
             ~params:(Params.make ~delta:1. ~gamma:0. ~clock)
             ~fault:(fault_of scenario ~seed:1 ~n) ()
         in
         ignore (Runner.run ~seed:1 config : Runner.outcome);
         words_of (fun () -> ignore (Runner.run ~seed:2 config : Runner.outcome))
       in
       let small = warm 250 and large = warm 4000 in
       if large -. small > slack then
         Alcotest.failf "%s: %g words at n=4000, %g at n=250 (slack %g)"
           scenario large small slack)
    [ ("none", Abe_net.Clock.perfect);
      ("delay-spike", Abe_net.Clock.perfect);
      ("none", drift) ]

(* A checked run keeps its monitor with the pooled ring and resets it in
   place: after one warm-up, a checked run cut to one event allocates the
   same at n = 4000 as at n = 250, up to a fixed slack. *)
let test_warm_checked_constant () =
  let slack = 1024. in
  let warm n =
    let config = Runner.config ~n ~a0:0.1 ~limit_events:1 () in
    ignore (Runner.run ~check:true ~seed:1 config : Runner.outcome);
    words_of (fun () ->
        ignore (Runner.run ~check:true ~seed:2 config : Runner.outcome))
  in
  let small = warm 250 and large = warm 4000 in
  if large -. small > slack then
    Alcotest.failf "%g words at n=4000, %g at n=250 (slack %g)" large small
      slack

(* Each configuration's runs with no scheduler against the same runs
   under a scheduler that always picks the earliest event.  The second
   kind pops in pure [(time, seq)] order, one engine event at a time;
   the first may run a same-instant completion inside the event that
   schedules it, a claimed tick taking no job at all.  Both must show
   exactly the same: the outcome, the engine's counts, the trace and,
   with metrics, spans and the oracle on, every metric row, every span
   and every violation, so the oracle's observer sees the claimed ticks
   in one run and the job path in the other.  (Under a scheduler the
   monitor's clock-rate check is off; the gamma = 0 golden in
   test_network pins the ticks' clock readings.)  A faulted ring may never elect, so its
   runs stop at 2 x 10^5 events; at gamma = 0.2 no completion falls at
   its arrival instant, the control. *)
let in_order_configs () =
  let cli n = Runner.config ~n ~a0:(Analysis.recommended_a0 ~theta:1. n) in
  let faulted n ?limit_events scenario seed =
    cli n ?limit_events ~fault:(fault_of scenario ~seed ~n) ()
  in
  [ ("n=48", fun _ -> cli 48 ());
    ( "deterministic delay",
      fun _ ->
        cli 8 ~delay:(Abe_net.Delay_model.abd_deterministic ~delay:1.) () );
    ( "clock rates in [1, 4]",
      fun _ ->
        cli 16
          ~params:
            (Params.make ~delta:1. ~gamma:0.
               ~clock:(Abe_net.Clock.spec ~s_low:1. ~s_high:4.))
          () );
    ("crash(2@5)", faulted 8 ~limit_events:200_000 "crash(2@5)");
    ("rejoin(2@5:9)", faulted 8 ~limit_events:200_000 "rejoin(2@5:9)");
    ("churn(0.2)", faulted 16 ~limit_events:200_000 "churn(0.2)");
    ("bursty-loss", faulted 16 ~limit_events:200_000 "bursty-loss");
    ("cut at 777 events", fun _ -> cli 8 ~limit_events:777 ());
    ( "gamma 0.2",
      fun _ ->
        cli 32
          ~params:
            (Params.make ~delta:1. ~gamma:0.2 ~clock:Abe_net.Clock.perfect)
          ~proc_delay:(Some (Abe_prob.Dist.exponential ~mean:0.2))
          () ) ]

let test_claimed_equal_in_order () =
  let shown ~hooks ~in_order ~seed config =
    let metrics = if hooks then Some (Abe_sim.Metrics.create ()) else None in
    let causal = if hooks then Some (Abe_sim.Causal.create ()) else None in
    let trace = Abe_sim.Trace.create ~enabled:true () in
    let scheduler =
      if in_order then Some (Abe_check.Schedulers.replay ~window:0. [])
      else None
    in
    let o =
      Runner.run ~trace ?metrics ?causal ?scheduler ~check:hooks ~seed config
    in
    let span s =
      Abe_sim.Causal.
        (span_id s, lamport s, label s, span_begin s, span_end s)
    in
    ( Fmt.str "%a at %h" Runner.pp_outcome o o.Runner.elected_at,
      (o.Runner.executed_events, o.Runner.max_queue_depth),
      Abe_sim.Trace.to_jsonl trace,
      Option.map Abe_sim.Metrics.report_rows metrics,
      Option.map (fun c -> List.map span (Abe_sim.Causal.spans c)) causal,
      List.map (Fmt.str "%a" Abe_sim.Oracle.pp_violation) o.Runner.violations )
  in
  List.iter
    (fun (name, config_of) ->
       for seed = 1 to 20 do
         let config = config_of seed in
         List.iter
           (fun hooks ->
              let claimed = shown ~hooks ~in_order:false ~seed config
              and in_order = shown ~hooks ~in_order:true ~seed config in
              if compare claimed in_order <> 0 then
                let headline (s, (events, depth), _, _, _, _) =
                  Printf.sprintf "%s, %d events, depth %d" s events depth
                in
                Alcotest.failf "%s, seed %d, hooks %b: %s, in order %s" name
                  seed hooks (headline claimed) (headline in_order))
           [ false; true ]
       done)
    (in_order_configs ())

let () =
  Alcotest.run "runner"
    [ ( "correctness",
        [ Alcotest.test_case "unique leader over seeds" `Quick
            test_elects_unique_leader;
          Alcotest.test_case "various sizes" `Quick test_various_ring_sizes;
          Alcotest.test_case "n=2" `Quick test_n2_ring;
          Alcotest.test_case "deterministic" `Quick test_deterministic_in_seed;
          Alcotest.test_case "counters" `Quick test_counters_consistent;
          Alcotest.test_case "elected time" `Quick test_elected_time_positive;
          Alcotest.test_case "activation order" `Quick
            test_activation_times_increasing;
          Alcotest.test_case "shared topology" `Quick test_shared_topology ] );
      ( "models",
        [ Alcotest.test_case "ABD uniform" `Quick test_works_on_abd_delays;
          Alcotest.test_case "deterministic delay" `Quick
            test_works_with_deterministic_delay;
          Alcotest.test_case "retransmission" `Quick
            test_works_with_retransmission_delays;
          Alcotest.test_case "heavy tail" `Quick test_works_with_heavy_tail;
          Alcotest.test_case "clock drift" `Quick test_works_with_clock_drift;
          Alcotest.test_case "processing delay" `Quick
            test_works_with_processing_delay ] );
      ( "heterogeneous links",
        [ Alcotest.test_case "alternating link types" `Quick
            test_heterogeneous_links;
          Alcotest.test_case "validation" `Quick
            test_heterogeneous_links_validation ] );
      ( "failure injection",
        [ Alcotest.test_case "crash blocks election" `Quick
            test_crash_blocks_election;
          Alcotest.test_case "late crash harmless" `Quick
            test_crash_after_election_harmless;
          Alcotest.test_case "faulted mass goldens" `Quick
            test_faulted_mass_goldens ] );
      ( "oracle",
        [ Alcotest.test_case "200 checked runs clean" `Quick
            test_checked_runs_clean;
          Alcotest.test_case "crash runs clean" `Quick
            test_checked_crash_runs_clean;
          Alcotest.test_case "churn runs clean" `Quick
            test_checked_churn_runs_clean;
          Alcotest.test_case "rejoin restores liveness" `Quick
            test_rejoin_election_can_complete;
          Alcotest.test_case "seeded mutation caught" `Quick
            test_stale_max_mutation_caught;
          Alcotest.test_case "checking perturbs nothing" `Quick
            test_check_does_not_perturb;
          Alcotest.test_case "fault runs deterministic" `Quick
            test_fault_runs_deterministic;
          Alcotest.test_case "announce checked" `Quick
            test_announce_checked_clean ] );
      ( "announce",
        [ Alcotest.test_case "completes and informs" `Quick
            test_announce_completes;
          Alcotest.test_case "election phase unchanged" `Quick
            test_announce_matches_plain_election;
          Alcotest.test_case "stall matches plain" `Quick
            test_announce_stall_matches_plain;
          Alcotest.test_case "n=2" `Quick test_announce_n2;
          Alcotest.test_case "mass samples" `Quick test_mass_samples_recorded ] );
      ( "configuration",
        [ Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "fault indices" `Quick test_fault_indices;
          Alcotest.test_case "naive variant" `Quick test_naive_variant_small_ring;
          Alcotest.test_case "budget exhaustion" `Quick
            test_budget_exhaustion_reported;
          Alcotest.test_case "budget validation" `Quick
            test_budget_validation ] );
      ( "pooled rings",
        [ Alcotest.test_case "reset after exception" `Quick
            test_reset_after_exception;
          Alcotest.test_case "warm set-up O(1) in n" `Quick
            test_warm_setup_constant;
          Alcotest.test_case "warm checked run O(1) in n" `Quick
            test_warm_checked_constant;
          QCheck_alcotest.to_alcotest prop_run_order_irrelevant ] );
      ( "tick rule",
        [ Alcotest.test_case "activation table exact" `Quick
            test_activation_table_exact;
          Alcotest.test_case "decision matches reference" `Quick
            test_tick_decision_matches_reference;
          Alcotest.test_case "tick regime allocation" `Quick
            test_tick_regime_allocation ] );
      ( "same-instant",
        [ Alcotest.test_case "equal to in-order runs" `Quick
            test_claimed_equal_in_order ] );
      ( "token regime",
        [ Alcotest.test_case "n=2000 goldens" `Quick test_token_goldens;
          Alcotest.test_case "allocation" `Quick
            test_token_regime_allocation ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_safety_unique_leader;
            prop_knockouts_bounded;
            prop_announce_informs_everyone ] ) ]
