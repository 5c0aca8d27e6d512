open Abe_harness

(* A Runner.outcome minus its wall-clock field: everything here must be
   byte-identical between drivers.  wall_time is host time and is the one
   deliberately non-deterministic field. *)
let election_fingerprint (o : Abe_core.Runner.outcome) =
  ( ( o.Abe_core.Runner.elected,
      o.Abe_core.Runner.leader,
      o.Abe_core.Runner.leader_count,
      o.Abe_core.Runner.elected_at,
      o.Abe_core.Runner.messages ),
    ( o.Abe_core.Runner.activations,
      o.Abe_core.Runner.knockouts,
      o.Abe_core.Runner.purges,
      o.Abe_core.Runner.ticks,
      o.Abe_core.Runner.activation_times ),
    ( o.Abe_core.Runner.mass_samples,
      o.Abe_core.Runner.phase_transitions,
      o.Abe_core.Runner.executed_events,
      o.Abe_core.Runner.max_queue_depth,
      o.Abe_core.Runner.engine_outcome ) )

let test_of_jobs () =
  Alcotest.(check bool) "1 is sequential" true (Driver.of_jobs 1 = Driver.Sequential);
  Alcotest.(check bool) "4 jobs, 4 domains" true
    (Driver.of_jobs 4 = Driver.Parallel { num_domains = 4 });
  match Driver.of_jobs 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 accepted"

let test_map_matches_list_map () =
  let items = List.init 23 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun num_domains ->
       Alcotest.(check (list int))
         (Printf.sprintf "parity at %d domains" num_domains)
         (List.map f items)
         (Driver.map (Driver.Parallel { num_domains }) f items))
    [ 1; 2; 3; 8; 64 ]

let test_map_empty_and_tiny () =
  let d = Driver.Parallel { num_domains = 4 } in
  Alcotest.(check (list int)) "empty" [] (Driver.map d succ []);
  Alcotest.(check (list int)) "fewer items than domains" [ 2; 3 ]
    (Driver.map d succ [ 1; 2 ])

let test_map_propagates_exception () =
  let d = Driver.Parallel { num_domains = 3 } in
  match Driver.map d (fun x -> if x = 5 then failwith "boom" else x) (List.init 9 Fun.id) with
  | exception Failure message -> Alcotest.(check string) "message" "boom" message
  | _ -> Alcotest.fail "worker exception not re-raised"

let test_timed_map () =
  let results, timing = Driver.timed_map Driver.Sequential succ [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] results;
  Alcotest.(check int) "tasks" 3 timing.Driver.tasks;
  Alcotest.(check bool) "elapsed non-negative" true (timing.Driver.elapsed >= 0.)

let election_parity driver () =
  let config = Abe_core.Runner.config ~n:6 ~a0:0.2 () in
  let run ~seed = Abe_core.Runner.run ~seed config in
  let sequential = Exp.replicate ~base:11 ~count:8 run in
  let parallel = Exp.replicate ~driver ~base:11 ~count:8 run in
  Alcotest.(check int) "same count" (List.length sequential) (List.length parallel);
  List.iter2
    (fun s p ->
       Alcotest.(check bool) "identical outcome" true
         (election_fingerprint s = election_fingerprint p))
    sequential parallel

let test_synchronizer_parity () =
  let sequential =
    Abe_synchronizer.Measure.bfs_comparison ~replications:4 ~seed:2 ~n:8
      ~delta:1. ()
  in
  let parallel =
    Abe_synchronizer.Measure.bfs_comparison
      ~driver:(Driver.Parallel { num_domains = 3 }) ~replications:4 ~seed:2
      ~n:8 ~delta:1. ()
  in
  Alcotest.(check bool) "byte-identical report" true (sequential = parallel)

let test_family_parity () =
  let family driver =
    Abe_synchronizer.Measure.family ~driver ~seed:3
      ~gamma_seed:(fun radius -> 7 + radius)
      ~topology:(Abe_net.Topology.bidirectional_ring 8)
      ~delay:(Abe_net.Delay_model.abe_exponential ~delta:1.) ~pulses:6
      ~radii:[ 0; 1; 2 ] ()
  in
  Alcotest.(check bool) "identical family records" true
    (family Driver.Sequential = family (Driver.Parallel { num_domains = 2 }))

(* The baseline elections the suite replicates beside the ABE election.
   compare, not (=): an unelected asynchronous run has elected_at = nan. *)
let test_baseline_parity () =
  let parallel = Driver.Parallel { num_domains = 3 } in
  let same label run =
    let sequential = Exp.replicate ~base:21 ~count:6 run in
    let parallel = Exp.replicate ~driver:parallel ~base:21 ~count:6 run in
    Alcotest.(check bool) label true (compare sequential parallel = 0)
  in
  same "Itai-Rodeh" (fun ~seed -> Abe_election.Itai_rodeh.run ~seed ~n:7 ());
  same "Chang-Roberts" (fun ~seed ->
      Abe_election.Chang_roberts.run ~seed ~n:7 ());
  same "Dolev-Klawe-Rodeh" (fun ~seed ->
      Abe_election.Dolev_klawe_rodeh.run ~seed ~n:7 ());
  same "Itai-Rodeh on ABE" (fun ~seed ->
      Abe_election.Async_baselines.itai_rodeh ~seed ~n:7 ())

(* Per-seed registries merged in seed order: the merged report, like the
   results, does not depend on the driver. *)
let test_merged_metrics_parity () =
  let config = Abe_core.Runner.config ~n:6 ~a0:0.2 () in
  let run driver =
    let results, merged, _ =
      Exp.replicate_merged ~driver ~base:31 ~count:6 (fun ~seed ~metrics ->
          election_fingerprint (Abe_core.Runner.run ~metrics ~seed config))
    in
    (results, Abe_sim.Metrics.report_rows merged)
  in
  let sequential_results, sequential_rows = run Driver.Sequential in
  let parallel_results, parallel_rows =
    run (Driver.Parallel { num_domains = 4 })
  in
  Alcotest.(check bool) "identical results" true
    (compare sequential_results parallel_results = 0);
  Alcotest.(check bool) "metrics recorded" true (sequential_rows <> []);
  Alcotest.(check (list (list string))) "identical merged report"
    sequential_rows parallel_rows

(* One configuration shared by four domains: each run takes a pooled
   network of its own, so the results are the sequential map's, in
   order, whichever domain ran which seed. *)
let test_shared_config_parity () =
  let config = Abe_core.Runner.config ~n:16 ~a0:0.1 () in
  let seeds = List.init 40 (fun i -> i + 1) in
  let fingerprint seed =
    election_fingerprint (Abe_core.Runner.run ~seed config)
  in
  let sequential = List.map fingerprint seeds in
  let parallel =
    Driver.map (Driver.of_jobs 4) fingerprint seeds
  in
  Alcotest.(check bool) "parallel equals sequential" true
    (compare sequential parallel = 0)

let prop_map_parity =
  QCheck.Test.make ~name:"parallel map == sequential map" ~count:50
    QCheck.(pair (list small_int) (int_range 1 6))
    (fun (items, num_domains) ->
       Driver.map (Driver.Parallel { num_domains }) (fun x -> x * 3 - 1) items
       = List.map (fun x -> x * 3 - 1) items)

let () =
  Alcotest.run "driver"
    [ ( "interface",
        [ Alcotest.test_case "of_jobs" `Quick test_of_jobs;
          Alcotest.test_case "timed_map" `Quick test_timed_map ] );
      ( "map",
        [ Alcotest.test_case "matches List.map" `Quick test_map_matches_list_map;
          Alcotest.test_case "empty and tiny inputs" `Quick test_map_empty_and_tiny;
          Alcotest.test_case "exception propagation" `Quick
            test_map_propagates_exception ] );
      ( "parity",
        [ Alcotest.test_case "election replicate, 2 domains" `Quick
            (election_parity (Driver.Parallel { num_domains = 2 }));
          Alcotest.test_case "election replicate, 5 domains" `Quick
            (election_parity (Driver.Parallel { num_domains = 5 }));
          Alcotest.test_case "baseline replicate" `Quick test_baseline_parity;
          Alcotest.test_case "merged metrics" `Quick test_merged_metrics_parity;
          Alcotest.test_case "synchronizer measurement" `Quick
            test_synchronizer_parity;
          Alcotest.test_case "synchronizer family" `Quick test_family_parity;
          Alcotest.test_case "one config, 4 domains" `Quick
            test_shared_config_parity ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_map_parity ] ) ]
