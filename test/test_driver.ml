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
  Alcotest.(check int) "4 jobs, 4 domains" 4
    (Driver.num_domains (Driver.of_jobs 4));
  Alcotest.(check int) "sequential has one worker" 1
    (Driver.num_domains Driver.Sequential);
  (match Driver.of_jobs 0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "jobs=0 accepted");
  match Driver.parallel ~num_domains:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "num_domains=0 accepted"

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

let test_summarize_parity () =
  let config = Abe_core.Runner.config ~n:6 ~a0:0.2 () in
  let measure ~seed =
    (Abe_core.Runner.run ~seed config).Abe_core.Runner.elected_at
  in
  let sequential = Exp.summarize ~base:3 ~count:10 measure in
  let parallel =
    Exp.summarize ~driver:(Driver.Parallel { num_domains = 4 }) ~base:3
      ~count:10 measure
  in
  Alcotest.(check bool) "byte-identical summary" true (sequential = parallel)

let test_summarize_until_parity () =
  let measure ~seed =
    let rng = Abe_prob.Rng.create ~seed in
    5. +. Abe_prob.Rng.normal rng ~mu:0. ~sigma:2.
  in
  let sequential =
    Exp.summarize_until ~base:9 ~initial:6 ~max_count:60
      ~relative_precision:0.1 measure
  in
  let parallel =
    Exp.summarize_until ~driver:(Driver.Parallel { num_domains = 3 }) ~base:9
      ~initial:6 ~max_count:60 ~relative_precision:0.1 measure
  in
  Alcotest.(check bool) "byte-identical summary" true (sequential = parallel)

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

let test_sweep_parity () =
  let f n = n * 7 in
  Alcotest.(check (list (pair int int))) "sweep parity"
    (Exp.sweep [ 1; 2; 3; 4; 5 ] f)
    (Exp.sweep ~driver:(Driver.Parallel { num_domains = 2 }) [ 1; 2; 3; 4; 5 ] f)

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
    Driver.map (Driver.parallel ~num_domains:4 ()) fingerprint seeds
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
          Alcotest.test_case "summarize" `Quick test_summarize_parity;
          Alcotest.test_case "summarize_until" `Quick test_summarize_until_parity;
          Alcotest.test_case "synchronizer measurement" `Quick
            test_synchronizer_parity;
          Alcotest.test_case "sweep" `Quick test_sweep_parity;
          Alcotest.test_case "one config, 4 domains" `Quick
            test_shared_config_parity ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_map_parity ] ) ]
