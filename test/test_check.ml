open Abe_check

(* The model-checking subsystem: repro-artifact codec, delta debugging,
   and the three exploration modes over the election runner. *)

let artifact =
  { Repro.mode = "fuzz"; seed = 1; n = 5; a0 = 0.32; delta = 1.; gamma = 0.;
    drift = 1.; delay = "exponential"; fault = "none";
    forwarding = "stale-max"; window = 0.5; tail = 0.;
    invariant = "hop-soundness"; fairness = 0;
    deviations = [ (1, 4); (7, 3) ]; slow_links = [] }

let roundtrip t =
  let path = Filename.temp_file "abe-repro" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Repro.to_file path t;
      Repro.of_file path)

let test_repro_roundtrip () =
  match roundtrip artifact with
  | Error m -> Alcotest.failf "roundtrip failed: %s" m
  | Ok back -> Alcotest.(check bool) "identical" true (back = artifact)

let test_repro_roundtrip_quantile () =
  let t =
    { artifact with Repro.mode = "quantile"; tail = 25.; deviations = [];
      slow_links = [ 0; 3 ]; a0 = 0.1234567890123456789 }
  in
  match roundtrip t with
  | Error m -> Alcotest.failf "roundtrip failed: %s" m
  | Ok back ->
    Alcotest.(check bool) "identical (floats exact via %.17g)" true (back = t)

let expect_error ~substring lines =
  match Repro.of_lines lines with
  | Ok _ -> Alcotest.failf "expected an error mentioning %S" substring
  | Error m ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    if not (contains m substring) then
      Alcotest.failf "error %S does not mention %S" m substring

let header =
  "{\"kind\":\"abe-repro\",\"version\":1,\"mode\":\"fuzz\",\"seed\":1,\
   \"n\":5,\"a0\":0.32,\"delta\":1,\"gamma\":0,\"drift\":1,\
   \"delay\":\"exponential\",\"fault\":\"none\",\"forwarding\":\"paper\",\
   \"window\":0.5,\"tail\":0,\"invariant\":\"hop-soundness\"}"

let test_repro_corrupt () =
  expect_error ~substring:"empty" [];
  expect_error ~substring:"expected '{'" [ "garbage" ];
  expect_error ~substring:"missing field" [ "{\"kind\":\"abe-repro\"}" ];
  expect_error ~substring:"not a repro artifact" [ "{\"kind\":\"other\"}" ];
  expect_error ~substring:"no end marker" [ header ];
  expect_error ~substring:"declares 2 choices"
    [ header; "{\"kind\":\"choice\",\"at\":0,\"pick\":1}";
      "{\"kind\":\"end\",\"choices\":2,\"slow_links\":0}" ];
  expect_error ~substring:"unknown line kind"
    [ header; "{\"kind\":\"mystery\"}" ];
  expect_error ~substring:"content after end marker"
    [ header; "{\"kind\":\"end\",\"choices\":0,\"slow_links\":0}";
      "{\"kind\":\"choice\",\"at\":0,\"pick\":1}" ]

let test_repro_missing_file () =
  match Repro.of_file "/nonexistent/repro.jsonl" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

let test_repro_fairness_roundtrip () =
  (* A positive fairness bound survives the codec ... *)
  (match roundtrip { artifact with Repro.fairness = 20000 } with
   | Error m -> Alcotest.failf "roundtrip failed: %s" m
   | Ok back -> Alcotest.(check int) "fairness" 20000 back.Repro.fairness);
  (* ... and a header without the field — every pre-liveness artifact —
     still parses, defaulting to "no bound". *)
  match
    Repro.of_lines
      [ header; "{\"kind\":\"end\",\"choices\":0,\"slow_links\":0}" ]
  with
  | Error m -> Alcotest.failf "legacy header rejected: %s" m
  | Ok t -> Alcotest.(check int) "fairness defaults to 0" 0 t.Repro.fairness

(* -------------------------------------------------------------- ddmin *)

let test_ddmin_pair () =
  (* Failure needs both 3 and 7; everything else is noise. *)
  let test xs = List.mem 3 xs && List.mem 7 xs in
  let minimal, probes = Shrink.ddmin ~test [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "minimal pair" [ 3; 7 ] minimal;
  Alcotest.(check bool) "probes counted" true (probes > 0)

let test_ddmin_singleton () =
  let test xs = List.mem 5 xs in
  let minimal, _ = Shrink.ddmin ~test [ 9; 5; 2; 8; 1; 7; 6; 4 ] in
  Alcotest.(check (list int)) "single element" [ 5 ] minimal

let test_ddmin_unreproducible () =
  let minimal, probes = Shrink.ddmin ~test:(fun _ -> false) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "unshrunk" [ 1; 2; 3 ] minimal;
  Alcotest.(check int) "one probe" 1 probes

let test_ddmin_empty () =
  let minimal, probes = Shrink.ddmin ~test:(fun _ -> true) [] in
  Alcotest.(check (list int)) "empty" [] minimal;
  Alcotest.(check int) "no probes" 0 probes

(* ------------------------------------------------------------ explore *)

let config n = Abe_core.Runner.config ~n ~a0:0.32 ()

(* What the CLI passes [Explore.run] unless told otherwise. *)
let sequential = Abe_harness.Driver.Sequential
let window = Schedulers.default_window
let paper = Abe_core.Runner.Paper

let test_fuzz_finds_stale_max () =
  let report =
    Explore.run ~driver:sequential ~window ~budget:64
      ~forwarding:Abe_core.Runner.Stale_max
      ~mode:(Explore.Fuzz { flip = 0.25 }) ~seed:1 (config 5)
  in
  match report.Explore.finding with
  | None -> Alcotest.fail "fuzz did not find the stale-max violation"
  | Some f ->
    Alcotest.(check string) "invariant" "hop-soundness" f.Explore.invariant;
    Alcotest.(check bool) "violations recorded" true
      (f.Explore.violations <> []);
    Alcotest.(check bool) "shrunk to a non-empty schedule" true
      (f.Explore.deviations <> [])

let test_fuzz_artifact_replays () =
  let report =
    Explore.run ~driver:sequential ~window ~budget:64
      ~forwarding:Abe_core.Runner.Stale_max
      ~mode:(Explore.Fuzz { flip = 0.25 }) ~seed:1 (config 5)
  in
  match report.Explore.finding with
  | None -> Alcotest.fail "no finding"
  | Some f ->
    let artifact =
      Explore.to_repro ~mode_name:"fuzz" ~seed:1 ~a0:0.32 ~delta:1. ~gamma:0.
        ~drift:1. ~delay:"exponential" ~fault:"none"
        ~window:Schedulers.default_window ~tail:0.
        ~forwarding:Abe_core.Runner.Stale_max ~fairness:0 ~n:5 f
    in
    (match Explore.replay_run ~artifact (config 5) with
     | Error m -> Alcotest.failf "replay failed: %s" m
     | Ok outcome ->
       Alcotest.(check bool) "replay reproduces the exact violations" true
         (outcome.Abe_core.Runner.violations = f.Explore.violations))

let test_fuzz_clean_on_paper_forwarding () =
  (* Same search against the unmutated protocol: nothing to find. *)
  let report =
    Explore.run ~driver:sequential ~window ~budget:64 ~forwarding:paper
      ~mode:(Explore.Fuzz { flip = 0.25 }) ~seed:1 (config 5)
  in
  Alcotest.(check bool) "clean" true (report.Explore.finding = None);
  Alcotest.(check int) "budget exhausted" 64 report.Explore.schedules

let test_fuzz_driver_independent () =
  let run driver =
    let report =
      Explore.run ~driver ~window ~budget:64
        ~forwarding:Abe_core.Runner.Stale_max
        ~mode:(Explore.Fuzz { flip = 0.25 }) ~seed:1 (config 5)
    in
    ( report.Explore.schedules,
      Option.map
        (fun f ->
           (f.Explore.trial, f.Explore.invariant, f.Explore.deviations))
        report.Explore.finding )
  in
  Alcotest.(check bool) "sequential = 3 domains" true
    (run Abe_harness.Driver.Sequential
     = run (Abe_harness.Driver.Parallel { num_domains = 3 }))

let test_exhaustive_clean_and_deterministic () =
  let run () =
    let r =
      Explore.run ~driver:sequential ~window ~budget:60 ~forwarding:paper
        ~mode:(Explore.Exhaustive { por = false }) ~seed:1 (config 3)
    in
    (r.Explore.schedules, r.Explore.pruned, r.Explore.finding = None)
  in
  let s1, p1, clean1 = run () in
  let s2, p2, clean2 = run () in
  Alcotest.(check bool) "clean" true (clean1 && clean2);
  Alcotest.(check bool) "pruning happened" true (p1 > 0);
  Alcotest.(check int) "schedules deterministic" s1 s2;
  Alcotest.(check int) "pruned deterministic" p1 p2

let test_por_reduces_and_completes () =
  let explore por budget =
    Explore.run ~driver:sequential ~window ~budget ~forwarding:paper
      ~mode:(Explore.Exhaustive { por }) ~seed:1 (config 3)
  in
  let plain = explore false 5000 in
  let por = explore true 5000 in
  Alcotest.(check bool) "both clean" true
    (plain.Explore.finding = None && por.Explore.finding = None);
  let coverage r =
    match r.Explore.coverage with
    | None -> Alcotest.fail "exhaustive report without coverage"
    | Some c -> c
  in
  let cp = coverage plain and cq = coverage por in
  Alcotest.(check bool) "plain complete" true cp.Por.complete;
  Alcotest.(check bool) "por complete" true cq.Por.complete;
  Alcotest.(check bool) "por skipped commuting alternatives" true
    (cq.Por.sleep_skips > 0);
  Alcotest.(check bool) "por ran fewer schedules" true
    (por.Explore.schedules < plain.Explore.schedules);
  Alcotest.(check bool) "states counted" true (cq.Por.states > 0);
  Alcotest.(check bool) "transitions counted" true
    (cq.Por.transitions >= cq.Por.states)

(* The empirical soundness gate for the reduction: on the seeded
   stale-max mutation, DPOR must find a violation exactly when plain
   exhaustive search does, for the same invariant.  The budget covers the
   full tree at these sizes (both searches complete), so the comparison
   is between total verdicts, not truncation artifacts.  The mutation
   only manifests from n = 5 up (smaller rings elect before any node's d
   outruns a live token's hop count); n = 3-4 exercise the
   both-clean side of the property. *)
let test_por_parity_qcheck =
  QCheck.Test.make ~name:"por finds what plain exhaustive finds" ~count:8
    QCheck.(pair (int_range 1 500) (int_range 3 5))
    (fun (seed, n) ->
       let explore por =
         let r =
           Explore.run ~driver:sequential ~window ~budget:3000
             ~forwarding:Abe_core.Runner.Stale_max
             ~mode:(Explore.Exhaustive { por }) ~seed (config n)
         in
         Option.map (fun f -> f.Explore.invariant) r.Explore.finding
       in
       explore false = explore true)

let test_exhaustive_finding_replays () =
  (* Deviations come from the executed picks of the violating trajectory,
     so replaying them must reproduce the identical violation list. *)
  let report =
    Explore.run ~driver:sequential ~window ~budget:300
      ~forwarding:Abe_core.Runner.Stale_max
      ~mode:(Explore.Exhaustive { por = true }) ~seed:2 (config 5)
  in
  match report.Explore.finding with
  | None -> Alcotest.fail "exhaustive+por did not find the stale-max violation"
  | Some f ->
    let artifact =
      Explore.to_repro ~mode_name:"exhaustive" ~seed:2 ~a0:0.32 ~delta:1.
        ~gamma:0. ~drift:1. ~delay:"exponential" ~fault:"none"
        ~window:Schedulers.default_window ~tail:0.
        ~forwarding:Abe_core.Runner.Stale_max ~fairness:0 ~n:5 f
    in
    let path = Filename.temp_file "abe-repro" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        Repro.to_file path artifact;
        (* The file round-trips byte-identically ... *)
        (match Repro.of_file path with
         | Error m -> Alcotest.failf "parse failed: %s" m
         | Ok back ->
           let path2 = Filename.temp_file "abe-repro" ".jsonl" in
           Fun.protect ~finally:(fun () -> Sys.remove path2) (fun () ->
               Repro.to_file path2 back;
               let bytes p =
                 In_channel.with_open_bin p In_channel.input_all
               in
               Alcotest.(check string) "byte-identical reserialisation"
                 (bytes path) (bytes path2)));
        (* ... and replaying it reproduces the exact violations. *)
        match Explore.replay_run ~artifact (config 5) with
        | Error m -> Alcotest.failf "replay failed: %s" m
        | Ok outcome ->
          Alcotest.(check bool) "identical violations" true
            (outcome.Abe_core.Runner.violations = f.Explore.violations))

(* ----------------------------------------------------------- liveness *)

let test_liveness_catches_drop_token () =
  let report =
    Explore.run ~driver:sequential ~window ~budget:8
      ~forwarding:Abe_core.Runner.Drop_token
      ~liveness:5000 ~mode:(Explore.Exhaustive { por = true }) ~seed:1
      (config 3)
  in
  match report.Explore.finding with
  | None -> Alcotest.fail "liveness check missed the drop-token stall"
  | Some f ->
    Alcotest.(check string) "invariant" "liveness-election"
      f.Explore.invariant;
    (* Every schedule of the mutated protocol stalls, so the minimal
       repro is the default schedule. *)
    Alcotest.(check (list (pair int int))) "shrunk to no deviations" []
      f.Explore.deviations;
    (* The artifact round-trips through the codec and replays. *)
    let artifact =
      Explore.to_repro ~mode_name:"exhaustive" ~seed:1 ~a0:0.32 ~delta:1.
        ~gamma:0. ~drift:1. ~delay:"exponential" ~fault:"none"
        ~window:Schedulers.default_window ~tail:0.
        ~forwarding:Abe_core.Runner.Drop_token ~fairness:5000 ~n:3 f
    in
    (match roundtrip artifact with
     | Error m -> Alcotest.failf "roundtrip failed: %s" m
     | Ok back -> Alcotest.(check bool) "identical" true (back = artifact));
    (match Explore.replay_run ~artifact (config 3) with
     | Error m -> Alcotest.failf "replay failed: %s" m
     | Ok outcome ->
       Alcotest.(check bool) "liveness violation re-synthesised" true
         (List.exists
            (fun v -> v.Abe_sim.Oracle.invariant = "liveness-election")
            outcome.Abe_core.Runner.violations))

let test_liveness_clean_on_paper () =
  (* Under the default fairness bound every fair schedule of the real
     protocol elects: the liveness checker must stay silent. *)
  let report =
    Explore.run ~driver:sequential ~window ~budget:40 ~forwarding:paper
      ~liveness:20000 ~mode:(Explore.Exhaustive { por = true }) ~seed:1
      (config 3)
  in
  Alcotest.(check bool) "clean" true (report.Explore.finding = None)

let words_of f =
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () in
  Gc.minor ();
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* Every schedule of one liveness-bounded exploration runs on the pooled
   network of one clamped configuration: past the first, a schedule
   allocates what a warm checked run of that configuration allocates (the
   scheduler and the oracle) plus O(1) in n, not a new ring.  With
   [flip = 0] each fuzz schedule is the default one. *)
let test_liveness_warm_schedule () =
  let slack = 1024. and liveness = 50 in
  List.iter
    (fun n ->
       let config = Abe_core.Runner.config ~n ~a0:0.1 () in
       let explore budget () =
         ignore
           (Explore.run ~driver:sequential ~window ~budget ~forwarding:paper
              ~liveness ~mode:(Explore.Fuzz { flip = 0. }) ~seed:1 config)
       in
       let per_schedule = (words_of (explore 3) -. words_of (explore 1)) /. 2. in
       let clamped = Abe_core.Runner.with_limit_events config liveness in
       let checked_run () =
         ignore
           (Abe_core.Runner.run
              ~scheduler:(Schedulers.replay ~window [])
              ~check:true ~seed:1 clamped)
       in
       checked_run ();
       let excess = per_schedule -. words_of checked_run in
       if excess > slack then
         Alcotest.failf "n=%d: %g words per schedule beyond a warm checked run \
                         (slack %g)" n excess slack)
    [ 250; 4000 ]

let test_quantile_clean () =
  let report =
    Explore.run ~driver:sequential ~window ~budget:10 ~forwarding:paper
      ~mode:(Explore.Quantile { tail = 25. }) ~seed:1 (config 3)
  in
  Alcotest.(check bool) "clean under slowed links" true
    (report.Explore.finding = None);
  Alcotest.(check bool) "subsets explored" true (report.Explore.schedules > 0)

let test_apply_slow_links () =
  let config = config 4 in
  let slowed = Explore.apply_slow_links ~tail:25. [ 1; 2 ] config in
  (match slowed.Abe_core.Runner.link_delays with
   | None -> Alcotest.fail "no link_delays installed"
   | Some models ->
     Alcotest.(check int) "one model per link" 4 (Array.length models);
     Alcotest.(check (float 1e-9)) "slowed link mean" 25.
       (Abe_net.Delay_model.expected_delay models.(1));
     Alcotest.(check (float 1e-9)) "untouched link mean" 1.
       (Abe_net.Delay_model.expected_delay models.(0)));
  Alcotest.(check bool) "empty override is identity" true
    (Explore.apply_slow_links ~tail:25. [] config == config)

let test_explore_metrics () =
  let registry = Abe_sim.Metrics.create () in
  let _report =
    Explore.run ~metrics:registry ~driver:sequential ~window ~budget:64
      ~forwarding:Abe_core.Runner.Stale_max
      ~mode:(Explore.Fuzz { flip = 0.25 }) ~seed:1 (config 5)
  in
  let value name =
    Abe_sim.Metrics.counter_value (Abe_sim.Metrics.counter registry name)
  in
  Alcotest.(check bool) "schedules counted" true (value "check/schedules" > 0);
  Alcotest.(check bool) "violations counted" true
    (value "check/violations" > 0);
  Alcotest.(check bool) "shrink probes counted" true
    (value "check/shrink_steps" > 0)

(* --------------------------------------------------------- certification *)

module Skew = Abe_synchronizer.Skew

let test_skew_oracle_detects () =
  let o = Skew.create ~skew_bound:1 ~n:2 () in
  Skew.observe o ~time:0. (Skew.Pulse_entered { node = 0; pulse = 1 });
  Skew.observe o ~time:1. (Skew.Pulse_entered { node = 0; pulse = 2 });
  Alcotest.(check int) "clean so far" 0 (List.length (Skew.violations o));
  (* Skipping a round: 2 -> 4. *)
  Skew.observe o ~time:2. (Skew.Pulse_entered { node = 0; pulse = 4 });
  Alcotest.(check int) "skip caught" 1 (List.length (Skew.violations o));
  (* The trace tracks the faulty entry, so the next +1 step is clean: one
     fault, one violation. *)
  Skew.observe o ~time:3. (Skew.Pulse_entered { node = 0; pulse = 5 });
  Alcotest.(check int) "no cascade" 1 (List.length (Skew.violations o));
  (* Regression on the other node. *)
  Skew.observe o ~time:4. (Skew.Pulse_entered { node = 1; pulse = 1 });
  Skew.observe o ~time:5. (Skew.Pulse_entered { node = 1; pulse = 1 });
  Alcotest.(check int) "revisit caught" 2 (List.length (Skew.violations o));
  (* Skew within the bound, then past it. *)
  Skew.observe o ~time:6.
    (Skew.Payload_received { node = 1; node_pulse = 1; payload_pulse = 2 });
  Alcotest.(check int) "skew 1 allowed" 2 (List.length (Skew.violations o));
  Skew.observe o ~time:7.
    (Skew.Payload_received { node = 1; node_pulse = 1; payload_pulse = 3 });
  Alcotest.(check int) "skew 2 caught" 3 (List.length (Skew.violations o));
  Alcotest.(check int) "max skew tracked" 2 (Skew.max_skew o);
  Alcotest.(check int) "all events counted" 8 (Skew.events_checked o);
  let invariants =
    List.map (fun v -> v.Abe_sim.Oracle.invariant) (Skew.violations o)
  in
  Alcotest.(check (list string)) "invariant names"
    [ "round-monotonicity"; "round-monotonicity"; "bounded-skew" ] invariants;
  (* Without a bound only monotonicity is checked, but the skew is still
     measured. *)
  let m = Skew.create ~n:1 () in
  Skew.observe m ~time:0.
    (Skew.Payload_received { node = 0; node_pulse = 1; payload_pulse = 9 });
  Alcotest.(check int) "unbounded: no violation" 0
    (List.length (Skew.violations m));
  Alcotest.(check int) "unbounded: skew measured" 8 (Skew.max_skew m)

let test_certify_family () =
  List.iter
    (fun variant ->
       let r =
         Certify.run ~window ~budget:400 ~por:true ~seed:1 ~n:3 variant
       in
       Alcotest.(check bool)
         (r.Certify.synchroniser ^ " certified")
         true (Certify.certified r);
       Alcotest.(check int)
         (r.Certify.synchroniser ^ " no violations")
         0
         (List.length r.Certify.violations);
       Alcotest.(check bool)
         (r.Certify.synchroniser ^ " events checked")
         true (r.Certify.events_checked > 0);
       Alcotest.(check int)
         (r.Certify.synchroniser ^ " all runs completed")
         r.Certify.schedules r.Certify.completed_runs;
       (* alpha/beta/gamma hold the synchroniser skew bound even across
          reordered schedules; abd merely never regresses a round. *)
       match r.Certify.skew_bound with
       | Some bound ->
         Alcotest.(check bool)
           (r.Certify.synchroniser ^ " skew within bound")
           true
           (r.Certify.max_skew <= bound)
       | None -> ())
    Abe_synchronizer.Synchronizer.
      [ Alpha; Beta; Gamma 1; Abd (required_window ~hard_bound:2.) ]

let test_certify_por_reduces () =
  let certify por =
    Certify.run ~window ~budget:400 ~por ~seed:1 ~n:3
      Abe_synchronizer.Synchronizer.Alpha
  in
  let plain = certify false in
  let por = certify true in
  Alcotest.(check bool) "both certified" true
    (Certify.certified plain && Certify.certified por);
  Alcotest.(check bool) "por explores fewer schedules" true
    (por.Certify.schedules < plain.Certify.schedules);
  Alcotest.(check bool) "por skipped commuting picks" true
    (por.Certify.coverage.Por.sleep_skips > 0);
  (* Reduction must not change the certified state space. *)
  Alcotest.(check int) "same states"
    plain.Certify.coverage.Por.states por.Certify.coverage.Por.states

let () =
  Alcotest.run "check"
    [ ( "repro",
        [ Alcotest.test_case "roundtrip" `Quick test_repro_roundtrip;
          Alcotest.test_case "roundtrip quantile" `Quick
            test_repro_roundtrip_quantile;
          Alcotest.test_case "corrupt files rejected" `Quick
            test_repro_corrupt;
          Alcotest.test_case "missing file" `Quick test_repro_missing_file;
          Alcotest.test_case "fairness field" `Quick
            test_repro_fairness_roundtrip ] );
      ( "shrink",
        [ Alcotest.test_case "ddmin pair" `Quick test_ddmin_pair;
          Alcotest.test_case "ddmin singleton" `Quick test_ddmin_singleton;
          Alcotest.test_case "ddmin unreproducible" `Quick
            test_ddmin_unreproducible;
          Alcotest.test_case "ddmin empty" `Quick test_ddmin_empty ] );
      ( "explore",
        [ Alcotest.test_case "fuzz finds stale-max" `Quick
            test_fuzz_finds_stale_max;
          Alcotest.test_case "artifact replays" `Quick
            test_fuzz_artifact_replays;
          Alcotest.test_case "paper forwarding clean" `Quick
            test_fuzz_clean_on_paper_forwarding;
          Alcotest.test_case "driver independent" `Quick
            test_fuzz_driver_independent;
          Alcotest.test_case "exhaustive clean + deterministic" `Quick
            test_exhaustive_clean_and_deterministic;
          Alcotest.test_case "quantile clean" `Quick test_quantile_clean;
          Alcotest.test_case "slow-link override" `Quick
            test_apply_slow_links;
          Alcotest.test_case "metrics counters" `Quick test_explore_metrics ] );
      ( "por",
        [ Alcotest.test_case "reduces and completes" `Quick
            test_por_reduces_and_completes;
          QCheck_alcotest.to_alcotest test_por_parity_qcheck;
          Alcotest.test_case "exhaustive finding replays" `Quick
            test_exhaustive_finding_replays ] );
      ( "liveness",
        [ Alcotest.test_case "catches drop-token" `Quick
            test_liveness_catches_drop_token;
          Alcotest.test_case "clean on paper forwarding" `Quick
            test_liveness_clean_on_paper;
          Alcotest.test_case "warm schedule O(1) in n" `Quick
            test_liveness_warm_schedule ] );
      ( "certify",
        [ Alcotest.test_case "skew oracle detects" `Quick
            test_skew_oracle_detects;
          Alcotest.test_case "synchroniser family certified" `Quick
            test_certify_family;
          Alcotest.test_case "por reduces certification" `Quick
            test_certify_por_reduces ] )
    ]
