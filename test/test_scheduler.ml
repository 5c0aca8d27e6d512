open Abe_sim

(* Engine-level behaviour of the pluggable scheduler: candidate
   gathering, per-tag FIFO, clamping, and determinism of the
   fuzz/replay policies over the full election runner. *)

let pick_last ?(window = 1.) () =
  { Engine.window;
    choose = (fun ~now:_ ~state_digest:_ cs -> Array.length cs - 1) }

let test_default_unchanged () =
  (* No scheduler: schedule_at below now still raises, as before. *)
  let e = Engine.create () in
  Engine.schedule_at e ~time:5. (fun () -> Engine.stop e);
  Alcotest.(check bool) "stopped at 5" true (Engine.run e = Engine.Stopped);
  Alcotest.check_raises "past time rejected"
    (Invalid_argument "Engine.schedule_at: time must be >= now")
    (fun () -> ignore (Engine.schedule_at e ~time:1. (fun () -> ())))

let test_clamping_under_scheduler () =
  (* With a scheduler, an overtaken target time is clamped to now. *)
  let e = Engine.create ~scheduler:(pick_last ()) () in
  let fired_at = ref [] in
  let note label () = fired_at := (label, Engine.now e) :: !fired_at in
  Engine.schedule_at e ~time:5. (fun () ->
      note "a" ();
      Engine.stop e);
  Alcotest.(check bool) "stopped after a" true (Engine.run e = Engine.Stopped);
  Engine.schedule_at e ~time:1. (note "b");
  Alcotest.(check bool) "b drains" true (Engine.run e = Engine.Drained);
  match List.rev !fired_at with
  | [ ("a", ta); ("b", tb) ] ->
    Alcotest.(check (float 1e-9)) "a at 5" 5. ta;
    Alcotest.(check (float 1e-9)) "b clamped to 5" 5. tb
  | _ -> Alcotest.fail "unexpected firing order"

let test_reorders_within_window () =
  (* Unconstrained events inside the window can be reordered; the
     pick-last scheduler runs them in reverse timestamp order. *)
  let e = Engine.create ~scheduler:(pick_last ~window:1. ()) () in
  let order = ref [] in
  let note label () = order := label :: !order in
  ignore (Engine.schedule_at e ~time:1.0 (note "early"));
  ignore (Engine.schedule_at e ~time:1.4 (note "late"));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "reversed" [ "early"; "late" ] !order

let test_outside_window_not_offered () =
  let e = Engine.create ~scheduler:(pick_last ~window:1. ()) () in
  let order = ref [] in
  let note label () = order := label :: !order in
  ignore (Engine.schedule_at e ~time:1.0 (note "early"));
  ignore (Engine.schedule_at e ~time:5.0 (note "far"));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "timestamp order" [ "far"; "early" ] !order

let test_per_tag_fifo () =
  (* Two events of the same class within the window: only the earlier is
     eligible, so even the adversarial pick-last scheduler cannot invert
     them.  The unconstrained event can still jump ahead. *)
  let e = Engine.create ~scheduler:(pick_last ~window:1. ()) () in
  let order = ref [] in
  let note label () = order := label :: !order in
  ignore (Engine.schedule_at e ~tag:7 ~time:1.0 (note "first@7"));
  ignore (Engine.schedule_at e ~tag:7 ~time:1.1 (note "second@7"));
  ignore (Engine.schedule_at e ~time:1.2 (note "free"));
  ignore (Engine.run e);
  let order = List.rev !order in
  let index label =
    let rec go i = function
      | [] -> Alcotest.failf "%s did not fire" label
      | x :: _ when x = label -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "tag-7 FIFO preserved" true
    (index "first@7" < index "second@7");
  Alcotest.(check bool) "free event reordered ahead" true
    (index "free" < index "first@7")

let test_candidates_sorted_and_digest () =
  (* choose sees candidates in ascending (time, seq) order with index 0
     the default pick, and the installed digest source is consulted. *)
  let seen = ref [] in
  let digests = ref [] in
  let sched =
    { Engine.window = 1.;
      choose =
        (fun ~now:_ ~state_digest cs ->
           seen := Array.to_list (Array.map (fun c -> c.Engine.c_time) cs) :: !seen;
           digests := state_digest :: !digests;
           0) }
  in
  let e = Engine.create ~scheduler:sched () in
  Engine.set_digest_source e (fun () -> 42);
  ignore (Engine.schedule_at e ~time:1.3 (fun () -> ()));
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> ()));
  ignore (Engine.schedule_at e ~time:1.1 (fun () -> ()));
  ignore (Engine.run e);
  (match List.rev !seen with
   | first :: _ ->
     Alcotest.(check (list (float 1e-9))) "ascending" [ 1.0; 1.1; 1.3 ] first
   | [] -> Alcotest.fail "scheduler never consulted");
  Alcotest.(check bool) "digest passed through" true
    (List.for_all (fun d -> d = 42) !digests)

let test_single_candidate_not_consulted () =
  (* Far-apart events have singleton candidate sets: no decision point. *)
  let consultations = ref 0 in
  let sched =
    { Engine.window = 0.1;
      choose = (fun ~now:_ ~state_digest:_ _ -> incr consultations; 0) }
  in
  let e = Engine.create ~scheduler:sched () in
  ignore (Engine.schedule_at e ~time:1. (fun () -> ()));
  ignore (Engine.schedule_at e ~time:2. (fun () -> ()));
  ignore (Engine.schedule_at e ~time:3. (fun () -> ()));
  ignore (Engine.run e);
  Alcotest.(check int) "no decision points" 0 !consultations

(* ------------------------------------------------- runner integration *)

let config n = Abe_core.Runner.config ~n ~a0:0.32 ()

let strip_wall (o : Abe_core.Runner.outcome) =
  ( o.Abe_core.Runner.elected,
    o.Abe_core.Runner.leader,
    o.Abe_core.Runner.elected_at,
    o.Abe_core.Runner.messages,
    o.Abe_core.Runner.activations,
    o.Abe_core.Runner.knockouts,
    o.Abe_core.Runner.purges,
    o.Abe_core.Runner.ticks )

let test_fuzz_deterministic () =
  let run () =
    let scheduler, recorded =
      Abe_check.Schedulers.fuzz ~flip:0.25 ~seed:7 ()
    in
    let o = Abe_core.Runner.run ~scheduler ~check:true ~seed:3 (config 5) in
    (strip_wall o, recorded ())
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "outcomes equal" true (fst a = fst b);
  Alcotest.(check bool) "deviations equal" true (snd a = snd b)

let test_replay_reproduces_fuzz () =
  let scheduler, recorded = Abe_check.Schedulers.fuzz ~flip:0.25 ~seed:7 () in
  let fuzzed = Abe_core.Runner.run ~scheduler ~check:true ~seed:3 (config 5) in
  let deviations = recorded () in
  let replayed =
    Abe_core.Runner.run
      ~scheduler:(Abe_check.Schedulers.replay deviations)
      ~check:true ~seed:3 (config 5)
  in
  Alcotest.(check bool) "replay = fuzz" true
    (strip_wall fuzzed = strip_wall replayed)

let test_replay_empty_is_default_pick () =
  (* The identity schedule (always pick 0) elects a leader and stays
     oracle-clean: scheduler mode does not break the protocol. *)
  let o =
    Abe_core.Runner.run
      ~scheduler:(Abe_check.Schedulers.replay [])
      ~check:true ~seed:3 (config 5)
  in
  Alcotest.(check bool) "elected" true o.Abe_core.Runner.elected;
  Alcotest.(check int) "clean" 0 (List.length o.Abe_core.Runner.violations)

let test_scripted_observes () =
  let scheduler, observe =
    Abe_check.Schedulers.scripted ~prefix:[||] ()
  in
  let _o = Abe_core.Runner.run ~scheduler ~check:true ~seed:3 (config 4) in
  let obs = observe () in
  Alcotest.(check bool) "decision points exist" true
    (Array.length obs.Abe_check.Schedulers.counts > 0);
  Alcotest.(check bool) "counts >= 2" true
    (Array.for_all (fun k -> k >= 2) obs.Abe_check.Schedulers.counts)

let test_bad_window_rejected () =
  Alcotest.check_raises "negative window"
    (Invalid_argument "Schedulers: window must be finite and non-negative")
    (fun () -> ignore (Abe_check.Schedulers.replay ~window:(-1.) []))

let () =
  Alcotest.run "scheduler"
    [ ( "engine",
        [ Alcotest.test_case "default path unchanged" `Quick
            test_default_unchanged;
          Alcotest.test_case "clamping under scheduler" `Quick
            test_clamping_under_scheduler;
          Alcotest.test_case "reorders within window" `Quick
            test_reorders_within_window;
          Alcotest.test_case "window bounds candidates" `Quick
            test_outside_window_not_offered;
          Alcotest.test_case "per-tag FIFO" `Quick test_per_tag_fifo;
          Alcotest.test_case "candidates sorted, digest passed" `Quick
            test_candidates_sorted_and_digest;
          Alcotest.test_case "singletons skip choose" `Quick
            test_single_candidate_not_consulted ] );
      ( "policies",
        [ Alcotest.test_case "fuzz deterministic" `Quick
            test_fuzz_deterministic;
          Alcotest.test_case "replay reproduces fuzz" `Quick
            test_replay_reproduces_fuzz;
          Alcotest.test_case "identity schedule clean" `Quick
            test_replay_empty_is_default_pick;
          Alcotest.test_case "scripted observes" `Quick test_scripted_observes;
          Alcotest.test_case "bad window rejected" `Quick
            test_bad_window_rejected ] ) ]
