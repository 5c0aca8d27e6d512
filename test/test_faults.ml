open Abe_net

(* A scenario by its CLI name, for a ring of [n] nodes at expected delay
   [delta]: episode trains cover a horizon of [200 * n * delta].  A
   rejected name raises [Invalid_argument]. *)
let scenario ?(seed = 1) ?(n = 8) ?(delta = 1.) spec =
  match Faults.of_string ~seed ~n ~delta spec with
  | Ok f -> f
  | Error (`Msg m) -> invalid_arg m

(* Applying the scenario changes nothing. *)
let no_op f =
  f.Faults.loss_schedule = None
  && Array.length f.Faults.episodes = 0
  && f.Faults.crashes = [] && f.Faults.link_downs = []
  && f.Faults.revivals = []

let episode_list fault =
  Array.to_list
    (Array.map
       (fun e -> (e.Delay_model.e_start, e.Delay_model.e_stop, e.Delay_model.factor))
       fault.Faults.episodes)

let test_none () =
  Alcotest.(check bool) "none is none" true (no_op Faults.none);
  let model = Delay_model.abd_deterministic ~delay:1. in
  Alcotest.(check bool) "apply_delay is identity for none" true
    (Faults.apply_delay Faults.none model == model)

let test_determinism () =
  let a = scenario ~seed:7 ~n:3 "delay-spike" in
  let b = scenario ~seed:7 ~n:3 "delay-spike" in
  Alcotest.(check (list (triple (float 0.) (float 0.) (float 0.))))
    "same seed, same episodes" (episode_list a) (episode_list b);
  let c = scenario ~seed:8 ~n:3 "delay-spike" in
  Alcotest.(check bool) "different seed, different episodes" true
    (episode_list a <> episode_list c)

let test_episodes_well_formed () =
  List.iter
    (fun fault ->
       Alcotest.(check bool)
         (Printf.sprintf "%s has episodes or schedule" fault.Faults.label)
         true
         (Array.length fault.Faults.episodes > 0
          || fault.Faults.loss_schedule <> None);
       Array.iter
         (fun e ->
            if
              not
                (e.Delay_model.e_start >= 0.
                 && e.Delay_model.e_stop > e.Delay_model.e_start
                 && e.Delay_model.e_stop <= 1000.
                 && e.Delay_model.factor > 0.)
            then
              Alcotest.failf "%s: malformed episode [%g,%g)x%g"
                fault.Faults.label e.Delay_model.e_start
                e.Delay_model.e_stop e.Delay_model.factor)
         fault.Faults.episodes;
       (* The overlaid models must pass the strict validation Network.create
          applies to every link. *)
       Delay_model.validate
         (Faults.apply_delay fault (Delay_model.abe_exponential ~delta:1.)))
    (List.map (scenario ~seed:3 ~n:5)
       [ "bursty-loss"; "delay-spike"; "heavy-tail" ])

let test_bursty_loss_schedule () =
  let fault = scenario ~seed:5 ~n:10 "bursty-loss" in
  match fault.Faults.loss_schedule with
  | None -> Alcotest.fail "bursty loss must provide a schedule"
  | Some p ->
    let in_burst = ref 0 and quiet = ref 0 in
    for t = 0 to 1999 do
      let v = p (float_of_int t) in
      if v = 0.4 then incr in_burst
      else if v = 0. then incr quiet
      else Alcotest.failf "schedule returned %g (expected 0 or 0.4)" v
    done;
    Alcotest.(check bool) "some bursts" true (!in_burst > 0);
    Alcotest.(check bool) "some quiet time" true (!quiet > 0)

let test_crash () =
  let fault = scenario "crash(3@12)" in
  Alcotest.(check (list (pair int (float 0.)))) "crash recorded" [ (3, 12.) ]
    fault.Faults.crashes;
  (match scenario "crash(-1@1)" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative node must be rejected");
  match scenario "crash(0@nan)" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan time must be rejected"

let test_compose () =
  let spikes = scenario ~seed:2 ~n:1 "delay-spike" in
  let loss = scenario ~seed:2 ~n:1 "bursty-loss" in
  let both =
    Faults.compose spikes (Faults.compose loss (scenario "crash(1@5)"))
  in
  Alcotest.(check int) "episodes unioned"
    (Array.length spikes.Faults.episodes)
    (Array.length both.Faults.episodes);
  Alcotest.(check bool) "schedule kept" true
    (both.Faults.loss_schedule <> None);
  Alcotest.(check (list (pair int (float 0.)))) "crash kept" [ (1, 5.) ]
    both.Faults.crashes;
  Alcotest.(check bool) "neutral element" true
    (no_op (Faults.compose Faults.none Faults.none))

let test_compose_loss_schedules () =
  let constant p =
    { Faults.none with Faults.loss_schedule = Some (fun _ -> p); label = "c" }
  in
  let both = Faults.compose (constant 0.5) (constant 0.5) in
  match both.Faults.loss_schedule with
  | None -> Alcotest.fail "composed schedule missing"
  | Some p ->
    (* Independent drop sources: 1 - 0.5 * 0.5. *)
    Alcotest.(check (float 1e-12)) "independent composition" 0.75 (p 1.)

let test_crash_rejoin () =
  let fault = scenario "rejoin(2@3:7)" in
  Alcotest.(check (list (pair int (float 0.)))) "crash recorded" [ (2, 3.) ]
    fault.Faults.crashes;
  Alcotest.(check (list (pair int (float 0.)))) "revival recorded" [ (2, 7.) ]
    fault.Faults.revivals;
  Alcotest.(check string) "label" "rejoin(2@3:7)" fault.Faults.label;
  (match scenario "rejoin(2@7:3)" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "rejoin before crash must be rejected");
  (match scenario "rejoin(2@7:7)" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "rejoin at the crash instant must be rejected");
  match scenario "rejoin(-1@1:2)" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative node must be rejected"

let test_link_down () =
  let fault = scenario "link-down(4@1:6)" in
  Alcotest.(check (list (triple int (float 0.) (float 0.))))
    "outage recorded" [ (4, 1., 6.) ] fault.Faults.link_downs;
  Alcotest.(check string) "label" "link-down(4@1:6)" fault.Faults.label;
  (match scenario "link-down(4@6:6)" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty episode must be rejected");
  match scenario "link-down(-3@1:2)" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative link must be rejected"

let test_truncation_cap () =
  (* The generation cap is derived from horizon and rate, not a flat
     constant: a long-horizon episode train well past the old 4096-event
     cap is generated in full, nothing dropped. *)
  let long = scenario ~seed:1 ~n:1000 "delay-spike" in
  Alcotest.(check bool) "old flat cap would have truncated here" true
    (Array.length long.Faults.episodes > 4096);
  Alcotest.(check int) "no truncation on an honest request" 0
    long.Faults.truncated;
  (* Modest churn: cap never binds. *)
  let calm = scenario ~seed:1 "churn(0.3)" in
  Alcotest.(check int) "calm churn untruncated" 0 calm.Faults.truncated;
  (* An absurd request — ~10^7 expected events — hits the absolute
     ceiling; the overflow is counted, not silent. *)
  let wild = scenario ~seed:1 "churn(100000)" in
  Alcotest.(check bool) "truncation counted" true (wild.Faults.truncated > 0);
  Alcotest.(check bool) "timeline still bounded" true
    (List.length wild.Faults.link_downs + List.length wild.Faults.crashes
     <= 262_144);
  (* compose sums the counts. *)
  let both = Faults.compose wild wild in
  Alcotest.(check int) "compose sums truncation"
    (2 * wild.Faults.truncated) both.Faults.truncated

let test_churn () =
  let make seed = scenario ~seed "churn(0.3)" in
  let a = make 11 and b = make 11 and c = make 12 in
  Alcotest.(check (list (pair int (float 0.)))) "same seed, same crashes"
    a.Faults.crashes b.Faults.crashes;
  Alcotest.(check (list (triple int (float 0.) (float 0.))))
    "same seed, same outages" a.Faults.link_downs b.Faults.link_downs;
  Alcotest.(check bool) "different seed, different scenario" true
    (a.Faults.crashes <> c.Faults.crashes
     || a.Faults.link_downs <> c.Faults.link_downs);
  Alcotest.(check bool) "churn actually churns" true
    (a.Faults.crashes <> [] && a.Faults.link_downs <> []);
  (* Crash-recovery: every churn crash has a matching, later revival. *)
  List.iter2
    (fun (cn, cat) (rn, rat) ->
       Alcotest.(check int) "revival matches crash" cn rn;
       Alcotest.(check bool) "revival after crash" true (rat > cat))
    a.Faults.crashes a.Faults.revivals;
  (* Per-entity episodes never overlap. *)
  let by_link = Hashtbl.create 8 in
  List.iter
    (fun (l, from_, until) ->
       let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt by_link l) in
       Alcotest.(check bool) "outages disjoint per link" true (from_ >= prev);
       Hashtbl.replace by_link l until)
    a.Faults.link_downs;
  let zero = scenario ~seed:11 "churn(0)" in
  Alcotest.(check bool) "rate 0 is a no-op" true (no_op zero);
  Alcotest.(check string) "no-op keeps its label" "churn(0)" zero.Faults.label;
  match scenario "churn(-0.1)" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rate must be rejected"

let test_compose_validates_operands () =
  let constant label p =
    { Faults.none with Faults.loss_schedule = Some (fun _ -> p); label }
  in
  (* Two out-of-range operands whose product lands back in [0,1]: only
     sample-time operand validation can catch this. *)
  let both = Faults.compose (constant "hot" 1.5) (constant "cold" (-0.5)) in
  (match both.Faults.loss_schedule with
   | None -> Alcotest.fail "composed schedule missing"
   | Some p ->
     (match p 3. with
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "error names the offender and the value" true
          (let has needle =
             let n = String.length needle and m = String.length msg in
             let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
             go 0
           in
           has "\"hot\"" && has "1.5" && has "t=3")
      | _ -> Alcotest.fail "out-of-range operand must be rejected at sample time"));
  (* Both bounds are probabilities, not errors. *)
  let edges = Faults.compose (constant "a" 1.) (constant "b" 0.) in
  match edges.Faults.loss_schedule with
  | None -> Alcotest.fail "composed schedule missing"
  | Some p -> Alcotest.(check (float 0.)) "p=1 and p=0 compose fine" 1. (p 0.)

let test_of_string () =
  let parse s = Faults.of_string ~seed:1 ~n:8 ~delta:1. s in
  (match parse "none" with
   | Ok f -> Alcotest.(check bool) "none" true (no_op f)
   | Error (`Msg m) -> Alcotest.fail m);
  List.iter
    (fun name ->
       match parse name with
       | Ok f -> Alcotest.(check string) "label" name f.Faults.label
       | Error (`Msg m) -> Alcotest.fail m)
    [ "bursty-loss"; "delay-spike"; "heavy-tail" ];
  (match parse "crash" with
   | Ok f ->
     Alcotest.(check (list (pair int (float 0.)))) "middle node at n*delta"
       [ (4, 8.) ] f.Faults.crashes
   | Error (`Msg m) -> Alcotest.fail m);
  (match parse "rejoin" with
   | Ok f ->
     Alcotest.(check (list (pair int (float 0.)))) "plain rejoin crashes"
       [ (4, 8.) ] f.Faults.crashes;
     Alcotest.(check (list (pair int (float 0.)))) "plain rejoin revives"
       [ (4, 16.) ] f.Faults.revivals
   | Error (`Msg m) -> Alcotest.fail m);
  (match parse "churn" with
   | Ok f ->
     Alcotest.(check string) "plain churn rate" "churn(0.1)" f.Faults.label
   | Error (`Msg m) -> Alcotest.fail m);
  match parse "meteor-strike" with
  | Error (`Msg _) -> ()
  | Ok _ -> Alcotest.fail "unknown scenario must be rejected"

let test_of_string_parameterized () =
  let parse s = Faults.of_string ~seed:1 ~n:8 ~delta:1. s in
  (match parse "crash(3@2)" with
   | Ok f ->
     Alcotest.(check (list (pair int (float 0.)))) "crash parsed" [ (3, 2.) ]
       f.Faults.crashes
   | Error (`Msg m) -> Alcotest.fail m);
  (match parse "rejoin(3@2:5)" with
   | Ok f ->
     Alcotest.(check (list (pair int (float 0.)))) "rejoin crash" [ (3, 2.) ]
       f.Faults.crashes;
     Alcotest.(check (list (pair int (float 0.)))) "rejoin revival" [ (3, 5.) ]
       f.Faults.revivals
   | Error (`Msg m) -> Alcotest.fail m);
  (match parse "link-down(0@1:4)" with
   | Ok f ->
     Alcotest.(check (list (triple int (float 0.) (float 0.))))
       "outage parsed" [ (0, 1., 4.) ] f.Faults.link_downs
   | Error (`Msg m) -> Alcotest.fail m);
  (match parse "churn(0.2)" with
   | Ok f ->
     Alcotest.(check string) "churn rate parsed" "churn(0.2)" f.Faults.label
   | Error (`Msg m) -> Alcotest.fail m);
  (match parse "bursty-loss+rejoin(3@2:5)" with
   | Ok f ->
     Alcotest.(check string) "composition label" "bursty-loss+rejoin(3@2:5)"
       f.Faults.label;
     Alcotest.(check bool) "composition keeps schedule" true
       (f.Faults.loss_schedule <> None);
     Alcotest.(check (list (pair int (float 0.)))) "composition keeps revival"
       [ (3, 5.) ] f.Faults.revivals
   | Error (`Msg m) -> Alcotest.fail m);
  (* Constructor validation surfaces as a parse error, not an exception. *)
  (match parse "rejoin(3@5:2)" with
   | Error (`Msg _) -> ()
   | Ok _ -> Alcotest.fail "rejoin before crash must fail to parse");
  List.iter
    (fun junk ->
       match parse junk with
       | Error (`Msg _) -> ()
       | Ok _ -> Alcotest.failf "%S must fail to parse" junk)
    [ "crash(3@"; "crash(3@2)x"; "link-down(0@4:1)"; "churn(oops)" ]

(* [of_string] is a left inverse of [label]: any composition of labelled
   scenarios parses back to a scenario with the same label. *)
let prop_label_roundtrip =
  let atom_gen =
    QCheck.Gen.(
      oneof
        [ return "none";
          return "bursty-loss";
          return "delay-spike";
          return "heavy-tail";
          map2 (fun node at -> Printf.sprintf "crash(%d@%g)" node at)
            (int_range 0 7) (map float_of_int (int_range 0 20));
          map3
            (fun node at len ->
               Printf.sprintf "rejoin(%d@%g:%g)" node (float_of_int at)
                 (float_of_int (at + len)))
            (int_range 0 7) (int_range 0 20) (int_range 1 10);
          map3
            (fun link from_ len ->
               Printf.sprintf "link-down(%d@%g:%g)" link (float_of_int from_)
                 (float_of_int (from_ + len)))
            (int_range 0 7) (int_range 0 20) (int_range 1 10);
          map (fun r -> Printf.sprintf "churn(%g)" (0.05 *. float_of_int r))
            (int_range 1 10) ])
  in
  QCheck.Test.make ~name:"of_string inverts label on compositions" ~count:200
    (QCheck.make
       QCheck.Gen.(map (String.concat "+") (list_size (int_range 1 3) atom_gen))
       ~print:(fun s -> s))
    (fun spec ->
       match Faults.of_string ~seed:3 ~n:8 ~delta:1. spec with
       | Error (`Msg m) -> QCheck.Test.fail_reportf "%S failed to parse: %s" spec m
       | Ok f ->
         (match Faults.of_string ~seed:3 ~n:8 ~delta:1. f.Faults.label with
          | Error (`Msg m) ->
            QCheck.Test.fail_reportf "label %S of %S failed to parse: %s"
              f.Faults.label spec m
          | Ok g -> g.Faults.label = f.Faults.label))

(* [sample_at] skips the episode scan when there are none; the draw must
   still equal the base distribution's bit for bit, on the same stream.
   With overlapping episodes, passed out of order, the latest-starting
   one covering [now] scales the same base draw. *)
let test_sample_at_bits () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun model ->
       let dist = Delay_model.dist model in
       let r1 = Abe_prob.Rng.create ~seed:17 in
       let r2 = Abe_prob.Rng.copy r1 in
       for i = 1 to 200 do
         Alcotest.(check int64) "no episodes: Dist.sample bits"
           (bits (Abe_prob.Dist.sample dist r1))
           (bits (Delay_model.sample_at model ~now:(float_of_int i) r2))
       done)
    [ Delay_model.abe_exponential ~delta:0.7;
      Delay_model.abd_uniform ~bound:3.;
      Delay_model.abe_retransmission ~success:0.4 ~slot:0.25 ];
  let model =
    Delay_model.modulated
      (Delay_model.abe_exponential ~delta:1.)
      ~episodes:
        [| { Delay_model.e_start = 15.; e_stop = 18.; factor = 7. };
           { Delay_model.e_start = 10.; e_stop = 30.; factor = 3. };
           { Delay_model.e_start = 16.; e_stop = 17.; factor = 11. } |]
  in
  List.iter
    (fun (now, factor) ->
       let r1 = Abe_prob.Rng.create ~seed:23 in
       let r2 = Abe_prob.Rng.copy r1 in
       Alcotest.(check int64) (Printf.sprintf "sample_at %g" now)
         (bits (Abe_prob.Dist.sample (Delay_model.dist model) r1 *. factor))
         (bits (Delay_model.sample_at model ~now r2)))
    [ (5., 1.); (12., 3.); (15.5, 7.); (16.5, 11.); (17.5, 7.); (25., 3.);
      (30., 1.) ]

let test_factor_at () =
  let model =
    Delay_model.modulated
      (Delay_model.abd_deterministic ~delay:2.)
      ~episodes:
        [| { Delay_model.e_start = 10.; e_stop = 20.; factor = 3. };
           { Delay_model.e_start = 15.; e_stop = 18.; factor = 7. } |]
  in
  let rng = Abe_prob.Rng.create ~seed:1 in
  (* The base delay is exactly 2, so a draw is twice the active factor. *)
  let factor_at ~now = Delay_model.sample_at model ~now rng /. 2. in
  Alcotest.(check (float 0.)) "outside" 1. (factor_at ~now:5.);
  Alcotest.(check (float 0.)) "first episode" 3. (factor_at ~now:12.);
  Alcotest.(check (float 0.)) "latest-starting wins" 7. (factor_at ~now:16.);
  Alcotest.(check (float 0.)) "after nested stop" 3. (factor_at ~now:19.);
  Alcotest.(check (float 0.)) "stop exclusive" 1. (factor_at ~now:20.);
  Alcotest.(check (float 0.)) "sample_at multiplies" 6.
    (Delay_model.sample_at model ~now:12. rng)

let () =
  Alcotest.run "faults"
    [ ( "scenarios",
        [ Alcotest.test_case "none" `Quick test_none;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "episodes well-formed" `Quick
            test_episodes_well_formed;
          Alcotest.test_case "bursty loss schedule" `Quick
            test_bursty_loss_schedule;
          Alcotest.test_case "crash" `Quick test_crash;
          Alcotest.test_case "crash-rejoin" `Quick test_crash_rejoin;
          Alcotest.test_case "link-down" `Quick test_link_down;
          Alcotest.test_case "churn" `Quick test_churn;
          Alcotest.test_case "truncation cap" `Quick test_truncation_cap;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "compose loss" `Quick test_compose_loss_schedules;
          Alcotest.test_case "compose validates operands" `Quick
            test_compose_validates_operands;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "of_string parameterized" `Quick
            test_of_string_parameterized ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_label_roundtrip ] );
      ( "delay episodes",
        [ Alcotest.test_case "factor_at" `Quick test_factor_at;
          Alcotest.test_case "sample_at bit-identical" `Quick
            test_sample_at_bits ] ) ]
