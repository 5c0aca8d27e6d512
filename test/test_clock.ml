open Abe_net

let rng () = Abe_prob.Rng.create ~seed:77

(* A clock's rate: local time elapsed per unit of real time. *)
let rate c = Clock.local_time c ~real:1. -. Clock.local_time c ~real:0.

(* The general rule from one instant: the first tick strictly after it. *)
let next_tick c ~after =
  let times = [| after |] in
  Clock.first_tick c times [| 0. |] 0;
  times.(0)

let test_spec_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "zero low" (fun () -> Clock.spec ~s_low:0. ~s_high:1.);
  expect_invalid "inverted" (fun () -> Clock.spec ~s_low:2. ~s_high:1.)

let test_perfect_clock_rate () =
  let c = Clock.create Clock.perfect ~rng:(rng ()) in
  Alcotest.(check (float 1e-9)) "rate 1" 1. (rate c)

let test_rate_within_bounds () =
  let spec = Clock.spec ~s_low:0.5 ~s_high:2. in
  let r = rng () in
  for _ = 1 to 100 do
    let c = Clock.create spec ~rng:r in
    let rate = rate c in
    if rate < 0.5 || rate > 2. then Alcotest.failf "rate out of bounds: %g" rate
  done

let test_local_time_linear () =
  let c = Clock.create Clock.perfect ~rng:(rng ()) in
  let t1 = Clock.local_time c ~real:10. in
  let t2 = Clock.local_time c ~real:25. in
  Alcotest.(check (float 1e-9)) "elapsed matches rate" 15. (t2 -. t1)

let test_definition1_bounds () =
  (* The paper's clock condition: s_low (t2-t1) <= C(t2)-C(t1) <= s_high
     (t2-t1). *)
  let spec = Clock.spec ~s_low:0.8 ~s_high:1.3 in
  let r = rng () in
  for _ = 1 to 50 do
    let c = Clock.create spec ~rng:r in
    let dt = 7.3 in
    let dc = Clock.local_time c ~real:(5. +. dt) -. Clock.local_time c ~real:5. in
    if dc < (0.8 *. dt) -. 1e-9 || dc > (1.3 *. dt) +. 1e-9 then
      Alcotest.failf "clock drift outside Definition 1 bounds: %g" dc
  done

(* [first_tick] maps the next integer local time back to real time through
   the inverse of [local_time]: reading the clock at the tick gives exactly
   that integer. *)
let test_inverse () =
  let spec = Clock.spec ~s_low:0.5 ~s_high:2. in
  let c = Clock.create spec ~rng:(rng ()) in
  let real = 12.34 in
  let local = Float.floor (Clock.local_time c ~real) +. 1. in
  Alcotest.(check (float 1e-9)) "roundtrip" local
    (Clock.local_time c ~real:(next_tick c ~after:real))

let test_next_tick_strictly_after () =
  let spec = Clock.spec ~s_low:0.5 ~s_high:2. in
  let r = rng () in
  for _ = 1 to 50 do
    let c = Clock.create spec ~rng:r in
    let after = Abe_prob.Rng.float r 20. in
    let tick = next_tick c ~after in
    if tick <= after then Alcotest.failf "tick %g not after %g" tick after;
    (* The tick lands on an integer local time. *)
    let local = Clock.local_time c ~real:tick in
    if Float.abs (local -. Float.round local) > 1e-6 then
      Alcotest.failf "tick local time %g not integral" local
  done

let test_tick_sequence_spacing () =
  let c = Clock.create Clock.perfect ~rng:(rng ()) in
  let t1 = next_tick c ~after:0. in
  let t2 = next_tick c ~after:t1 in
  let t3 = next_tick c ~after:t2 in
  Alcotest.(check (float 1e-6)) "unit spacing" 1. (t2 -. t1);
  Alcotest.(check (float 1e-6)) "unit spacing" 1. (t3 -. t2)

let test_fast_clock_ticks_more () =
  let fast = Clock.create (Clock.spec ~s_low:2. ~s_high:2.) ~rng:(rng ()) in
  let t1 = next_tick fast ~after:0. in
  let t2 = next_tick fast ~after:t1 in
  Alcotest.(check (float 1e-6)) "spacing 0.5" 0.5 (t2 -. t1)

let prop_tick_monotone_chain =
  QCheck.Test.make ~name:"tick chain strictly increasing" ~count:100
    QCheck.(pair small_int (pair (float_range 0.3 3.) (float_range 0. 2.)))
    (fun (seed, (s, extra)) ->
       let spec = Clock.spec ~s_low:s ~s_high:(s +. extra +. 0.01) in
       let c = Clock.create spec ~rng:(Abe_prob.Rng.create ~seed) in
       let rec chain t remaining =
         remaining = 0
         ||
         let t' = next_tick c ~after:t in
         t' > t && chain t' (remaining - 1)
       in
       chain 0. 20)

(* [Clock.step_tick] against the general rule: from any tick, the stepped
   instant and local reading equal, bit for bit, [Clock.first_tick] from
   that tick's instant, the rule every tick followed before stepping.
   Perfect clocks and drifting ones with speed ratios from 1.5 to 10^20,
   at speeds from 10^-10 up; 10^4 steps from a local reading up to 10^7,
   or from just below 2^52, where the closed form gives way to the
   general rule. *)
type step_case = {
  seed : int;
  drift : (float * float) option;  (* log10 of s_low and of s_high / s_low *)
  near_2_52 : bool;
  frac : float;  (* where in its range the first local reading lies *)
}

let step_case_gen =
  let open QCheck.Gen in
  map4
    (fun seed drift near_2_52 frac -> { seed; drift; near_2_52; frac })
    small_nat
    (frequency
       [ (1, return None);
         (3, map Option.some (pair (float_range (-10.) 0.)
                                (float_range (Float.log10 1.5) 20.))) ])
    bool (float_range 0. 1.)

let print_step_case c =
  Printf.sprintf "seed=%d drift=%s near_2_52=%b frac=%h" c.seed
    (match c.drift with
     | None -> "perfect"
     | Some (lo, ratio) -> Printf.sprintf "10^%g x 10^%g" lo ratio)
    c.near_2_52 c.frac

let prop_step_is_general_rule =
  QCheck.Test.make ~name:"stepped ticks equal the general rule bit for bit"
    ~count:200 (QCheck.make ~print:print_step_case step_case_gen)
    (fun case ->
       let spec =
         match case.drift with
         | None -> Clock.perfect
         | Some (lo, ratio) ->
           let s_low = 10. ** lo in
           Clock.spec ~s_low ~s_high:(s_low *. (10. ** ratio))
       in
       let c = Clock.create spec ~rng:(Abe_prob.Rng.create ~seed:case.seed) in
       let speed =
         (Clock.local_time c ~real:1e6 -. Clock.local_time c ~real:0.) /. 1e6
       in
       let local0 =
         if case.near_2_52 then 0x1p52 -. (case.frac *. 1e4)
         else case.frac *. 1e7
       in
       let times = [| local0 /. speed |] and locals = [| 0. |] in
       Clock.first_tick c times locals 0;
       let expected = [| 0. |] and expected_local = [| 0. |] in
       let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
       let rec steps k =
         k = 0
         ||
         (expected.(0) <- times.(0);
          Clock.first_tick c expected expected_local 0;
          Clock.step_tick c times locals 0;
          if
            not (same times.(0) expected.(0) && same locals.(0) expected_local.(0))
          then
            QCheck.Test.fail_reportf
              "step %d: stepped to %h (local %h), general rule %h (local %h)"
              (10_000 - k) times.(0) locals.(0) expected.(0) expected_local.(0);
          steps (k - 1))
       in
       steps 10_000)

(* [redraw_split] gives the clock [create] draws from a fresh split, and
   leaves the parent where that split leaves it: a perfect clock, drawn
   without a stream, and a drifting one. *)
let test_redraw_split () =
  List.iter
    (fun spec ->
       let reference = rng () and master = rng () in
       let c = Clock.create spec ~rng:(rng ()) in
       let scratch = Abe_prob.Rng.create ~seed:0 in
       for i = 1 to 200 do
         let want = Clock.create spec ~rng:(Abe_prob.Rng.split reference) in
         Clock.redraw_split c spec ~master ~scratch;
         List.iter
           (fun real ->
              let got = Clock.local_time c ~real
              and expected = Clock.local_time want ~real in
              if Int64.bits_of_float got <> Int64.bits_of_float expected then
                Alcotest.failf "draw %d: local time %h at %g, want %h" i got
                  real expected)
           [ 0.; 1.; 12.5 ]
       done;
       Alcotest.(check int64) "parent where split leaves it"
         (Abe_prob.Rng.bits64 reference) (Abe_prob.Rng.bits64 master))
    [ Clock.perfect; Clock.spec ~s_low:0.5 ~s_high:2. ]

let () =
  Alcotest.run "clock"
    [ ( "clock",
        [ Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "perfect rate" `Quick test_perfect_clock_rate;
          Alcotest.test_case "rate bounds" `Quick test_rate_within_bounds;
          Alcotest.test_case "linear" `Quick test_local_time_linear;
          Alcotest.test_case "Definition 1.2 bounds" `Quick test_definition1_bounds;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "next tick" `Quick test_next_tick_strictly_after;
          Alcotest.test_case "tick spacing" `Quick test_tick_sequence_spacing;
          Alcotest.test_case "fast clock" `Quick test_fast_clock_ticks_more;
          Alcotest.test_case "redraw from a split" `Quick test_redraw_split ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_tick_monotone_chain; prop_step_is_general_rule ] ) ]
