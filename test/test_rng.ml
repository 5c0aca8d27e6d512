open Abe_prob

let test_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b);
  (* Advancing one does not affect the other. *)
  let _ = Rng.bits64 a in
  let a_next = Rng.bits64 a in
  let b_next = Rng.bits64 b in
  Alcotest.(check bool) "streams diverge after unequal draws" true
    (a_next <> b_next)

let test_split_changes_parent () =
  let a = Rng.create ~seed:3 in
  let reference = Rng.copy a in
  let _child = Rng.split a in
  Alcotest.(check bool) "split advances the parent" true
    (Rng.bits64 a <> Rng.bits64 reference)

let test_split_streams_differ () =
  let parent = Rng.create ~seed:3 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 c1 = Rng.bits64 c2 then incr same
  done;
  Alcotest.(check int) "children never collide on 64 draws" 0 !same

let test_unit_float_range () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let u = Rng.unit_float rng in
    if not (u >= 0. && u < 1.) then
      Alcotest.failf "unit_float out of range: %g" u
  done

let test_unit_float_mean () =
  let rng = Rng.create ~seed:11 in
  let sum = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.unit_float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let rng = Rng.create ~seed:13 in
  List.iter
    (fun bound ->
       for _ = 1 to 1_000 do
         let v = Rng.int rng bound in
         if v < 0 || v >= bound then
           Alcotest.failf "int %d out of range: %d" bound v
       done)
    [ 1; 2; 3; 7; 10; 100; 1 lsl 30 ]

let test_int_uniform () =
  let rng = Rng.create ~seed:17 in
  let counts = Array.make 6 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let v = Rng.int rng 6 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun face c ->
       if abs (c - 10_000) > 500 then
         Alcotest.failf "face %d count %d too far from 10000" face c)
    counts

let test_int_range () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 1_000 do
    let v = Rng.int_range rng ~lo:(-5) ~hi:5 in
    if v < -5 || v > 5 then Alcotest.failf "int_range out of range: %d" v
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_range rng ~lo:3 ~hi:3)

let test_bernoulli_extremes () =
  let rng = Rng.create ~seed:23 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)
  done

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:29 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_exponential_mean () =
  let rng = Rng.create ~seed:31 in
  let sum = ref 0. in
  let n = 200_000 in
  for _ = 1 to n do
    let x = Rng.exponential rng ~mean:2.5 in
    if x < 0. then Alcotest.fail "negative exponential sample";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.5" true (Float.abs (mean -. 2.5) < 0.05)

let test_geometric_mean () =
  let rng = Rng.create ~seed:37 in
  let sum = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.geometric rng ~p:0.25 in
    if k < 1 then Alcotest.fail "geometric sample below 1";
    sum := !sum + k
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.) < 0.1)

let test_geometric_p1 () =
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 means one trial" 1 (Rng.geometric rng ~p:1.)
  done

let test_normal_moments () =
  let rng = Rng.create ~seed:43 in
  let stats = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add stats (Rng.normal rng ~mu:3. ~sigma:2.)
  done;
  Alcotest.(check bool) "mean near 3" true
    (Float.abs (Stats.mean stats -. 3.) < 0.05);
  Alcotest.(check bool) "stddev near 2" true
    (Float.abs ((Stats.summary stats).Stats.stddev -. 2.) < 0.05)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:47 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "not identity (overwhelming probability)" true
    (arr <> Array.init 100 Fun.id)

let test_invalid_args () =
  let rng = Rng.create ~seed:59 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "float nan-ish"
    (Invalid_argument "Rng.float: bound must be positive and finite") (fun () ->
        ignore (Rng.float rng 0.));
  Alcotest.check_raises "bernoulli 1.5"
    (Invalid_argument "Rng.bernoulli: p outside [0,1]") (fun () ->
        ignore (Rng.bernoulli rng 1.5));
  Alcotest.check_raises "geometric 0"
    (Invalid_argument "Rng.geometric: p outside (0,1]") (fun () ->
        ignore (Rng.geometric rng ~p:0.));
  Alcotest.check_raises "int_range inverted"
    (Invalid_argument "Rng.int_range: requires lo <= hi") (fun () ->
        ignore (Rng.int_range rng ~lo:2 ~hi:1))

(* Known answers: every seeded trajectory in the repository depends on
   this exact stream.  Any change to seeding, stepping, splitting or float
   conversion shows up here before it shifts a cram pin or a benchmark
   pin. *)

let check_stream name expected rng =
  List.iteri
    (fun i want ->
       Alcotest.(check int64) (Printf.sprintf "%s draw %d" name i) want
         (Rng.bits64 rng))
    expected

let test_kat_seeds () =
  List.iter
    (fun (seed, expected) ->
       check_stream (Printf.sprintf "seed %d" seed) expected
         (Rng.create ~seed))
    [ ( 0,
        [ 0x53175D61490B23DFL; 0x61DA6F3DC380D507L; 0x5C0FDF91EC9A7BFCL;
          0x02EEBF8C3BBE5E1AL; 0x7ECA04EBAF4A5EEAL; 0x0543C37757F08D9AL;
          0xDB7490C75AB5026EL; 0xD87343E6464BC959L ] );
      ( 42,
        [ 0xD0764D4F4476689FL; 0x519E4174576F3791L; 0xFBE07CFB0C24ED8CL;
          0xB37D9F600CD835B8L; 0xCB231C3874846A73L; 0x968D9F004E50DE7DL;
          0x201718FF221A3556L; 0x9AE94E070ED8CB46L ] );
      ( max_int,
        [ 0x45FB48EFB1C2C1C2L; 0xC3ADD3A798906624L; 0x1F94C7639C6D4438L;
          0x24CA4178D9F00C1FL; 0x0403DD39F8EA9B43L; 0xC72E8C5A7B6B1B76L;
          0x4E17136FD11E4C40L; 0x1789E5F2DEC9DAE6L ] ) ]

let test_kat_split () =
  let parent = Rng.create ~seed:42 in
  let c1 = Rng.split parent in
  let _c2 = Rng.split parent in
  let c3 = Rng.split parent in
  check_stream "split 1"
    [ 0x4FBBC8A5D7EE027BL; 0xCBF580142F9EED0FL; 0xE792208C7D75E47DL;
      0x8295DB570BE22203L ]
    c1;
  check_stream "split 3"
    [ 0xBE82277FFC4A622BL; 0xF272BFC6AEA6350BL; 0x24BC5D95B0A1AC01L;
      0x2191451AA7A96DEEL ]
    c3;
  (* Each split consumes exactly one parent draw: the parent resumes at
     the fourth output of seed 42. *)
  check_stream "parent after 3 splits"
    [ 0xB37D9F600CD835B8L; 0xCB231C3874846A73L ]
    parent

let test_kat_floats () =
  let rng = Rng.create ~seed:7 in
  let bits name expected draw =
    List.iteri
      (fun i want ->
         Alcotest.(check int64) (Printf.sprintf "%s %d" name i) want
           (Int64.bits_of_float (draw ())))
      expected
  in
  bits "unit_float"
    [ 0x3FAC583400555D20L; 0x3FC607E46EFD274CL; 0x3FE6F66236761A8BL;
      0x3FDB5767DA98C600L ]
    (fun () -> Rng.unit_float rng);
  bits "exponential"
    [ 0x402092F9385639DBL; 0x3FF9127AECCCC766L; 0x4009BD880C23B4D6L;
      0x3FF0026FBD7070A7L ]
    (fun () -> Rng.exponential rng ~mean:2.5);
  Alcotest.(check (list int)) "int" [ 989; 493; 569; 638 ]
    (List.init 4 (fun _ -> Rng.int rng 1000));
  Alcotest.(check (list bool)) "bool"
    [ true; true; true; true; true; false; true; false ]
    (List.init 8 (fun _ -> Rng.bool rng))

(* A perfect clock's phase: [split_unit_float_into] draws what the first
   [unit_float] of [split] draws and leaves the parent where [split] leaves
   it, over a thousand consecutive splits of each of three seeds; and the
   exponential stored by [exponential_into] is the one [exponential]
   returns. *)
let test_kat_split_draws () =
  List.iter
    (fun seed ->
       let reference = Rng.create ~seed and parent = Rng.create ~seed in
       let cell = [| 0. |] in
       for i = 1 to 1_000 do
         let want = Rng.unit_float (Rng.split reference) in
         Rng.split_unit_float_into parent cell 0;
         if Int64.bits_of_float cell.(0) <> Int64.bits_of_float want then
           Alcotest.failf "seed %d, split %d: %h, split's first draw %h" seed
             i cell.(0) want
       done;
       Alcotest.(check int64) "parent where split leaves it"
         (Rng.bits64 reference) (Rng.bits64 parent);
       for i = 1 to 1_000 do
         let want = Rng.exponential reference ~mean:0.25 in
         Rng.exponential_into parent ~mean:0.25 cell 0;
         if Int64.bits_of_float cell.(0) <> Int64.bits_of_float want then
           Alcotest.failf "seed %d, exponential %d: %h, want %h" seed i
             cell.(0) want
       done)
    [ 0; 42; max_int ]

(* [int] masks each draw to the smallest all-ones word covering
   [bound - 1] and rejects candidates >= [bound]; the mask and the
   rejection both decide which words are consumed. *)
let test_kat_int_bounds () =
  let rng = Rng.create ~seed:11 in
  List.iter
    (fun (bound, expected) ->
       Alcotest.(check (list int)) (Printf.sprintf "int %d" bound) expected
         (List.init 3 (fun _ -> Rng.int rng bound)))
    [ (1, [ 0; 0; 0 ]);
      (2, [ 0; 1; 0 ]);
      (3, [ 0; 0; 0 ]);
      (7, [ 6; 0; 6 ]);
      (64, [ 31; 49; 46 ]);
      (1000, [ 322; 402; 877 ]);
      (1 lsl 30, [ 559832153; 262113509; 798694744 ]);
      ( max_int,
        [ 2434728452688882331; 4308116116808791241; 1304563929843014830 ] ) ]

(* Allocation guard: drawing must not allocate, and a split allocates only
   the new 32-byte state. *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_draws_allocation_free () =
  let rng = Rng.create ~seed:61 in
  let draws = 100_000 in
  (* Warm up, so that any one-time cost stays out of the measurement. *)
  ignore (Rng.bool rng : bool);
  ignore (Rng.int rng 10 : int);
  let hits = ref 0 in
  let words =
    minor_words_of (fun () ->
        for i = 1 to draws do
          if Rng.bool rng then incr hits;
          hits := !hits + Rng.int rng (1 + (i land 1023))
        done)
  in
  Alcotest.(check (float 0.)) "bool and int allocate nothing" 0. words;
  Alcotest.(check bool) "draws happened" true (!hits > 0)

let test_split_allocation () =
  let rng = Rng.create ~seed:67 in
  let splits = 1_000 in
  let keep = Array.make splits rng in
  let words =
    minor_words_of (fun () ->
        for i = 0 to splits - 1 do
          keep.(i) <- Rng.split rng
        done)
  in
  (* A 32-byte [Bytes.t] costs a header plus five words: OCaml byte
     strings always carry a trailing padding word when the length is a
     multiple of the word size. *)
  let raw = Array.make splits Bytes.empty in
  let state =
    minor_words_of (fun () ->
        for i = 0 to splits - 1 do
          raw.(i) <- Bytes.create 32
        done)
  in
  if words > state then
    Alcotest.failf "split allocates %g words per call, the state alone %g"
      (words /. float_of_int splits) (state /. float_of_int splits)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int always within bounds" ~count:1000
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
       let bound = bound + 1 in
       let rng = Rng.create ~seed in
       let v = Rng.int rng bound in
       v >= 0 && v < bound)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"float always within bounds" ~count:1000
    QCheck.(pair small_int (float_bound_exclusive 1000.))
    (fun (seed, bound) ->
       QCheck.assume (bound > 0.);
       let rng = Rng.create ~seed in
       let v = Rng.float rng bound in
       v >= 0. && v < bound)

let prop_geometric_at_least_one =
  QCheck.Test.make ~name:"geometric >= 1" ~count:1000
    QCheck.(pair small_int (float_range 0.01 1.))
    (fun (seed, p) ->
       let rng = Rng.create ~seed in
       Rng.geometric rng ~p >= 1)

let () =
  Alcotest.run "rng"
    [ ( "determinism",
        [ Alcotest.test_case "same seed same stream" `Quick test_deterministic;
          Alcotest.test_case "different seeds differ" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy is independent" `Quick test_copy_independent ] );
      ( "known answers",
        [ Alcotest.test_case "seeded streams" `Quick test_kat_seeds;
          Alcotest.test_case "split children" `Quick test_kat_split;
          Alcotest.test_case "float and int draws" `Quick test_kat_floats;
          Alcotest.test_case "int bounds" `Quick test_kat_int_bounds;
          Alcotest.test_case "split and flat draws" `Quick
            test_kat_split_draws ] );
      ( "allocation",
        [ Alcotest.test_case "bool and int draws" `Quick test_draws_allocation_free;
          Alcotest.test_case "split" `Quick test_split_allocation ] );
      ( "split",
        [ Alcotest.test_case "split advances parent" `Quick test_split_changes_parent;
          Alcotest.test_case "children differ" `Quick test_split_streams_differ ] );
      ( "distributions",
        [ Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
          Alcotest.test_case "unit_float mean" `Quick test_unit_float_mean;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_int_uniform;
          Alcotest.test_case "int_range" `Quick test_int_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "normal moments" `Quick test_normal_moments ] );
      ( "utilities",
        [ Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_in_bounds; prop_float_in_bounds; prop_geometric_at_least_one ]
      ) ]
