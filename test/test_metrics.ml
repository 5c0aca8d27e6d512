open Abe_sim

let test_counter () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a/count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "value" 5 (Metrics.counter_value c);
  let c' = Metrics.counter m "a/count" in
  Metrics.incr c';
  Alcotest.(check int) "get-or-create shares state" 6 (Metrics.counter_value c);
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) c)

let test_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "a/gauge" in
  Alcotest.(check bool) "unset" true (Metrics.gauge_value g = None);
  Metrics.set_gauge g 3.;
  Metrics.set_gauge g 1.;
  Alcotest.(check bool) "last value" true (Metrics.gauge_value g = Some 1.)

let test_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument "Metrics.histogram: \"x\" is already a counter")
    (fun () -> ignore (Metrics.histogram m "x"))

let test_histogram_basics () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 0.0 ];
  Alcotest.(check int) "count" 4 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 7. (Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "min" 0. (Metrics.hist_min h);
  Alcotest.(check (float 1e-9)) "max" 4. (Metrics.hist_max h);
  Alcotest.(check (float 1e-9)) "q0 is exact min" 0. (Metrics.quantile h 0.);
  Alcotest.(check (float 1e-9)) "q1 is exact max" 4. (Metrics.quantile h 1.)

(* Bucketed quantiles must match exact sample quantiles within the bucket
   resolution (8 buckets/octave => relative error bound 2^(1/8) - 1 ~ 9%,
   plus the clamp to exact min/max at the edges). *)
let test_quantiles_vs_exact () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  (* A known deterministic sample: x_i = 1.01^i for i = 0..999, a smooth
     geometric spread over ~3 decades. *)
  let sample = Array.init 1000 (fun i -> 1.01 ** float_of_int i) in
  Array.iter (Metrics.observe h) sample;
  let sorted = Array.copy sample in
  Array.sort Float.compare sorted;
  let resolution = (2. ** (1. /. 8.)) -. 1. in
  List.iter
    (fun q ->
       let exact =
         (* Nearest-rank on the sorted sample, matching the histogram's
            rank convention. *)
         let rank = max 1 (int_of_float (Float.ceil (q *. 1000.))) in
         sorted.(rank - 1)
       in
       let estimate = Metrics.quantile h q in
       let rel_err = Float.abs (estimate -. exact) /. exact in
       if rel_err > resolution then
         Alcotest.failf "q=%g: estimate %g vs exact %g (rel err %g > %g)" q
           estimate exact rel_err resolution)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

let test_merge_order_independent () =
  let registry observations counter_by gauge_v =
    let m = Metrics.create () in
    let h = Metrics.histogram m "h" in
    List.iter (Metrics.observe h) observations;
    Metrics.incr ~by:counter_by (Metrics.counter m "c");
    Metrics.set_gauge (Metrics.gauge m "g") gauge_v;
    m
  in
  let a = registry [ 0.5; 1.0; 7.5 ] 2 3. in
  let b = registry [ 0.25; 2.0 ] 5 9. in
  let c = registry [ 100.0 ] 1 1. in
  let merge order =
    let into = Metrics.create () in
    List.iter (fun r -> Metrics.merge_into ~into r) order;
    into
  in
  let m1 = merge [ a; b; c ] in
  let m2 = merge [ c; b; a ] in
  Alcotest.(check (list (list string))) "rows identical under reordering"
    (Metrics.report_rows m1) (Metrics.report_rows m2);
  Alcotest.(check int) "counters add" 8
    (Metrics.counter_value (Metrics.counter m1 "c"));
  Alcotest.(check bool) "gauges merge to the max" true
    (Metrics.gauge_value (Metrics.gauge m1 "g") = Some 9.);
  let h1 = Metrics.histogram m1 "h" in
  Alcotest.(check int) "histogram counts add" 6 (Metrics.hist_count h1);
  Alcotest.(check (float 1e-9)) "histogram max" 100. (Metrics.hist_max h1);
  (* Sources are untouched by the merge. *)
  Alcotest.(check int) "source counter untouched" 2
    (Metrics.counter_value (Metrics.counter a "c"))

let test_merge_into_empty_copies () =
  let src = Metrics.create () in
  Metrics.observe (Metrics.histogram src "h") 1.;
  let dst = Metrics.create () in
  Metrics.merge_into ~into:dst src;
  Metrics.observe (Metrics.histogram src "h") 2.;
  Alcotest.(check int) "deep copy: later source writes don't leak" 1
    (Metrics.hist_count (Metrics.histogram dst "h"))

(* Quantiles on an empty histogram are nan for every q, including the
   endpoints; out-of-range q still raises even when empty. *)
let test_empty_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "empty" in
  List.iter
    (fun q ->
       Alcotest.(check bool)
         (Printf.sprintf "quantile %g on empty is nan" q)
         true
         (Float.is_nan (Metrics.quantile h q)))
    [ 0.; 0.25; 0.5; 1. ];
  Alcotest.(check bool) "min nan" true (Float.is_nan (Metrics.hist_min h));
  Alcotest.(check bool) "max nan" true (Float.is_nan (Metrics.hist_max h));
  (match Metrics.quantile h 1.5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "quantile out of [0,1] must raise, even when empty")

(* Merging a registry whose metrics are registered but never written (a
   replicate that did nothing) must leave the target's values untouched
   while still registering the names. *)
let test_merge_all_zero_source () =
  let into = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter into "c");
  Metrics.set_gauge (Metrics.gauge into "g") 4.;
  Metrics.observe (Metrics.histogram into "h") 2.;
  let fresh = Metrics.create () in
  ignore (Metrics.counter fresh "c");
  ignore (Metrics.gauge fresh "g");
  ignore (Metrics.histogram fresh "h");
  ignore (Metrics.counter fresh "only-in-source");
  let before = Metrics.report_rows into in
  Metrics.merge_into ~into fresh;
  Alcotest.(check int) "counter unchanged" 3
    (Metrics.counter_value (Metrics.counter into "c"));
  Alcotest.(check bool) "gauge unchanged" true
    (Metrics.gauge_value (Metrics.gauge into "g") = Some 4.);
  Alcotest.(check int) "histogram count unchanged" 1
    (Metrics.hist_count (Metrics.histogram into "h"));
  Alcotest.(check (float 1e-9)) "histogram sum unchanged" 2.
    (Metrics.hist_sum (Metrics.histogram into "h"));
  Alcotest.(check int) "source-only name copied" 0
    (Metrics.counter_value (Metrics.counter into "only-in-source"));
  (* The shared rows are byte-identical to before the merge. *)
  let after =
    List.filter
      (fun row -> List.hd row <> "only-in-source")
      (Metrics.report_rows into)
  in
  Alcotest.(check (list (list string))) "shared rows unchanged" before after

(* Registered metric names, sorted: the first column of the rows. *)
let names m = List.map List.hd (Metrics.report_rows m)

let test_report_rows () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter m "b/counter");
  Metrics.set_gauge (Metrics.gauge m "a/gauge") 2.5;
  let h = Metrics.histogram m "c/hist" in
  List.iter (Metrics.observe h) [ 1.; 1.; 2. ];
  Alcotest.(check (list string)) "names sorted"
    [ "a/gauge"; "b/counter"; "c/hist" ] (names m);
  match Metrics.report_rows m with
  | [ gauge_row; counter_row; hist_row ] ->
    Alcotest.(check (list string)) "gauge row"
      [ "a/gauge"; "gauge"; "-"; "2.5"; "-"; "-"; "-"; "-"; "2.5" ] gauge_row;
    Alcotest.(check (list string)) "counter row"
      [ "b/counter"; "counter"; "7"; "-"; "-"; "-"; "-"; "-"; "-" ] counter_row;
    Alcotest.(check string) "hist row name" "c/hist" (List.nth hist_row 0);
    Alcotest.(check string) "hist count" "3" (List.nth hist_row 2)
  | rows -> Alcotest.failf "expected 3 rows, got %d" (List.length rows)

(* The engine records deterministically: two identical runs produce the
   same rows, and a metrics-free run executes identically. *)
let test_engine_instrumentation () =
  let run metrics =
    let e = Abe_sim.Engine.create ?metrics () in
    let rec chain k =
      if k > 0 then
        ignore
          (Abe_sim.Engine.schedule e ~delay:1. (fun () -> chain (k - 1)))
    in
    chain 5;
    ignore (Abe_sim.Engine.schedule e ~delay:0.5 (fun () -> ()));
    ignore (Abe_sim.Engine.run e);
    Abe_sim.Engine.executed_events e
  in
  let m1 = Metrics.create () and m2 = Metrics.create () in
  let n1 = run (Some m1) in
  let n2 = run (Some m2) in
  let n_plain = run None in
  Alcotest.(check int) "metrics do not perturb execution" n_plain n1;
  Alcotest.(check int) "deterministic" n1 n2;
  Alcotest.(check (list (list string))) "identical rows"
    (Metrics.report_rows m1) (Metrics.report_rows m2);
  Alcotest.(check int) "engine/executed counter" n1
    (Metrics.counter_value (Metrics.counter m1 "engine/executed"))

exception Boom

(* Event [k] (counting from 1) schedules [k mod 4] children until 60
   events have been scheduled, so the queue depth rises, falls and ends
   at 0. *)
let depth_program e ~on_event =
  let scheduled = ref 0 and fired = ref 0 in
  let rec spawn delay =
    if !scheduled < 60 then begin
      incr scheduled;
      Abe_sim.Engine.schedule e ~delay event
    end
  and event () =
    incr fired;
    on_event !fired;
    for j = 1 to !fired mod 4 do
      spawn (0.25 *. float_of_int j)
    done
  in
  for j = 1 to 6 do
    spawn (0.5 *. float_of_int j)
  done

let engine_rows m =
  List.filter_map
    (fun row ->
       if String.starts_with ~prefix:"engine/" (List.hd row) then
         Some (String.concat " " row)
       else None)
    (Metrics.report_rows m)

let check_engine_metrics what e m rows =
  Alcotest.(check int) (what ^ ": engine/executed")
    (Abe_sim.Engine.executed_events e)
    (Metrics.counter_value (Metrics.counter m "engine/executed"));
  Alcotest.(check (list string)) (what ^ ": rows") rows (engine_rows m)

(* The engine's metrics reach the registry on every exit from [run]: a
   run cut by its event budget, one ended by [Engine.stop] and one whose
   action raises, each followed by another run.  The rows are pinned. *)
let test_engine_metrics_every_exit () =
  let module E = Abe_sim.Engine in
  let cut =
    [ "engine/executed counter 25 - - - - - -";
      "engine/queue_depth histogram 25 - 11.24 10.834 16.7084 18 18" ]
  in
  let full =
    [ "engine/executed counter 60 - - - - - -";
      "engine/queue_depth histogram 60 - 13 12.8839 21.6681 23.6292 24" ]
  in
  let m = Metrics.create () in
  let e = E.create ~metrics:m ~limit_events:25 () in
  depth_program e ~on_event:ignore;
  Alcotest.(check bool) "budget hit" true (E.run e = E.Hit_event_limit);
  check_engine_metrics "budget" e m cut;
  Alcotest.(check bool) "budget still hit" true (E.run e = E.Hit_event_limit);
  check_engine_metrics "budget, run again" e m cut;
  let m = Metrics.create () in
  let e = E.create ~metrics:m () in
  depth_program e ~on_event:(fun k -> if k = 25 then E.stop e);
  Alcotest.(check bool) "stopped" true (E.run e = E.Stopped);
  check_engine_metrics "stop" e m cut;
  Alcotest.(check bool) "resumed" true (E.run e = E.Drained);
  check_engine_metrics "stop, resumed" e m full;
  let m = Metrics.create () in
  let e = E.create ~metrics:m () in
  depth_program e ~on_event:(fun k -> if k = 25 then raise Boom);
  Alcotest.check_raises "action raises" Boom (fun () ->
      ignore (E.run e : E.outcome));
  check_engine_metrics "raise" e m cut;
  Alcotest.(check bool) "resumed" true (E.run e = E.Drained);
  (* The raising event scheduled no children. *)
  check_engine_metrics "raise, resumed" e m
    [ "engine/executed counter 60 - - - - - -";
      "engine/queue_depth histogram 60 - 12.8 12.8839 19.8697 23 23" ]

(* Reference model: the sparse Hashtbl histogram the dense one replaced,
   with its bucketing formula, quantile walk, merge and row rendering. *)
module Reference = struct
  type h = {
    buckets : (int, int) Hashtbl.t;
    mutable zero : int;
    mutable total : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { buckets = Hashtbl.create 16; zero = 0; total = 0; sum = 0.;
      min = infinity; max = neg_infinity }

  let bucket_of x =
    int_of_float (Float.floor (Float.log x *. (8. /. Float.log 2.)))

  let bucket_mid i = Float.exp ((float_of_int i +. 0.5) *. (Float.log 2. /. 8.))

  let add h i c =
    Hashtbl.replace h.buckets i
      (c + Option.value ~default:0 (Hashtbl.find_opt h.buckets i))

  let observe h x =
    if x > 0. then add h (bucket_of x) 1 else h.zero <- h.zero + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum +. x;
    if x < h.min then h.min <- x;
    if x > h.max then h.max <- x

  let merge ~into:a b =
    Hashtbl.iter (add a) b.buckets;
    a.zero <- a.zero + b.zero;
    a.total <- a.total + b.total;
    a.sum <- a.sum +. b.sum;
    if b.min < a.min then a.min <- b.min;
    if b.max > a.max then a.max <- b.max

  let quantile h q =
    if h.total = 0 then nan
    else if q = 0. then h.min
    else if q = 1. then h.max
    else begin
      let rank =
        max 1 (int_of_float (Float.ceil (q *. float_of_int h.total)))
      in
      let estimate =
        if rank <= h.zero then 0.
        else begin
          let sorted =
            List.sort compare
              (Hashtbl.fold (fun i c acc -> (i, c) :: acc) h.buckets [])
          in
          let rec walk seen = function
            | [] -> h.max
            | (i, c) :: rest ->
              let seen = seen + c in
              if rank <= seen then bucket_mid i else walk seen rest
          in
          walk h.zero sorted
        end
      in
      Float.max h.min (Float.min h.max estimate)
    end

  let row name h =
    let cell x = if Float.is_nan x then "-" else Printf.sprintf "%g" x in
    let mean = if h.total = 0 then nan else h.sum /. float_of_int h.total in
    [ name; "histogram"; string_of_int h.total; "-"; cell mean;
      cell (quantile h 0.5); cell (quantile h 0.9); cell (quantile h 0.99);
      cell (if h.total = 0 then nan else h.max) ]
end

(* Observations that stress the dense range: small integers (the lookup
   table), zero and negatives (the zero bucket), subnormals and 1e300 (the
   two ends of the ~16,800 bucket indices), and arbitrary magnitudes in
   between, so the array widens downwards and upwards. *)
let observation =
  QCheck.Gen.(
    frequency
      [ (4, map float_of_int (int_range 1 5000));
        (1, return 0.);
        (1, map (fun x -> -.x) (float_range 0. 1e6));
        (1, map (fun k -> Int64.float_of_bits (Int64.of_int k)) (int_range 1 100_000));
        (1, return 1e300);
        (1, return Float.max_float);
        (3, map (fun e -> Float.exp e) (float_range (-700.) 690.)) ])

let observations_arb =
  QCheck.make
    ~print:QCheck.Print.(list (list float))
    QCheck.Gen.(list_size (int_range 1 5) (list_size (int_range 0 60) observation))

let quantiles = [ 0.; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ]

let prop_dense_matches_reference =
  QCheck.Test.make ~name:"dense histogram matches the sparse reference"
    ~count:300 (QCheck.pair observations_arb QCheck.small_int)
    (fun (groups, order_seed) ->
       let registries =
         List.map
           (fun xs ->
              let m = Metrics.create () in
              let h = Metrics.histogram m "h" in
              let r = Reference.create () in
              List.iter (fun x -> Metrics.observe h x; Reference.observe r x) xs;
              (m, h, r))
           groups
       in
       List.iter
         (fun (m, h, r) ->
            if Metrics.report_rows m <> [ Reference.row "h" r ] then
              QCheck.Test.fail_report "report rows differ";
            List.iter
              (fun q ->
                 let a = Metrics.quantile h q and b = Reference.quantile r q in
                 if not (a = b || (Float.is_nan a && Float.is_nan b)) then
                   QCheck.Test.fail_reportf "quantile %g: %h vs %h" q a b)
              quantiles)
         registries;
       (* Merge in a random order, on both sides. *)
       let rng = Random.State.make [| order_seed |] in
       let shuffled =
         List.map snd
           (List.sort compare
              (List.map (fun x -> (Random.State.bits rng, x)) registries))
       in
       let into = Metrics.create () and reference = Reference.create () in
       List.iter
         (fun (m, _, r) ->
            Metrics.merge_into ~into m;
            Reference.merge ~into:reference r)
         shuffled;
       Metrics.report_rows into = [ Reference.row "h" reference ]
       && List.for_all
            (fun q ->
               let a = Metrics.quantile (Metrics.histogram into "h") q
               and b = Reference.quantile reference q in
               a = b || (Float.is_nan a && Float.is_nan b))
            quantiles)

(* The small-integer lookup table is filled by the formula; every entry
   (and the first integers past it) must agree with the reference. *)
let test_bucket_table () =
  for k = 1 to 10_000 do
    let x = float_of_int k in
    if Metrics.bucket_of x <> Reference.bucket_of x then
      Alcotest.failf "bucket_of %d: %d, reference %d" k (Metrics.bucket_of x)
        (Reference.bucket_of x)
  done;
  List.iter
    (fun x ->
       Alcotest.(check int) (Printf.sprintf "bucket_of %h" x)
         (Reference.bucket_of x) (Metrics.bucket_of x))
    [ 0.5; 1.5; 4095.5; 4096.; 5e-324; 1e300; Float.max_float ];
  Alcotest.(check int) "smallest subnormal" (-8592) (Metrics.bucket_of 5e-324);
  Alcotest.(check int) "max_float" 8192 (Metrics.bucket_of Float.max_float)

(* +inf has no bucket: it used to be counted silently in [1, 1.09). *)
let test_observe_rejects_infinity () =
  let h = Metrics.histogram (Metrics.create ()) "h" in
  Alcotest.check_raises "nan"
    (Invalid_argument "Metrics.observe: NaN observation") (fun () ->
      Metrics.observe h nan);
  Alcotest.check_raises "+inf"
    (Invalid_argument "Metrics.observe: infinite observation") (fun () ->
      Metrics.observe h infinity);
  Alcotest.(check int) "nothing recorded" 0 (Metrics.hist_count h)

(* [observe_int h k] is [observe h (float_of_int k)] without the box:
   same rows, same quantiles, over the zero bucket (zero and negatives),
   the small-integer table and the logarithm past it. *)
let prop_observe_int_matches_observe =
  let sample =
    QCheck.Gen.(
      frequency
        [ (2, return 0);
          (2, int_range (-5000) (-1));
          (1, return min_int);
          (4, int_range 1 4095);
          (2, int_range 4096 1_000_000);
          (1, int_range 1_000_000 max_int) ])
  in
  QCheck.Test.make ~name:"observe_int matches observe of the float"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list int)
       QCheck.Gen.(list_size (int_range 0 80) sample))
    (fun ks ->
       let ints = Metrics.create () and floats = Metrics.create () in
       let hi = Metrics.histogram ints "h" and hf = Metrics.histogram floats "h" in
       List.iter
         (fun k ->
            Metrics.observe_int hi k;
            Metrics.observe hf (float_of_int k))
         ks;
       Metrics.report_rows ints = Metrics.report_rows floats
       && List.for_all
            (fun q ->
               let a = Metrics.quantile hi q and b = Metrics.quantile hf q in
               a = b || (Float.is_nan a && Float.is_nan b))
            quantiles
       && Metrics.hist_sum hi = Metrics.hist_sum hf)

(* [observe_int_counts h counts] is [counts.(k)] calls of [observe_int h k]
   for every [k], after any earlier integer samples: same rows, quantiles
   and sum.  The counts reach past the small-integer table. *)
let prop_observe_int_counts_matches_observe_int =
  let counts =
    QCheck.Gen.(
      map Array.of_list
        (list_size (int_range 0 5000) (frequency [ (3, return 0); (1, int_bound 5) ])))
  and earlier = QCheck.Gen.(list_size (int_range 0 20) (int_range (-50) 10_000)) in
  QCheck.Test.make ~name:"observe_int_counts matches observe_int" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (array int))
       QCheck.Gen.(pair earlier counts))
    (fun (earlier, counts) ->
       let bulk = Metrics.create () and single = Metrics.create () in
       let hb = Metrics.histogram bulk "h" and hs = Metrics.histogram single "h" in
       List.iter
         (fun k ->
            Metrics.observe_int hb k;
            Metrics.observe_int hs k)
         earlier;
       Metrics.observe_int_counts hb counts;
       Array.iteri
         (fun k c ->
            for _ = 1 to c do
              Metrics.observe_int hs k
            done)
         counts;
       Metrics.report_rows bulk = Metrics.report_rows single
       && List.for_all
            (fun q ->
               let a = Metrics.quantile hb q and b = Metrics.quantile hs q in
               a = b || (Float.is_nan a && Float.is_nan b))
            quantiles
       && Metrics.hist_sum hb = Metrics.hist_sum hs)

let test_observe_int_counts_rejects_negative () =
  let h = Metrics.histogram (Metrics.create ()) "h" in
  Alcotest.check_raises "negative count"
    (Invalid_argument "Metrics.observe_int_counts: negative count") (fun () ->
      Metrics.observe_int_counts h [| 1; -1 |])

(* A histogram family lists, renders and merges exactly like the named
   histograms it stands for, and [histogram] finds its members. *)
let test_family_matches_named () =
  let fill ~family registry =
    Metrics.incr (Metrics.counter registry "net/link_drops");
    let member i =
      if family then
        Metrics.member
          (Metrics.histogram_family registry ~prefix:"net/link/"
             ~suffix:"/latency" 3)
          i
      else Metrics.histogram registry (Printf.sprintf "net/link/%04d/latency" i)
    in
    Metrics.observe (member 0) 1.5;
    Metrics.observe (member 2) 4.;
    ignore (member 1);
    registry
  in
  let named = fill ~family:false (Metrics.create ())
  and fam = fill ~family:true (Metrics.create ()) in
  Alcotest.(check (list string)) "names" (names named)
    (names fam);
  Alcotest.(check (list (list string))) "rows" (Metrics.report_rows named)
    (Metrics.report_rows fam);
  Alcotest.(check int) "histogram finds a member" 1
    (Metrics.hist_count (Metrics.histogram fam "net/link/0002/latency"));
  Alcotest.check_raises "a member is a histogram"
    (Invalid_argument
       "Metrics.counter: \"net/link/0001/latency\" is already a histogram")
    (fun () -> ignore (Metrics.counter fam "net/link/0001/latency"));
  (* Merged either way round, and into each other, the rows agree. *)
  let merged sources =
    let into = Metrics.create () in
    List.iter (fun src -> Metrics.merge_into ~into src) sources;
    Metrics.report_rows into
  in
  let expected = merged [ named; named ] in
  List.iter
    (fun sources ->
       Alcotest.(check (list (list string))) "merged rows" expected
         (merged sources))
    [ [ fam; fam ]; [ named; fam ]; [ fam; named ] ];
  (* A family widened over a histogram registered by name adopts it. *)
  let adopting = Metrics.create () in
  Metrics.observe (Metrics.histogram adopting "net/link/0001/latency") 2.;
  let f =
    Metrics.histogram_family adopting ~prefix:"net/link/" ~suffix:"/latency" 2
  in
  Alcotest.(check int) "adopted" 1 (Metrics.hist_count (Metrics.member f 1));
  Alcotest.(check int) "listed once" 2 (List.length (names adopting));
  let clashing = Metrics.create () in
  ignore (Metrics.gauge clashing "net/link/0000/latency");
  Alcotest.check_raises "a gauge is not adopted"
    (Invalid_argument
       "Metrics.histogram_family: \"net/link/0000/latency\" is already a \
        gauge")
    (fun () ->
       ignore
         (Metrics.histogram_family clashing ~prefix:"net/link/"
            ~suffix:"/latency" 1))

let () =
  Alcotest.run "metrics"
    [ ( "metrics",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          Alcotest.test_case "quantiles vs exact" `Quick
            test_quantiles_vs_exact;
          Alcotest.test_case "merge order-independent" `Quick
            test_merge_order_independent;
          Alcotest.test_case "merge copies" `Quick test_merge_into_empty_copies;
          Alcotest.test_case "empty histogram quantiles" `Quick
            test_empty_histogram_quantiles;
          Alcotest.test_case "merge all-zero source" `Quick
            test_merge_all_zero_source;
          Alcotest.test_case "report rows" `Quick test_report_rows;
          Alcotest.test_case "engine instrumentation" `Quick
            test_engine_instrumentation;
          Alcotest.test_case "engine metrics on every exit" `Quick
            test_engine_metrics_every_exit;
          Alcotest.test_case "bucket table" `Quick test_bucket_table;
          Alcotest.test_case "observe rejects infinity" `Quick
            test_observe_rejects_infinity;
          Alcotest.test_case "family matches named histograms" `Quick
            test_family_matches_named;
          QCheck_alcotest.to_alcotest prop_dense_matches_reference;
          Alcotest.test_case "observe_int_counts rejects negative counts"
            `Quick test_observe_int_counts_rejects_negative;
          QCheck_alcotest.to_alcotest prop_observe_int_matches_observe;
          QCheck_alcotest.to_alcotest
            prop_observe_int_counts_matches_observe_int ] ) ]
