open Abe_sim

(* The pqueue is monomorphic (int payloads = arena indices) with each
   payload's priority read from a caller-owned [~times] array, as the
   engine's arena does.  The reference model throughout is a sorted
   association list of [(priority, seq, value)] ordered by
   [(priority, seq)] — the behaviour of the original generic
   implementation. *)

(* Pop every payload, in order. *)
let drain q =
  let rec go acc =
    match Pqueue.pop_value q with
    | -1 -> List.rev acc
    | v -> go (v :: acc)
  in
  go []

(* Insert payloads [0 .. n-1] with priorities [times], each under its own
   index as sequence number. *)
let add_all q times =
  Array.iteri (fun v _ -> Pqueue.add_at q ~times ~seq:v v) times

(* [(priority, seq)] order, compared monomorphically. *)
let model_compare ((p1 : float), (s1 : int), _) (p2, s2, _) =
  if p1 < p2 then -1
  else if p1 > p2 then 1
  else Int.compare s1 s2

let model_sort entries = List.stable_sort model_compare entries

(* Insert into a model sorted by [(priority, seq)] an entry whose seq is
   above every seq already there: it goes after every entry of priority at
   most its own.  One pass, where re-sorting per push made each case
   quadratic in the list length. *)
let model_insert ((p, _, _) as entry) model =
  let rec go acc = function
    | ((p', _, _) as x) :: rest when (p' : float) <= p -> go (x :: acc) rest
    | rest -> List.rev_append acc (entry :: rest)
  in
  go [] model

let test_ordering () =
  let q = Pqueue.create () in
  let times = [| 5.; 1.; 3.; 2.; 4. |] in
  add_all q times;
  Alcotest.(check (list (float 1e-9)))
    "ascending" [ 1.; 2.; 3.; 4.; 5. ]
    (List.map (fun v -> times.(v)) (drain q))

let test_tie_break_by_seq () =
  let q = Pqueue.create () in
  let times = Array.make 34 1. in
  Pqueue.add_at q ~times ~seq:2 22;
  Pqueue.add_at q ~times ~seq:1 11;
  Pqueue.add_at q ~times ~seq:3 33;
  Alcotest.(check (list int)) "fifo among ties" [ 11; 22; 33 ] (drain q)

let test_empty () =
  let q = Pqueue.create () in
  Alcotest.(check int) "pop_value empty" (-1) (Pqueue.pop_value q);
  Alcotest.(check int) "min_value empty" (-1) (Pqueue.min_value q)

let test_min_value () =
  let q = Pqueue.create () in
  add_all q [| 3.; 1. |];
  Alcotest.(check int) "min value" 1 (Pqueue.min_value q);
  Alcotest.(check (list int)) "peek does not pop" [ 1; 0 ] (drain q)

let test_clear () =
  let q = Pqueue.create () in
  add_all q (Array.init 10 float_of_int);
  Pqueue.clear q;
  Alcotest.(check int) "cleared" (-1) (Pqueue.min_value q);
  Alcotest.(check int) "pop none" (-1) (Pqueue.pop_value q)

(* clear-then-reuse: the heap must behave like a fresh one after [clear],
   over the capacity it kept. *)
let test_clear_then_reuse () =
  let q = Pqueue.create () in
  let times = Array.init 100 (fun i -> float_of_int (100 - i)) in
  add_all q times;
  Pqueue.clear q;
  List.iteri
    (fun seq priority ->
       times.(seq * 10) <- priority;
       Pqueue.add_at q ~times ~seq (seq * 10))
    [ 2.; 1.; 3. ];
  Alcotest.(check (list int)) "reused order" [ 10; 0; 20 ] (drain q)

let test_add_at_reads_times () =
  let times = [| 3.0; 1.0; 2.0; 0.5 |] in
  let q = Pqueue.create () in
  for v = 0 to 3 do
    Pqueue.add_at q ~times ~seq:v v
  done;
  Alcotest.(check (list int)) "ordered by times.(v)" [ 3; 1; 2; 0 ] (drain q)

let test_interleaved_ops () =
  let q = Pqueue.create () in
  let times = [| 0.; 1.; 2.; 3.; 0.; 0.5 |] in
  Pqueue.add_at q ~times ~seq:0 2;
  Pqueue.add_at q ~times ~seq:1 1;
  Alcotest.(check int) "pop 1" 1 (Pqueue.pop_value q);
  Pqueue.add_at q ~times ~seq:2 5;
  Pqueue.add_at q ~times ~seq:3 3;
  Alcotest.(check int) "pop 5" 5 (Pqueue.pop_value q);
  Alcotest.(check int) "pop 2" 2 (Pqueue.pop_value q);
  Alcotest.(check int) "pop 3" 3 (Pqueue.pop_value q);
  Alcotest.(check int) "drained" (-1) (Pqueue.pop_value q)

(* --- properties: the heap agrees with the sorted-list model --------- *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"pop order equals stable sort" ~count:500
    QCheck.(list (float_range 0. 100.))
    (fun priorities ->
      let q = Pqueue.create () in
      add_all q (Array.of_list priorities);
      let expected =
        List.map
          (fun (_, _, v) -> v)
          (model_sort (List.mapi (fun s p -> (p, s, s)) priorities))
      in
      drain q = expected)

let prop_ties_pop_in_seq_order =
  QCheck.Test.make ~name:"equal priorities pop in insertion order" ~count:500
    QCheck.(list (int_range 0 3))
    (fun buckets ->
      let q = Pqueue.create () in
      add_all q (Array.of_list (List.map float_of_int buckets));
      let popped = drain q in
      let buckets_of = Array.of_list buckets in
      (* Within each priority bucket, values (= seqs) must be ascending. *)
      let by_bucket = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let b = buckets_of.(v) in
          let prev = try Hashtbl.find by_bucket b with Not_found -> -1 in
          assert (v > prev);
          Hashtbl.replace by_bucket b v)
        popped;
      List.length popped = List.length buckets)

(* Interleaved add/pop against the model, including clear-then-reuse:
   [None] pops, [Some k] pushes priority [k], [-1] (encoded as [Some 4])
   clears both sides. *)
let prop_interleaved_matches_model =
  QCheck.Test.make ~name:"interleaved add/pop/clear matches sorted-list model"
    ~count:500
    QCheck.(list (option (int_range 0 4)))
    (fun ops ->
      let times = Array.make (max 1 (List.length ops)) 0. in
      let q = Pqueue.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some 4 ->
            Pqueue.clear q;
            model := []
          | Some k ->
            let p = float_of_int k in
            times.(!seq) <- p;
            Pqueue.add_at q ~times ~seq:!seq !seq;
            model := model_insert (p, !seq, !seq) !model;
            incr seq
          | None -> (
            match (!model, Pqueue.pop_value q) with
            | [], -1 -> ()
            | (p, _, v) :: rest, v' when v' >= 0 ->
              if not (p = times.(v') && v = v') then ok := false;
              model := rest
            | _ -> ok := false))
        ops;
      !ok && drain q = List.map (fun (_, _, v) -> v) !model)

(* Same interleaving without clears, checking the payloads popped and the
   ones left behind. *)
let prop_add_at_matches_model =
  QCheck.Test.make ~name:"add_at/pop_value matches sorted-list model"
    ~count:500
    QCheck.(list (option (int_range 0 3)))
    (fun ops ->
      let n = List.length ops in
      let times = Array.make (max 1 n) 0. in
      let q = Pqueue.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some k ->
            let v = !seq in
            times.(v) <- float_of_int k;
            Pqueue.add_at q ~times ~seq:v v;
            model := model_insert (float_of_int k, v, v) !model;
            incr seq
          | None -> (
            match (!model, Pqueue.pop_value q) with
            | [], -1 -> ()
            | (_, _, v) :: rest, v' ->
              if v <> v' then ok := false;
              model := rest
            | _ -> ok := false))
        ops;
      !ok && drain q = List.map (fun (_, _, v) -> v) !model)

let prop_length_tracks =
  QCheck.Test.make ~name:"length tracks adds and pops" ~count:200
    QCheck.(list (float_range 0. 10.))
    (fun priorities ->
      let q = Pqueue.create () in
      add_all q (Array.of_list priorities);
      let n = List.length priorities in
      let popped = ref 0 in
      for _ = 1 to n / 2 do
        if Pqueue.pop_value q >= 0 then incr popped
      done;
      !popped = n / 2 && List.length (drain q) = n - (n / 2))

let () =
  Alcotest.run "pqueue"
    [ ( "basics",
        [ Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "tie break" `Quick test_tie_break_by_seq;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "min value" `Quick test_min_value;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "clear then reuse" `Quick test_clear_then_reuse;
          Alcotest.test_case "add_at reads times" `Quick test_add_at_reads_times;
          Alcotest.test_case "interleaved" `Quick test_interleaved_ops ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_heap_sorts; prop_ties_pop_in_seq_order;
            prop_interleaved_matches_model; prop_add_at_matches_model;
            prop_length_tracks ] ) ]
