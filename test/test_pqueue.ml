open Abe_sim

(* The pqueue is now monomorphic (int payloads = arena indices) with
   priorities read either from a boxed [~priority] or from a caller-owned
   [~times] array.  The reference model throughout is a sorted association
   list of [(priority, seq, value)] ordered by [(priority, seq)] — the
   behaviour of the original generic implementation. *)

let drain q =
  let rec go acc =
    match Pqueue.pop q with
    | None -> List.rev acc
    | Some (priority, value) -> go ((priority, value) :: acc)
  in
  go []

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
  List.iteri
    (fun seq priority -> Pqueue.add q ~priority ~seq (int_of_float priority))
    [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check (list (float 1e-9)))
    "ascending" [ 1.; 2.; 3.; 4.; 5. ]
    (List.map fst (drain q))

let test_tie_break_by_seq () =
  let q = Pqueue.create () in
  Pqueue.add q ~priority:1. ~seq:2 22;
  Pqueue.add q ~priority:1. ~seq:1 11;
  Pqueue.add q ~priority:1. ~seq:3 33;
  Alcotest.(check (list int))
    "fifo among ties" [ 11; 22; 33 ]
    (List.map snd (drain q))

let test_empty () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty q);
  Alcotest.(check int) "length" 0 (Pqueue.length q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.(check int) "pop_value empty" (-1) (Pqueue.pop_value q);
  Alcotest.(check int) "min_value empty" (-1) (Pqueue.min_value q);
  Alcotest.(check bool) "min none" true (Pqueue.min_priority q = None)

let test_min_priority () =
  let q = Pqueue.create () in
  Pqueue.add q ~priority:3. ~seq:0 0;
  Pqueue.add q ~priority:1. ~seq:1 1;
  Alcotest.(check (option (float 1e-9))) "min" (Some 1.) (Pqueue.min_priority q);
  Alcotest.(check int) "min value" 1 (Pqueue.min_value q);
  Alcotest.(check int) "peek does not pop" 2 (Pqueue.length q)

let test_clear () =
  let q = Pqueue.create () in
  for i = 0 to 9 do
    Pqueue.add q ~priority:(float_of_int i) ~seq:i i
  done;
  Pqueue.clear q;
  Alcotest.(check int) "cleared" 0 (Pqueue.length q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None)

(* clear-then-reuse: the heap must behave like a fresh one after [clear],
   over the capacity it kept. *)
let test_clear_then_reuse () =
  let q = Pqueue.create () in
  for i = 0 to 99 do
    Pqueue.add q ~priority:(float_of_int (100 - i)) ~seq:i i
  done;
  Pqueue.clear q;
  List.iteri
    (fun seq priority -> Pqueue.add q ~priority ~seq (seq * 10))
    [ 2.; 1.; 3. ];
  Alcotest.(check (list int)) "reused order" [ 10; 0; 20 ]
    (List.map snd (drain q))

let test_nan_rejected () =
  let q = Pqueue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Pqueue.add: NaN priority")
    (fun () -> Pqueue.add q ~priority:Float.nan ~seq:0 0)

let test_add_at_reads_times () =
  let times = [| 3.0; 1.0; 2.0; 0.5 |] in
  let q = Pqueue.create () in
  for v = 0 to 3 do
    Pqueue.add_at q ~times ~seq:v v
  done;
  Alcotest.(check (list int)) "ordered by times.(v)" [ 3; 1; 2; 0 ]
    (List.map snd (drain q));
  (* Mixing add_at with plain add must agree on ordering. *)
  Pqueue.add_at q ~times ~seq:10 1;
  Pqueue.add q ~priority:0.75 ~seq:11 99;
  Alcotest.(check (list int)) "mixed" [ 99; 1 ] (List.map snd (drain q))

let test_interleaved_ops () =
  let q = Pqueue.create () in
  Pqueue.add q ~priority:2. ~seq:0 2;
  Pqueue.add q ~priority:1. ~seq:1 1;
  Alcotest.(check int) "pop 1" 1 (Pqueue.pop_value q);
  Pqueue.add q ~priority:0.5 ~seq:2 5;
  Pqueue.add q ~priority:3. ~seq:3 3;
  Alcotest.(check int) "pop 5" 5 (Pqueue.pop_value q);
  Alcotest.(check int) "pop 2" 2 (Pqueue.pop_value q);
  Alcotest.(check int) "pop 3" 3 (Pqueue.pop_value q);
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

(* --- properties: the heap agrees with the sorted-list model --------- *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"pop order equals stable sort" ~count:500
    QCheck.(list (float_range 0. 100.))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun seq p -> Pqueue.add q ~priority:p ~seq seq) priorities;
      let expected =
        List.map
          (fun (p, _, v) -> (p, v))
          (model_sort (List.mapi (fun s p -> (p, s, s)) priorities))
      in
      drain q = expected)

let prop_ties_pop_in_seq_order =
  QCheck.Test.make ~name:"equal priorities pop in insertion order" ~count:500
    QCheck.(list (int_range 0 3))
    (fun buckets ->
      let q = Pqueue.create () in
      List.iteri
        (fun seq bucket ->
          Pqueue.add q ~priority:(float_of_int bucket) ~seq seq)
        buckets;
      let popped = List.map snd (drain q) in
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
            Pqueue.add q ~priority:p ~seq:!seq !seq;
            model := model_insert (p, !seq, !seq) !model;
            incr seq
          | None -> (
            match (!model, Pqueue.pop q) with
            | [], None -> ()
            | (p, _, v) :: rest, Some (p', v') ->
              if not (p = p' && v = v') then ok := false;
              model := rest
            | _ -> ok := false))
        ops;
      !ok
      && Pqueue.length q = List.length !model
      && drain q = List.map (fun (p, _, v) -> (p, v)) !model)

(* Same interleaving driven through the allocation-free entry points
   ([add_at] + [pop_value]) with priorities in a shared times array. *)
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
      !ok && Pqueue.length q = List.length !model)

let prop_length_tracks =
  QCheck.Test.make ~name:"length tracks adds and pops" ~count:200
    QCheck.(list (float_range 0. 10.))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun seq p -> Pqueue.add q ~priority:p ~seq seq) priorities;
      let n = List.length priorities in
      Pqueue.length q = n
      &&
      (for _ = 1 to n / 2 do
         ignore (Pqueue.pop q)
       done;
       Pqueue.length q = n - (n / 2)))

let () =
  Alcotest.run "pqueue"
    [ ( "basics",
        [ Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "tie break" `Quick test_tie_break_by_seq;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "min priority" `Quick test_min_priority;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "clear then reuse" `Quick test_clear_then_reuse;
          Alcotest.test_case "nan rejected" `Quick test_nan_rejected;
          Alcotest.test_case "add_at reads times" `Quick test_add_at_reads_times;
          Alcotest.test_case "interleaved" `Quick test_interleaved_ops ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_heap_sorts; prop_ties_pop_in_seq_order;
            prop_interleaved_matches_model; prop_add_at_matches_model;
            prop_length_tracks ] ) ]
