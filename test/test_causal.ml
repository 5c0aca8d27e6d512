open Abe_core

(* Span recording is exercised end-to-end through a seeded election run:
   the recorder must observe the run without perturbing it, the DAG must
   reconnect every delivery to its send, and the critical path must
   telescope exactly to the elected-at instant. *)

let run_with_causal ?(n = 8) ~seed () =
  let config = Runner.config ~n ~a0:0.1 () in
  let causal = Abe_sim.Causal.create () in
  let outcome = Runner.run ~causal ~seed config in
  (outcome, causal)

let test_pure_observation () =
  let config = Runner.config ~n:8 ~a0:0.1 () in
  let plain = Runner.run ~seed:1 config in
  let observed, causal = run_with_causal ~seed:1 () in
  Alcotest.(check bool) "elected" plain.Runner.elected observed.Runner.elected;
  Alcotest.(check (float 1e-12)) "elected_at" plain.Runner.elected_at
    observed.Runner.elected_at;
  Alcotest.(check int) "messages" plain.Runner.messages observed.Runner.messages;
  Alcotest.(check int) "activations" plain.Runner.activations
    observed.Runner.activations;
  Alcotest.(check bool) "spans were recorded" true
    (Abe_sim.Causal.span_count causal > 0)

let test_deliveries_link_to_sends () =
  let outcome, causal = run_with_causal ~seed:1 () in
  Alcotest.(check bool) "elected" true outcome.Runner.elected;
  let spans = Abe_sim.Causal.spans causal in
  (* Every process span with a transit cause must have flipped that
     transit's [delivered] flag, and every delivered transit must be
     named as some process span's first parent. *)
  let delivered_transits =
    List.filter
      (fun s ->
         match Abe_sim.Causal.shape s with
         | Abe_sim.Causal.Transit_shape { delivered; _ } -> delivered
         | _ -> false)
      spans
  in
  let recvs =
    List.filter (fun s -> Abe_sim.Causal.label s = "recv") spans
  in
  Alcotest.(check int) "each recv reconnects one delivered transit"
    (List.length delivered_transits) (List.length recvs);
  List.iter
    (fun r ->
       match Abe_sim.Causal.parents r with
       | cause :: _ ->
         (match Abe_sim.Causal.shape cause with
          | Abe_sim.Causal.Transit_shape { delivered; _ } ->
            Alcotest.(check bool) "cause marked delivered" true delivered;
            Alcotest.(check bool) "flight ends at delivery begin" true
              (Abe_sim.Causal.span_end cause
               = Abe_sim.Causal.span_begin r)
          | _ -> Alcotest.fail "recv's first parent must be a transit")
       | [] -> Alcotest.fail "recv span with no cause")
    recvs

let test_lamport_monotone () =
  let _outcome, causal = run_with_causal ~seed:2 () in
  List.iter
    (fun s ->
       List.iter
         (fun p ->
            if Abe_sim.Causal.lamport p >= Abe_sim.Causal.lamport s then
              Alcotest.failf "span %d (lamport %d) <= parent %d (lamport %d)"
                (Abe_sim.Causal.span_id s) (Abe_sim.Causal.lamport s)
                (Abe_sim.Causal.span_id p) (Abe_sim.Causal.lamport p))
         (Abe_sim.Causal.parents s))
    (Abe_sim.Causal.spans causal)

let test_marks_cover_phases () =
  let outcome, causal = run_with_causal ~seed:1 () in
  let labels =
    List.map (fun m -> m.Abe_sim.Causal.m_label) (Abe_sim.Causal.marks causal)
  in
  let count l = List.length (List.filter (String.equal l) labels) in
  Alcotest.(check int) "one activation mark" outcome.Runner.activations
    (count "activate");
  Alcotest.(check int) "knockout marks" outcome.Runner.knockouts
    (count "knockout");
  Alcotest.(check int) "one elected mark" 1 (count "elected");
  match Abe_sim.Causal.sink causal with
  | None -> Alcotest.fail "sink must be set at election"
  | Some sink ->
    Alcotest.(check string) "sink is the electing delivery" "recv"
      (Abe_sim.Causal.label sink);
    Alcotest.(check (float 1e-12)) "sink ends at elected_at"
      outcome.Runner.elected_at (Abe_sim.Causal.span_end sink)

let test_critpath_telescopes () =
  List.iter
    (fun n ->
       let outcome, causal = run_with_causal ~n ~seed:1 () in
       match Abe_sim.Critpath.analyze causal with
       | None -> Alcotest.failf "n=%d: no critical path" n
       | Some b ->
         let open Abe_sim.Critpath in
         Alcotest.(check (float 1e-9))
           (Printf.sprintf "n=%d: total = elected_at" n)
           outcome.Runner.elected_at b.total;
         Alcotest.(check (float 1e-9))
           (Printf.sprintf "n=%d: link+proc+idle = total" n)
           b.total (b.link +. b.proc +. b.idle);
         Alcotest.(check bool) (Printf.sprintf "n=%d: components >= 0" n)
           true (b.link >= 0. && b.proc >= 0. && b.idle >= 0.);
         (* The winning token traverses every link exactly once. *)
         Alcotest.(check int) (Printf.sprintf "n=%d: hops = n" n) n b.hops;
         Alcotest.(check bool) (Printf.sprintf "n=%d: spans > hops" n) true
           (b.spans > b.hops))
    [ 2; 4; 8; 16 ]

let test_no_sink_no_path () =
  let causal = Abe_sim.Causal.create () in
  (match Abe_sim.Critpath.analyze causal with
   | None -> ()
   | Some _ -> Alcotest.fail "empty recorder must have no critical path");
  ignore
    (Abe_sim.Causal.process causal ~node:0 ~label:"recv" ~t_begin:0.
       ~t_busy:0. ~t_end:1. ());
  match Abe_sim.Critpath.analyze causal with
  | None -> ()
  | Some _ -> Alcotest.fail "spans without a sink must have no critical path"

let test_critpath_metrics () =
  let _outcome, causal = run_with_causal ~seed:1 () in
  match Abe_sim.Critpath.analyze causal with
  | None -> Alcotest.fail "no breakdown"
  | Some b ->
    let m = Abe_sim.Metrics.create () in
    Abe_sim.Critpath.record m b;
    Alcotest.(check (float 1e-9)) "critpath/total histogram" b.Abe_sim.Critpath.total
      (Abe_sim.Metrics.hist_sum (Abe_sim.Metrics.histogram m "critpath/total"));
    Alcotest.(check int) "one observation per histogram" 1
      (Abe_sim.Metrics.hist_count (Abe_sim.Metrics.histogram m "critpath/hops"))

let test_trace_json_shape () =
  let _outcome, causal = run_with_causal ~seed:1 () in
  let file = Filename.temp_file "abe_causal" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
       let oc = open_out file in
       Abe_sim.Causal.output_trace_json oc causal;
       close_out oc;
       let ic = open_in file in
       let lines = ref [] in
       (try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> close_in ic);
       let lines = List.rev !lines in
       Alcotest.(check string) "opening wrapper" "{\"traceEvents\":["
         (List.hd lines);
       let contains needle line =
         let nl = String.length needle and ll = String.length line in
         let rec scan i =
           i + nl <= ll
           && (String.sub line i nl = needle || scan (i + 1))
         in
         scan 0
       in
       let count needle =
         List.length (List.filter (contains needle) lines)
       in
       let flows_out = count "\"ph\":\"s\"" in
       Alcotest.(check bool) "has flow starts" true (flows_out > 0);
       Alcotest.(check int) "flow starts pair with flow finishes" flows_out
         (count "\"ph\":\"f\"");
       Alcotest.(check bool) "has complete events" true
         (count "\"ph\":\"X\"" > 0);
       Alcotest.(check bool) "has metadata events" true
         (count "\"ph\":\"M\"" > 0);
       Alcotest.(check bool) "has instant marks" true
         (count "\"ph\":\"i\"" > 0))

(* Byte-for-byte pins of the span export and the critical-path line: the
   recorder's storage may change, but not a single span, parent, flag or
   digit of what it reports. *)
let golden_run ?params ?proc_delay ?fault ~n ~seed () =
  let config =
    Runner.config ~n ~a0:(Analysis.recommended_a0 ~theta:1. n) ?params
      ?proc_delay ?fault ~limit_time:400. ()
  in
  let causal = Abe_sim.Causal.create () in
  let outcome = Runner.run ~causal ~seed config in
  let file = Filename.temp_file "abe_golden" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
       let oc = open_out_bin file in
       Abe_sim.Causal.output_trace_json oc causal;
       close_out oc;
       let ic = open_in_bin file in
       let json = really_input_string ic (in_channel_length ic) in
       close_in ic;
       let critpath =
         match Abe_sim.Critpath.analyze causal with
         | None -> "none"
         | Some b -> Format.asprintf "%a" Abe_sim.Critpath.pp b
       in
       (outcome, json, critpath))

let check_golden name (json, critpath) (md5, line) =
  Alcotest.(check string) (name ^ ": span JSON md5") md5
    (Digest.to_hex (Digest.string json));
  Alcotest.(check string) (name ^ ": critpath") line critpath

let test_golden_ring () =
  List.iter
    (fun (n, seed, md5, line) ->
       let _, json, critpath = golden_run ~n ~seed () in
       check_golden (Printf.sprintf "n=%d seed=%d" n seed) (json, critpath)
         (md5, line))
    [ (8, 1, "b83de59ca2630acdbd7b4bf3b71362a3",
       "critpath: total=44.632 link=8.653 proc=0.000 idle=35.979 hops=8 spans=17");
      (8, 2, "62995b28bb2f269cff32c6d5715f4946",
       "critpath: total=74.142 link=9.830 proc=0.000 idle=64.312 hops=8 spans=17");
      (8, 3, "2f62a8b569cd82e08a699b28e4e4e602",
       "critpath: total=39.762 link=7.596 proc=0.000 idle=32.166 hops=8 spans=17");
      (48, 1, "06691f672a70b4e5aec004e0b68276e1",
       "critpath: total=120.995 link=40.550 proc=0.000 idle=80.445 hops=48 spans=97");
      (48, 2, "24435d223aa306ce6a14b623996a29a2",
       "critpath: total=167.676 link=46.471 proc=0.000 idle=121.205 hops=48 spans=97");
      (48, 3, "07fcadcf5598295289097580f8a8d794",
       "critpath: total=95.943 link=41.382 proc=0.000 idle=54.561 hops=48 spans=97") ]

let test_golden_proc_delay () =
  let params = Params.make ~delta:1. ~gamma:0.2 ~clock:Abe_net.Clock.perfect in
  let _, json, critpath =
    golden_run ~params
      ~proc_delay:(Some (Abe_prob.Dist.exponential ~mean:0.2))
      ~n:8 ~seed:4 ()
  in
  check_golden "gamma > 0" (json, critpath)
    ( "c507861843a45709fd093d0714cb86b6",
      "critpath: total=73.136 link=5.369 proc=1.503 idle=66.264 hops=5 spans=12" )

let count_substring needle s =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length s then acc
    else if String.sub s i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Lossy run with a link outage: lost messages and sends into the down
   link become zero-length transit spans that no delivery names. *)
let test_golden_lossy () =
  let fault =
    match
      Abe_net.Faults.of_string ~seed:5 ~n:1 ~delta:1.
        "bursty-loss+link-down(3@2:40)"
    with
    | Ok f -> f
    | Error (`Msg m) -> Alcotest.fail m
  in
  let outcome, json, critpath = golden_run ~fault ~n:8 ~seed:5 () in
  Alcotest.(check bool) "no election in the budget" false
    outcome.Runner.elected;
  Alcotest.(check int) "loss spans" 2
    (count_substring "\"name\":\"loss\"" json);
  Alcotest.(check int) "link-drop spans" 1
    (count_substring "\"name\":\"link-drop\"" json);
  check_golden "lossy" (json, critpath)
    ("0c43fd4c683f820bf890dba32f611ae6", "none")

(* sim-observed's configuration, every hook on: at n = 48 the run records
   about 6,100 spans, so it crosses many chunk boundaries of the
   recorder.  The span export, the critical path and every metric row are
   pinned. *)
let test_golden_observed () =
  let n = 48 in
  let config =
    Runner.config ~n ~a0:(Analysis.recommended_a0 ~theta:1. n)
      ~params:Params.default ()
  in
  let metrics = Abe_sim.Metrics.create () in
  let causal = Abe_sim.Causal.create () in
  let outcome = Runner.run ~metrics ~causal ~check:true ~seed:1 config in
  Alcotest.(check bool) "elected" true outcome.Runner.elected;
  Alcotest.(check int) "spans" 6000 (Abe_sim.Causal.span_count causal);
  let file = Filename.temp_file "abe_golden" ".json" in
  let json =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
         let oc = open_out_bin file in
         Abe_sim.Causal.output_trace_json oc causal;
         close_out oc;
         let ic = open_in_bin file in
         let json = really_input_string ic (in_channel_length ic) in
         close_in ic;
         json)
  in
  let critpath =
    match Abe_sim.Critpath.analyze causal with
    | None -> "none"
    | Some b -> Format.asprintf "%a" Abe_sim.Critpath.pp b
  in
  check_golden "n=48 observed" (json, critpath)
    ("06691f672a70b4e5aec004e0b68276e1", 
       "critpath: total=120.995 link=40.550 proc=0.000 idle=80.445 hops=48 spans=97");
  let rows = Abe_sim.Metrics.report_rows metrics in
  let line = String.concat " " in
  Alcotest.(check (list string)) "engine rows"
    [ "engine/executed counter 11808 - - - - - -";
      "engine/queue_depth histogram 11808 - 48.279 47.2584 47.2584 50 50" ]
    (List.filter_map
       (fun row ->
          if String.starts_with ~prefix:"engine/" (List.hd row) then
            Some (line row)
          else None)
       rows);
  Alcotest.(check string) "metric rows md5" "701493ea414d1c0c54422b231c653042"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map line rows))))

(* Retention: with every hook on (sim-observed's configuration), a run
   promotes at most 2 words per event.  The recorder's 64-span chunks are
   allocated in the minor heap and promoted only when a minor collection
   falls inside the election that records them: these 20 elections
   promote ~1.8 words per event in the dev profile, where a DAG of
   per-span heap blocks promotes ~12.5. *)
let test_retention () =
  let n = 48 in
  let config =
    Runner.config ~n ~a0:(Analysis.recommended_a0 ~theta:1. n)
      ~params:Params.default ()
  in
  let events = ref 0 in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  for seed = 1 to 20 do
    let metrics = Abe_sim.Metrics.create () in
    let causal = Abe_sim.Causal.create () in
    let o = Runner.run ~metrics ~causal ~check:true ~seed config in
    Alcotest.(check bool) "critical path" true
      (Option.is_some (Abe_sim.Critpath.analyze causal));
    events := !events + o.Runner.executed_events
  done;
  let promoted =
    ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int !events
  in
  if promoted > 2. then
    Alcotest.failf "%.2f promoted words per event (bound 2)" promoted

(* Labels are interned per recorder: any number of distinct labels, passed
   as fresh strings, reads back unchanged through every accessor and the
   export, next to the endpoints, flags and parents of each span. *)
let test_many_labels () =
  let module C = Abe_sim.Causal in
  let c = C.create () in
  let count = 100 in
  let name i = Printf.sprintf "label-%03d" i in
  let nodes = 3 * count in
  let sends =
    List.init count (fun i ->
        C.enter_event c ~lamport:(2 * i);
        let sender =
          C.process c ~node:i ~label:(name i) ~t_begin:(float_of_int i)
            ~t_busy:(float_of_int i) ~t_end:(float_of_int i +. 0.5) ()
        in
        C.set_current c (Some sender);
        let transit =
          C.transit c ~link:(count + i) ~src:i ~dst:(nodes - 1 - i)
            ~t_begin:(float_of_int i +. 0.5) ~t_end:(float_of_int i +. 1.)
            ~label:(name i)
        in
        (sender, transit))
  in
  (* Every other message is delivered, on a node whose previous span is an
     earlier delivery, so the parents are [cause; previous]. *)
  let deliveries =
    List.filteri (fun i _ -> i mod 2 = 0) sends
    |> List.mapi (fun k (_, transit) ->
        C.enter_event c ~lamport:(1000 + k);
        C.set_current c None;
        C.process c ~cause:transit ~node:(nodes - 1) ~label:(name (count - 1 - k))
          ~t_begin:(C.span_end transit) ~t_busy:(C.span_end transit)
          ~t_end:(C.span_end transit +. 0.25) ())
  in
  List.iteri
    (fun i (sender, transit) ->
       Alcotest.(check string) "sender label" (name i) (C.label sender);
       Alcotest.(check string) "transit label" (name i) (C.label transit);
       Alcotest.(check (list int)) "transit parent is its sender"
         [ C.span_id sender ] (List.map C.span_id (C.parents transit));
       match C.shape transit with
       | C.Transit_shape { link; src; dst; delivered } ->
         Alcotest.(check (list int)) "link, src, dst"
           [ count + i; i; nodes - 1 - i ] [ link; src; dst ];
         Alcotest.(check bool) "delivered flag" (i mod 2 = 0) delivered
       | C.Process_shape _ -> Alcotest.fail "transit read back as a process")
    sends;
  let delivered = List.filteri (fun i _ -> i mod 2 = 0) sends in
  List.iteri
    (fun k span ->
       Alcotest.(check string) "delivery label" (name (count - 1 - k))
         (C.label span);
       let cause = C.span_id (snd (List.nth delivered k)) in
       Alcotest.(check (list int)) "parents: cause, then previous"
         (if k = 0 then [ cause ]
          else [ cause; C.span_id (List.nth deliveries (k - 1)) ])
         (List.map C.span_id (C.parents span));
       match C.shape span with
       | C.Process_shape { node; _ } ->
         Alcotest.(check int) "node" (nodes - 1) node
       | C.Transit_shape _ -> Alcotest.fail "process read back as a transit")
    deliveries;
  let file = Filename.temp_file "abe_labels" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
       let oc = open_out_bin file in
       C.output_trace_json oc c;
       close_out oc;
       let ic = open_in_bin file in
       let json = really_input_string ic (in_channel_length ic) in
       close_in ic;
       for i = 0 to count - 1 do
         let occurrences = count_substring (Printf.sprintf "\"name\":\"%s\"" (name i)) json in
         Alcotest.(check int) (name i ^ " exported") (if i >= count / 2 then 3 else 2)
           occurrences;
         Alcotest.(check int) "transit endpoints exported" 1
           (count_substring
              (Printf.sprintf "\"src\":%d,\"dst\":%d}" i (nodes - 1 - i))
              json)
       done;
       Alcotest.(check int) "one flow pair per delivery" (count / 2)
         (count_substring "\"ph\":\"f\"" json))

(* Span storage is row-major: a warm observed n = 48 election records its
   spans in at most 7 major-heap words each (the rows take 6, chunk
   headers, the spine and the unfilled tail of the last chunk the rest),
   counted against the same election unobserved. *)
let test_span_words () =
  let n = 48 in
  let config =
    Runner.config ~n ~a0:(Analysis.recommended_a0 ~theta:1. n)
      ~params:Params.default ()
  in
  let major_words f =
    Gc.minor ();
    let _, _, before = Gc.counters () in
    f ();
    Gc.minor ();
    let _, _, after = Gc.counters () in
    after -. before
  in
  ignore (Runner.run ~seed:1 config : Runner.outcome);
  List.iter
    (fun seed ->
       let plain =
         major_words (fun () -> ignore (Runner.run ~seed config : Runner.outcome))
       in
       let causal = Abe_sim.Causal.create () in
       let observed =
         major_words (fun () ->
             ignore (Runner.run ~causal ~seed config : Runner.outcome))
       in
       let per_span =
         (observed -. plain) /. float_of_int (Abe_sim.Causal.span_count causal)
       in
       if per_span > 7. then
         Alcotest.failf "seed %d: %.2f major words per span (bound 7)" seed
           per_span)
    [ 1; 2; 3 ]

(* Model test: random recordings over a few nodes and links, checked span
   by span against a plain list model.  A recording is longer than three
   chunks of the recorder, and causes reach back across chunk
   boundaries. *)
module Model = struct
  module C = Abe_sim.Causal

  (* A cause: none, or the span [back] places before the newest one
     (modulo the span count). *)
  type op =
    | Enter of int  (* an engine event with this Lamport time *)
    | Current of int option  (* [set_current_id] to a span, or none *)
    | Process_at of { cause : int option; node : int; label : int; at : int }
    | Process of { cause : int option; node : int; label : int; at : int }
    | Transit_at of { link : int; src : int; dst : int; label : int; at : int }
    | Transit of { link : int; src : int; dst : int; label : int; at : int }

  (* Label pool: the network's literals, fresh copies of them (equal, but
     not physically equal) and more distinct labels than the physical
     scan covers. *)
  let labels =
    Array.append
      [| "tick"; "recv"; "msg"; String.concat "" [ "ti"; "ck" ];
         String.concat "" [ "m"; "sg" ] |]
      (Array.init 12 (Printf.sprintf "label-%d"))

  let nodes = 4
  let links = 6

  type span = {
    lamport : int;
    parents : int list;
    shape : C.shape;  (* [delivered] as of the end of the recording *)
    label : string;
    t_begin : float;
    t_busy : float;
    t_end : float;
  }

  let op_gen =
    let open QCheck.Gen in
    let cause = opt ~ratio:0.6 (int_range 0 300) in
    let label = int_bound (Array.length labels - 1) in
    let at = int_bound 1000 in
    frequency
      [ (1, map (fun l -> Enter l) (int_bound 2000));
        (1, map (fun c -> Current c) (opt (int_range 0 300)));
        (4, map4 (fun cause node label at -> Process_at { cause; node; label; at })
              cause (int_bound (nodes - 1)) label at);
        (1, map4 (fun cause node label at -> Process { cause; node; label; at })
              cause (int_bound (nodes - 1)) label at);
        (3, map4 (fun (link, src) dst label at ->
               Transit_at { link; src; dst; label; at })
              (pair (int_bound (links - 1)) (int_bound (nodes - 1)))
              (int_bound (nodes - 1)) label at);
        (1, map4 (fun (link, src) dst label at ->
               Transit { link; src; dst; label; at })
              (pair (int_bound (links - 1)) (int_bound (nodes - 1)))
              (int_bound (nodes - 1)) label at) ]

  let print_op = function
    | Enter l -> Printf.sprintf "enter %d" l
    | Current c ->
      Printf.sprintf "current %s"
        (match c with None -> "none" | Some b -> string_of_int b)
    | Process_at { cause; node; label; at } | Process { cause; node; label; at } ->
      Printf.sprintf "process cause=%s node=%d label=%d at=%d"
        (match cause with None -> "none" | Some b -> string_of_int b)
        node label at
    | Transit_at { link; src; dst; label; at } | Transit { link; src; dst; label; at } ->
      Printf.sprintf "transit link=%d %d->%d label=%d at=%d" link src dst
        label at

  (* The instants of a span at [at]: begin <= busy <= end, in eighths. *)
  let instants at =
    let b = float_of_int at /. 8. in
    (b, b +. 0.125, b +. 0.375)

  (* Run [ops] on a recorder and on the model side by side; return both. *)
  let run ops =
    let c = C.create () in
    let model = ref [||] in
    let count () = Array.length !model in
    let resolve = function
      | None -> -1
      | Some back -> if count () = 0 then -1 else count () - 1 - (back mod count ())
    in
    let event_lamport = ref 0 and current = ref (-1) in
    let occupants = Array.make nodes (-1) in
    let lamport_of id = if id < 0 then -1 else !model.(id).lamport in
    let add span = model := Array.append !model [| span |] in
    let handle id = List.nth (C.spans c) id in
    let arrays (b, busy, e) = ([| b |], [| busy |], [| e |]) in
    let process ~by_id ~cause ~node ~label ~at =
      let cause = resolve cause in
      let (b, busy, e) as times = instants at in
      let prev = occupants.(node) in
      let id =
        if by_id then begin
          let tb, tbusy, te = arrays times in
          C.process_at c ~cause ~node ~label:labels.(label) ~t_begin:tb
            ~t_busy:tbusy ~t_end:te 0
        end
        else
          C.span_id
            (C.process c
               ?cause:(if cause < 0 then None else Some (handle cause))
               ~node ~label:labels.(label) ~t_begin:b ~t_busy:busy ~t_end:e ())
      in
      (if cause >= 0 then
         match !model.(cause).shape with
         | C.Transit_shape s ->
           !model.(cause) <-
             { !model.(cause) with shape = C.Transit_shape { s with delivered = true } }
         | C.Process_shape _ -> ());
      add
        { lamport =
            1 + max !event_lamport (max (lamport_of cause) (lamport_of prev));
          parents = List.filter (fun p -> p >= 0) [ cause; prev ];
          shape = C.Process_shape { node; t_busy = busy };
          label = labels.(label); t_begin = b; t_busy = busy; t_end = e };
      occupants.(node) <- count () - 1;
      id
    in
    let transit ~by_id ~link ~src ~dst ~label ~at =
      let (b, _, e) = instants at in
      let id =
        if by_id then
          C.transit_at c ~link ~src ~dst ~t_begin:[| b |] ~t_end:[| e |]
            ~label:labels.(label) 0
        else
          C.span_id
            (C.transit c ~link ~src ~dst ~t_begin:b ~t_end:e
               ~label:labels.(label))
      in
      add
        { lamport = 1 + max !event_lamport (lamport_of !current);
          parents = (if !current >= 0 then [ !current ] else []);
          shape = C.Transit_shape { link; src; dst; delivered = false };
          label = labels.(label); t_begin = b; t_busy = b; t_end = e };
      id
    in
    List.iter
      (fun op ->
         let expect id =
           if id <> count () - 1 then
             QCheck.Test.fail_reportf "span id %d, expected %d" id (count () - 1)
         in
         match op with
         | Enter l ->
           C.enter_event c ~lamport:l;
           event_lamport := l;
           current := -1
         | Current s ->
           let id = resolve s in
           C.set_current_id c id;
           current := id
         | Process_at { cause; node; label; at } ->
           expect (process ~by_id:true ~cause ~node ~label ~at)
         | Process { cause; node; label; at } ->
           expect (process ~by_id:false ~cause ~node ~label ~at)
         | Transit_at { link; src; dst; label; at } ->
           expect (transit ~by_id:true ~link ~src ~dst ~label ~at)
         | Transit { link; src; dst; label; at } ->
           expect (transit ~by_id:false ~link ~src ~dst ~label ~at))
      ops;
    (c, !model)

  let agrees (c, model) =
    let spans = Array.of_list (C.spans c) in
    if C.span_count c <> Array.length model || Array.length spans <> Array.length model
    then QCheck.Test.fail_reportf "%d spans, model has %d" (C.span_count c)
        (Array.length model);
    Array.iteri
      (fun id m ->
         let s = spans.(id) in
         let fail what = QCheck.Test.fail_reportf "span %d: %s differs" id what in
         if C.span_id s <> id then fail "id";
         if C.lamport s <> m.lamport then fail "lamport";
         if List.map C.span_id (C.parents s) <> m.parents then fail "parents";
         if C.shape s <> m.shape then fail "shape";
         if C.label s <> m.label then fail "label";
         if C.span_begin s <> m.t_begin then fail "begin";
         if C.span_end s <> m.t_end then fail "end";
         match C.shape s with
         | C.Process_shape { t_busy; _ } -> if t_busy <> m.t_busy then fail "busy"
         | C.Transit_shape _ -> ())
      model;
    true
end

let prop_model =
  QCheck.Test.make ~name:"recorder matches a list model" ~count:60
    (QCheck.make
       ~print:QCheck.Print.(list Model.print_op)
       QCheck.Gen.(list_size (int_range 350 500) Model.op_gen))
    (fun ops -> Model.agrees (Model.run ops))

let () =
  Alcotest.run "causal"
    [ ( "causal",
        [ Alcotest.test_case "pure observation" `Quick test_pure_observation;
          Alcotest.test_case "deliveries link to sends" `Quick
            test_deliveries_link_to_sends;
          Alcotest.test_case "lamport monotone" `Quick test_lamport_monotone;
          Alcotest.test_case "marks cover phases" `Quick
            test_marks_cover_phases;
          Alcotest.test_case "critpath telescopes" `Quick
            test_critpath_telescopes;
          Alcotest.test_case "no sink, no path" `Quick test_no_sink_no_path;
          Alcotest.test_case "critpath metrics" `Quick test_critpath_metrics;
          Alcotest.test_case "trace json shape" `Quick test_trace_json_shape;
          Alcotest.test_case "golden ring" `Quick test_golden_ring;
          Alcotest.test_case "golden proc delay" `Quick test_golden_proc_delay;
          Alcotest.test_case "golden lossy" `Quick test_golden_lossy;
          Alcotest.test_case "golden observed n=48" `Quick
            test_golden_observed;
          Alcotest.test_case "retention" `Quick test_retention;
          Alcotest.test_case "many labels" `Quick test_many_labels;
          Alcotest.test_case "span words" `Quick test_span_words;
          QCheck_alcotest.to_alcotest prop_model ]
      ) ]
