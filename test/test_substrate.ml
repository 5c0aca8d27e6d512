open Abe_substrate

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ---- Wire codec ---- *)

let frame_eq (a : Wire.frame) (b : Wire.frame) = a = b

let frame_testable =
  Alcotest.testable Wire.pp frame_eq

(* Round-trip through the full wire image: encode, strip the length
   prefix, decode the body. *)
let round_trip frame =
  let b = Bytes.to_string (Wire.encode frame) in
  let body = Int32.to_int (String.get_int32_be b 0) in
  assert (String.length b = 4 + body);
  Wire.decode_body (String.sub b 4 body)

let frame_gen =
  let open QCheck.Gen in
  let nat = map abs nat in
  let payload = string_size ~gen:char (int_bound 64) in
  (* Stamped and unstamped data frames in equal measure: the trace
     extension is optional on the wire and must round-trip both ways. *)
  let trace =
    opt
      (map3
         (fun span lamport at -> { Wire.span; lamport; at })
         nat nat (float_bound_inclusive 1e6))
  in
  oneof
    [ map3
        (fun link payload trace -> Wire.Send { link; payload; trace })
        nat payload trace;
      map3
        (fun link payload trace -> Wire.Deliver { link; payload; trace })
        nat payload trace;
      map2
        (fun node at -> Wire.Stop { node; at_units = at })
        nat (float_bound_inclusive 1e6);
      map
        (fun (node, sent, recv, ticks, aux) ->
           Wire.Stats { node; sent; recv; ticks; aux })
        (tup5 nat nat nat nat nat);
      map2
        (fun node records -> Wire.Telemetry { node; records })
        nat payload;
      return Wire.Shutdown ]

let arbitrary_frame = QCheck.make ~print:(Fmt.to_to_string Wire.pp) frame_gen

let qcheck_round_trip =
  QCheck.Test.make ~name:"wire round-trips every constructor" ~count:500
    arbitrary_frame (fun frame ->
        match round_trip frame with
        | Ok frame' -> frame_eq frame frame'
        | Error msg -> QCheck.Test.fail_report msg)

let test_exact_round_trips () =
  List.iter
    (fun frame ->
       match round_trip frame with
       | Ok frame' -> Alcotest.check frame_testable "round-trip" frame frame'
       | Error msg -> Alcotest.fail msg)
    [ Wire.Send { link = 3; payload = ""; trace = None };
      Wire.Send
        { link = 3;
          payload = "tok";
          trace = Some { Wire.span = 12; lamport = 40; at = 7.25 } };
      Wire.Deliver
        { link = max_int; payload = String.make 64 '\xff'; trace = None };
      Wire.Deliver
        { link = 0;
          payload = "";
          trace = Some { Wire.span = 0; lamport = 0; at = 0. } };
      Wire.Stop { node = 7; at_units = 44.632 };
      Wire.Stats { node = 1; sent = 2; recv = 3; ticks = 4; aux = 5 };
      Wire.Telemetry { node = 2; records = String.make 42 '\x01' };
      Wire.Shutdown ]

let test_truncated_rejected () =
  let image = Bytes.to_string (Wire.encode (Wire.Stop { node = 1; at_units = 2. })) in
  let body = String.sub image 4 (String.length image - 4) in
  (* Every strict prefix of the body must be rejected, not misparsed. *)
  for len = 0 to String.length body - 1 do
    match Wire.decode_body (String.sub body 0 len) with
    | Error _ -> ()
    | Ok f ->
      Alcotest.failf "truncated body of %d bytes decoded as %a" len Wire.pp f
  done;
  (* Trailing garbage is also a framing bug, not a frame. *)
  (match Wire.decode_body (body ^ "x") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "oversized body accepted")

let test_version_mismatch_rejected () =
  let image = Bytes.of_string
      (Bytes.to_string (Wire.encode (Wire.Stop { node = 9; at_units = 0. })))
  in
  Bytes.set_uint8 image 5 (Wire.version + 1);
  let body = Bytes.sub_string image 4 (Bytes.length image - 4) in
  (match Wire.decode_body body with
   | Error msg ->
     Alcotest.(check bool) "names the version" true
       (contains ~affix:"version" msg)
   | Ok _ -> Alcotest.fail "wrong version accepted");
  (* Bad magic too. *)
  Bytes.set image 4 'Z';
  Bytes.set_uint8 image 5 Wire.version;
  (match Wire.decode_body (Bytes.sub_string image 4 (Bytes.length image - 4)) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad magic accepted")

(* Kind 1 is unassigned: a body of that kind, whatever its length, is an
   unknown frame, not a short read of some other kind. *)
let test_kind_one_unknown () =
  let body = "\xAB" ^ String.make 1 (Char.chr Wire.version) ^ "\x01" in
  List.iter
    (fun payload ->
       match Wire.decode_body (body ^ payload) with
       | Error msg ->
         Alcotest.(check bool) "names the kind" true
           (contains ~affix:"unknown frame kind 1" msg)
       | Ok f -> Alcotest.failf "kind 1 decoded as %a" Wire.pp f)
    [ ""; String.make 8 '\x00' ]

(* Version-1 bodies — no trace extension, no Telemetry kind — must keep
   decoding: the extension is strictly additive, so a v2 encoding of an
   unstamped frame re-labelled version 1 is exactly a v1 image. *)
let test_v1_still_decodes () =
  List.iter
    (fun frame ->
       let image = Bytes.of_string (Bytes.to_string (Wire.encode frame)) in
       Bytes.set_uint8 image 5 Wire.min_version;
       let body = Bytes.sub_string image 4 (Bytes.length image - 4) in
       match Wire.decode_body body with
       | Ok frame' -> Alcotest.check frame_testable "v1 decode" frame frame'
       | Error msg -> Alcotest.fail msg)
    [ Wire.Send { link = 1; payload = "tok"; trace = None };
      Wire.Deliver { link = 0; payload = ""; trace = None };
      Wire.Stop { node = 0; at_units = 9.25 };
      Wire.Stats { node = 3; sent = 1; recv = 1; ticks = 1; aux = 0 };
      Wire.Shutdown ]

(* A body whose length prefix is self-consistent but whose trailing
   bytes are a partial trace extension is stream corruption: decode must
   name the extension, and a reader that sees it must poison. *)
let test_malformed_extension_poisons () =
  let traced =
    Wire.Send
      { link = 2;
        payload = "x";
        trace = Some { Wire.span = 7; lamport = 9; at = 1.5 } }
  in
  let image = Bytes.to_string (Wire.encode traced) in
  let full = String.length image - 4 in
  (* Cutting 1..24 trailing bytes leaves 1..24 extension bytes — neither
     absent (0) nor complete (25). *)
  for cut = 1 to 24 do
    let body = String.sub image 4 (full - cut) in
    (match Wire.decode_body body with
     | Error msg ->
       Alcotest.(check bool)
         (Printf.sprintf "cut %d names the extension" cut)
         true
         (contains ~affix:"trace extension" msg)
     | Ok f -> Alcotest.failf "partial extension decoded as %a" Wire.pp f);
    let reframed = Bytes.create (4 + String.length body) in
    Bytes.set_int32_be reframed 0 (Int32.of_int (String.length body));
    Bytes.blit_string body 0 reframed 4 (String.length body);
    let reader = Wire.reader () in
    Wire.feed reader reframed (Bytes.length reframed);
    (match Wire.next reader with
     | Error _ -> ()
     | Ok _ -> Alcotest.failf "reader accepted cut %d" cut);
    (match Wire.next reader with
     | Error _ -> ()  (* sticky *)
     | Ok _ -> Alcotest.fail "poisoned reader recovered")
  done

let test_reader_reassembles_fragments () =
  let frames =
    [ Wire.Send { link = 0; payload = "tok"; trace = None };
      Wire.Send
        { link = 0;
          payload = "tik";
          trace = Some { Wire.span = 3; lamport = 5; at = 2.5 } };
      Wire.Telemetry { node = 1; records = "blob" };
      Wire.Stats { node = 1; sent = 10; recv = 9; ticks = 8; aux = 1 };
      Wire.Shutdown ]
  in
  let stream =
    String.concat "" (List.map (fun f -> Bytes.to_string (Wire.encode f)) frames)
  in
  let reader = Wire.reader () in
  let decoded = ref [] in
  (* Feed a byte at a time: worst-case fragmentation. *)
  String.iter
    (fun c ->
       Wire.feed reader (Bytes.make 1 c) 1;
       let rec drain () =
         match Wire.next reader with
         | Ok (Some f) ->
           decoded := f :: !decoded;
           drain ()
         | Ok None -> ()
         | Error msg -> Alcotest.fail msg
       in
       drain ())
    stream;
  Alcotest.(check int) "all frames recovered" (List.length frames)
    (List.length !decoded);
  List.iter2
    (fun want got -> Alcotest.check frame_testable "stream order" want got)
    frames
    (List.rev !decoded);
  Alcotest.(check int) "reader drained" 0 (Wire.buffered reader)

let test_reader_poisons_on_corruption () =
  let reader = Wire.reader () in
  (* A length prefix beyond max_body is unrecoverable corruption. *)
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 0x7FFFFFFFl;
  Wire.feed reader b 4;
  (match Wire.next reader with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "implausible length accepted");
  (match Wire.next reader with
   | Error _ -> ()  (* sticky *)
   | Ok _ -> Alcotest.fail "poisoned reader recovered")

(* ---- Hold queue ---- *)

let test_holdq_orders_by_due () =
  let q = Holdq.create () in
  Holdq.push q ~due:3. "c";
  Holdq.push q ~due:1. "a";
  Holdq.push q ~due:2. "b";
  Holdq.push q ~due:1. "a2";  (* tie: FIFO *)
  Alcotest.(check (option (float 0.))) "next due" (Some 1.) (Holdq.next_due q);
  Alcotest.(check (option string)) "nothing due yet" None
    (Holdq.pop_due q ~now:0.5);
  Alcotest.(check (option string)) "first" (Some "a") (Holdq.pop_due q ~now:10.);
  Alcotest.(check (option string)) "tie FIFO" (Some "a2")
    (Holdq.pop_due q ~now:10.);
  Alcotest.(check (option string)) "then b" (Some "b") (Holdq.pop_due q ~now:10.);
  Alcotest.(check (option string)) "then c" (Some "c") (Holdq.pop_due q ~now:10.);
  Alcotest.(check int) "empty" 0 (Holdq.length q)

(* ---- Real elections ---- *)

(* Small, fast real-backend configs: thread workers (no domain churn in
   unit tests) and a coarse-enough scale that wall jitter stays well under
   a tick. *)
let real_config ?(n = 4) ?(a0 = 0.3) ?(scale = 0.002) ?(wall_timeout = 20.) ()
  =
  Elect_real.config ~n ~a0 ~scale ~wall_timeout
    ~spawn_mode:Cluster.Threads ()

let test_real_election_completes () =
  match Elect_real.run ~seed:11 (real_config ()) with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    Alcotest.(check bool) "elected" true o.Elect_real.elected;
    (match o.Elect_real.leader with
     | Some l -> Alcotest.(check bool) "leader in range" true (l >= 0 && l < 4)
     | None -> Alcotest.fail "no leader");
    Alcotest.(check bool) "positive time" true (o.Elect_real.elected_at > 0.);
    (* The winning token traverses every link, so at least n sends. *)
    Alcotest.(check bool) "enough messages" true (o.Elect_real.messages >= 4);
    Alcotest.(check int) "all stats in" 0 o.Elect_real.stats_missing;
    Alcotest.(check bool) "at least one activation" true
      (o.Elect_real.activations >= 1)

(* Both backends take their RNG streams from Abe_net.Links (DESIGN.md
   §6k), so with a fixed seed and a sparse activation regime (tiny a0: the
   winner activates tens of ticks before any rival would) the same node
   must win under both backends — wall jitter is orders of magnitude below
   the margin. *)
let test_real_matches_sim_leader () =
  let n = 4 and a0 = 0.005 and seed = 5 in
  let sim =
    Abe_core.Runner.run ~seed (Abe_core.Runner.config ~n ~a0 ())
  in
  Alcotest.(check bool) "sim elects" true sim.Abe_core.Runner.elected;
  match Elect_real.run ~seed (real_config ~n ~a0 ~scale:0.002 ()) with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    Alcotest.(check bool) "real elects" true o.Elect_real.elected;
    Alcotest.(check (option int)) "same leader as sim"
      sim.Abe_core.Runner.leader o.Elect_real.leader

let test_worker_cap_error () =
  let config =
    Elect_real.config ~n:100 ~a0:0.3 ~scale:0.001 ~wall_timeout:5.
      ~spawn_mode:Cluster.Domains ()
  in
  match Elect_real.run ~seed:1 config with
  | Ok _ -> Alcotest.fail "100-domain cluster should be refused"
  | Error msg ->
    Alcotest.(check bool) "actionable one-liner" true
      (contains ~affix:"worker cap" msg)

let test_metrics_mirrored () =
  let metrics = Abe_sim.Metrics.create () in
  (match Elect_real.run ~metrics ~seed:3 (real_config ()) with
   | Error msg -> Alcotest.fail msg
   | Ok _ -> ());
  let dump =
    String.concat "\n"
      (List.map (String.concat " ") (Abe_sim.Metrics.report_rows metrics))
  in
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " present") true
         (contains ~affix:name dump))
    [ "real/sent"; "real/delivered"; "real/lost"; "real/ticks";
      "real/in_flight"; "real/fidelity/max_drift" ]

(* fd hygiene: a full run — including the timeout path, where no election
   ever happens — must return the process to its starting fd count. *)
let test_no_fd_leaks () =
  match Cluster.open_fd_count () with
  | None -> ()  (* no /proc: nothing to assert on this platform *)
  | Some before ->
    (match Elect_real.run ~seed:2 (real_config ()) with
     | Error msg -> Alcotest.fail msg
     | Ok o -> Alcotest.(check bool) "elected" true o.Elect_real.elected);
    (* Timeout path: activation is effectively impossible inside the
       window, so the router must give up, drain and still close every
       fd. *)
    let starved =
      Elect_real.config ~n:3 ~a0:1e-9 ~scale:0.001 ~wall_timeout:0.3
        ~spawn_mode:Cluster.Threads ()
    in
    (match Elect_real.run ~seed:2 starved with
     | Error msg -> Alcotest.fail msg
     | Ok o -> Alcotest.(check bool) "timed out unelected" false
                 o.Elect_real.elected);
    let after = Option.get (Cluster.open_fd_count ()) in
    Alcotest.(check int) "fd count restored" before after

(* ---- Telemetry: merged DAG, fidelity, purity, snapshots ---- *)

(* The sparse-regime fixed point from test_real_matches_sim_leader: at
   seed 5 the winner activates tens of ticks before any rival, so the
   outcome is wall-jitter-proof. *)
let run_traced ~seed () =
  let n = 4 and a0 = 0.005 in
  let collector = Telemetry.Collector.create ~n in
  match
    Elect_real.run ~telemetry:collector ~seed
      (real_config ~n ~a0 ~scale:0.002 ())
  with
  | Error msg -> Alcotest.fail msg
  | Ok o -> (o, Telemetry.Collector.merge collector)

(* Tracing is pure observation: same seed, same protocol outcome with
   recording on or off. *)
let test_traced_run_is_pure () =
  let plain =
    match Elect_real.run ~seed:5 (real_config ~n:4 ~a0:0.005 ()) with
    | Error msg -> Alcotest.fail msg
    | Ok o -> o
  in
  let traced, _ = run_traced ~seed:5 () in
  Alcotest.(check bool) "same elected" plain.Elect_real.elected
    traced.Elect_real.elected;
  Alcotest.(check (option int)) "same leader" plain.Elect_real.leader
    traced.Elect_real.leader

let test_merged_dag_telescopes () =
  let o, causal = run_traced ~seed:5 () in
  Alcotest.(check bool) "elected" true o.Elect_real.elected;
  (match Abe_sim.Critpath.analyze causal with
   | None -> Alcotest.fail "merged DAG has no sink"
   | Some b ->
     let open Abe_sim.Critpath in
     (* The walk must reach time zero: total is exactly elected-at, and
        the three categories telescope. *)
     Alcotest.(check bool) "total explains elected-at" true
       (Float.abs (b.total -. o.Elect_real.elected_at) < 1e-6);
     Alcotest.(check bool) "categories telescope" true
       (Float.abs (b.link +. b.proc +. b.idle -. b.total) < 1e-6);
     (* The winning token crosses every ring link. *)
     Alcotest.(check bool) "at least n hops" true (b.hops >= 4));
  let spans = Abe_sim.Causal.spans causal in
  let recvs =
    List.length
      (List.filter (fun s -> Abe_sim.Causal.label s = "recv") spans)
  in
  Alcotest.(check int) "recv spans = router deliveries"
    o.Elect_real.delivered recvs;
  (* Per-node program order carries strictly increasing Lamport clocks. *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun s ->
       match Abe_sim.Causal.shape s with
       | Abe_sim.Causal.Process_shape { node; _ } ->
         let l = Abe_sim.Causal.lamport s in
         (match Hashtbl.find_opt last node with
          | Some prev ->
            if l <= prev then
              Alcotest.failf "node %d lamport regressed: %d after %d" node l
                prev
          | None -> ());
         Hashtbl.replace last node l
       | Abe_sim.Causal.Transit_shape _ -> ())
    spans;
  let marks = Abe_sim.Causal.marks causal in
  let count lbl =
    List.length
      (List.filter (fun m -> m.Abe_sim.Causal.m_label = lbl) marks)
  in
  Alcotest.(check bool) "an activation mark" true (count "activate" >= 1);
  Alcotest.(check int) "exactly one elected mark" 1 (count "elected")

(* Fidelity is always on — no telemetry opt-in — and the hold queue
   never releases early, so drift is a ratio >= 1. *)
let test_fidelity_always_recorded () =
  match Elect_real.run ~seed:7 (real_config ()) with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    let open Telemetry.Fidelity in
    Alcotest.(check int) "every delivery measured" o.Elect_real.delivered
      (deliveries o.Elect_real.fidelity);
    Alcotest.(check bool) "holdq never early" true
      (max_drift o.Elect_real.fidelity >= 1. -. 1e-9);
    Alcotest.(check bool) "mean excess non-negative" true
      (worst_mean_excess o.Elect_real.fidelity >= 0.)

let test_snapshot_stream () =
  let path = Filename.temp_file "abe-telemetry" ".jsonl" in
  let oc = open_out path in
  let snap = Telemetry.Snapshot.create oc ~interval:0.05 in
  (match Elect_real.run ~snapshots:snap ~seed:11 (real_config ()) with
   | Error msg -> Alcotest.fail msg
   | Ok o -> Alcotest.(check bool) "elected" true o.Elect_real.elected);
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (* The first poll emits immediately and the router always writes a
     closing line, so two is the floor. *)
  Alcotest.(check bool) "first + final lines" true (List.length !lines >= 2);
  List.iter
    (fun line ->
       Alcotest.(check bool) "JSONL object shape" true
         (String.length line > 2
          && line.[0] = '{'
          && line.[String.length line - 1] = '}'
          && contains ~affix:"\"t_wall\":" line
          && contains ~affix:"\"in_flight\":" line
          && contains ~affix:"\"queues\":[" line
          && contains ~affix:"\"fd\":" line))
    !lines

let test_saturate_micro () =
  match
    Saturate.run ~a0:0.3 ~scale:0.001 ~n:3 ~elections:8 ~concurrency:4
      ~seed:100 ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check int) "all complete" 8 r.Saturate.completed;
    Alcotest.(check int) "none failed" 0 r.Saturate.failed;
    Alcotest.(check bool) "throughput positive" true
      (r.Saturate.elections_per_sec > 0.);
    if r.Saturate.fd_before >= 0 then
      Alcotest.(check int) "no fd leak" r.Saturate.fd_before
        r.Saturate.fd_after

let () =
  Alcotest.run "substrate"
    [ ( "wire",
        [ QCheck_alcotest.to_alcotest qcheck_round_trip;
          Alcotest.test_case "exact round-trips" `Quick test_exact_round_trips;
          Alcotest.test_case "truncated rejected" `Quick
            test_truncated_rejected;
          Alcotest.test_case "version mismatch rejected" `Quick
            test_version_mismatch_rejected;
          Alcotest.test_case "kind 1 is unknown" `Quick test_kind_one_unknown;
          Alcotest.test_case "v1 bodies still decode" `Quick
            test_v1_still_decodes;
          Alcotest.test_case "malformed extension poisons" `Quick
            test_malformed_extension_poisons;
          Alcotest.test_case "reader reassembles fragments" `Quick
            test_reader_reassembles_fragments;
          Alcotest.test_case "reader poisons on corruption" `Quick
            test_reader_poisons_on_corruption ] );
      ( "holdq",
        [ Alcotest.test_case "orders by due time" `Quick
            test_holdq_orders_by_due ] );
      ( "cluster",
        [ Alcotest.test_case "real election completes" `Quick
            test_real_election_completes;
          Alcotest.test_case "real matches sim leader" `Quick
            test_real_matches_sim_leader;
          Alcotest.test_case "worker cap error" `Quick test_worker_cap_error;
          Alcotest.test_case "metrics mirrored" `Quick test_metrics_mirrored;
          Alcotest.test_case "no fd leaks" `Quick test_no_fd_leaks;
          Alcotest.test_case "saturate micro-run" `Quick test_saturate_micro ]
      );
      ( "telemetry",
        [ Alcotest.test_case "traced run is pure" `Quick
            test_traced_run_is_pure;
          Alcotest.test_case "merged DAG telescopes" `Quick
            test_merged_dag_telescopes;
          Alcotest.test_case "fidelity always recorded" `Quick
            test_fidelity_always_recorded;
          Alcotest.test_case "snapshot stream" `Quick test_snapshot_stream ]
      ) ]
