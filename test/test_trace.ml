open Abe_sim

let test_basic_recording () =
  let t = Trace.create ~enabled:true () in
  Trace.record t ~time:1. ~source:(Trace.Node 0) "hello";
  Trace.record t ~time:2. ~kind:"send" ~source:(Trace.Link 1) "world";
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check int) "dropped" 0 (Trace.dropped t);
  let entries = Trace.entries t in
  Alcotest.(check (list string)) "messages" [ "hello"; "world" ]
    (List.map (fun e -> e.Trace.message) entries);
  Alcotest.(check (list string)) "kinds" [ "note"; "send" ]
    (List.map (fun e -> e.Trace.kind) entries);
  Alcotest.(check (list int)) "seqs" [ 0; 1 ]
    (List.map (fun e -> e.Trace.seq) entries);
  Alcotest.(check bool) "sources" true
    (List.map (fun e -> e.Trace.source) entries
     = [ Trace.Node 0; Trace.Link 1 ])

let test_disabled_drops () =
  let t = Trace.create ~enabled:false () in
  Trace.record t ~time:1. ~source:Trace.Sim "ignored";
  Trace.recordf t ~time:2. ~source:Trace.Sim "also %d" 42;
  Alcotest.(check int) "nothing recorded" 0 (Trace.length t)

let record_ints t n =
  for i = 1 to n do
    Trace.record t ~time:(float_of_int i) ~source:Trace.Sim (string_of_int i)
  done

let messages t = List.map (fun e -> e.Trace.message) (Trace.entries t)

let test_capacity_ring () =
  let t = Trace.create ~capacity:3 ~enabled:true () in
  record_ints t 5;
  Alcotest.(check int) "length capped" 3 (Trace.length t);
  Alcotest.(check int) "dropped" 2 (Trace.dropped t);
  Alcotest.(check (list string)) "keeps the tail" [ "3"; "4"; "5" ] (messages t)

(* Wraparound edge cases: exactly at capacity, one past, and a full
   second lap.  [entries] must stay chronological and [seq] must keep
   counting across the dropped prefix. *)
let test_wraparound_boundaries () =
  let t = Trace.create ~capacity:4 ~enabled:true () in
  record_ints t 4;
  Alcotest.(check int) "full, nothing dropped" 0 (Trace.dropped t);
  Alcotest.(check (list string)) "full buffer order" [ "1"; "2"; "3"; "4" ]
    (messages t);
  Trace.record t ~time:5. ~source:Trace.Sim "5";
  Alcotest.(check int) "one dropped at wrap" 1 (Trace.dropped t);
  Alcotest.(check (list string)) "order across the wrap point"
    [ "2"; "3"; "4"; "5" ] (messages t);
  Alcotest.(check (list int)) "seq numbering survives the wrap"
    [ 1; 2; 3; 4 ]
    (List.map (fun e -> e.Trace.seq) (Trace.entries t));
  record_ints t 4;  (* a whole extra lap: times/messages 1..4 again *)
  Alcotest.(check int) "length still capped" 4 (Trace.length t);
  Alcotest.(check int) "dropped accumulates" 5 (Trace.dropped t);
  Alcotest.(check (list string)) "last lap wins" [ "1"; "2"; "3"; "4" ]
    (messages t);
  Alcotest.(check (list int)) "seq keeps counting" [ 5; 6; 7; 8 ]
    (List.map (fun e -> e.Trace.seq) (Trace.entries t))

let test_recordf_formats () =
  let t = Trace.create ~enabled:true () in
  Trace.recordf t ~time:1. ~kind:"send" ~source:(Trace.Node 3) "x=%d y=%s" 7
    "ok";
  match Trace.entries t with
  | [ e ] ->
    Alcotest.(check string) "formatted" "x=7 y=ok" e.Trace.message;
    Alcotest.(check string) "kind" "send" e.Trace.kind
  | _ -> Alcotest.fail "expected one entry"

(* A disabled trace must not evaluate format arguments: a [%t] closure
   embedded in the format is the observable probe (OCaml evaluates
   ordinary arguments eagerly, but printf-delayed closures only run if
   the formatter consumes them). *)
let test_recordf_disabled_is_lazy () =
  let t = Trace.create ~enabled:false () in
  let evaluated = ref 0 in
  Trace.recordf t ~time:1. ~source:Trace.Sim "%t" (fun ppf ->
      incr evaluated;
      Format.pp_print_string ppf "side effect");
  Alcotest.(check int) "closure not run" 0 !evaluated;
  Alcotest.(check int) "nothing recorded" 0 (Trace.length t);
  let t = Trace.create ~enabled:true () in
  Trace.recordf t ~time:2. ~source:Trace.Sim "%t" (fun ppf ->
      incr evaluated;
      Format.pp_print_string ppf "side effect");
  Alcotest.(check int) "closure runs when enabled" 1 !evaluated;
  Alcotest.(check int) "recorded when enabled" 1 (Trace.length t)

let test_clear () =
  let t = Trace.create ~capacity:2 ~enabled:true () in
  record_ints t 3;  (* wrapped: count > capacity *)
  Trace.clear t;
  Alcotest.(check int) "empty" 0 (Trace.length t);
  Alcotest.(check int) "dropped reset" 0 (Trace.dropped t);
  Alcotest.(check bool) "no entries" true (Trace.entries t = []);
  (* Recording after clear restarts seq from 0 and fills from the start. *)
  record_ints t 2;
  Alcotest.(check (list int)) "seq restarts" [ 0; 1 ]
    (List.map (fun e -> e.Trace.seq) (Trace.entries t));
  Alcotest.(check (list string)) "entries after clear" [ "1"; "2" ] (messages t)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let t = Trace.create ~capacity:2 ~enabled:true () in
  record_ints t 4;
  let rendered = Fmt.str "%a" Trace.pp t in
  Alcotest.(check bool) "mentions drop count" true
    (contains ~needle:"2 earlier entries dropped" rendered);
  Alcotest.(check bool) "renders the source" true
    (contains ~needle:"sim" rendered)

let test_jsonl () =
  let t = Trace.create ~enabled:true () in
  Trace.record t ~time:1.5 ~kind:"send" ~source:(Trace.Node 2) "tok 3";
  Trace.record t ~time:2.25 ~kind:"loss" ~source:(Trace.Link 7) "he said \"hi\"";
  Trace.record t ~time:3. ~source:Trace.Sim "done";
  let lines = String.split_on_char '\n' (String.trim (Trace.to_jsonl t)) in
  Alcotest.(check int) "one line per entry" 3 (List.length lines);
  Alcotest.(check string) "node entry"
    "{\"seq\":0,\"time\":1.5,\"kind\":\"send\",\"node\":2,\"payload\":\"tok 3\"}"
    (List.nth lines 0);
  Alcotest.(check string) "escaped link entry"
    "{\"seq\":1,\"time\":2.25,\"kind\":\"loss\",\"link\":7,\"payload\":\"he \
     said \\\"hi\\\"\"}"
    (List.nth lines 1);
  Alcotest.(check string) "sim entry"
    "{\"seq\":2,\"time\":3,\"kind\":\"note\",\"source\":\"sim\",\"payload\":\"done\"}"
    (List.nth lines 2)

let test_jsonl_truncation () =
  let t = Trace.create ~capacity:2 ~enabled:true () in
  record_ints t 5;
  let lines = String.split_on_char '\n' (String.trim (Trace.to_jsonl t)) in
  Alcotest.(check int) "entries + trailer" 3 (List.length lines);
  Alcotest.(check string) "trailer records the dropped count"
    "{\"kind\":\"truncated\",\"dropped\":3}"
    (List.nth lines 2);
  Alcotest.(check bool) "first surviving entry has its true seq" true
    (contains ~needle:"\"seq\":3" (List.nth lines 0))

let () =
  Alcotest.run "trace"
    [ ( "trace",
        [ Alcotest.test_case "basic" `Quick test_basic_recording;
          Alcotest.test_case "disabled" `Quick test_disabled_drops;
          Alcotest.test_case "ring capacity" `Quick test_capacity_ring;
          Alcotest.test_case "wraparound boundaries" `Quick
            test_wraparound_boundaries;
          Alcotest.test_case "recordf" `Quick test_recordf_formats;
          Alcotest.test_case "recordf disabled is lazy" `Quick
            test_recordf_disabled_is_lazy;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "pp" `Quick test_pp_smoke;
          Alcotest.test_case "jsonl" `Quick test_jsonl;
          Alcotest.test_case "jsonl truncation" `Quick test_jsonl_truncation ] )
    ]
