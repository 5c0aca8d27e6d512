open Abe_harness

let test_seeds_distinct () =
  let seeds = Exp.seeds ~base:1 ~count:100 in
  let unique = List.sort_uniq compare seeds in
  Alcotest.(check int) "all distinct" 100 (List.length unique);
  Alcotest.(check bool) "non-negative" true (List.for_all (fun s -> s >= 0) seeds)

let test_seeds_deterministic () =
  Alcotest.(check (list int)) "same base, same seeds"
    (Exp.seeds ~base:7 ~count:10)
    (Exp.seeds ~base:7 ~count:10);
  Alcotest.(check bool) "different base, different seeds" true
    (Exp.seeds ~base:7 ~count:10 <> Exp.seeds ~base:8 ~count:10)

let test_replicate () =
  let results = Exp.replicate ~base:1 ~count:5 (fun ~seed -> seed) in
  Alcotest.(check int) "five results" 5 (List.length results);
  Alcotest.(check (list int)) "replicate uses the seed list"
    (Exp.seeds ~base:1 ~count:5) results

let test_projections () =
  let data = [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check (float 1e-9)) "mean_of" 2.5 (Exp.mean_of Fun.id data);
  Alcotest.(check (float 1e-9)) "fraction_of" 0.5
    (Exp.fraction_of (fun x -> x > 2.) data);
  let s = Exp.summary_of Fun.id data in
  Alcotest.(check int) "summary count" 4 s.Abe_prob.Stats.n

(* Strips are 72 columns wide; over a duration of 72 each column is one
   time unit.  [strip line] is the strip of a rendered row. *)
let strip line = String.sub line (String.length line - 72) 72
let cols n c = String.make n c

let test_timeline_basic () =
  let rendered =
    Timeline.render ~rows:2 ~duration:72. ~initial:'.'
      [ { Timeline.time = 36.; row = 0; glyph = 'x' };
        { Timeline.time = 0.; row = 1; glyph = 'y' } ]
  in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
   | [ row0; row1; "" ] ->
     Alcotest.(check bool) "row 0 switches midway" true
       (strip row0 = cols 36 '.' ^ cols 36 'x');
     Alcotest.(check bool) "row 1 fully y" true (strip row1 = cols 72 'y')
   | _ -> Alcotest.fail "expected two rows");
  ()

let test_timeline_later_event_wins () =
  let rendered =
    Timeline.render ~rows:1 ~duration:72. ~initial:'.'
      [ { Timeline.time = 14.; row = 0; glyph = 'a' };
        { Timeline.time = 43.; row = 0; glyph = 'b' } ]
  in
  Alcotest.(check bool) "a then b" true
    (strip (List.hd (String.split_on_char '\n' rendered))
     = cols 14 '.' ^ cols 29 'a' ^ cols 29 'b')

(* Boundary case of the column mapping: an event exactly at
   [t = duration] is valid and clamps to the last column. *)
let test_timeline_boundaries () =
  let rendered =
    Timeline.render ~rows:1 ~duration:72. ~initial:'.'
      [ { Timeline.time = 72.; row = 0; glyph = 'x' } ]
  in
  Alcotest.(check string) "event at t = duration paints last column only"
    (cols 71 '.' ^ "x")
    (strip (List.hd (String.split_on_char '\n' rendered)))

(* Two events at the same time on the same row: the sort is stable, so
   the later list element is applied last and wins the shared columns. *)
let test_timeline_simultaneous_tie_break () =
  let render events =
    let rendered = Timeline.render ~rows:1 ~duration:72. ~initial:'.' events in
    strip (List.hd (String.split_on_char '\n' rendered))
  in
  let a = { Timeline.time = 36.; row = 0; glyph = 'a' } in
  let b = { Timeline.time = 36.; row = 0; glyph = 'b' } in
  Alcotest.(check string) "later list element wins" (cols 36 '.' ^ cols 36 'b')
    (render [ a; b ]);
  Alcotest.(check string) "order reversed, other glyph wins"
    (cols 36 '.' ^ cols 36 'a') (render [ b; a ])

let test_timeline_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "bad row" (fun () ->
      Timeline.render ~rows:1 ~duration:1. ~initial:'.'
        [ { Timeline.time = 0.; row = 3; glyph = 'x' } ]);
  expect_invalid "bad time" (fun () ->
      Timeline.render ~rows:1 ~duration:1. ~initial:'.'
        [ { Timeline.time = 2.; row = 0; glyph = 'x' } ]);
  expect_invalid "bad duration" (fun () ->
      Timeline.render ~rows:1 ~duration:0. ~initial:'.' [])

let test_csv_quoting () =
  (* A field as rendered in a one-column CSV, without the header line and
     the final newline. *)
  let field s =
    let csv = Csv.create ~columns:[ "x" ] in
    Csv.add_row csv [ s ];
    let rendered = Csv.to_string csv in
    String.sub rendered 2 (String.length rendered - 3)
  in
  Alcotest.(check string) "plain" "abc" (field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (field "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (field "a\nb")

let test_csv_roundtrip () =
  let csv = Csv.create ~columns:[ "n"; "label" ] in
  Csv.add_row csv [ "1"; "plain" ];
  Csv.add_row csv [ "2"; "with,comma" ];
  Alcotest.(check string) "rendered"
    "n,label\n1,plain\n2,\"with,comma\"\n" (Csv.to_string csv)

let test_csv_width_checked () =
  let csv = Csv.create ~columns:[ "a"; "b" ] in
  match Csv.add_row csv [ "x" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected width rejection"

let test_csv_save () =
  let csv = Csv.create ~columns:[ "x" ] in
  Csv.add_row csv [ "1" ];
  let dir = Filename.temp_file "abe" "" in
  Sys.remove dir;
  let path = Filename.concat (Filename.concat dir "nested") "out.csv" in
  Csv.save csv ~path;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "header written" "x" line

(* Regression: make_directories used to treat any existing path component
   as done, so a regular file sitting where a directory is needed slipped
   through and [save] later failed with a baffling error on the leaf. *)
let test_csv_save_file_in_the_way () =
  let file = Filename.temp_file "abe" "" in
  let path = Filename.concat (Filename.concat file "sub") "out.csv" in
  let csv = Csv.create ~columns:[ "x" ] in
  Csv.add_row csv [ "1" ];
  (match Csv.save csv ~path with
   | exception Invalid_argument msg ->
     Alcotest.(check bool) "error names the offending component" true
       (let rec contains i =
          i + String.length file <= String.length msg
          && (String.sub msg i (String.length file) = file || contains (i + 1))
        in
        contains 0)
   | () -> Alcotest.fail "expected Invalid_argument");
  Sys.remove file

(* Regression: concurrent saves into the same fresh directory tree raced on
   the existence check, and every mkdir loser died with EEXIST.  Losing the
   race must count as success. *)
let test_csv_save_concurrent () =
  let dir = Filename.temp_file "abe" "" in
  Sys.remove dir;
  let nested = Filename.concat (Filename.concat dir "sweep") "rows" in
  let workers =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            let csv = Csv.create ~columns:[ "x" ] in
            Csv.add_row csv [ string_of_int i ];
            Csv.save csv
              ~path:(Filename.concat nested (Printf.sprintf "out%d.csv" i))))
  in
  List.iter Domain.join workers;
  Alcotest.(check bool) "directory created" true (Sys.is_directory nested);
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "file %d written" i)
      true
      (Sys.file_exists (Filename.concat nested (Printf.sprintf "out%d.csv" i)))
  done;
  (* Idempotent on an already-existing tree. *)
  let csv = Csv.create ~columns:[ "x" ] in
  Csv.save csv ~path:(Filename.concat nested "again.csv")

let test_table_to_csv () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "3"; "4" ];
  Alcotest.(check string) "csv of a table" "a,b\n1,2\n3,4\n"
    (Csv.to_string (Table.to_csv t))

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "n"; "messages"; "ok" ] in
  Table.add_row t [ "8"; "16.5"; "yes" ];
  Table.add_row t [ "128"; "1234.0"; "no" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check bool) "title present" true
    (List.exists (fun l -> l = "== demo ==") lines);
  (* Header, separator, two rows, title, trailing newline fragment. *)
  Alcotest.(check int) "line count" 6 (List.length lines)

let test_table_row_width_checked () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  match Table.add_row t [ "only one" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected row width rejection"

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "nan" "-" (Table.cell_float Float.nan);
  Alcotest.(check string) "bool" "yes" (Table.cell_bool true)

let test_verdict_of_bool () =
  Alcotest.(check bool) "true reproduces" true
    (Report.verdict_of_bool true = Report.Reproduced);
  Alcotest.(check bool) "false fails" true
    (Report.verdict_of_bool false = Report.Failed)

let prop_table_render_total =
  QCheck.Test.make ~name:"any table renders" ~count:100
    QCheck.(list (list_of_size (QCheck.Gen.return 2) printable_string))
    (fun rows ->
       let t = Table.create ~title:"t" ~columns:[ "x"; "y" ] in
       List.iter
         (fun row ->
            (* Cells with newlines would break alignment; the generator can
               produce them, so sanitise as a caller would. *)
            Table.add_row t
              (List.map (String.map (fun c -> if c = '\n' then ' ' else c)) row))
         rows;
       String.length (Table.render t) > 0)

let () =
  Alcotest.run "harness"
    [ ( "exp",
        [ Alcotest.test_case "seeds distinct" `Quick test_seeds_distinct;
          Alcotest.test_case "seeds deterministic" `Quick test_seeds_deterministic;
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "projections" `Quick test_projections ] );
      ( "timeline",
        [ Alcotest.test_case "basic" `Quick test_timeline_basic;
          Alcotest.test_case "later event wins" `Quick
            test_timeline_later_event_wins;
          Alcotest.test_case "boundaries" `Quick test_timeline_boundaries;
          Alcotest.test_case "simultaneous tie-break" `Quick
            test_timeline_simultaneous_tie_break;
          Alcotest.test_case "validation" `Quick test_timeline_validation ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row width" `Quick test_table_row_width_checked;
          Alcotest.test_case "cells" `Quick test_table_cells ] );
      ( "csv",
        [ Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "width" `Quick test_csv_width_checked;
          Alcotest.test_case "save" `Quick test_csv_save;
          Alcotest.test_case "save file in the way" `Quick
            test_csv_save_file_in_the_way;
          Alcotest.test_case "save concurrent" `Quick test_csv_save_concurrent;
          Alcotest.test_case "table export" `Quick test_table_to_csv ] );
      ( "report",
        [ Alcotest.test_case "verdicts" `Quick test_verdict_of_bool ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_table_render_total ])
    ]
