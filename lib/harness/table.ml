type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* newest first *)
}

let create ~title ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d"
         (List.length t.columns) (List.length row));
  t.rows <- row :: t.rows

let cell_int = string_of_int

let cell_float ?(decimals = 2) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" decimals x

let cell_bool b = if b then "yes" else "no"

let cell_summary (s : Abe_prob.Stats.summary) =
  Printf.sprintf "%.2f ±%.2f" s.Abe_prob.Stats.mean
    s.Abe_prob.Stats.ci95_half_width

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let width column_index =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row column_index)))
      0 all
  in
  let widths = List.mapi (fun i _ -> width i) t.columns in
  let render_row row =
    String.concat "  "
      (List.map2 (fun cell w -> Printf.sprintf "%-*s" w cell) row widths)
  in
  let separator =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buffer (render_row t.columns ^ "\n");
  Buffer.add_string buffer (separator ^ "\n");
  List.iter (fun row -> Buffer.add_string buffer (render_row row ^ "\n")) rows;
  Buffer.contents buffer


let title t = t.title

let to_csv t =
  let csv = Csv.create ~columns:t.columns in
  List.iter (Csv.add_row csv) (List.rev t.rows);
  csv

let print t =
  print_string (render t);
  print_newline ()
