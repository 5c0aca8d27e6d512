type event = {
  time : float;
  row : int;
  glyph : char;
}

let width = 72

let render ?labels ~rows ~duration ~initial events =
  if rows <= 0 then invalid_arg "Timeline.render: rows must be positive";
  if not (duration > 0. && Float.is_finite duration) then
    invalid_arg "Timeline.render: duration must be positive and finite";
  List.iter
    (fun e ->
       if e.row < 0 || e.row >= rows then
         invalid_arg (Printf.sprintf "Timeline.render: row %d out of range" e.row);
       if not (e.time >= 0. && e.time <= duration) then
         invalid_arg
           (Printf.sprintf "Timeline.render: time %g outside [0, %g]" e.time
              duration))
    events;
  let strips = Array.init rows (fun _ -> Bytes.make width initial) in
  let column time =
    min (width - 1)
      (int_of_float (float_of_int width *. time /. duration))
  in
  (* Stable sort keeps same-row same-time events in list order, so the last
     one wins — matching the semantics "state from [time] on". *)
  let ordered = List.stable_sort (fun a b -> Float.compare a.time b.time) events in
  List.iter
    (fun e ->
       let strip = strips.(e.row) in
       for col = column e.time to width - 1 do
         Bytes.set strip col e.glyph
       done)
    ordered;
  let label =
    match labels with
    | Some f -> f
    | None -> Printf.sprintf "row %3d"
  in
  let buffer = Buffer.create (rows * (width + 16)) in
  Array.iteri
    (fun row strip ->
       Buffer.add_string buffer (label row);
       Buffer.add_char buffer ' ';
       Buffer.add_bytes buffer strip;
       Buffer.add_char buffer '\n')
    strips;
  Buffer.contents buffer
