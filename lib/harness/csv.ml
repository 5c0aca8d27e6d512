type t = {
  columns : string list;
  mutable rows : string list list;  (* newest first *)
}

let create ~columns =
  if columns = [] then invalid_arg "Csv.create: no columns";
  { columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Csv.add_row: expected %d fields, got %d"
         (List.length t.columns) (List.length row));
  t.rows <- row :: t.rows

let field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let buffer = Buffer.create (String.length s + 8) in
    Buffer.add_char buffer '"';
    String.iter
      (fun c ->
         if c = '"' then Buffer.add_string buffer "\"\""
         else Buffer.add_char buffer c)
      s;
    Buffer.add_char buffer '"';
    Buffer.contents buffer
  end

let to_string t =
  let line row = String.concat "," (List.map field row) in
  String.concat "\n" (line t.columns :: List.rev_map line t.rows) ^ "\n"

(* Concurrent writers (e.g. Domain-parallel experiment saves) race on the
   existence checks: both domains can see a component missing, and the
   mkdir loser gets EEXIST.  Losing that race is success — as long as what
   exists now is a directory.  A regular file sitting where a directory
   component is needed is a real error and must not be silently accepted
   (the old code skipped it as "exists", and [open_out] then failed with a
   baffling ENOTDIR on the leaf). *)
let rec make_directories path =
  if path <> "" && path <> "." && path <> "/" then begin
    if Sys.file_exists path then begin
      if not (Sys.is_directory path) then
        invalid_arg
          (Printf.sprintf
             "Csv.make_directories: %s exists and is not a directory" path)
    end
    else begin
      make_directories (Filename.dirname path);
      try Sys.mkdir path 0o755 with
      | Sys_error _ when Sys.file_exists path && Sys.is_directory path ->
        ()  (* another domain/process created it first *)
    end
  end

let save t ~path =
  make_directories (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
