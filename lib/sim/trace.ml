type source =
  | Node of int
  | Link of int
  | Sim

type entry = {
  seq : int;
  time : float;
  kind : string;
  source : source;
  message : string;
}

type t = {
  enabled : bool;
  capacity : int;
  buffer : entry option array;
  mutable next : int;  (* ring-buffer write position *)
  mutable count : int;  (* total entries ever recorded *)
}

let create ?(capacity = 10_000) ~enabled () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { enabled; capacity; buffer = Array.make capacity None; next = 0; count = 0 }

let enabled t = t.enabled

let record t ~time ?(kind = "note") ~source message =
  if t.enabled then begin
    t.buffer.(t.next) <- Some { seq = t.count; time; kind; source; message };
    t.next <- (t.next + 1) mod t.capacity;
    t.count <- t.count + 1
  end

let recordf t ~time ?kind ~source fmt =
  if t.enabled then
    Format.kasprintf (fun message -> record t ~time ?kind ~source message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let length t = min t.count t.capacity
let dropped t = max 0 (t.count - t.capacity)

(* Visit retained entries in chronological order without materializing a
   list: exports stream through this, so a full 10k-entry buffer costs no
   intermediate allocation beyond each entry's own rendering. *)
let iter f t =
  let len = length t in
  let start = if t.count <= t.capacity then 0 else t.next in
  for i = 0 to len - 1 do
    match t.buffer.((start + i) mod t.capacity) with
    | Some e -> f e
    | None -> assert false
  done

let entries t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let pp_source ppf = function
  | Node i -> Fmt.pf ppf "node %d" i
  | Link i -> Fmt.pf ppf "link %d" i
  | Sim -> Fmt.string ppf "sim"

let pp ppf t =
  iter
    (fun e ->
       Fmt.pf ppf "[%10.4f] %-12s %-6s %s@." e.time
         (Fmt.str "%a" pp_source e.source)
         e.kind e.message)
    t;
  if dropped t > 0 then Fmt.pf ppf "... (%d earlier entries dropped)@." (dropped t)

(* Minimal RFC 8259 string escaping: quotes, backslashes and control
   characters (payloads are ASCII pretty-printer output). *)
let json_escape s =
  let buffer = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buffer "\\\""
       | '\\' -> Buffer.add_string buffer "\\\\"
       | '\n' -> Buffer.add_string buffer "\\n"
       | '\r' -> Buffer.add_string buffer "\\r"
       | '\t' -> Buffer.add_string buffer "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let entry_json e =
  let origin =
    match e.source with
    | Node i -> Printf.sprintf "\"node\":%d" i
    | Link i -> Printf.sprintf "\"link\":%d" i
    | Sim -> "\"source\":\"sim\""
  in
  Printf.sprintf "{\"seq\":%d,\"time\":%.12g,\"kind\":\"%s\",%s,\"payload\":\"%s\"}"
    e.seq e.time (json_escape e.kind) origin (json_escape e.message)

let truncation_json t =
  if dropped t > 0 then
    Some (Printf.sprintf "{\"kind\":\"truncated\",\"dropped\":%d}\n" (dropped t))
  else None

let output_jsonl oc t =
  iter
    (fun e ->
       output_string oc (entry_json e);
       output_char oc '\n')
    t;
  Option.iter (output_string oc) (truncation_json t)

let to_jsonl t =
  let buffer = Buffer.create 4096 in
  iter
    (fun e ->
       Buffer.add_string buffer (entry_json e);
       Buffer.add_char buffer '\n')
    t;
  Option.iter (Buffer.add_string buffer) (truncation_json t);
  Buffer.contents buffer

let clear t =
  Array.fill t.buffer 0 t.capacity None;
  t.next <- 0;
  t.count <- 0
