type shape =
  | Transit_shape of { link : int; src : int; dst : int; delivered : bool }
  | Process_shape of { node : int; t_busy : float }

(* The DAG lives in flat columns indexed by span id, so recording a span
   writes a few array cells and keeps no per-span heap block alive.  The
   columns grow in fixed-size chunks that are never copied: span [id]
   lives in chunk [id lsr chunk_bits], at offset [id land chunk_mask].
   A chunk's word columns are larger than the minor heap's largest block,
   so they are allocated straight into the major heap: a long run
   promotes next to nothing and copies nothing as it grows. *)
let chunk_bits = 9
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* [kind] bytes. *)
let process_kind = '\000'
let transit_kind = '\001'
let delivered_kind = '\002'  (* a transit that a process span named as its
                                cause *)

type chunk = {
  lamport : int array;
  cause : int array;  (* first parent (the message cause, or the sending
                         handler of a transit); -1 = none *)
  prev : int array;  (* second parent: the node's previous process span;
                        -1 = none *)
  track : int array;  (* node of a process span, link of a transit *)
  src : int array;  (* transit endpoints; the node for process spans *)
  dst : int array;
  t_begin : float array;
  t_end : float array;
  t_busy : float array;  (* a transit stores its [t_begin] *)
  label : string array;
  kind : Bytes.t;
}

let fresh_chunk () =
  { lamport = Array.make chunk_size 0;
    cause = Array.make chunk_size 0;
    prev = Array.make chunk_size 0;
    track = Array.make chunk_size 0;
    src = Array.make chunk_size 0;
    dst = Array.make chunk_size 0;
    t_begin = Array.create_float chunk_size;
    t_end = Array.create_float chunk_size;
    t_busy = Array.create_float chunk_size;
    label = Array.make chunk_size "";
    kind = Bytes.make chunk_size process_kind }

(* Fills the unused tail of the chunk spine. *)
let no_chunk =
  { lamport = [||]; cause = [||]; prev = [||]; track = [||]; src = [||];
    dst = [||]; t_begin = [||]; t_end = [||]; t_busy = [||]; label = [||];
    kind = Bytes.empty }

type t = {
  mutable chunks : chunk array;
  mutable span_count : int;
  mutable marks : mark_record list;  (* reverse recording order *)
  mutable mark_count : int;
  mutable current : int;  (* span id; -1 = none *)
  mutable sink : int;  (* span id; -1 = none *)
  (* Engine integration: the executing engine event's Lamport time.  Spans
     recorded while it executes inherit at least that. *)
  mutable event_lamport : int;
  (* Program order per node: the last process span recorded on each node
     (by node id; -1 = none) becomes an implicit parent of the next one
     (nodes handle events one at a time, in arrival order). *)
  mutable occupants : int array;
}

(* A handle is built only when a span is returned to the caller. *)
and span = { recorder : t; id : int }

and mark_record = {
  m_time : float;
  m_node : int;
  m_label : string;
  m_parent : span option;
}

let create () =
  { chunks = [||];
    span_count = 0;
    marks = [];
    mark_count = 0;
    current = -1;
    sink = -1;
    event_lamport = 0;
    occupants = [||] }

let span_count t = t.span_count
let mark_count t = t.mark_count

let[@inline] chunk t id = t.chunks.(id lsr chunk_bits)

let handle t id = if id < 0 then None else Some { recorder = t; id }

let enter_event t ~lamport =
  t.event_lamport <- lamport;
  (* Each engine event starts with no executing handler span; the network
     installs one around the handler body. *)
  t.current <- -1

let scheduling_lamport t = t.event_lamport + 1

let set_current t span =
  t.current <- (match span with None -> -1 | Some s -> s.id)

let set_current_id t id = t.current <- id

let current t = handle t t.current

let set_sink t = t.sink <- t.current
let sink t = handle t t.sink

let lamport_at t id = (chunk t id).lamport.(id land chunk_mask)

(* One more than the maximum Lamport time among the parents and the
   executing engine event. *)
let span_lamport t ~cause ~prev =
  let l = t.event_lamport in
  let l = if cause < 0 then l else Stdlib.max l (lamport_at t cause) in
  let l = if prev < 0 then l else Stdlib.max l (lamport_at t prev) in
  l + 1

(* Claim the next id, opening a chunk when the last one is full.  Only the
   spine of chunk pointers is ever copied. *)
let next_id t =
  let id = t.span_count in
  if id land chunk_mask = 0 then begin
    let c = id lsr chunk_bits in
    if c = Array.length t.chunks then begin
      let spine = Array.make (Stdlib.max 8 (2 * c)) no_chunk in
      Array.blit t.chunks 0 spine 0 c;
      t.chunks <- spine
    end;
    t.chunks.(c) <- fresh_chunk ()
  end;
  t.span_count <- id + 1;
  id

let[@inline] record t ~kind ~cause ~prev ~track ~src ~dst ~t_begin ~t_busy
    ~t_end ~label =
  let lamport = span_lamport t ~cause ~prev in
  let id = next_id t in
  let c = chunk t id and k = id land chunk_mask in
  c.lamport.(k) <- lamport;
  c.cause.(k) <- cause;
  c.prev.(k) <- prev;
  c.track.(k) <- track;
  c.src.(k) <- src;
  c.dst.(k) <- dst;
  c.t_begin.(k) <- t_begin;
  c.t_busy.(k) <- t_busy;
  c.t_end.(k) <- t_end;
  c.label.(k) <- label;
  Bytes.set c.kind k kind;
  id

let[@inline] record_transit t ~link ~src ~dst ~t_begin ~t_end ~label =
  record t ~kind:transit_kind ~cause:t.current ~prev:(-1) ~track:link ~src
    ~dst ~t_begin ~t_busy:t_begin ~t_end ~label

let[@inline] transit_at t ~link ~src ~dst ~t_begin ~t_end ~label i =
  record_transit t ~link ~src ~dst ~t_begin:t_begin.(i) ~t_end:t_end.(i)
    ~label

let transit t ~link ~src ~dst ~t_begin ~t_end ~label =
  { recorder = t;
    id = record_transit t ~link ~src ~dst ~t_begin ~t_end ~label }

let[@inline] record_process t ~cause ~node ~label ~t_begin ~t_busy ~t_end =
  if cause >= 0 then begin
    let c = chunk t cause and k = cause land chunk_mask in
    if Bytes.get c.kind k = transit_kind then Bytes.set c.kind k delivered_kind
  end;
  if node >= Array.length t.occupants then begin
    let occupants = Array.make (max 64 (2 * (node + 1))) (-1) in
    Array.blit t.occupants 0 occupants 0 (Array.length t.occupants);
    t.occupants <- occupants
  end;
  (* Parent order is the critical-path tie-break: the message cause comes
     before the program-order predecessor, so when both end exactly at
     [t_busy] the path follows the message chain. *)
  let id =
    record t ~kind:process_kind ~cause ~prev:t.occupants.(node) ~track:node
      ~src:node ~dst:node ~t_begin ~t_busy ~t_end ~label
  in
  t.occupants.(node) <- id;
  id

let[@inline] process_at t ~cause ~node ~label ~t_begin ~t_busy ~t_end i =
  record_process t ~cause ~node ~label ~t_begin:t_begin.(i)
    ~t_busy:t_busy.(i) ~t_end:t_end.(i)

let process t ?cause ~node ~label ~t_begin ~t_busy ~t_end () =
  let cause = match cause with None -> -1 | Some s -> s.id in
  { recorder = t;
    id = record_process t ~cause ~node ~label ~t_begin ~t_busy ~t_end }

let mark t ~node ~time label =
  t.marks <-
    { m_time = time; m_node = node; m_label = label;
      m_parent = handle t t.current }
    :: t.marks;
  t.mark_count <- t.mark_count + 1

(* {2 Accessors} *)

let span_id s = s.id

let lamport s = lamport_at s.recorder s.id
let label s = (chunk s.recorder s.id).label.(s.id land chunk_mask)
let[@inline] span_begin s = (chunk s.recorder s.id).t_begin.(s.id land chunk_mask)
let[@inline] span_end s = (chunk s.recorder s.id).t_end.(s.id land chunk_mask)

let parents s =
  let t = s.recorder in
  let c = chunk t s.id and k = s.id land chunk_mask in
  let cause = c.cause.(k) and prev = c.prev.(k) in
  let rest = if prev < 0 then [] else [ { recorder = t; id = prev } ] in
  if cause < 0 then rest else { recorder = t; id = cause } :: rest

let shape s =
  let c = chunk s.recorder s.id and k = s.id land chunk_mask in
  let kind = Bytes.get c.kind k in
  if kind = process_kind then
    Process_shape { node = c.track.(k); t_busy = c.t_busy.(k) }
  else
    Transit_shape
      { link = c.track.(k); src = c.src.(k); dst = c.dst.(k);
        delivered = kind = delivered_kind }

let spans t = List.init t.span_count (fun id -> { recorder = t; id })
let marks t = List.rev t.marks
let mark_label m = m.m_label
let mark_time m = m.m_time
let mark_node m = m.m_node
let mark_parent m = m.m_parent

(* {2 Chrome trace-event export}

   One JSON object per line inside the [traceEvents] array, so text tools
   (grep, wc) can count event classes without a JSON parser.  Timestamps
   are microseconds (one simulated time unit = one second). *)

let us time = time *. 1e6

let track_count t =
  (* Node tracks first, then one track per link. *)
  let nodes = ref 0 and links = ref 0 in
  let see_node n = if n + 1 > !nodes then nodes := n + 1 in
  let see_link l = if l + 1 > !links then links := l + 1 in
  for id = 0 to t.span_count - 1 do
    let c = chunk t id and k = id land chunk_mask in
    if Bytes.get c.kind k = process_kind then see_node c.track.(k)
    else begin
      see_link c.track.(k);
      see_node c.src.(k);
      see_node c.dst.(k)
    end
  done;
  List.iter (fun m -> see_node m.m_node) t.marks;
  (!nodes, !links)

let output_trace_json ?(name = "abe-sim") oc t =
  let nodes, links = track_count t in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let event line =
    if !first then first := false else output_string oc ",\n";
    output_string oc line
  in
  let eventf fmt = Printf.ksprintf event fmt in
  eventf
    "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
    name;
  for node = 0 to nodes - 1 do
    eventf
      "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"node %d\"}}"
      node node
  done;
  for link = 0 to links - 1 do
    eventf
      "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"link %d\"}}"
      (nodes + link) link
  done;
  for id = 0 to t.span_count - 1 do
    let c = chunk t id and k = id land chunk_mask in
    let t_begin = c.t_begin.(k) and t_end = c.t_end.(k) in
    let dur = us t_end -. us t_begin in
    let kind = Bytes.get c.kind k in
    if kind = process_kind then
      eventf
        "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"dur\":%.12g,\"name\":\"%s\",\"cat\":\"process\",\"args\":{\"span\":%d,\"lamport\":%d,\"wait\":%.12g}}"
        c.track.(k) (us t_begin) dur c.label.(k) id c.lamport.(k)
        (us c.t_busy.(k) -. us t_begin)
    else begin
      let src = c.src.(k) and dst = c.dst.(k) in
      eventf
        "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"dur\":%.12g,\"name\":\"%s\",\"cat\":\"transit\",\"args\":{\"span\":%d,\"lamport\":%d,\"src\":%d,\"dst\":%d}}"
        (nodes + c.track.(k)) (us t_begin) dur c.label.(k) id c.lamport.(k)
        src dst;
      (* Flow arrows reconnect every delivered message to its send span:
         the flow starts inside the sending handler's slice on the source
         node track and finishes at the arrival instant, bound to the
         enclosing delivery slice on the destination track. *)
      if kind = delivered_kind then begin
        eventf
          "{\"ph\":\"s\",\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"id\":%d,\"name\":\"msg\",\"cat\":\"flow\"}"
          src (us t_begin) id;
        eventf
          "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"id\":%d,\"name\":\"msg\",\"cat\":\"flow\"}"
          dst (us t_end) id
      end
    end
  done;
  List.iter
    (fun m ->
       eventf
         "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"name\":\"%s\",\"s\":\"t\",\"cat\":\"phase\"}"
         m.m_node (us m.m_time) m.m_label)
    (marks t);
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"
