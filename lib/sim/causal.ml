type shape =
  | Transit_shape of { link : int; src : int; dst : int; delivered : bool }
  | Process_shape of { node : int; t_busy : float }

(* The DAG lives in row-major chunks indexed by span id, so recording a
   span writes a few unboxed array cells and keeps no per-span heap block
   alive.  Span [id] lives in chunk [id lsr chunk_bits], at row
   [id land chunk_mask].  Each chunk holds one [int array] of three-word
   rows and one [float array] of three-word rows:

   - [order]: the Lamport time and the first parent ([cause]: the message
     cause, or the sending handler of a transit; -1 = none), packed;
   - [prev]: for a process span, the node's previous process span (-1 =
     none); for a transit, which has no second parent, its endpoints
     [src] and [dst], packed;
   - [meta]: the track (the node of a process span, the link of a
     transit), the interned label id and the kind, packed;
   - [t_begin], [t_busy] (a transit stores its [t_begin]) and [t_end].

   That is 48 bytes per span, and no pointer is written, so no write
   barrier is paid.  A chunk holds 64 spans: each of its arrays is 192
   words, under the minor heap's largest block (256 words), so a chunk is
   allocated in the minor heap.  A recorder that lives for one election
   dies there with its chunks; one that outlives a minor collection has
   them promoted once, and chunks are never copied again. *)
let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* Row width of both arrays, and the int row's offsets. *)
let width = 3
let o_order = 0
let o_prev = 1
let o_meta = 2

(* [order]: [cause + 1] in bits 0-31, the Lamport time in bits 32-62.
   Span ids stay below [id_limit], so [cause + 1] fits. *)
let cause_bits = 32
let cause_mask = (1 lsl cause_bits) - 1
let id_limit = 1 lsl 31

let[@inline] order_lamport order = order lsr cause_bits
let[@inline] order_cause order = (order land cause_mask) - 1

(* A transit's [prev]: [dst] in bits 0-30, [src] in bits 31-61. *)
let end_bits = 31
let end_mask = (1 lsl end_bits) - 1

(* [meta]: the kind in bits 0-1, the label id in bits 2-31, the track in
   bits 32-62. *)
let process_kind = 0
let transit_kind = 1
let delivered_kind = 2  (* a transit that a process span named as its
                           cause *)

let kind_mask = 3
let label_shift = 2
let label_limit = 1 lsl 30
let track_shift = 32

let[@inline] meta_kind meta = meta land kind_mask
let[@inline] meta_label meta = (meta lsr label_shift) land (label_limit - 1)
let[@inline] meta_track meta = meta lsr track_shift

(* On a miss of the one-entry label cache, interning scans this many of
   the first interned labels by physical equality before hashing. *)
let label_scan = 8

(* The label cache's empty key: no caller can pass this string. *)
let no_label = String.make 1 '\000'

type t = {
  mutable ints : int array array;  (* by chunk *)
  mutable floats : float array array;  (* by chunk *)
  (* The chunk of the span recorded last (empty before the first), so
     recording writes its row without going through the spines. *)
  mutable last_ints : int array;
  mutable last_floats : float array;
  mutable span_count : int;
  mutable labels : string array;  (* by label id *)
  mutable label_count : int;
  label_ids : (string, int) Hashtbl.t;
  (* The label passed last and its id: callers pass a few literals, the
     same one many times in a row (a tick round's spans are all "tick"),
     so most lookups are one physical comparison. *)
  mutable cached_label : string;
  mutable cached_id : int;
  mutable marks : mark_record list;  (* reverse recording order *)
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
  { ints = [||];
    floats = [||];
    last_ints = [||];
    last_floats = [||];
    span_count = 0;
    labels = [||];
    label_count = 0;
    label_ids = Hashtbl.create 16;
    cached_label = no_label;
    cached_id = 0;
    marks = [];
    current = -1;
    sink = -1;
    event_lamport = 0;
    occupants = [||] }

let span_count t = t.span_count

let[@inline] int_at t id o =
  t.ints.(id lsr chunk_bits).((width * (id land chunk_mask)) + o)
let[@inline] float_at t id o =
  t.floats.(id lsr chunk_bits).((width * (id land chunk_mask)) + o)

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

let set_sink t = t.sink <- t.current
let sink t = handle t t.sink

let rec scan_labels labels label i n =
  if i = n then -1
  else if labels.(i) == label then i
  else scan_labels labels label (i + 1) n

let intern t label =
  match Hashtbl.find_opt t.label_ids label with
  | Some id -> id
  | None ->
    let id = t.label_count in
    if id = label_limit then invalid_arg "Causal: too many distinct labels";
    if id = Array.length t.labels then begin
      let labels = Array.make (Stdlib.max 8 (2 * id)) "" in
      Array.blit t.labels 0 labels 0 id;
      t.labels <- labels
    end;
    t.labels.(id) <- label;
    t.label_count <- id + 1;
    Hashtbl.add t.label_ids label id;
    id

(* The id of [label], interned on first sight. *)
let label_miss t label =
  let i =
    scan_labels t.labels label 0 (Stdlib.min t.label_count label_scan)
  in
  let id = if i >= 0 then i else intern t label in
  t.cached_label <- label;
  t.cached_id <- id;
  id

let[@inline] label_id t label =
  if label == t.cached_label then t.cached_id else label_miss t label

(* The range checks of the packing: tracks, endpoints and Lamport times
   take 31 bits, so one is in range exactly when its bits from the 31st
   up are clear (a negative value has them set). *)
let out_of_range what id =
  invalid_arg (Printf.sprintf "Causal: %s %d out of range" what id)

let[@inline] check_id what id =
  if id lsr end_bits <> 0 then out_of_range what id

let bad_lamport l =
  invalid_arg (Printf.sprintf "Causal: Lamport time %d out of range" l)

let lamport_at t id = order_lamport (int_at t id o_order)

(* A spine of chunks with room for chunk [c]: only the spine of chunk
   pointers is ever copied. *)
let grown spine c empty =
  if c < Array.length spine then spine
  else begin
    let bigger = Array.make (Stdlib.max 8 (2 * c)) empty in
    Array.blit spine 0 bigger 0 c;
    bigger
  end

(* Open the chunk of span [id], the first of its chunk. *)
let open_chunk t id =
  if id >= id_limit then invalid_arg "Causal: too many spans";
  let c = id lsr chunk_bits in
  let ints = Array.make (width * chunk_size) 0
  and floats = Array.create_float (width * chunk_size) in
  t.ints <- grown t.ints c [||];
  t.floats <- grown t.floats c [||];
  t.ints.(c) <- ints;
  t.floats.(c) <- floats;
  t.last_ints <- ints;
  t.last_floats <- floats

(* [Stdlib.max] is polymorphic: a call into the runtime's comparison. *)
let[@inline] imax (a : int) b = if a >= b then a else b

(* Write span [t.span_count] in one pass and return its id.  Its Lamport
   time is one more than the maximum of the executing engine event's and
   [floor], the parents' maximum (-1 without parents). *)
let[@inline] record t ~floor ~cause ~prev ~meta ~t_begin ~t_busy ~t_end =
  let l = imax t.event_lamport floor + 1 in
  if l lsr end_bits <> 0 then bad_lamport l;
  let id = t.span_count in
  if id land chunk_mask = 0 then open_chunk t id;
  t.span_count <- id + 1;
  let i = width * (id land chunk_mask) in
  let ints = t.last_ints in
  ints.(i + o_order) <- (l lsl cause_bits) lor (cause + 1);
  ints.(i + o_prev) <- prev;
  ints.(i + o_meta) <- meta;
  let floats = t.last_floats in
  floats.(i) <- t_begin;
  floats.(i + 1) <- t_busy;
  floats.(i + 2) <- t_end;
  id

let[@inline] record_transit t ~link ~src ~dst ~t_begin ~t_end ~label =
  check_id "track" link;
  let label = label_id t label in
  check_id "src" src;
  check_id "dst" dst;
  let cause = t.current in
  record t
    ~floor:(if cause < 0 then -1 else lamport_at t cause)
    ~cause ~prev:((src lsl end_bits) lor dst)
    ~meta:((link lsl track_shift) lor (label lsl label_shift) lor transit_kind)
    ~t_begin ~t_busy:t_begin ~t_end

let[@inline] transit_at t ~link ~src ~dst ~t_begin ~t_end ~label i =
  record_transit t ~link ~src ~dst ~t_begin:t_begin.(i) ~t_end:t_end.(i)
    ~label

let transit t ~link ~src ~dst ~t_begin ~t_end ~label =
  { recorder = t;
    id = record_transit t ~link ~src ~dst ~t_begin ~t_end ~label }

let grow_occupants t node =
  let occupants = Array.make (max 64 (2 * (node + 1))) (-1) in
  Array.blit t.occupants 0 occupants 0 (Array.length t.occupants);
  t.occupants <- occupants

let[@inline] record_process t ~cause ~node ~label ~t_begin ~t_busy ~t_end =
  check_id "track" node;
  let label = label_id t label in
  (* One visit to the cause's row reads its Lamport time and marks a
     transit delivered. *)
  let cause_lamport =
    if cause < 0 then -1
    else begin
      let ints = t.ints.(cause lsr chunk_bits)
      and i = width * (cause land chunk_mask) in
      let m = ints.(i + o_meta) in
      if meta_kind m = transit_kind then
        ints.(i + o_meta) <- m land lnot kind_mask lor delivered_kind;
      order_lamport ints.(i + o_order)
    end
  in
  if node >= Array.length t.occupants then grow_occupants t node;
  (* Parent order is the critical-path tie-break: the message cause comes
     before the program-order predecessor, so when both end exactly at
     [t_busy] the path follows the message chain. *)
  let prev = t.occupants.(node) in
  let floor =
    if prev < 0 then cause_lamport
    else imax cause_lamport (lamport_at t prev)
  in
  let id =
    record t ~floor ~cause ~prev
      ~meta:((node lsl track_shift) lor (label lsl label_shift) lor process_kind)
      ~t_begin ~t_busy ~t_end
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
    :: t.marks

(* A transit's endpoints. *)
let src_at t id = int_at t id o_prev lsr end_bits
let dst_at t id = int_at t id o_prev land end_mask

(* {2 Accessors} *)

let span_id s = s.id

let lamport s = lamport_at s.recorder s.id
let label_of t id = t.labels.(meta_label (int_at t id o_meta))
let label s = label_of s.recorder s.id
let[@inline] span_begin s = float_at s.recorder s.id 0
let[@inline] span_end s = float_at s.recorder s.id 2

let parents s =
  let t = s.recorder in
  let cause = order_cause (int_at t s.id o_order) in
  let rest =
    (* A transit's [prev] slot holds its endpoints, not a parent. *)
    let prev = int_at t s.id o_prev in
    if prev < 0 || meta_kind (int_at t s.id o_meta) <> process_kind then []
    else [ { recorder = t; id = prev } ]
  in
  if cause < 0 then rest else { recorder = t; id = cause } :: rest

let shape s =
  let t = s.recorder and id = s.id in
  let meta = int_at t id o_meta in
  let kind = meta_kind meta in
  if kind = process_kind then
    Process_shape { node = meta_track meta; t_busy = float_at t id 1 }
  else
    Transit_shape
      { link = meta_track meta; src = src_at t id; dst = dst_at t id;
        delivered = kind = delivered_kind }

let spans t = List.init t.span_count (fun id -> { recorder = t; id })
let marks t = List.rev t.marks

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
    let meta = int_at t id o_meta in
    if meta_kind meta = process_kind then see_node (meta_track meta)
    else begin
      see_link (meta_track meta);
      see_node (src_at t id);
      see_node (dst_at t id)
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
    let t_begin = float_at t id 0 and t_end = float_at t id 2 in
    let dur = us t_end -. us t_begin in
    let meta = int_at t id o_meta and lamport = lamport_at t id in
    let kind = meta_kind meta and label = label_of t id in
    if kind = process_kind then
      eventf
        "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"dur\":%.12g,\"name\":\"%s\",\"cat\":\"process\",\"args\":{\"span\":%d,\"lamport\":%d,\"wait\":%.12g}}"
        (meta_track meta) (us t_begin) dur label id lamport
        (us (float_at t id 1) -. us t_begin)
    else begin
      let src = src_at t id and dst = dst_at t id in
      eventf
        "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"dur\":%.12g,\"name\":\"%s\",\"cat\":\"transit\",\"args\":{\"span\":%d,\"lamport\":%d,\"src\":%d,\"dst\":%d}}"
        (nodes + meta_track meta) (us t_begin) dur label id lamport
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
