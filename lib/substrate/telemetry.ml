module Causal = Abe_sim.Causal
module Metrics = Abe_sim.Metrics

(* Worker-side span records travel to the router as an opaque blob inside
   [Wire.Telemetry] frames (drained before the final [Stats]).  The codec
   is a flat sequence of tagged records so chunking at any record
   boundary keeps every chunk self-contained:

     'P' kind(1) cause(8) lamport(8) t_begin(8) t_busy(8) t_end(8)
     'M' span(8) at(8) label-length(8) label

   Integers are 8-byte big-endian, floats IEEE bits, times in elapsed
   simulated units. *)

type proc_record = {
  pr_kind : int;  (* 0 = recv, 1 = tick *)
  pr_cause : int;  (* router transit id being delivered; -1 for ticks *)
  pr_lamport : int;
  pr_begin : float;
  pr_busy : float;
  mutable pr_end : float;
}

type mark_record = { mk_span : int; mk_at : float; mk_label : string }

let proc_bytes = 42
let mark_header_bytes = 25

(* Flush worker blobs into a fresh frame past this size; far below the
   wire's 16 MiB body bound, so a chunk always fits one frame. *)
let chunk_bytes = 1 lsl 20

let encode_proc buf p =
  Buffer.add_char buf 'P';
  Buffer.add_uint8 buf p.pr_kind;
  Buffer.add_int64_be buf (Int64.of_int p.pr_cause);
  Buffer.add_int64_be buf (Int64.of_int p.pr_lamport);
  Buffer.add_int64_be buf (Int64.bits_of_float p.pr_begin);
  Buffer.add_int64_be buf (Int64.bits_of_float p.pr_busy);
  Buffer.add_int64_be buf (Int64.bits_of_float p.pr_end)

let encode_mark buf m =
  Buffer.add_char buf 'M';
  Buffer.add_int64_be buf (Int64.of_int m.mk_span);
  Buffer.add_int64_be buf (Int64.bits_of_float m.mk_at);
  Buffer.add_int64_be buf (Int64.of_int (String.length m.mk_label));
  Buffer.add_string buf m.mk_label

let decode_records s =
  let len = String.length s in
  let int_at off = Int64.to_int (String.get_int64_be s off) in
  let float_at off = Int64.float_of_bits (String.get_int64_be s off) in
  let rec go pos procs marks =
    if pos = len then Ok (List.rev procs, List.rev marks)
    else
      match s.[pos] with
      | 'P' when pos + proc_bytes <= len ->
        let p =
          { pr_kind = Char.code s.[pos + 1];
            pr_cause = int_at (pos + 2);
            pr_lamport = int_at (pos + 10);
            pr_begin = float_at (pos + 18);
            pr_busy = float_at (pos + 26);
            pr_end = float_at (pos + 34) }
        in
        go (pos + proc_bytes) (p :: procs) marks
      | 'M' when pos + mark_header_bytes <= len ->
        let llen = int_at (pos + 17) in
        if llen < 0 || pos + mark_header_bytes + llen > len then
          Error "telemetry: truncated mark label"
        else
          let m =
            { mk_span = int_at (pos + 1);
              mk_at = float_at (pos + 9);
              mk_label = String.sub s (pos + mark_header_bytes) llen }
          in
          go (pos + mark_header_bytes + llen) procs (m :: marks)
      | 'P' | 'M' -> Error "telemetry: truncated record"
      | c ->
        Error (Printf.sprintf "telemetry: unknown record tag 0x%02x" (Char.code c))
  in
  go 0 [] []

module Recorder = struct
  type t = {
    mutable clock : int;  (* Lamport time of the current/last span *)
    mutable finished : proc_record list;  (* reverse completion order *)
    mutable nfinished : int;
    mutable cur : proc_record option;
    mutable marks : mark_record list;  (* reverse *)
    mutable stop_at : float option;
  }

  let create () =
    { clock = 0;
      finished = [];
      nfinished = 0;
      cur = None;
      marks = [];
      stop_at = None }

  let begin_proc t ~kind ?cause ~scheduled ~now () =
    let cause_id, cause_lamport =
      match (cause : Wire.trace option) with
      | Some tr -> (tr.Wire.span, tr.Wire.lamport)
      | None -> (-1, 0)
    in
    (* One more than the maximum parent clock: the node's previous span
       and, for deliveries, the causing transit — the same rule Causal
       applies, so the merged DAG reproduces these values exactly. *)
    t.clock <- Stdlib.max t.clock cause_lamport + 1;
    t.cur <-
      Some
        { pr_kind = (match kind with `Recv -> 0 | `Tick -> 1);
          pr_cause = cause_id;
          pr_lamport = t.clock;
          pr_begin = scheduled;
          pr_busy = now;
          pr_end = Float.nan }

  let finish_proc t ~now =
    match t.cur with
    | None -> ()
    | Some p ->
      (* A stop requested inside this handler pins the span's end to the
         exact stop timestamp, so the sink ends at elected-at. *)
      let t_end =
        match t.stop_at with
        | Some ts ->
          t.stop_at <- None;
          ts
        | None -> now
      in
      p.pr_end <- t_end;
      t.finished <- p :: t.finished;
      t.nfinished <- t.nfinished + 1;
      t.cur <- None

  (* Spans complete in begin order (handlers never nest), so the current
     span's id is the number already finished. *)
  let current_span t = match t.cur with Some _ -> t.nfinished | None -> -1

  let note t ~at label =
    t.marks <- { mk_span = current_span t; mk_at = at; mk_label = label } :: t.marks

  let note_stop t ~at = t.stop_at <- Some at

  let send_trace t ~at =
    match t.cur with
    | Some p -> Some { Wire.span = t.nfinished; lamport = p.pr_lamport; at }
    | None -> None

  let frames t ~node =
    let buf = Buffer.create 4096 in
    let out = ref [] in
    let flush_if_full () =
      if Buffer.length buf >= chunk_bytes then begin
        out := Wire.Telemetry { node; records = Buffer.contents buf } :: !out;
        Buffer.clear buf
      end
    in
    List.iter
      (fun p ->
         encode_proc buf p;
         flush_if_full ())
      (List.rev t.finished);
    List.iter
      (fun m ->
         encode_mark buf m;
         flush_if_full ())
      (List.rev t.marks);
    if Buffer.length buf > 0 then
      out := Wire.Telemetry { node; records = Buffer.contents buf } :: !out;
    List.rev !out
end

module Collector = struct
  type transit = {
    tr_link : int;
    tr_src : int;
    tr_dst : int;
    tr_lamport : int;
    tr_cause : int;  (* sender's local span id, -1 if unstamped *)
    tr_begin : float;
    tr_due : float;
    mutable tr_release : float;  (* nan until the router released it *)
    tr_label : string;
  }

  type t = {
    n : int;
    mutable tarr : transit array;
    mutable tlen : int;
    node_procs : proc_record list ref array;  (* reverse arrival order *)
    node_marks : mark_record list ref array;
  }

  let create ~n =
    { n;
      tarr = [||];
      tlen = 0;
      node_procs = Array.init n (fun _ -> ref []);
      node_marks = Array.init n (fun _ -> ref []) }

  let dummy =
    { tr_link = -1;
      tr_src = -1;
      tr_dst = -1;
      tr_lamport = 0;
      tr_cause = -1;
      tr_begin = 0.;
      tr_due = 0.;
      tr_release = Float.nan;
      tr_label = "" }

  let add t tr =
    if t.tlen = Array.length t.tarr then begin
      let cap = Stdlib.max 64 (2 * t.tlen) in
      let fresh = Array.make cap dummy in
      Array.blit t.tarr 0 fresh 0 t.tlen;
      t.tarr <- fresh
    end;
    t.tarr.(t.tlen) <- tr;
    t.tlen <- t.tlen + 1;
    t.tlen - 1

  let flight t ~label ~link ~src ~dst ~trace ~now ~due ~release =
    let tr_lamport, tr_cause, tr_begin =
      match (trace : Wire.trace option) with
      | Some tr -> (tr.Wire.lamport + 1, tr.Wire.span, tr.Wire.at)
      | None -> (1, -1, now)
    in
    add t
      { tr_link = link;
        tr_src = src;
        tr_dst = dst;
        tr_lamport;
        tr_cause;
        tr_begin;
        tr_due = due;
        tr_release = release;
        tr_label = label }

  let note_send t ~link ~src ~dst ~trace ~now ~due =
    flight t ~label:"msg" ~link ~src ~dst ~trace ~now ~due ~release:Float.nan

  let note_loss t ~link ~src ~dst ~trace ~now =
    (* A lost message's flight ends at the send instant, like the
       simulator's zero-length "loss" transits. *)
    let at =
      match (trace : Wire.trace option) with Some tr -> tr.Wire.at | None -> now
    in
    ignore
      (flight t ~label:"loss" ~link ~src ~dst ~trace ~now ~due:at ~release:at)

  let note_release t id ~now =
    if id >= 0 && id < t.tlen then t.tarr.(id).tr_release <- now

  let deliver_trace t id =
    let tr = t.tarr.(id) in
    { Wire.span = id; lamport = tr.tr_lamport; at = tr.tr_begin }

  let absorb t ~node records =
    if node < 0 || node >= t.n then
      Error (Printf.sprintf "telemetry: records from unknown node %d" node)
    else
      match decode_records records with
      | Error _ as e -> e
      | Ok (procs, marks) ->
        t.node_procs.(node) := List.rev_append procs !(t.node_procs.(node));
        t.node_marks.(node) := List.rev_append marks !(t.node_marks.(node));
        Ok ()

  type item = Transit of int | Proc of int * int  (* node, local span id *)

  let merge t =
    let c = Causal.create () in
    let procs = Array.map (fun r -> Array.of_list (List.rev !r)) t.node_procs in
    let marks = Array.map (fun r -> List.rev !r) t.node_marks in
    (* A transit ends when its consumer's handler begins — the worker-side
       arrival refines the router's release instant.  Undelivered transits
       fall back to the release or due time. *)
    let consumed = Array.make (Stdlib.max 1 t.tlen) Float.nan in
    Array.iter
      (Array.iter (fun p ->
           if
             p.pr_cause >= 0 && p.pr_cause < t.tlen
             && Float.is_nan consumed.(p.pr_cause)
           then consumed.(p.pr_cause) <- p.pr_begin))
      procs;
    let transit_end i =
      let tr = t.tarr.(i) in
      if not (Float.is_nan consumed.(i)) then consumed.(i)
      else if not (Float.is_nan tr.tr_release) then tr.tr_release
      else if not (Float.is_nan tr.tr_due) then tr.tr_due
      else tr.tr_begin
    in
    (* Every span's Lamport clock exceeds each of its parents', so
       ascending Lamport order is a valid replay (topological) order;
       per-node clocks are strictly increasing, preserving program
       order.  Ties are never parent-child — break them stably. *)
    let items = ref [] in
    for i = t.tlen - 1 downto 0 do
      items := (t.tarr.(i).tr_lamport, 0, i, 0, Transit i) :: !items
    done;
    Array.iteri
      (fun node ps ->
         Array.iteri
           (fun idx p ->
              items := (p.pr_lamport, 1, node, idx, Proc (node, idx)) :: !items)
           ps)
      procs;
    let items =
      List.sort
        (fun (l1, t1, a1, b1, _) (l2, t2, a2, b2, _) ->
           compare (l1, t1, a1, b1) (l2, t2, a2, b2))
        !items
    in
    let transit_spans = Hashtbl.create 256 in
    let proc_spans = Hashtbl.create 256 in
    List.iter
      (fun (lamport, _, _, _, item) ->
         match item with
         | Transit i ->
           let tr = t.tarr.(i) in
           Causal.enter_event c ~lamport:(lamport - 1);
           Causal.set_current c
             (if tr.tr_cause >= 0 then
                Hashtbl.find_opt proc_spans (tr.tr_src, tr.tr_cause)
              else None);
           let s =
             Causal.transit c ~link:tr.tr_link ~src:tr.tr_src ~dst:tr.tr_dst
               ~t_begin:tr.tr_begin ~t_end:(transit_end i) ~label:tr.tr_label
           in
           Hashtbl.replace transit_spans i s
         | Proc (node, idx) ->
           let p = procs.(node).(idx) in
           Causal.enter_event c ~lamport:(lamport - 1);
           Causal.set_current c None;
           let cause =
             if p.pr_cause >= 0 then Hashtbl.find_opt transit_spans p.pr_cause
             else None
           in
           let s =
             Causal.process c ?cause ~node
               ~label:(if p.pr_kind = 0 then "recv" else "tick")
               ~t_begin:p.pr_begin ~t_busy:p.pr_busy ~t_end:p.pr_end ()
           in
           Hashtbl.replace proc_spans (node, idx) s)
      items;
    Array.iteri
      (fun node ms ->
         List.iter
           (fun m ->
              let sp =
                if m.mk_span >= 0 then Hashtbl.find_opt proc_spans (node, m.mk_span)
                else None
              in
              Causal.set_current c sp;
              Causal.mark c ~node ~time:m.mk_at m.mk_label;
              if m.mk_label = "elected" && sp <> None then Causal.set_sink c)
           ms)
      marks;
    Causal.set_current c None;
    c
end

module Fidelity = struct
  type link_stat = {
    deliveries : int;
    target_sum : float;
    measured_sum : float;
    max_excess : float;
  }

  type summary = link_stat array

  let empty : summary = [||]
  let zero = { deliveries = 0; target_sum = 0.; measured_sum = 0.; max_excess = 0. }

  type t = {
    stats : link_stat array;  (* indexed by link id; functional update *)
    hists : Metrics.histogram array option;
    scale : float;
  }

  let create ?metrics ~scale ~links () =
    { stats = Array.make (Stdlib.max 0 links) zero;
      hists =
        Option.map
          (fun m ->
             Array.init (Stdlib.max 0 links) (fun k ->
                 Metrics.histogram m
                   (Printf.sprintf "real/fidelity/link%d/excess_wall_ms" k)))
          metrics;
      scale }

  let note t ~link ~target ~measured =
    if link >= 0 && link < Array.length t.stats then begin
      let s = t.stats.(link) in
      let excess = Float.max 0. (measured -. target) in
      t.stats.(link) <-
        { deliveries = s.deliveries + 1;
          target_sum = s.target_sum +. target;
          measured_sum = s.measured_sum +. measured;
          max_excess = Float.max s.max_excess excess };
      Option.iter
        (fun hs -> Metrics.observe hs.(link) (excess *. t.scale *. 1000.))
        t.hists
    end

  let summary t = Array.copy t.stats

  let merge (a : summary) (b : summary) : summary =
    let len = Stdlib.max (Array.length a) (Array.length b) in
    Array.init len (fun k ->
        let get s = if k < Array.length s then s.(k) else zero in
        let x = get a and y = get b in
        { deliveries = x.deliveries + y.deliveries;
          target_sum = x.target_sum +. y.target_sum;
          measured_sum = x.measured_sum +. y.measured_sum;
          max_excess = Float.max x.max_excess y.max_excess })

  let deliveries (s : summary) =
    Array.fold_left (fun acc st -> acc + st.deliveries) 0 s

  let max_drift (s : summary) =
    Array.fold_left
      (fun acc st ->
         if st.deliveries > 0 && st.target_sum > 0. then
           Float.max acc (st.measured_sum /. st.target_sum)
         else acc)
      1. s

  let worst_mean_excess (s : summary) =
    Array.fold_left
      (fun acc st ->
         if st.deliveries > 0 then
           Float.max acc
             ((st.measured_sum -. st.target_sum) /. float_of_int st.deliveries)
         else acc)
      0. s

  let publish registry (s : summary) =
    Array.iteri
      (fun k st ->
         if st.deliveries > 0 && st.target_sum > 0. then
           Metrics.set_gauge
             (Metrics.gauge registry (Printf.sprintf "real/fidelity/link%d/drift" k))
             (st.measured_sum /. st.target_sum))
      s;
    Metrics.set_gauge (Metrics.gauge registry "real/fidelity/max_drift")
      (max_drift s)
end

module Snapshot = struct
  type t = {
    oc : out_channel;
    interval : float;  (* wall seconds between lines *)
    mutable last : float;
  }

  let create oc ~interval = { oc; interval; last = Float.neg_infinity }

  let emit t ~now ~sent ~delivered ~lost ~in_flight ~queues ~fd =
    t.last <- now;
    let queues =
      String.concat "," (List.map string_of_int (Array.to_list queues))
    in
    Printf.fprintf t.oc
      "{\"t_wall\":%.6f,\"sent\":%d,\"delivered\":%d,\"lost\":%d,\"in_flight\":%d,\"queues\":[%s],\"fd\":%d}\n"
      now sent delivered lost in_flight queues (fd ())

  let maybe t ~now ~sent ~delivered ~lost ~in_flight ~queues ~fd =
    if now -. t.last >= t.interval then
      emit t ~now ~sent ~delivered ~lost ~in_flight ~queues ~fd

  let final t ~now ~sent ~delivered ~lost ~in_flight ~queues ~fd =
    emit t ~now ~sent ~delivered ~lost ~in_flight ~queues ~fd;
    flush t.oc
end
