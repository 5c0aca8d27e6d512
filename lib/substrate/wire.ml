(* Trace context piggybacked on data frames: the sender's span identity,
   its Lamport clock, and the send timestamp in simulated-time units. *)
type trace = { span : int; lamport : int; at : float }

type frame =
  | Send of { link : int; payload : string; trace : trace option }
  | Deliver of { link : int; payload : string; trace : trace option }
  | Stop of { node : int; at_units : float }
  | Stats of {
      node : int;
      sent : int;
      ticks : int;
      activations : int;
    }
  | Telemetry of { node : int; records : string }
  | Shutdown

let magic = '\xAB'

(* Version 2 added the optional trace-context extension on Send/Deliver
   and the Telemetry frame kind.  Both ends of every socketpair are the
   same binary and no frame outlives its run, so only this version
   decodes. *)
let version = 2

(* Payloads are protocol messages (a few bytes); 16 MiB is far beyond any
   legitimate frame and close enough to catch a corrupt length prefix
   before it turns into a giant allocation.  Telemetry blobs are chunked
   by the sender to stay under this cap. *)
let max_body = 16 * 1024 * 1024

let trace_ext_tag = 0x01
let trace_ext_len = 25 (* tag + span + lamport + at *)

(* Kind 1 is unassigned: the decoder rejects it as an unknown kind.  Kind
   numbers are wire format, so the others keep theirs. *)
let kind_of = function
  | Send _ -> 2
  | Deliver _ -> 3
  | Stop _ -> 4
  | Stats _ -> 5
  | Shutdown -> 6
  | Telemetry _ -> 7

let body_length = function
  | Send { payload; trace; _ } | Deliver { payload; trace; _ } ->
    8 + 4 + String.length payload
    + (match trace with Some _ -> trace_ext_len | None -> 0)
  | Stop _ -> 16
  | Stats _ -> 32
  | Telemetry { records; _ } -> 8 + String.length records
  | Shutdown -> 0

let encode frame =
  let body = body_length frame in
  let b = Bytes.create (4 + 3 + body) in
  Bytes.set_int32_be b 0 (Int32.of_int (3 + body));
  Bytes.set b 4 magic;
  Bytes.set_uint8 b 5 version;
  Bytes.set_uint8 b 6 (kind_of frame);
  let int64_at off v = Bytes.set_int64_be b off (Int64.of_int v) in
  (match frame with
   | Send { link; payload; trace } | Deliver { link; payload; trace } ->
     int64_at 7 link;
     Bytes.set_int32_be b 15 (Int32.of_int (String.length payload));
     Bytes.blit_string payload 0 b 19 (String.length payload);
     (match trace with
      | None -> ()
      | Some { span; lamport; at } ->
        let off = 19 + String.length payload in
        Bytes.set_uint8 b off trace_ext_tag;
        int64_at (off + 1) span;
        int64_at (off + 9) lamport;
        Bytes.set_int64_be b (off + 17) (Int64.bits_of_float at))
   | Stop { node; at_units } ->
     int64_at 7 node;
     Bytes.set_int64_be b 15 (Int64.bits_of_float at_units)
   | Stats { node; sent; ticks; activations } ->
     int64_at 7 node;
     int64_at 15 sent;
     int64_at 23 ticks;
     int64_at 31 activations
   | Telemetry { node; records } ->
     int64_at 7 node;
     Bytes.blit_string records 0 b 15 (String.length records)
   | Shutdown -> ());
  b

let decode_body s =
  let len = String.length s in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if len < 3 then err "wire: truncated header (%d bytes)" len
  else if s.[0] <> magic then
    err "wire: bad magic byte 0x%02x" (Char.code s.[0])
  else if Char.code s.[1] <> version then
    err "wire: version %d, expected %d" (Char.code s.[1]) version
  else
    let kind = Char.code s.[2] in
    let int_at off = Int64.to_int (String.get_int64_be s (off + 3)) in
    let expect want k =
      if len - 3 = want then Ok (k ())
      else err "wire: kind %d body is %d bytes, expected %d" kind (len - 3) want
    in
    match kind with
    | 2 | 3 ->
      if len - 3 < 12 then err "wire: truncated send/deliver body (%d bytes)" (len - 3)
      else
        let link = int_at 0 in
        let plen = Int32.to_int (String.get_int32_be s 11) in
        if plen < 0 || len - 3 < 12 + plen then
          err "wire: payload length %d does not fit body of %d bytes" plen
            (len - 3)
        else
          let payload = String.sub s 15 plen in
          let ext = len - 3 - 12 - plen in
          let finish trace =
            Ok (if kind = 2 then Send { link; payload; trace }
                else Deliver { link; payload; trace })
          in
          if ext = 0 then finish None
          else if ext = trace_ext_len
               && Char.code s.[15 + plen] = trace_ext_tag then
            let off = 16 + plen in
            finish
              (Some
                 { span = Int64.to_int (String.get_int64_be s off);
                   lamport = Int64.to_int (String.get_int64_be s (off + 8));
                   at = Int64.float_of_bits (String.get_int64_be s (off + 16)) })
          else
            (* A partial or unknown extension is stream corruption, not a
               skippable option: poison rather than misattribute bytes. *)
            err "wire: malformed trace extension (%d trailing bytes)" ext
    | 4 ->
      expect 16 (fun () ->
          Stop
            { node = int_at 0;
              at_units = Int64.float_of_bits (String.get_int64_be s 11) })
    | 5 ->
      expect 32 (fun () ->
          Stats
            { node = int_at 0;
              sent = int_at 8;
              ticks = int_at 16;
              activations = int_at 24 })
    | 6 -> expect 0 (fun () -> Shutdown)
    | 7 ->
      if len - 3 < 8 then err "wire: truncated telemetry body (%d bytes)" (len - 3)
      else
        Ok
          (Telemetry
             { node = int_at 0; records = String.sub s 11 (len - 11) })
    | k -> err "wire: unknown frame kind %d" k

type reader = {
  mutable buf : bytes;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;    (* unconsumed byte count *)
  mutable poisoned : string option;
}

let reader () =
  { buf = Bytes.create 256; start = 0; len = 0; poisoned = None }

let feed r src n =
  if n > 0 then begin
    if r.start + r.len + n > Bytes.length r.buf then begin
      (* Compact, growing only when the live bytes themselves outgrow the
         buffer. *)
      let cap = max (Bytes.length r.buf) (r.len + n) in
      let cap = if cap > Bytes.length r.buf then 2 * cap else cap in
      let fresh = Bytes.create cap in
      Bytes.blit r.buf r.start fresh 0 r.len;
      r.buf <- fresh;
      r.start <- 0
    end;
    Bytes.blit src 0 r.buf (r.start + r.len) n;
    r.len <- r.len + n
  end

let buffered r = r.len

let next r =
  match r.poisoned with
  | Some msg -> Error msg
  | None ->
    if r.len < 4 then Ok None
    else
      let body = Int32.to_int (Bytes.get_int32_be r.buf r.start) in
      if body < 3 || body > max_body then begin
        let msg = Printf.sprintf "wire: implausible frame length %d" body in
        r.poisoned <- Some msg;
        Error msg
      end
      else if r.len < 4 + body then Ok None
      else begin
        let s = Bytes.sub_string r.buf (r.start + 4) body in
        r.start <- r.start + 4 + body;
        r.len <- r.len - 4 - body;
        if r.len = 0 then r.start <- 0;
        match decode_body s with
        | Ok frame -> Ok (Some frame)
        | Error msg ->
          r.poisoned <- Some msg;
          Error msg
      end

let pp_trace ppf = function
  | None -> ()
  | Some { span; lamport; at } ->
    Fmt.pf ppf ", trace(span=%d, lamport=%d, at=%g)" span lamport at

let pp ppf = function
  | Send { link; payload; trace } ->
    Fmt.pf ppf "send(link=%d, %d bytes%a)" link (String.length payload)
      pp_trace trace
  | Deliver { link; payload; trace } ->
    Fmt.pf ppf "deliver(link=%d, %d bytes%a)" link (String.length payload)
      pp_trace trace
  | Stop { node; at_units } -> Fmt.pf ppf "stop(node=%d, t=%g)" node at_units
  | Stats { node; sent; ticks; activations } ->
    Fmt.pf ppf "stats(node=%d, sent=%d, ticks=%d, activations=%d)" node sent
      ticks activations
  | Telemetry { node; records } ->
    Fmt.pf ppf "telemetry(node=%d, %d bytes)" node (String.length records)
  | Shutdown -> Fmt.pf ppf "shutdown"
