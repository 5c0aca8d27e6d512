type event =
  | Pulse_entered of { node : int; pulse : int }
  | Payload_received of { node : int; node_pulse : int; payload_pulse : int }

type t = {
  skew_bound : int option;
  pulses : int array;
  mutable violations : Abe_sim.Oracle.violation list;  (* reversed *)
  mutable checked : int;
  mutable max_skew : int;
}

let create ?skew_bound ~n () =
  if n < 1 then invalid_arg "Skew.create: n must be >= 1";
  (match skew_bound with
   | Some b when b < 0 -> invalid_arg "Skew.create: skew_bound must be >= 0"
   | Some _ | None -> ());
  { skew_bound;
    pulses = Array.make n 0;
    violations = [];
    checked = 0;
    max_skew = 0 }

let record t ~time ~invariant ~node detail =
  t.violations <-
    { Abe_sim.Oracle.time;
      invariant;
      subject = Printf.sprintf "node %d" node;
      detail }
    :: t.violations

let check_node t name node =
  if node < 0 || node >= Array.length t.pulses then
    invalid_arg (Printf.sprintf "Skew.observe: %s node %d out of range" name node)

let observe t ~time event =
  t.checked <- t.checked + 1;
  match event with
  | Pulse_entered { node; pulse } ->
    check_node t "Pulse_entered" node;
    if pulse <> t.pulses.(node) + 1 then
      record t ~time ~invariant:"round-monotonicity" ~node
        (Printf.sprintf
           "entered pulse %d from pulse %d (rounds must advance by exactly 1)"
           pulse t.pulses.(node));
    (* Track the actual trace even through a violation: one fault, one
       violation, no cascade. *)
    t.pulses.(node) <- pulse
  | Payload_received { node; node_pulse; payload_pulse } ->
    check_node t "Payload_received" node;
    let skew = abs (payload_pulse - node_pulse) in
    if skew > t.max_skew then t.max_skew <- skew;
    (match t.skew_bound with
     | Some bound when skew > bound ->
       record t ~time ~invariant:"bounded-skew" ~node
         (Printf.sprintf
            "payload for pulse %d arrived in pulse %d (skew %d > bound %d)"
            payload_pulse node_pulse skew bound)
     | Some _ | None -> ())

let violations t = List.rev t.violations
let events_checked t = t.checked
let max_skew t = t.max_skew
