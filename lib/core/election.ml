type phase = Idle | Active | Passive | Leader

type state = {
  phase : phase;
  d : int;
}

type message = int

type reaction = Forward | Purge | Elected

(* [passive.(d)]: the one passive state with watermark [d], shared by
   every node, every run and every domain of a configuration (states are
   immutable). *)
type rule = {
  n : int;
  passive : state array;
}

let initial = { phase = Idle; d = 1 }

let activation_probability ~a0 ~d =
  if not (a0 > 0. && a0 < 1.) then
    invalid_arg "Election.activation_probability: a0 outside (0,1)";
  if d < 1 then invalid_arg "Election.activation_probability: d must be >= 1";
  1. -. ((1. -. a0) ** float_of_int d)

let tick_decision ~a0 ~rng state =
  match state.phase with
  | Active | Passive | Leader -> (state, false)
  | Idle ->
    if Abe_prob.Rng.bernoulli rng (activation_probability ~a0 ~d:state.d) then
      ({ state with phase = Active }, true)
    else (state, false)

let rule ~n =
  if n < 2 then invalid_arg "Election.rule: n must be >= 2";
  { n; passive = Array.init (n + 1) (fun d -> { phase = Passive; d }) }

let check_hop rule hop =
  if hop < 1 || hop > rule.n then
    invalid_arg (Printf.sprintf "Election: hop %d outside [1,%d]" hop rule.n)

(* What the message does next depends only on the receiver's phase and on
   whether the token has come all the way round: [receive] below gives the
   receiver's new state. *)
let reaction rule state hop =
  check_hop rule hop;
  match state.phase with
  | Idle | Passive -> if hop = rule.n then Purge else Forward
  | Active -> if hop = rule.n then Elected else Purge
  | Leader -> Purge

(* [d] only boosts the activation probability; the forwarded counter is
   [hop + 1], the true link count.  Forwarding [d + 1] (an earlier bug) let
   a stale watermark inflate a token's hop count past the links it had
   traversed — a path to a false leader.

   Every forward returns a shared passive record, or the state it was
   given when the watermark stays: a hop allocates nothing, and the
   ring's state arrays, which outlive their runs, never point into the
   minor heap for a knockout.  Only a purge at an active node, an
   election and an orphan that raises an idle watermark build a
   record. *)
let receive rule state hop =
  check_hop rule hop;
  let d = if hop > state.d then hop else state.d in
  match state.phase with
  | Idle ->
    if hop = rule.n then
      (* An orphan token that circumnavigated without meeting an active
         node (its origin has since been knocked out and re-idled).  It
         carries no further information — [d] is raised to [n] — and
         forwarding would push the counter past [n], so purge.  The node
         stays idle: with the origin idle too, someone must still be able
         to activate. *)
      if d = state.d then state else { phase = Idle; d }
    else rule.passive.(d)
  | Passive -> if d = state.d then state else rule.passive.(d)
  | Active -> { phase = (if hop = rule.n then Leader else Idle); d }
  | Leader ->
    (* A leader never receives in a well-formed run: its own token was the
       last message on the ring.  Treat defensively as a purge. *)
    if d = state.d then state else { phase = Leader; d }

let pp_phase ppf = function
  | Idle -> Format.pp_print_string ppf "idle"
  | Active -> Format.pp_print_string ppf "active"
  | Passive -> Format.pp_print_string ppf "passive"
  | Leader -> Format.pp_print_string ppf "leader"

let pp_state ppf s = Fmt.pf ppf "%a(d=%d)" pp_phase s.phase s.d

let pp_message ppf hop = Fmt.pf ppf "<%d>" hop
