open Abe_prob

type t = {
  models : Delay_model.t array;   (* by link id *)
  delay_rngs : Rng.t array;       (* by link id *)
  handler_rngs : Rng.t array;     (* by node id *)
  clocks : Clock.t array;         (* by node id *)
  clock_rng : Rng.t;              (* the drifting clock stream being
                                     drawn from *)
  mutable loss_rngs : Rng.t array;  (* by link id; empty when loss is off *)
  mutable loss_schedule : float -> float;  (* read only when loss is on *)
}

(* Validation is per-model, not per-link: a link sharing its
   predecessor's (physically equal) model is skipped, which collapses the
   pass from O(links) validations to O(distinct models) on uniform
   networks. *)
let rec validate_models models i =
  if i = Array.length models then Ok ()
  else if i > 0 && models.(i) == models.(i - 1) then
    validate_models models (i + 1)
  else
    match Delay_model.validate models.(i) with
    | () -> validate_models models (i + 1)
    | exception Invalid_argument msg ->
      Error (Printf.sprintf "link %d: %s" i msg)

(* Buffers of the right shape for [topology]; [create] fills them.  The
   placeholders are never read: [create] overwrites every model, stream
   and clock.  The arrays are made before any buffer, from placeholders
   made before all of them: the first [Array.make] of a ring-sized array
   from a young value empties the minor heap, and the ones after it then
   find their placeholder already promoted. *)
let no_model = Delay_model.abd_deterministic ~delay:0.
let no_loss = Fun.const 0.

let allocate topology =
  let blank = Rng.create ~seed:0 in
  let blank_clock = Clock.create Clock.perfect ~rng:blank in
  let links = Topology.link_count topology in
  let n = Topology.node_count topology in
  let fill a make =
    for i = 0 to Array.length a - 1 do
      a.(i) <- make ()
    done;
    a
  in
  let delay_rngs = Array.make links blank in
  let handler_rngs = Array.make n blank in
  let clocks = Array.make n blank_clock in
  let stream () = Rng.copy blank in
  { models = Array.make links no_model;
    delay_rngs = fill delay_rngs stream;
    handler_rngs = fill handler_rngs stream;
    clocks = fill clocks (fun () -> Clock.create Clock.perfect ~rng:blank);
    clock_rng = blank;
    loss_rngs = [||];
    loss_schedule = no_loss }

(* Every stream in the DESIGN §6k order, split into [t]'s existing
   buffers: bit for bit what fresh [Rng.split]s of the same master would
   give, and no allocation unless loss streams appear for the first time.
   A clock keeps only what it drew, so the one [clock_rng] buffer serves
   every drifting clock's stream in turn; a perfect clock draws its phase
   without building a stream. *)
let derive t ~seed ~clock_spec ~loss =
  let master = Rng.create ~seed in
  Array.iter (fun into -> Rng.split_into master ~into) t.delay_rngs;
  for id = 0 to Array.length t.clocks - 1 do
    Rng.split_into master ~into:t.handler_rngs.(id);
    Clock.redraw_split t.clocks.(id) clock_spec ~master ~scratch:t.clock_rng
  done;
  (* The loss block is last, so skipping it when loss is off cannot
     shift any earlier stream; [lost] never draws at probability 0. *)
  let links = Array.length t.models in
  if not loss then t.loss_rngs <- [||]
  else if Array.length t.loss_rngs = links then
    Array.iter (fun into -> Rng.split_into master ~into) t.loss_rngs
  else t.loss_rngs <- Array.init links (fun _ -> Rng.split master)

let create ?reuse ~seed ~clock_spec ?loss_schedule ~delay_of_link topology =
  let links = Topology.links topology in
  let t =
    match reuse with
    | None -> allocate topology
    | Some t ->
      if
        Array.length t.models <> Array.length links
        || Array.length t.clocks <> Topology.node_count topology
      then invalid_arg "Links.create: reuse has another shape";
      t
  in
  Array.iteri
    (fun i link ->
       (* Unchanged on every run of one configuration: skip the write
          barrier. *)
       let model = delay_of_link link in
       if t.models.(i) != model then t.models.(i) <- model)
    links;
  match validate_models t.models 0 with
  | Error _ as e -> e
  | Ok () ->
    derive t ~seed ~clock_spec ~loss:(loss_schedule <> None);
    t.loss_schedule <- Option.value loss_schedule ~default:no_loss;
    Ok t

let[@inline] delay_into t link ~now dst i =
  Delay_model.sample_into t.models.(link) ~now t.delay_rngs.(link) dst i

let draw_loss t link ~now =
  let p = t.loss_schedule now in
  (* NaN fails both comparisons; p = 1 is legal — an always-drop
     interval. *)
  if not (p >= 0. && p <= 1.) then
    invalid_arg
      (Printf.sprintf "Links: loss_schedule returned %g (outside [0,1]) at t=%g"
         p now);
  p > 0. && Rng.bernoulli t.loss_rngs.(link) p

(* Inlined so that a send on a loss-free network pays one length test and
   no call (loss streams exist exactly when a schedule is set). *)
let[@inline] lost t link ~now =
  Array.length t.loss_rngs > 0 && draw_loss t link ~now

let handler_stream t node = t.handler_rngs.(node)
let clock t node = t.clocks.(node)
let delay_stream t link = t.delay_rngs.(link)
let loss_stream t link = t.loss_rngs.(link)
