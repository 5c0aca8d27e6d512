open Abe_prob

type t = {
  models : Delay_model.t array;   (* by link id *)
  delay_rngs : Rng.t array;       (* by link id *)
  handler_rngs : Rng.t array;     (* by node id *)
  clocks : Clock.t array;         (* by node id *)
  loss_rngs : Rng.t array;        (* by link id; empty when loss is off *)
  loss_probability : float;
  loss_schedule : (float -> float) option;
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

let create ~seed ~clock_spec ?loss_schedule ~loss_probability ~delay_of_link
    topology =
  if not (loss_probability >= 0. && loss_probability <= 1.) then
    Error "loss_probability outside [0,1]"
  else
    let models = Array.map delay_of_link (Topology.links topology) in
    match validate_models models 0 with
    | Error _ as e -> e
    | Ok () ->
      let master = Rng.create ~seed in
      let links = Array.length models and n = Topology.node_count topology in
      let delay_rngs = Array.init links (fun _ -> Rng.split master) in
      let handler_rngs = Array.make n master in
      (* [Array.init] applies its function in index order.  A clock keeps
         only what it drew, so the clock streams die here. *)
      let clocks =
        Array.init n (fun id ->
            handler_rngs.(id) <- Rng.split master;
            Clock.create clock_spec ~rng:(Rng.split master))
      in
      (* The loss block is last, so skipping it when loss is off cannot
         shift any earlier stream; [lost] never draws at probability 0. *)
      let loss_rngs =
        if loss_probability = 0. && loss_schedule = None then [||]
        else Array.init links (fun _ -> Rng.split master)
      in
      Ok { models; delay_rngs; handler_rngs; clocks; loss_rngs;
           loss_probability; loss_schedule }

let[@inline] delay t link ~now =
  Delay_model.sample_at t.models.(link) ~now t.delay_rngs.(link)

let draw_loss t link ~now =
  let p =
    match t.loss_schedule with
    | None -> t.loss_probability
    | Some schedule ->
      let p = schedule now in
      (* NaN fails both comparisons; p = 1 is legal — an always-drop
         interval. *)
      if not (p >= 0. && p <= 1.) then
        invalid_arg
          (Printf.sprintf
             "Links: loss_schedule returned %g (outside [0,1]) at t=%g" p now);
      p
  in
  p > 0. && Rng.bernoulli t.loss_rngs.(link) p

(* Inlined so that a send on a loss-free network pays one length test and
   no call (loss streams exist exactly when loss can be non-zero). *)
let[@inline] lost t link ~now =
  Array.length t.loss_rngs > 0 && draw_loss t link ~now

let handler_stream t node = t.handler_rngs.(node)
let clock t node = t.clocks.(node)
let delay_stream t link = t.delay_rngs.(link)
let loss_stream t link = t.loss_rngs.(link)
