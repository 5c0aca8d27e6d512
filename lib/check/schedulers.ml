(* Concrete scheduling policies over Abe_sim.Engine's scheduler hook.

   Every policy numbers the decision points of a run 0, 1, 2, ... in the
   order the engine consults it.  Because the engine is deterministic given
   the choices, the ordinal stream of a run is itself reproducible: a
   second run that makes the same picks at the same ordinals sees exactly
   the same decision points.  That is what makes the sparse
   [(ordinal, pick)] encoding a complete record of a schedule. *)

type deviations = (int * int) list

let default_window = 0.5

let check_window window =
  if not (Float.is_finite window) || window < 0. then
    invalid_arg "Schedulers: window must be finite and non-negative"

let fuzz ~window ~flip ~seed () =
  check_window window;
  if not (flip >= 0. && flip <= 1.) then
    invalid_arg "Schedulers.fuzz: flip probability outside [0,1]";
  let rng = Abe_prob.Rng.create ~seed in
  let recorded = ref [] in
  let ordinal = ref 0 in
  let choose ~now:_ ~state_digest:_ candidates =
    let d = !ordinal in
    incr ordinal;
    (* Two draws per decision point regardless of the flip outcome, so the
       pick stream at ordinal [d] never depends on earlier flip results
       beyond their count. *)
    let flip_draw = Abe_prob.Rng.unit_float rng in
    let pick_draw = Abe_prob.Rng.int rng (Array.length candidates) in
    let pick = if flip_draw < flip then pick_draw else 0 in
    if pick <> 0 then recorded := (d, pick) :: !recorded;
    pick
  in
  ({ Abe_sim.Engine.window; choose }, fun () -> List.rev !recorded)

let replay ~window deviations =
  check_window window;
  let table = Hashtbl.create 16 in
  List.iter
    (fun (d, p) ->
       if d < 0 || p < 0 then
         invalid_arg "Schedulers.replay: negative ordinal or pick";
       Hashtbl.replace table d p)
    deviations;
  let ordinal = ref 0 in
  let choose ~now:_ ~state_digest:_ candidates =
    let d = !ordinal in
    incr ordinal;
    match Hashtbl.find_opt table d with
    | Some p when p < Array.length candidates -> p
    | Some _ | None -> 0
  in
  { Abe_sim.Engine.window; choose }

type observation = {
  counts : int array;   (* candidate count at each decision point *)
  digests : int array;  (* pre-decision state digest at each point *)
  picks : int array;    (* pick actually executed at each point *)
  foots : int array array;  (* candidate footprints at each point *)
}

let scripted ~window ~prefix () =
  check_window window;
  Array.iter
    (fun p -> if p < 0 then invalid_arg "Schedulers.scripted: negative pick")
    prefix;
  let counts = ref [] in
  let digests = ref [] in
  let picks = ref [] in
  let foots = ref [] in
  let ordinal = ref 0 in
  let choose ~now:_ ~state_digest candidates =
    let d = !ordinal in
    incr ordinal;
    let k = Array.length candidates in
    counts := k :: !counts;
    digests := state_digest :: !digests;
    foots :=
      Array.map (fun c -> c.Abe_sim.Engine.c_foot) candidates :: !foots;
    let pick = if d < Array.length prefix then min prefix.(d) (k - 1) else 0 in
    picks := pick :: !picks;
    pick
  in
  ( { Abe_sim.Engine.window; choose },
    fun () ->
      { counts = Array.of_list (List.rev !counts);
        digests = Array.of_list (List.rev !digests);
        picks = Array.of_list (List.rev !picks);
        foots = Array.of_list (List.rev !foots) } )

let quantile ~window () = replay ~window []
