(* Dynamic partial-order reduction over candidate footprints.

   The engine offers the scheduler up to [max_candidates] eligible events
   per decision point, each carrying a footprint bitmask of the nodes and
   links it can touch (see Engine.candidate.c_foot).  Two candidates with
   disjoint non-zero footprints commute: executing either first reaches
   the same state, so only one order needs exploring.

   The skip rule is sleep-set shaped and purely local to a decision
   point: alternative [p] is skipped iff its footprint is known and
   disjoint from the footprint of every earlier candidate [j < p] — then
   the [p]-first order is a transposition-by-transposition permutation of
   some already-scheduled order [j]-first, through intermediate swaps of
   commuting (disjoint) pairs.  A footprint of 0 means "unknown" and
   conflicts with everything, so unannotated events (fault injection,
   protocol extensions) degrade to full expansion — conservative, never
   unsound.

   Footprint bitmasks fold entity ids into 62 bits (nodes on even bits,
   links on odd — see Abe_net.Network), so distinct entities can share a
   bit on huge topologies.  Sharing merges footprints, which only
   manufactures conflicts: false conflicts cost schedules, never
   soundness. *)

let disjoint a b = a land b = 0

let expandable foots p =
  if p <= 0 || p >= Array.length foots then invalid_arg "Por.expandable";
  if foots.(p) = 0 then true
  else begin
    let skip = ref true in
    (try
       for j = 0 to p - 1 do
         if foots.(j) = 0 || not (disjoint foots.(j) foots.(p)) then begin
           skip := false;
           raise Exit
         end
       done
     with Exit -> ());
    not !skip
  end

type coverage = {
  states : int;
  transitions : int;
  sleep_skips : int;
  collisions : int;
  complete : bool;
}

let pp_coverage ppf c =
  Fmt.pf ppf "%d state%s, %d transition%s, %d commuting skip%s, %d collision%s%s"
    c.states
    (if c.states = 1 then "" else "s")
    c.transitions
    (if c.transitions = 1 then "" else "s")
    c.sleep_skips
    (if c.sleep_skips = 1 then "" else "s")
    c.collisions
    (if c.collisions = 1 then "" else "s")
    (if c.complete then ", complete" else ", truncated")

type 'v search = {
  schedules : int;
  pruned : int;
  coverage : coverage;
  finding : (int * Schedulers.deviations * 'v list) option;
}

(* Bounded DFS over the schedule tree.  A node of the tree is a prefix of
   picks; running it (default picks beyond the prefix) observes the
   candidate count, footprints and pre-decision state digest of every
   decision point on that trajectory.  Alternatives [1..k-1] at each
   point past the prefix become child prefixes — all of them plain, only
   the non-commuting ones under POR (see {!expandable}).

   Pruning is by (digest, ordinal): two trajectories that reach the same
   state digest at the same decision ordinal head identical subtrees (up
   to hash collision and in-flight timing, which the digest cannot see —
   a heuristic, documented as such), so the subtree is expanded only the
   first time.  This collapses, e.g., the factorially many interleavings
   of no-activation ticks.  The table stores each key's candidate count:
   a revisit offering a different count is two distinct states colliding
   on one digest, and is surfaced in the coverage report instead of
   silently mispruned. *)
let search ~por ~window ~budget ~deadline run =
  let schedules = ref 0 in
  let pruned = ref 0 in
  let transitions = ref 0 in
  let sleep_skips = ref 0 in
  let collisions = ref 0 in
  let seen = Hashtbl.create 1024 in
  let stack = ref [ [||] ] in
  let finding = ref None in
  while
    !finding = None && !stack <> [] && !schedules < budget
    && Unix.gettimeofday () <= deadline
  do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
      stack := rest;
      let scheduler, observe = Schedulers.scripted ~window ~prefix () in
      let violations = run scheduler in
      incr schedules;
      let obs = observe () in
      transitions := !transitions + Array.length obs.Schedulers.counts;
      if violations <> [] then begin
        (* Record the schedule by its *executed* picks, not the requested
           prefix: the scripted scheduler clamps out-of-range picks to the
           candidate range actually offered, and only the executed stream
           is guaranteed to replay byte for byte. *)
        let deviations = ref [] in
        Array.iteri
          (fun d pick ->
             if pick <> 0 then deviations := (d, pick) :: !deviations)
          obs.Schedulers.picks;
        finding := Some (!schedules - 1, List.rev !deviations, violations)
      end
      else begin
        let d = ref (Array.length prefix) in
        let stop = ref false in
        while (not !stop) && !d < Array.length obs.Schedulers.counts do
          let key = (obs.Schedulers.digests.(!d), !d) in
          let k = obs.Schedulers.counts.(!d) in
          match Hashtbl.find_opt seen key with
          | Some k' ->
            if k' <> k then incr collisions;
            incr pruned;
            stop := true
          | None ->
            Hashtbl.add seen key k;
            for pick = k - 1 downto 1 do
              if (not por) || expandable obs.Schedulers.foots.(!d) pick
              then begin
                let child = Array.make (!d + 1) 0 in
                Array.blit prefix 0 child 0 (Array.length prefix);
                child.(!d) <- pick;
                stack := child :: !stack
              end
              else incr sleep_skips
            done;
            incr d
        done
      end
  done;
  { schedules = !schedules;
    pruned = !pruned;
    coverage =
      { states = Hashtbl.length seen;
        transitions = !transitions;
        sleep_skips = !sleep_skips;
        collisions = !collisions;
        complete = !stack = [] && !finding = None };
    finding = !finding }
