open Abe_net
open Abe_synchronizer

module Ref_bfs = Reference.Make (Sync_alg.Bfs)
module Ref_flood = Reference.Make (Sync_alg.Flood_max)
module Sync_bfs = Synchronizer.Make (Sync_alg.Bfs)
module Sync_flood = Synchronizer.Make (Sync_alg.Flood_max)

let ring_distances n =
  Array.init n (fun i -> Some (min i (n - i)))

let test_reference_bfs_ring () =
  let n = 12 in
  let r =
    Ref_bfs.run ~seed:1 ~topology:(Topology.bidirectional_ring n)
      ~pulses:((n / 2) + 2)
  in
  Alcotest.(check bool) "distances correct" true
    (Array.map Sync_alg.Bfs.distance r.Ref_bfs.states = ring_distances n)

let test_reference_bfs_sparse () =
  (* BFS is sparse: each node sends on each link at most once, so payload
     <= number of directed links. *)
  let n = 16 in
  let topology = Topology.bidirectional_ring n in
  let r = Ref_bfs.run ~seed:1 ~topology ~pulses:(n / 2 + 2) in
  Alcotest.(check bool) "payload bounded by links" true
    (r.Ref_bfs.payload_messages <= Topology.link_count topology)

let test_reference_flood_converges () =
  let n = 10 in
  let r =
    Ref_flood.run ~seed:1 ~topology:(Topology.bidirectional_ring n)
      ~pulses:((n / 2) + 1)
  in
  Array.iter
    (fun st ->
       Alcotest.(check int) "max is n" n (Sync_alg.Flood_max.current_max st))
    r.Ref_flood.states

let test_reference_bfs_on_grid () =
  let topology = Topology.grid ~rows:4 ~cols:5 in
  let r = Ref_bfs.run ~seed:1 ~topology ~pulses:12 in
  (* Node 0 is a corner: distance of node (r,c) is r + c. *)
  Array.iteri
    (fun v st ->
       let row = v / 5 and col = v mod 5 in
       Alcotest.(check (option int))
         (Printf.sprintf "node %d" v)
         (Some (row + col))
         (Sync_alg.Bfs.distance st))
    r.Ref_bfs.states

(* Final states and payload totals of every pulse count up to three times
   the diameter, pinned by md5.  BFS goes quiet after at most the diameter
   plus two pulses, so the longer runs exercise the reference's early
   end. *)
let test_reference_pinned () =
  let topologies =
    [ ("ring", Topology.bidirectional_ring 9);
      ("grid", Topology.grid ~rows:3 ~cols:4);
      ("hypercube", Topology.hypercube ~dim:3);
      ("star", Topology.star 7);
      ("tree", Topology.random_tree ~n:10 ~rng:(Abe_prob.Rng.create ~seed:4)) ]
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun (name, topology) ->
       let diameter = Option.get (Topology.diameter topology) in
       for pulses = 1 to 3 * diameter do
         let bfs = Ref_bfs.run ~seed:3 ~topology ~pulses in
         let flood = Ref_flood.run ~seed:3 ~topology ~pulses in
         Printf.bprintf b "%s %d: %s %d | %s %d\n" name pulses
           (Fmt.str "%a" Fmt.(array ~sep:sp Sync_alg.Bfs.pp_state)
              bfs.Ref_bfs.states)
           bfs.Ref_bfs.payload_messages
           (Fmt.str "%a" Fmt.(array ~sep:sp Sync_alg.Flood_max.pp_state)
              flood.Ref_flood.states)
           flood.Ref_flood.payload_messages
       done)
    topologies;
  Alcotest.(check string) "md5" "a51138e160d319ad5f45bfc2496bbe9b"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let abe_delay = Delay_model.abe_exponential ~delta:1.

let test_alpha_bfs_correct_on_abe () =
  let n = 10 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let r = Sync_bfs.run ~seed:2 ~topology ~delay:abe_delay ~pulses Alpha in
  Alcotest.(check bool) "completed" true r.Sync_bfs.completed;
  Alcotest.(check bool) "distances match reference" true
    (Array.map Sync_alg.Bfs.distance r.Sync_bfs.states = ring_distances n)

let test_alpha_flood_correct_on_abe () =
  let n = 8 in
  let topology = Topology.bidirectional_ring n in
  let r =
    Sync_flood.run ~seed:3 ~topology ~delay:abe_delay ~pulses:((n / 2) + 1) Alpha
  in
  Alcotest.(check bool) "completed" true r.Sync_flood.completed;
  Array.iter
    (fun st ->
       Alcotest.(check int) "max is n" n (Sync_alg.Flood_max.current_max st))
    r.Sync_flood.states

let test_alpha_control_cost_theorem1 () =
  (* Theorem 1's shape: the alpha synchroniser spends >= n control messages
     per pulse no matter how sparse the algorithm is.  Safes alone are
     2m = 2n per pulse on a bidirectional ring. *)
  let n = 12 in
  let topology = Topology.bidirectional_ring n in
  let pulses = 8 in
  let r = Sync_bfs.run ~seed:4 ~topology ~delay:abe_delay ~pulses Alpha in
  Alcotest.(check bool) "control per pulse >= n" true
    (r.Sync_bfs.control_per_pulse >= float_of_int n);
  Alcotest.(check int) "safes = 2m * pulses"
    (Topology.link_count topology * pulses)
    r.Sync_bfs.preferred;
  Alcotest.(check int) "one ack per payload" r.Sync_bfs.payload
    r.Sync_bfs.acks

let test_alpha_rejects_asymmetric () =
  match
    Sync_bfs.run ~seed:1 ~topology:(Topology.ring 4) ~delay:abe_delay
      ~pulses:2 Alpha
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of unidirectional ring"

let test_beta_bfs_correct_on_abe () =
  let n = 10 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let r = Sync_bfs.run ~seed:6 ~topology ~delay:abe_delay ~pulses Beta in
  Alcotest.(check bool) "completed" true r.Sync_bfs.completed;
  Alcotest.(check bool) "distances match reference" true
    (Array.map Sync_alg.Bfs.distance r.Sync_bfs.states = ring_distances n)

let test_beta_flood_correct_on_abe () =
  let n = 8 in
  let topology = Topology.bidirectional_ring n in
  let r =
    Sync_flood.run ~seed:7 ~topology ~delay:abe_delay ~pulses:((n / 2) + 1) Beta
  in
  Alcotest.(check bool) "completed" true r.Sync_flood.completed;
  Array.iter
    (fun st ->
       Alcotest.(check int) "max is n" n (Sync_alg.Flood_max.current_max st))
    r.Sync_flood.states

let test_beta_tree_cost () =
  (* Tree control cost: exactly 2(n-1) tree messages per completed
     round-trip: (n-1) readies up, (n-1) pulses down, for every pulse
     except that the final release also costs (n-1) pulses.  Total tree
     messages = pulses * 2(n-1). *)
  let n = 12 in
  let topology = Topology.bidirectional_ring n in
  let pulses = 6 in
  let r = Sync_bfs.run ~seed:8 ~topology ~delay:abe_delay ~pulses Beta in
  Alcotest.(check int) "tree messages = 2(n-1) * pulses"
    (2 * (n - 1) * pulses)
    r.Sync_bfs.tree;
  Alcotest.(check int) "one ack per payload" r.Sync_bfs.payload
    r.Sync_bfs.acks;
  (* Theorem 1: still at least n-1 control messages per pulse. *)
  Alcotest.(check bool) "control/pulse >= n-1" true
    (r.Sync_bfs.control_per_pulse >= float_of_int (n - 1))

let test_beta_cheaper_than_alpha () =
  let n = 16 in
  let topology = Topology.bidirectional_ring n in
  let pulses = 10 in
  let alpha = Sync_bfs.run ~seed:9 ~topology ~delay:abe_delay ~pulses Alpha in
  let beta = Sync_bfs.run ~seed:9 ~topology ~delay:abe_delay ~pulses Beta in
  Alcotest.(check bool) "beta control below alpha" true
    (beta.Sync_bfs.control_per_pulse < alpha.Sync_bfs.control_per_pulse)

let test_beta_on_tree_topology () =
  let rng = Abe_prob.Rng.create ~seed:4 in
  let topology = Topology.random_tree ~n:15 ~rng in
  let r = Sync_bfs.run ~seed:10 ~topology ~delay:abe_delay ~pulses:16 Beta in
  Alcotest.(check bool) "completed" true r.Sync_bfs.completed;
  (* Compare against the reference on the same topology. *)
  let reference = Ref_bfs.run ~seed:10 ~topology ~pulses:16 in
  Alcotest.(check bool) "matches reference" true
    (Array.map Sync_alg.Bfs.distance r.Sync_bfs.states
     = Array.map Sync_alg.Bfs.distance reference.Ref_bfs.states)

let test_beta_rejects_disconnected () =
  let rng = Abe_prob.Rng.create ~seed:5 in
  let topology = Topology.erdos_renyi ~n:10 ~p:0. ~rng in
  match Sync_bfs.run ~seed:1 ~topology ~delay:abe_delay ~pulses:2 Beta with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of disconnected topology"

let test_gamma_clustering_structure () =
  let topology = Topology.bidirectional_ring 12 in
  let c = Synchronizer.cluster topology ~radius:1 in
  Alcotest.(check int) "every node clustered" 12
    (Array.length c.Synchronizer.cluster_of);
  (* Radius-1 balls on a ring have at most 3 nodes. *)
  let sizes = Array.make c.Synchronizer.cluster_count 0 in
  Array.iter (fun cl -> sizes.(cl) <- sizes.(cl) + 1) c.Synchronizer.cluster_of;
  Array.iter
    (fun s -> if s < 1 || s > 3 then Alcotest.failf "cluster size %d" s)
    sizes;
  (* Tree edges total n - #clusters. *)
  let tree_edges =
    Array.fold_left
      (fun acc ch -> acc + Array.length ch)
      0 c.Synchronizer.tree_children
  in
  Alcotest.(check int) "tree edges" (12 - c.Synchronizer.cluster_count) tree_edges;
  (* Preferred links connect distinct adjacent clusters. *)
  List.iter
    (fun (a, b) ->
       if c.Synchronizer.cluster_of.(a) = c.Synchronizer.cluster_of.(b) then
         Alcotest.fail "preferred link inside a cluster")
    c.Synchronizer.preferred

let test_gamma_radius_zero_all_singletons () =
  let topology = Topology.bidirectional_ring 8 in
  let c = Synchronizer.cluster topology ~radius:0 in
  Alcotest.(check int) "n clusters" 8 c.Synchronizer.cluster_count;
  (* Every adjacent pair of singleton clusters shares a preferred link. *)
  Alcotest.(check int) "preferred = undirected edges" 8
    (List.length c.Synchronizer.preferred)

let test_gamma_big_radius_one_cluster () =
  let topology = Topology.bidirectional_ring 8 in
  let c = Synchronizer.cluster topology ~radius:10 in
  Alcotest.(check int) "one cluster" 1 c.Synchronizer.cluster_count;
  Alcotest.(check (list (pair int int))) "no preferred links" []
    c.Synchronizer.preferred

let test_gamma_bfs_correct_on_abe () =
  List.iter
    (fun radius ->
       let n = 12 in
       let topology = Topology.bidirectional_ring n in
       let pulses = (n / 2) + 2 in
       let r =
         Sync_bfs.run ~seed:(20 + radius) ~topology ~delay:abe_delay ~pulses
           (Gamma radius)
       in
       Alcotest.(check bool)
         (Printf.sprintf "radius %d completed" radius)
         true r.Sync_bfs.completed;
       Alcotest.(check bool)
         (Printf.sprintf "radius %d correct" radius)
         true
         (Array.map Sync_alg.Bfs.distance r.Sync_bfs.states = ring_distances n))
    [ 0; 1; 2; 6 ]

let test_gamma_on_grid () =
  let topology = Topology.grid ~rows:3 ~cols:4 in
  let r =
    Sync_bfs.run ~seed:5 ~topology ~delay:abe_delay ~pulses:8 (Gamma 1)
  in
  Alcotest.(check bool) "completed" true r.Sync_bfs.completed;
  let reference = Ref_bfs.run ~seed:5 ~topology ~pulses:8 in
  Alcotest.(check bool) "matches reference" true
    (Array.map Sync_alg.Bfs.distance r.Sync_bfs.states
     = Array.map Sync_alg.Bfs.distance reference.Ref_bfs.states)

let test_gamma_interpolates_cost () =
  (* Theorem 1 floor: whatever the radius, control/pulse stays >= n-ish;
     and a single cluster behaves like beta (4 tree messages per edge). *)
  let n = 16 in
  let topology = Topology.bidirectional_ring n in
  let pulses = 10 in
  let run radius =
    Sync_bfs.run ~seed:7 ~topology ~delay:abe_delay ~pulses (Gamma radius)
  in
  let single = run 20 in
  Alcotest.(check int) "one cluster" 1 single.Sync_bfs.clusters;
  Alcotest.(check int) "tree messages 4(n-1) per pulse"
    (4 * (n - 1) * pulses)
    single.Sync_bfs.tree;
  Alcotest.(check int) "no preferred messages" 0
    single.Sync_bfs.preferred;
  let singletons = run 0 in
  Alcotest.(check int) "n clusters" n singletons.Sync_bfs.clusters;
  Alcotest.(check int) "no tree messages" 0 singletons.Sync_bfs.tree;
  Alcotest.(check int) "preferred 2n per pulse" (2 * n * pulses)
    singletons.Sync_bfs.preferred;
  List.iter
    (fun radius ->
       let r = run radius in
       Alcotest.(check bool)
         (Printf.sprintf "radius %d floor" radius)
         true
         (r.Sync_bfs.control_per_pulse >= float_of_int (n - 1)))
    [ 0; 1; 2; 20 ]

let test_required_window () =
  (* The hard bound plus one tick of phase skew on each side, plus one. *)
  Alcotest.(check int) "hard bound 2" 5 (Synchronizer.required_window ~hard_bound:2.)

let test_abd_sync_zero_violations_on_abd () =
  let n = 10 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let abd_delay = Delay_model.abd_uniform ~bound:2. in
  let window = Synchronizer.required_window ~hard_bound:2. in
  for seed = 1 to 10 do
    let r = Sync_bfs.run ~seed ~topology ~delay:abd_delay ~pulses (Abd window) in
    Alcotest.(check bool) "completed" true r.Sync_bfs.completed;
    Alcotest.(check int) "zero violations under the hard bound" 0
      r.Sync_bfs.violations;
    Alcotest.(check bool) "correct result" true
      (Array.map Sync_alg.Bfs.distance r.Sync_bfs.states = ring_distances n)
  done

let test_abd_sync_violations_on_abe () =
  (* Same mean delay but unbounded support: some messages must be late.
     With exponential(1) delays and a window of ~5 ticks the tail
     probability per message is e^-4 ~ 2%%; across seeds we must see
     violations. *)
  let n = 16 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let window = Synchronizer.required_window ~hard_bound:2. in
  let total_violations = ref 0 in
  for seed = 1 to 20 do
    let r = Sync_bfs.run ~seed ~topology ~delay:abe_delay ~pulses (Abd window) in
    total_violations := !total_violations + r.Sync_bfs.violations
  done;
  Alcotest.(check bool) "late messages appear on ABE delays" true
    (!total_violations > 0)

let test_abd_sync_message_free () =
  (* The whole point: no acks, no safes — payload only. *)
  let n = 10 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let abd_delay = Delay_model.abd_uniform ~bound:2. in
  let r = Sync_bfs.run ~seed:2 ~topology ~delay:abd_delay ~pulses (Abd 6) in
  Alcotest.(check bool) "payload below n per pulse" true
    (r.Sync_bfs.payload < n * pulses);
  (* BFS sends each link once: exactly 2n payload messages on the ring. *)
  Alcotest.(check int) "bfs payload = 2n" (2 * n) r.Sync_bfs.payload

let test_measure_report () =
  let report = Measure.bfs_comparison ~seed:1 ~n:16 ~delta:1. () in
  Alcotest.(check bool) "alpha correct" true report.Measure.alpha_on_abe.Measure.correct;
  Alcotest.(check bool) "alpha pays >= n per pulse" true
    (report.Measure.alpha_on_abe.Measure.control_per_pulse
     >= float_of_int report.Measure.n);
  Alcotest.(check bool) "abd-on-abd correct, zero violations" true
    (report.Measure.abd_on_abd.Measure.correct
     && report.Measure.abd_on_abd.Measure.violations = 0);
  Alcotest.(check bool) "abd-on-abe has violations" true
    (report.Measure.abd_on_abe.Measure.violations > 0)

let test_measure_family () =
  let n = 8 in
  let members =
    Measure.family ~seed:5 ~gamma_seed:(fun radius -> 10 + radius)
      ~topology:(Topology.bidirectional_ring n)
      ~delay:(Delay_model.abe_exponential ~delta:1.)
      ~pulses:((n / 2) + 2) ~radii:[ 0; 1; 2 ] ()
  in
  Alcotest.(check bool) "alpha, beta, then gamma per radius" true
    (List.map (fun m -> m.Measure.kind) members
     = Synchronizer.[ Alpha; Beta; Gamma 0; Gamma 1; Gamma 2 ]);
  List.iter
    (fun (m : Measure.member) ->
       Alcotest.(check bool) "correct" true m.correct;
       Alcotest.(check bool) "at least n - 1 control messages per pulse" true
         (m.run.control_per_pulse >= float_of_int (n - 1)))
    members

(* Golden: the md5s of every synchroniser's run records, oracle verdicts
   and event order over 210 runs — five topologies, BFS and flood-max,
   seeds 1-3, ABE exponential delays (plus ABD uniform delays for the ABD
   synchroniser).  A pass-through scheduler (it offers every pending event
   and always picks the earliest) records the order in which the engine
   executes events; it changes nothing in the run. *)
module Golden (A : Sync_alg.S) = struct
  module S = Synchronizer.Make (A)

  (* A run record flattened to a line. *)
  let run ~scheduler ~oracle ~seed ~topology ~delay ~pulses kind =
    let r = S.run ~scheduler ~oracle ~seed ~topology ~delay ~pulses kind in
    Fmt.str "[%a] pulses=%d payload=%d acks=%d tree=%d preferred=%d \
             clusters=%d violations=%d completed=%b control/pulse=%h"
      Fmt.(array ~sep:comma A.pp_state)
      r.S.states r.S.pulses r.S.payload r.S.acks r.S.tree r.S.preferred
      r.S.clusters r.S.violations r.S.completed r.S.control_per_pulse
end

module Golden_bfs = Golden (Sync_alg.Bfs)
module Golden_flood = Golden (Sync_alg.Flood_max)

let golden_topologies =
  let rec connected_er seed =
    let t =
      Topology.erdos_renyi ~n:10 ~p:0.3 ~rng:(Abe_prob.Rng.create ~seed)
    in
    if Topology.diameter t = None then connected_er (seed + 1) else t
  in
  [ Topology.bidirectional_ring 8;
    Topology.grid ~rows:3 ~cols:4;
    Topology.hypercube ~dim:3;
    Topology.random_tree ~n:12 ~rng:(Abe_prob.Rng.create ~seed:12);
    connected_er 1 ]

(* The three md5s (run records, oracle counts, event order) of one kind
   over every topology, algorithm and seed. *)
let golden_md5s kind ~delay =
  let records = Buffer.create 4096
  and oracles = Buffer.create 4096
  and order = Buffer.create 65536 in
  let scheduler =
    { Abe_sim.Engine.window = 1e9;
      choose =
        (fun ~now ~state_digest:_ candidates ->
           let c = candidates.(0) in
           Printf.bprintf order "%h %h %d %d;" now c.Abe_sim.Engine.c_time
             c.Abe_sim.Engine.c_foot (Array.length candidates);
           0) }
  in
  List.iter
    (fun topology ->
       List.iter
         (fun run ->
            for seed = 1 to 3 do
              let skew_bound =
                match kind with
                | Synchronizer.Abd _ -> None
                | Alpha | Beta | Gamma _ -> Some 1
              in
              let oracle =
                Skew.create ?skew_bound ~n:(Topology.node_count topology) ()
              in
              Buffer.add_string records
                (run ~scheduler ~oracle ~seed ~topology ~delay ~pulses:6 kind);
              Printf.bprintf oracles "%d %d %d;" (Skew.events_checked oracle)
                (Skew.max_skew oracle)
                (List.length (Skew.violations oracle));
              Buffer.add_char order '|'
            done)
         [ Golden_bfs.run; Golden_flood.run ])
    golden_topologies;
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (md5 records, md5 oracles, md5 order)

let test_golden () =
  let open Synchronizer in
  let abd = Abd (required_window ~hard_bound:2.) in
  let abd_delay = Delay_model.abd_uniform ~bound:2. in
  List.iter
    (fun (label, kind, delay, expected) ->
       let records, oracles, order = golden_md5s kind ~delay in
       Alcotest.(check (list string)) label expected [ records; oracles; order ])
    (* α's rows equal γ's at radius 0: one-node clusters are α. *)
    [ ( "alpha", Alpha, abe_delay,
        [ "05f6b0e3bd4324171eb9f71c89f29b02"; "7659e0c644f2faf030f3f15021134dac";
          "9220443320227a8fe96e8998ad8c2ed3" ] );
      ( "beta", Beta, abe_delay,
        [ "a7562a6504dcb8ec5a5fd6876e80e068"; "c891df2a7d0ede6c85ca6b141157239f";
          "914bcbc138440fa4d41b203243c06fd8" ] );
      ( "gamma 0", Gamma 0, abe_delay,
        [ "05f6b0e3bd4324171eb9f71c89f29b02"; "7659e0c644f2faf030f3f15021134dac";
          "9220443320227a8fe96e8998ad8c2ed3" ] );
      ( "gamma 1", Gamma 1, abe_delay,
        [ "4673bcdfe44cdd6d34719bdcb35dd8ca"; "c891df2a7d0ede6c85ca6b141157239f";
          "5a73c105d5af64a1d68e33221d1871f7" ] );
      ( "gamma 2", Gamma 2, abe_delay,
        [ "b768e503221f071555ff5a510e2d4230"; "c891df2a7d0ede6c85ca6b141157239f";
          "2b7e3b2c8a13681b0a03d1b750d135ce" ] );
      ( "abd on ABE", abd, abe_delay,
        [ "130bc17bf078bfb5eee84f562a2c8f70"; "88ea52a72d014528775c77aba0234a19";
          "3e5841c0e866b04fda480d0de5f1de0e" ] );
      ( "abd on ABD", abd, abd_delay,
        [ "cc5aa521091db560b3a1ca07277d8b4c"; "f01f08d3d2cd2a66d833925f9b2a5cb9";
          "e0c91211cb06666ef64ad916d441ca3e" ] ) ]

let prop_gamma_clustering_invariants =
  QCheck.Test.make ~name:"gamma clustering invariants on random trees"
    ~count:40
    QCheck.(triple (int_range 4 24) (int_range 0 4) small_int)
    (fun (n, radius, seed) ->
       let rng = Abe_prob.Rng.create ~seed in
       let topology = Topology.random_tree ~n ~rng in
       let c = Synchronizer.cluster topology ~radius in
       (* Every node clustered; tree edges = n - clusters; preferred links
          cross clusters; parents are in the same cluster. *)
       Array.for_all (fun cl -> cl >= 0 && cl < c.Synchronizer.cluster_count)
         c.Synchronizer.cluster_of
       && Array.fold_left (fun acc ch -> acc + Array.length ch) 0
            c.Synchronizer.tree_children
          = n - c.Synchronizer.cluster_count
       && List.for_all
            (fun (a, b) -> c.Synchronizer.cluster_of.(a) <> c.Synchronizer.cluster_of.(b))
            c.Synchronizer.preferred
       && Array.for_all Fun.id
            (Array.init n (fun v ->
                 c.Synchronizer.tree_parent.(v) < 0
                 || c.Synchronizer.cluster_of.(c.Synchronizer.tree_parent.(v))
                    = c.Synchronizer.cluster_of.(v))))

let prop_alpha_deterministic =
  QCheck.Test.make ~name:"alpha runs are seed-deterministic" ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
       let topology = Topology.bidirectional_ring 6 in
       let run () =
         Sync_bfs.run ~seed ~topology ~delay:abe_delay ~pulses:5 Alpha
       in
       let a = run () and b = run () in
       a.Sync_bfs.payload = b.Sync_bfs.payload
       && a.Sync_bfs.control_per_pulse = b.Sync_bfs.control_per_pulse)

let prop_reference_flood_always_max =
  QCheck.Test.make ~name:"flood-max converges on connected topologies"
    ~count:30
    QCheck.(pair (int_range 4 20) small_int)
    (fun (n, seed) ->
       let topology = Topology.bidirectional_ring n in
       let r = Ref_flood.run ~seed ~topology ~pulses:((n / 2) + 1) in
       Array.for_all
         (fun st -> Sync_alg.Flood_max.current_max st = n)
         r.Ref_flood.states)

let () =
  Alcotest.run "synchronizer"
    [ ( "reference",
        [ Alcotest.test_case "bfs on ring" `Quick test_reference_bfs_ring;
          Alcotest.test_case "bfs sparse" `Quick test_reference_bfs_sparse;
          Alcotest.test_case "flood converges" `Quick test_reference_flood_converges;
          Alcotest.test_case "bfs on grid" `Quick test_reference_bfs_on_grid;
          Alcotest.test_case "states and payload pinned" `Quick
            test_reference_pinned ] );
      ( "alpha",
        [ Alcotest.test_case "bfs correct on ABE" `Quick
            test_alpha_bfs_correct_on_abe;
          Alcotest.test_case "flood correct on ABE" `Quick
            test_alpha_flood_correct_on_abe;
          Alcotest.test_case "Theorem 1 control cost" `Quick
            test_alpha_control_cost_theorem1;
          Alcotest.test_case "asymmetric rejected" `Quick
            test_alpha_rejects_asymmetric ] );
      ( "beta",
        [ Alcotest.test_case "bfs correct on ABE" `Quick
            test_beta_bfs_correct_on_abe;
          Alcotest.test_case "flood correct on ABE" `Quick
            test_beta_flood_correct_on_abe;
          Alcotest.test_case "tree cost" `Quick test_beta_tree_cost;
          Alcotest.test_case "cheaper than alpha" `Quick
            test_beta_cheaper_than_alpha;
          Alcotest.test_case "tree topology" `Quick test_beta_on_tree_topology;
          Alcotest.test_case "disconnected rejected" `Quick
            test_beta_rejects_disconnected ] );
      ( "gamma",
        [ Alcotest.test_case "clustering structure" `Quick
            test_gamma_clustering_structure;
          Alcotest.test_case "radius 0" `Quick
            test_gamma_radius_zero_all_singletons;
          Alcotest.test_case "big radius" `Quick
            test_gamma_big_radius_one_cluster;
          Alcotest.test_case "bfs correct on ABE" `Quick
            test_gamma_bfs_correct_on_abe;
          Alcotest.test_case "grid" `Quick test_gamma_on_grid;
          Alcotest.test_case "cost interpolation" `Quick
            test_gamma_interpolates_cost ] );
      ( "abd-sync",
        [ Alcotest.test_case "required window" `Quick test_required_window;
          Alcotest.test_case "zero violations on ABD" `Quick
            test_abd_sync_zero_violations_on_abd;
          Alcotest.test_case "violations on ABE" `Quick
            test_abd_sync_violations_on_abe;
          Alcotest.test_case "message free" `Quick test_abd_sync_message_free ] );
      ( "measure",
        [ Alcotest.test_case "bfs comparison (E6)" `Quick test_measure_report;
          Alcotest.test_case "family (E6b)" `Quick test_measure_family ] );
      ( "golden",
        [ Alcotest.test_case "run records, oracle and event order md5s" `Quick
            test_golden ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_gamma_clustering_invariants;
            prop_alpha_deterministic;
            prop_reference_flood_always_max ] ) ]
