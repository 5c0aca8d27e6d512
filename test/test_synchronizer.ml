open Abe_net
open Abe_synchronizer

module Ref_bfs = Reference.Make (Sync_alg.Bfs)
module Ref_flood = Reference.Make (Sync_alg.Flood_max)
module Alpha_bfs = Alpha.Make (Sync_alg.Bfs)
module Alpha_flood = Alpha.Make (Sync_alg.Flood_max)
module Beta_bfs = Beta.Make (Sync_alg.Bfs)
module Beta_flood = Beta.Make (Sync_alg.Flood_max)
module Abd_bfs = Abd_sync.Make (Sync_alg.Bfs)
module Gamma_bfs = Gamma.Make (Sync_alg.Bfs)

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

let abe_delay = Delay_model.abe_exponential ~delta:1.

let test_alpha_bfs_correct_on_abe () =
  let n = 10 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let r = Alpha_bfs.run ~seed:2 ~topology ~delay:abe_delay ~pulses () in
  Alcotest.(check bool) "completed" true r.Alpha_bfs.completed;
  Alcotest.(check bool) "distances match reference" true
    (Array.map Sync_alg.Bfs.distance r.Alpha_bfs.states = ring_distances n)

let test_alpha_flood_correct_on_abe () =
  let n = 8 in
  let topology = Topology.bidirectional_ring n in
  let r =
    Alpha_flood.run ~seed:3 ~topology ~delay:abe_delay ~pulses:((n / 2) + 1) ()
  in
  Alcotest.(check bool) "completed" true r.Alpha_flood.completed;
  Array.iter
    (fun st ->
       Alcotest.(check int) "max is n" n (Sync_alg.Flood_max.current_max st))
    r.Alpha_flood.states

let test_alpha_control_cost_theorem1 () =
  (* Theorem 1's shape: the alpha synchroniser spends >= n control messages
     per pulse no matter how sparse the algorithm is.  Safes alone are
     2m = 2n per pulse on a bidirectional ring. *)
  let n = 12 in
  let topology = Topology.bidirectional_ring n in
  let pulses = 8 in
  let r = Alpha_bfs.run ~seed:4 ~topology ~delay:abe_delay ~pulses () in
  Alcotest.(check bool) "control per pulse >= n" true
    (r.Alpha_bfs.control_per_pulse >= float_of_int n);
  Alcotest.(check int) "safes = 2m * pulses"
    (Topology.link_count topology * pulses)
    r.Alpha_bfs.safe_messages;
  Alcotest.(check int) "one ack per payload" r.Alpha_bfs.payload_messages
    r.Alpha_bfs.ack_messages

let test_alpha_rejects_asymmetric () =
  match
    Alpha_bfs.run ~seed:1 ~topology:(Topology.ring 4) ~delay:abe_delay
      ~pulses:2 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of unidirectional ring"

let test_beta_bfs_correct_on_abe () =
  let n = 10 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let r = Beta_bfs.run ~seed:6 ~topology ~delay:abe_delay ~pulses () in
  Alcotest.(check bool) "completed" true r.Beta_bfs.completed;
  Alcotest.(check bool) "distances match reference" true
    (Array.map Sync_alg.Bfs.distance r.Beta_bfs.states = ring_distances n)

let test_beta_flood_correct_on_abe () =
  let n = 8 in
  let topology = Topology.bidirectional_ring n in
  let r =
    Beta_flood.run ~seed:7 ~topology ~delay:abe_delay ~pulses:((n / 2) + 1) ()
  in
  Alcotest.(check bool) "completed" true r.Beta_flood.completed;
  Array.iter
    (fun st ->
       Alcotest.(check int) "max is n" n (Sync_alg.Flood_max.current_max st))
    r.Beta_flood.states

let test_beta_tree_cost () =
  (* Tree control cost: exactly 2(n-1) tree messages per completed
     round-trip: (n-1) readies up, (n-1) pulses down, for every pulse
     except that the final release also costs (n-1) pulses.  Total tree
     messages = pulses * 2(n-1). *)
  let n = 12 in
  let topology = Topology.bidirectional_ring n in
  let pulses = 6 in
  let r = Beta_bfs.run ~seed:8 ~topology ~delay:abe_delay ~pulses () in
  Alcotest.(check int) "tree messages = 2(n-1) * pulses"
    (2 * (n - 1) * pulses)
    r.Beta_bfs.tree_messages;
  Alcotest.(check int) "one ack per payload" r.Beta_bfs.payload_messages
    r.Beta_bfs.ack_messages;
  (* Theorem 1: still at least n-1 control messages per pulse. *)
  Alcotest.(check bool) "control/pulse >= n-1" true
    (r.Beta_bfs.control_per_pulse >= float_of_int (n - 1))

let test_beta_cheaper_than_alpha () =
  let n = 16 in
  let topology = Topology.bidirectional_ring n in
  let pulses = 10 in
  let alpha = Alpha_bfs.run ~seed:9 ~topology ~delay:abe_delay ~pulses () in
  let beta = Beta_bfs.run ~seed:9 ~topology ~delay:abe_delay ~pulses () in
  Alcotest.(check bool) "beta control below alpha" true
    (beta.Beta_bfs.control_messages < alpha.Alpha_bfs.control_messages)

let test_beta_on_tree_topology () =
  let rng = Abe_prob.Rng.create ~seed:4 in
  let topology = Topology.random_tree ~n:15 ~rng in
  let r = Beta_bfs.run ~seed:10 ~topology ~delay:abe_delay ~pulses:16 () in
  Alcotest.(check bool) "completed" true r.Beta_bfs.completed;
  (* Compare against the reference on the same topology. *)
  let reference = Ref_bfs.run ~seed:10 ~topology ~pulses:16 in
  Alcotest.(check bool) "matches reference" true
    (Array.map Sync_alg.Bfs.distance r.Beta_bfs.states
     = Array.map Sync_alg.Bfs.distance reference.Ref_bfs.states)

let test_beta_rejects_disconnected () =
  let rng = Abe_prob.Rng.create ~seed:5 in
  let topology = Topology.erdos_renyi ~n:10 ~p:0. ~rng in
  match Beta_bfs.run ~seed:1 ~topology ~delay:abe_delay ~pulses:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of disconnected topology"

let test_gamma_clustering_structure () =
  let topology = Topology.bidirectional_ring 12 in
  let c = Gamma.cluster topology ~radius:1 in
  Alcotest.(check int) "every node clustered" 12
    (Array.length c.Gamma.cluster_of);
  (* Radius-1 balls on a ring have at most 3 nodes. *)
  let sizes = Array.make c.Gamma.cluster_count 0 in
  Array.iter (fun cl -> sizes.(cl) <- sizes.(cl) + 1) c.Gamma.cluster_of;
  Array.iter
    (fun s -> if s < 1 || s > 3 then Alcotest.failf "cluster size %d" s)
    sizes;
  (* Tree edges total n - #clusters. *)
  let tree_edges =
    Array.fold_left
      (fun acc ch -> acc + Array.length ch)
      0 c.Gamma.tree_children
  in
  Alcotest.(check int) "tree edges" (12 - c.Gamma.cluster_count) tree_edges;
  (* Preferred links connect distinct adjacent clusters. *)
  List.iter
    (fun (a, b) ->
       if c.Gamma.cluster_of.(a) = c.Gamma.cluster_of.(b) then
         Alcotest.fail "preferred link inside a cluster")
    c.Gamma.preferred

let test_gamma_radius_zero_all_singletons () =
  let topology = Topology.bidirectional_ring 8 in
  let c = Gamma.cluster topology ~radius:0 in
  Alcotest.(check int) "n clusters" 8 c.Gamma.cluster_count;
  (* Every adjacent pair of singleton clusters shares a preferred link. *)
  Alcotest.(check int) "preferred = undirected edges" 8
    (List.length c.Gamma.preferred)

let test_gamma_big_radius_one_cluster () =
  let topology = Topology.bidirectional_ring 8 in
  let c = Gamma.cluster topology ~radius:10 in
  Alcotest.(check int) "one cluster" 1 c.Gamma.cluster_count;
  Alcotest.(check (list (pair int int))) "no preferred links" []
    c.Gamma.preferred

let test_gamma_bfs_correct_on_abe () =
  List.iter
    (fun radius ->
       let n = 12 in
       let topology = Topology.bidirectional_ring n in
       let pulses = (n / 2) + 2 in
       let r =
         Gamma_bfs.run ~seed:(20 + radius) ~topology ~delay:abe_delay ~pulses
           ~radius ()
       in
       Alcotest.(check bool)
         (Printf.sprintf "radius %d completed" radius)
         true r.Gamma_bfs.completed;
       Alcotest.(check bool)
         (Printf.sprintf "radius %d correct" radius)
         true
         (Array.map Sync_alg.Bfs.distance r.Gamma_bfs.states = ring_distances n))
    [ 0; 1; 2; 6 ]

let test_gamma_on_grid () =
  let topology = Topology.grid ~rows:3 ~cols:4 in
  let r =
    Gamma_bfs.run ~seed:5 ~topology ~delay:abe_delay ~pulses:8 ~radius:1 ()
  in
  Alcotest.(check bool) "completed" true r.Gamma_bfs.completed;
  let reference = Ref_bfs.run ~seed:5 ~topology ~pulses:8 in
  Alcotest.(check bool) "matches reference" true
    (Array.map Sync_alg.Bfs.distance r.Gamma_bfs.states
     = Array.map Sync_alg.Bfs.distance reference.Ref_bfs.states)

let test_gamma_interpolates_cost () =
  (* Theorem 1 floor: whatever the radius, control/pulse stays >= n-ish;
     and a single cluster behaves like beta (4 tree messages per edge). *)
  let n = 16 in
  let topology = Topology.bidirectional_ring n in
  let pulses = 10 in
  let run radius =
    Gamma_bfs.run ~seed:7 ~topology ~delay:abe_delay ~pulses ~radius ()
  in
  let single = run 20 in
  Alcotest.(check int) "one cluster" 1 single.Gamma_bfs.clusters;
  Alcotest.(check int) "tree messages 4(n-1) per pulse"
    (4 * (n - 1) * pulses)
    single.Gamma_bfs.tree_messages;
  Alcotest.(check int) "no preferred messages" 0
    single.Gamma_bfs.preferred_messages;
  let singletons = run 0 in
  Alcotest.(check int) "n clusters" n singletons.Gamma_bfs.clusters;
  Alcotest.(check int) "no tree messages" 0 singletons.Gamma_bfs.tree_messages;
  Alcotest.(check int) "preferred 2n per pulse" (2 * n * pulses)
    singletons.Gamma_bfs.preferred_messages;
  List.iter
    (fun radius ->
       let r = run radius in
       Alcotest.(check bool)
         (Printf.sprintf "radius %d floor" radius)
         true
         (r.Gamma_bfs.control_per_pulse >= float_of_int (n - 1)))
    [ 0; 1; 2; 20 ]

let test_required_window () =
  (* The hard bound plus one tick of phase skew on each side, plus one. *)
  Alcotest.(check int) "hard bound 2" 5 (Abd_sync.required_window ~hard_bound:2.)

let test_abd_sync_zero_violations_on_abd () =
  let n = 10 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let abd_delay = Delay_model.abd_uniform ~bound:2. in
  let window = Abd_sync.required_window ~hard_bound:2. in
  for seed = 1 to 10 do
    let r = Abd_bfs.run ~seed ~topology ~delay:abd_delay ~pulses ~window () in
    Alcotest.(check bool) "completed" true r.Abd_bfs.completed;
    Alcotest.(check int) "zero violations under the hard bound" 0
      r.Abd_bfs.violations;
    Alcotest.(check bool) "correct result" true
      (Array.map Sync_alg.Bfs.distance r.Abd_bfs.states = ring_distances n)
  done

let test_abd_sync_violations_on_abe () =
  (* Same mean delay but unbounded support: some messages must be late.
     With exponential(1) delays and a window of ~5 ticks the tail
     probability per message is e^-4 ~ 2%%; across seeds we must see
     violations. *)
  let n = 16 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let window = Abd_sync.required_window ~hard_bound:2. in
  let total_violations = ref 0 in
  for seed = 1 to 20 do
    let r = Abd_bfs.run ~seed ~topology ~delay:abe_delay ~pulses ~window () in
    total_violations := !total_violations + r.Abd_bfs.violations
  done;
  Alcotest.(check bool) "late messages appear on ABE delays" true
    (!total_violations > 0)

let test_abd_sync_message_free () =
  (* The whole point: no acks, no safes — payload only. *)
  let n = 10 in
  let topology = Topology.bidirectional_ring n in
  let pulses = (n / 2) + 2 in
  let abd_delay = Delay_model.abd_uniform ~bound:2. in
  let r = Abd_bfs.run ~seed:2 ~topology ~delay:abd_delay ~pulses ~window:6 () in
  Alcotest.(check bool) "payload below n per pulse" true
    (r.Abd_bfs.payload_messages < n * pulses);
  (* BFS sends each link once: exactly 2n payload messages on the ring. *)
  Alcotest.(check int) "bfs payload = 2n" (2 * n) r.Abd_bfs.payload_messages

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
    (List.map (fun m -> m.Measure.synchroniser) members
     = Measure.[ Alpha; Beta; Gamma 0; Gamma 1; Gamma 2 ]);
  List.iter
    (fun (m : Measure.member) ->
       Alcotest.(check bool) "correct" true m.correct;
       Alcotest.(check bool) "at least n - 1 control messages per pulse" true
         (m.control_per_pulse >= float_of_int (n - 1)))
    members

let prop_gamma_clustering_invariants =
  QCheck.Test.make ~name:"gamma clustering invariants on random trees"
    ~count:40
    QCheck.(triple (int_range 4 24) (int_range 0 4) small_int)
    (fun (n, radius, seed) ->
       let rng = Abe_prob.Rng.create ~seed in
       let topology = Topology.random_tree ~n ~rng in
       let c = Gamma.cluster topology ~radius in
       (* Every node clustered; tree edges = n - clusters; preferred links
          cross clusters; parents are in the same cluster. *)
       Array.for_all (fun cl -> cl >= 0 && cl < c.Gamma.cluster_count)
         c.Gamma.cluster_of
       && Array.fold_left (fun acc ch -> acc + Array.length ch) 0
            c.Gamma.tree_children
          = n - c.Gamma.cluster_count
       && List.for_all
            (fun (a, b) -> c.Gamma.cluster_of.(a) <> c.Gamma.cluster_of.(b))
            c.Gamma.preferred
       && Array.for_all Fun.id
            (Array.init n (fun v ->
                 c.Gamma.tree_parent.(v) < 0
                 || c.Gamma.cluster_of.(c.Gamma.tree_parent.(v))
                    = c.Gamma.cluster_of.(v))))

let prop_alpha_deterministic =
  QCheck.Test.make ~name:"alpha runs are seed-deterministic" ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
       let topology = Topology.bidirectional_ring 6 in
       let run () =
         Alpha_bfs.run ~seed ~topology ~delay:abe_delay ~pulses:5 ()
       in
       let a = run () and b = run () in
       a.Alpha_bfs.payload_messages = b.Alpha_bfs.payload_messages
       && a.Alpha_bfs.control_messages = b.Alpha_bfs.control_messages)

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
          Alcotest.test_case "bfs on grid" `Quick test_reference_bfs_on_grid ] );
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
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_gamma_clustering_invariants;
            prop_alpha_deterministic;
            prop_reference_flood_always_max ] ) ]
