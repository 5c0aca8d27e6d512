open Abe_net

let test_ring_structure () =
  let t = Topology.ring 5 in
  Alcotest.(check int) "nodes" 5 (Topology.node_count t);
  Alcotest.(check int) "links" 5 (Topology.link_count t);
  for i = 0 to 4 do
    Alcotest.(check int) "out degree" 1 (Topology.out_degree t i);
    Alcotest.(check int) "in degree" 1 (Topology.in_degree t i);
    let out = Topology.out_links t i in
    Alcotest.(check int) "successor" ((i + 1) mod 5) out.(0).Topology.dst;
    Alcotest.(check int) "link id = src" i out.(0).Topology.id
  done

let test_ring_connectivity () =
  let t = Topology.ring 7 in
  Alcotest.(check (option int)) "diameter n-1" (Some 6) (Topology.diameter t)

let test_bidirectional_ring () =
  let t = Topology.bidirectional_ring 6 in
  Alcotest.(check int) "links" 12 (Topology.link_count t);
  Alcotest.(check (option int)) "diameter n/2" (Some 3) (Topology.diameter t);
  for i = 0 to 5 do
    Alcotest.(check int) "degree 2" 2 (Topology.out_degree t i)
  done

let test_bidirectional_ring_n2 () =
  let t = Topology.bidirectional_ring 2 in
  Alcotest.(check int) "two links, deduped" 2 (Topology.link_count t)

let test_star () =
  let t = Topology.star 5 in
  Alcotest.(check int) "hub degree" 4 (Topology.out_degree t 0);
  Alcotest.(check int) "spoke degree" 1 (Topology.out_degree t 3);
  Alcotest.(check (option int)) "diameter 2" (Some 2) (Topology.diameter t)

let test_complete () =
  let t = Topology.complete 5 in
  Alcotest.(check int) "links" 20 (Topology.link_count t);
  Alcotest.(check (option int)) "diameter 1" (Some 1) (Topology.diameter t)

let test_grid () =
  let t = Topology.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "nodes" 12 (Topology.node_count t);
  (* 2 * (3*3 + 2*4) = horizontal 3*3... directed links: 2*(rows*(cols-1) +
     cols*(rows-1)) = 2*(3*3 + 4*2) = 34 *)
  Alcotest.(check int) "links" 34 (Topology.link_count t);
  Alcotest.(check (option int)) "diameter" (Some 5) (Topology.diameter t)

let test_hypercube () =
  let t = Topology.hypercube ~dim:4 in
  Alcotest.(check int) "nodes" 16 (Topology.node_count t);
  Alcotest.(check int) "links" 64 (Topology.link_count t);
  Alcotest.(check (option int)) "diameter = dim" (Some 4) (Topology.diameter t)

let test_random_tree () =
  let rng = Abe_prob.Rng.create ~seed:5 in
  let t = Topology.random_tree ~n:50 ~rng in
  Alcotest.(check int) "edges of a tree" (2 * 49) (Topology.link_count t);
  Alcotest.(check bool) "strongly connected" true
    (Topology.diameter t <> None)

let test_erdos_renyi_extremes () =
  let rng = Abe_prob.Rng.create ~seed:6 in
  let empty = Topology.erdos_renyi ~n:10 ~p:0. ~rng in
  Alcotest.(check int) "p=0 no links" 0 (Topology.link_count empty);
  Alcotest.(check (option int)) "p=0 disconnected" None
    (Topology.diameter empty);
  let full = Topology.erdos_renyi ~n:10 ~p:1. ~rng in
  Alcotest.(check int) "p=1 complete" 90 (Topology.link_count full)

let test_create_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "self loop" (fun () ->
      Topology.create ~nodes:3 ~edges:[ (1, 1) ]);
  expect_invalid "duplicate edge" (fun () ->
      Topology.create ~nodes:3 ~edges:[ (0, 1); (0, 1) ]);
  expect_invalid "out of range" (fun () ->
      Topology.create ~nodes:3 ~edges:[ (0, 5) ]);
  expect_invalid "ring of 1" (fun () -> Topology.ring 1)

let test_unidirectional_not_symmetric () =
  let t = Topology.ring 4 in
  (* A unidirectional ring is strongly connected but each node has exactly
     one in and one out link, from different neighbours. *)
  let out = Topology.out_links t 1 in
  let in_ = Topology.in_links t 1 in
  Alcotest.(check int) "out to 2" 2 out.(0).Topology.dst;
  Alcotest.(check int) "in from 0" 0 in_.(0).Topology.src

let test_links_indexed () =
  let t = Topology.grid ~rows:2 ~cols:2 in
  Array.iteri
    (fun i l -> Alcotest.(check int) "dense ids" i l.Topology.id)
    (Topology.links t)

let test_spanning_tree_ring () =
  let t = Topology.bidirectional_ring 8 in
  let tree = Topology.bfs_spanning_tree t ~root:0 in
  Alcotest.(check int) "root" 0 tree.Topology.root;
  Alcotest.(check int) "root parent" (-1) tree.Topology.parent.(0);
  Alcotest.(check int) "root depth" 0 tree.Topology.depth.(0);
  (* BFS depths on a bidirectional ring are min(i, n-i). *)
  Array.iteri
    (fun v d ->
       Alcotest.(check int) (Printf.sprintf "depth %d" v) (min v (8 - v)) d)
    tree.Topology.depth;
  (* Parent pointers are consistent with children arrays. *)
  Array.iteri
    (fun v children ->
       Array.iter
         (fun c ->
            Alcotest.(check int) "child's parent" v tree.Topology.parent.(c))
         children)
    tree.Topology.children;
  (* A spanning tree has exactly n-1 edges. *)
  let edges =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 tree.Topology.children
  in
  Alcotest.(check int) "n-1 edges" 7 edges

let test_spanning_tree_unreachable () =
  let rng = Abe_prob.Rng.create ~seed:9 in
  let t = Topology.erdos_renyi ~n:6 ~p:0. ~rng in
  match Topology.bfs_spanning_tree t ~root:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of disconnected topology"

(* Directed hop distances from [src], by breadth-first search. *)
let hop_distances t ~src =
  let dist = Array.make (Topology.node_count t) (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun l ->
         let w = l.Topology.dst in
         if dist.(w) < 0 then begin
           dist.(w) <- dist.(v) + 1;
           Queue.add w queue
         end)
      (Topology.out_links t v)
  done;
  dist

let prop_spanning_tree_depth_is_bfs =
  QCheck.Test.make ~name:"spanning-tree depth equals hop distance" ~count:30
    QCheck.(pair (int_range 2 20) small_int)
    (fun (n, seed) ->
       let rng = Abe_prob.Rng.create ~seed in
       let t = Topology.random_tree ~n ~rng in
       let tree = Topology.bfs_spanning_tree t ~root:0 in
       hop_distances t ~src:0 = tree.Topology.depth)

let prop_ring_diameter =
  QCheck.Test.make ~name:"ring diameter is n-1" ~count:30
    QCheck.(int_range 2 40)
    (fun n -> Topology.diameter (Topology.ring n) = Some (n - 1))

let prop_er_links_bounded =
  QCheck.Test.make ~name:"G(n,p) link count bounded" ~count:50
    QCheck.(pair (int_range 2 30) (float_bound_inclusive 1.))
    (fun (n, p) ->
       let rng = Abe_prob.Rng.create ~seed:(n + int_of_float (p *. 1000.)) in
       let t = Topology.erdos_renyi ~n ~p ~rng in
       let links = Topology.link_count t in
       links mod 2 = 0 && links <= n * (n - 1))

let prop_degrees_sum_to_links =
  QCheck.Test.make ~name:"degree sums equal link count" ~count:30
    QCheck.(int_range 2 20)
    (fun n ->
       let rng = Abe_prob.Rng.create ~seed:n in
       let t = Topology.erdos_renyi ~n ~p:0.4 ~rng in
       let sum_out = ref 0 and sum_in = ref 0 in
       for v = 0 to n - 1 do
         sum_out := !sum_out + Topology.out_degree t v;
         sum_in := !sum_in + Topology.in_degree t v
       done;
       !sum_out = Topology.link_count t && !sum_in = Topology.link_count t)

let () =
  Alcotest.run "topology"
    [ ( "ring",
        [ Alcotest.test_case "structure" `Quick test_ring_structure;
          Alcotest.test_case "connectivity" `Quick test_ring_connectivity;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional_ring;
          Alcotest.test_case "bidirectional n=2" `Quick test_bidirectional_ring_n2;
          Alcotest.test_case "not symmetric" `Quick
            test_unidirectional_not_symmetric ] );
      ( "families",
        [ Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "erdos-renyi extremes" `Quick
            test_erdos_renyi_extremes ] );
      ( "validation",
        [ Alcotest.test_case "bad edges" `Quick test_create_validation;
          Alcotest.test_case "dense link ids" `Quick test_links_indexed ] );
      ( "spanning-tree",
        [ Alcotest.test_case "on a ring" `Quick test_spanning_tree_ring;
          Alcotest.test_case "unreachable" `Quick test_spanning_tree_unreachable ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ring_diameter; prop_er_links_bounded; prop_degrees_sum_to_links;
            prop_spanning_tree_depth_is_bfs ]
      ) ]
