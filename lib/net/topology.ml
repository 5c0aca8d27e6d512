type link = {
  id : int;
  src : int;
  dst : int;
}

type t = {
  nodes : int;
  all_links : link array;
  out_by_node : link array array;
  in_by_node : link array array;
}

let create ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Topology.create: nodes must be positive";
  let seen = Hashtbl.create (List.length edges) in
  let all_links =
    List.mapi
      (fun id (src, dst) ->
         if src < 0 || src >= nodes || dst < 0 || dst >= nodes then
           invalid_arg
             (Printf.sprintf "Topology.create: edge (%d,%d) out of range" src dst);
         if src = dst then
           invalid_arg (Printf.sprintf "Topology.create: self-loop at node %d" src);
         if Hashtbl.mem seen (src, dst) then
           invalid_arg
             (Printf.sprintf "Topology.create: duplicate edge (%d,%d)" src dst);
         Hashtbl.add seen (src, dst) ();
         { id; src; dst })
      edges
    |> Array.of_list
  in
  let collect select =
    let buckets = Array.make nodes [] in
    (* Accumulate in reverse, then reverse per node to preserve order. *)
    Array.iter (fun l -> buckets.(select l) <- l :: buckets.(select l)) all_links;
    Array.map (fun ls -> Array.of_list (List.rev ls)) buckets
  in
  { nodes;
    all_links;
    out_by_node = collect (fun l -> l.src);
    in_by_node = collect (fun l -> l.dst) }

let node_count t = t.nodes
let link_count t = Array.length t.all_links
let out_links t node = t.out_by_node.(node)
let in_links t node = t.in_by_node.(node)
let link t id = t.all_links.(id)
let out_degree t node = Array.length t.out_by_node.(node)
let in_degree t node = Array.length t.in_by_node.(node)
let links t = t.all_links

let ring n =
  if n < 2 then invalid_arg "Topology.ring: needs at least 2 nodes";
  create ~nodes:n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let bidirectional_ring n =
  if n < 2 then invalid_arg "Topology.bidirectional_ring: needs at least 2 nodes";
  let forward = List.init n (fun i -> (i, (i + 1) mod n)) in
  let backward = List.init n (fun i -> ((i + 1) mod n, i)) in
  (* n = 2 would duplicate edges; dedupe through a table. *)
  let edges =
    List.sort_uniq compare (forward @ backward)
  in
  create ~nodes:n ~edges

let both (a, b) = [ (a, b); (b, a) ]

let star n =
  if n < 2 then invalid_arg "Topology.star: needs at least 2 nodes";
  create ~nodes:n
    ~edges:(List.concat_map both (List.init (n - 1) (fun i -> (0, i + 1))))

let complete n =
  if n < 2 then invalid_arg "Topology.complete: needs at least 2 nodes";
  let edges = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if i <> j then edges := (i, j) :: !edges
    done
  done;
  create ~nodes:n ~edges:!edges

let grid_edges ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.grid: empty grid";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let add (r', c') =
        if r' >= 0 && r' < rows && c' >= 0 && c' < cols then
          edges := (id r c, id r' c') :: !edges
      in
      add (r + 1, c);
      add (r - 1, c);
      add (r, c + 1);
      add (r, c - 1)
    done
  done;
  List.sort_uniq compare !edges

let grid ~rows ~cols =
  if rows * cols < 2 then invalid_arg "Topology.grid: needs at least 2 nodes";
  create ~nodes:(rows * cols) ~edges:(grid_edges ~rows ~cols)

let hypercube ~dim =
  if dim < 1 then invalid_arg "Topology.hypercube: dim must be >= 1";
  let n = 1 lsl dim in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to dim - 1 do
      edges := (v, v lxor (1 lsl bit)) :: !edges
    done
  done;
  create ~nodes:n ~edges:(List.sort_uniq compare !edges)

let random_tree ~n ~rng =
  if n < 2 then invalid_arg "Topology.random_tree: needs at least 2 nodes";
  let edges = ref [] in
  for v = 1 to n - 1 do
    let parent = Abe_prob.Rng.int rng v in
    edges := both (parent, v) @ !edges
  done;
  create ~nodes:n ~edges:!edges

let erdos_renyi ~n ~p ~rng =
  if n < 2 then invalid_arg "Topology.erdos_renyi: needs at least 2 nodes";
  if not (p >= 0. && p <= 1.) then invalid_arg "Topology.erdos_renyi: p outside [0,1]";
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Abe_prob.Rng.bernoulli rng p then edges := both (i, j) @ !edges
    done
  done;
  create ~nodes:n ~edges:!edges

(* BFS over a neighbour function; returns hop distances, -1 = unreachable. *)
let bfs_dist ~n ~neighbours ~src =
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun w ->
         if dist.(w) < 0 then begin
           dist.(w) <- dist.(v) + 1;
           Queue.add w queue
         end)
      (neighbours v)
  done;
  dist

let directed_neighbours t v =
  Array.to_list (Array.map (fun l -> l.dst) t.out_by_node.(v))

type spanning_tree = {
  root : int;
  parent : int array;
  children : int array array;
  depth : int array;
}

let bfs_spanning_tree t ~root =
  if root < 0 || root >= t.nodes then
    invalid_arg "Topology.bfs_spanning_tree: root out of range";
  let parent = Array.make t.nodes (-1) in
  let depth = Array.make t.nodes (-1) in
  let children = Array.make t.nodes [] in
  let queue = Queue.create () in
  depth.(root) <- 0;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun l ->
         let w = l.dst in
         if depth.(w) < 0 then begin
           depth.(w) <- depth.(v) + 1;
           parent.(w) <- v;
           children.(v) <- w :: children.(v);
           Queue.add w queue
         end)
      t.out_by_node.(v)
  done;
  if Array.exists (fun d -> d < 0) depth then
    invalid_arg "Topology.bfs_spanning_tree: not all nodes reachable from root";
  { root;
    parent;
    children = Array.map (fun c -> Array.of_list (List.rev c)) children;
    depth }

let diameter t =
  let worst = ref 0 in
  let connected = ref true in
  for src = 0 to t.nodes - 1 do
    let dist = bfs_dist ~n:t.nodes ~neighbours:(directed_neighbours t) ~src in
    Array.iter
      (fun d -> if d < 0 then connected := false else if d > !worst then worst := d)
      dist
  done;
  if !connected then Some !worst else None
