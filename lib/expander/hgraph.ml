module Edge = Xheal_graph.Edge
module Graph = Xheal_graph.Graph

type t = {
  d : int;
  mutable cycles : Hamilton.t array;
  members : Sampler.t;
}

let create ~rng ~d nodes =
  if d < 1 then invalid_arg "Hgraph.create: need d >= 1";
  let members = Sampler.of_list nodes in
  if Sampler.size members <> List.length nodes then invalid_arg "Hgraph.create: duplicate nodes";
  { d; cycles = Array.init d (fun _ -> Hamilton.random ~rng nodes); members }

let d t = t.d

let kappa t = 2 * t.d

let size t = Sampler.size t.members

let mem t u = Sampler.mem t.members u

let members t = Sampler.to_list t.members

let insert ~rng t u =
  if not (Sampler.add t.members u) then invalid_arg "Hgraph.insert: already a member";
  Array.iter (fun c -> Hamilton.insert_random ~rng c u) t.cycles

let delete t u =
  if Sampler.remove t.members u then Array.iter (fun c -> Hamilton.delete c u) t.cycles

let iter_ring_neighbours t u f = Array.iter (fun c -> f (Hamilton.pred c u) (Hamilton.succ c u)) t.cycles

let rebuild ~rng t =
  let ns = members t in
  t.cycles <- Array.init t.d (fun _ -> Hamilton.random ~rng ns)

let edge_multiset t =
  Array.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc e ->
          Edge.Map.update e (fun k -> Some (1 + Option.value ~default:0 k)) acc)
        acc (Hamilton.edges c))
    Edge.Map.empty t.cycles

let edges t = List.map fst (Edge.Map.bindings (edge_multiset t))

let to_graph t =
  let g = Graph.create () in
  List.iter (fun u -> Graph.add_node g u) (members t);
  List.iter (fun e -> ignore (Graph.add_edge g (Edge.src e) (Edge.dst e))) (edges t);
  g

let max_multiplicity t =
  Edge.Map.fold (fun _ k acc -> max k acc) (edge_multiset t) 0

let check t =
  let expect = members t in
  let rec go i =
    if i >= t.d then Ok ()
    else
      match Hamilton.check t.cycles.(i) with
      | Error e -> Error (Printf.sprintf "cycle %d: %s" i e)
      | Ok () ->
        if Hamilton.nodes t.cycles.(i) <> expect then
          Error (Printf.sprintf "cycle %d covers a different node set" i)
        else go (i + 1)
  in
  go 0
