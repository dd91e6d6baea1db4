(* Pinned teardown regression: a fixed-seed sequential teardown of a
   400-node degree-2 H-graph, the engine-upkeep workload in miniature.
   Every value below is the engine's output on this exact input; any
   change to cloud edge upkeep, combine or prune that alters the healed
   graph, the cost totals or the operation log fails here. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Edge = Xheal_graph.Edge
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Op = Xheal_core.Op

let n = 400

(* Deletes 90% of the nodes one by one in a seeded order; returns the
   engine and the number of splice operations it logged. *)
let run () =
  let g0 = Gen.random_h_graph ~rng:(Random.State.make [| 41 |]) n 2 in
  let order = Array.of_list (Graph.nodes g0) in
  Gen.shuffle ~rng:(Random.State.make [| 42 |]) order;
  let eng = Xheal.create ~rng:(Random.State.make [| 43 |]) g0 in
  let splices = ref 0 in
  for i = 0 to (9 * n / 10) - 1 do
    Xheal.delete eng order.(i);
    List.iter (function Op.Splice _ -> incr splices | _ -> ()) (Xheal.last_ops eng)
  done;
  (eng, !splices)

let edge_digest g =
  let b = Buffer.create 4096 in
  List.iter
    (fun e -> Buffer.add_string b (Printf.sprintf "%d-%d;" (Edge.src e) (Edge.dst e)))
    (List.sort Edge.compare (Graph.edges g));
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_teardown () =
  let eng, splices = run () in
  (match Xheal.check eng with Ok () -> () | Error e -> Alcotest.failf "invariant: %s" e);
  let g = Xheal.graph eng in
  let tot = Xheal.totals eng in
  Alcotest.(check int) "survivors" (n / 10) (Graph.num_nodes g);
  Alcotest.(check int) "edges" 132 (Graph.num_edges g);
  Alcotest.(check string) "edge digest" "89d3bf1d5a167488167b85c111faa38a" (edge_digest g);
  Alcotest.(check int) "messages" 150041 tot.Cost.total_messages;
  Alcotest.(check int) "rounds" 4059 tot.Cost.total_rounds;
  Alcotest.(check int) "max rounds" 42 tot.Cost.max_rounds;
  Alcotest.(check int) "edges added" 12419 tot.Cost.total_edges_added;
  Alcotest.(check int) "edges removed" 10379 tot.Cost.total_edges_removed;
  Alcotest.(check int) "combines" 160 tot.Cost.combines;
  Alcotest.(check int) "splices" 886 splices

let suite =
  [
    ( "teardown-pin",
      [ Alcotest.test_case "400-node teardown is pinned" `Quick test_pinned_teardown ] );
  ]
