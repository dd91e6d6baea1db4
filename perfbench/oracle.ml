(* The per-operation correctness oracle. It runs after every engine call,
   outside the timed interval, and names every guarantee the call broke. *)

module Graph = Xheal_graph.Graph
module Cost = Xheal_core.Cost

type observation = {
  raised : string option;  (** The engine call raised this exception. *)
  healed : Graph.t;
  reference : Graph.t;  (** G': the initial graph plus every insertion. *)
  kappa : int;
  report : Cost.report option;  (** The repair's cost report; [None] for insertions. *)
  detect_victim : int option;  (** Victim of a detector-triggered deletion. *)
  new_violations : int;  (** Monitor violations logged by this call. *)
}

(* Connectivity by one breadth-first search of the healed graph.
   [Traversal.is_connected] answers the same, but it packs the graph
   first (a sort, and a binary search per edge): after every operation,
   that doubled the wall time of a teardown run. Node ids are
   non-negative, so a byte per id up to the largest marks the visited. *)
let connected g =
  match Graph.max_node g with
  | None -> true
  | Some top ->
    let seen = Bytes.make (top + 1) '\000' and queue = Queue.create () and reached = ref 0 in
    let visit u =
      if Bytes.get seen u = '\000' then begin
        Bytes.set seen u '\001';
        incr reached;
        Queue.push u queue
      end
    in
    visit top;
    while not (Queue.is_empty queue) do
      Graph.iter_neighbors g (Queue.pop queue) visit
    done;
    !reached = Graph.num_nodes g

let failures o =
  match o.raised with
  | Some e -> [ "raised " ^ e ]
  | None ->
    let degree =
      Xheal_metrics.Degree.report ~kappa:o.kappa ~healed:o.healed ~reference:o.reference
    in
    let checks =
      [
        (not (connected o.healed), "healed graph disconnected");
        (not degree.Xheal_metrics.Degree.bound_ok, "degree above kappa*deg' + 2*kappa");
        ( (match o.report with Some r -> not r.Cost.faults.Cost.converged | None -> false),
          "repair did not converge" );
        ( (match o.detect_victim with Some v -> Graph.has_node o.healed v | None -> false),
          "detector left its victim in place" );
        (o.new_violations > 0, Printf.sprintf "monitor logged %d violation(s)" o.new_violations);
      ]
    in
    List.filter_map (fun (bad, why) -> if bad then Some why else None) checks

(* Planted violations: each must be caught, and a clean observation must
   pass. Returns the names of the plants the oracle missed. *)
let self_test () =
  let path n = Graph.of_edges (List.init (n - 1) (fun i -> (i, i + 1))) in
  let star n = Graph.of_edges (List.init n (fun i -> (0, i + 1))) in
  let clean =
    {
      raised = None;
      healed = path 4;
      reference = path 4;
      kappa = 4;
      report = Some (Cost.empty_report ~seq:1 Cost.Case1);
      detect_victim = None;
      new_violations = 0;
    }
  in
  let unconverged =
    { (Cost.empty_report ~seq:1 Cost.Case1) with
      Cost.faults = { Cost.no_faults with Cost.converged = false } }
  in
  let plants =
    [
      ("raised", { clean with raised = Some "Failure" });
      ("disconnected", { clean with healed = Graph.of_edges [ (0, 1); (2, 3) ] });
      ("degree", { clean with healed = star 20; reference = Graph.of_edges [ (0, 1) ] });
      ("unconverged", { clean with report = Some unconverged });
      ("undetected", { clean with detect_victim = Some 2 });
      ("monitor", { clean with new_violations = 1 });
    ]
  in
  (if failures clean = [] then [] else [ "clean" ])
  @ List.filter_map (fun (name, o) -> if failures o = [] then Some name else None) plants
