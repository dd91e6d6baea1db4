(* Differential suite for the graph backends: the same random operation
   sequence is applied to the hash adjacency map (Graph_hash) and the
   compact CSR store (Graph_csr) through the shared Graph_intf.S
   contract, and after EVERY operation the canonical observables —
   sorted accessors, counts, degrees, invariants, mutation return
   values, self-loop rejection — must agree exactly. This is the pin
   that let the engine switch its default backend without touching any
   consumer: anything the rest of the repo can legally observe is
   checked here to be representation-independent. *)

module H = Xheal_graph.Graph_hash
module C = Xheal_graph.Graph_csr
module G = Xheal_graph.Graph
module Edge = Xheal_graph.Edge

(* ------------------------------------------------------------------ *)
(* Canonical observable state of a backend graph.                     *)

module Obs (B : Xheal_graph.Graph_intf.S) = struct
  type snap = {
    nodes : int list;
    edges : (int * int) list;
    num_nodes : int;
    num_edges : int;
    max_node : int option;
    min_degree : int;
    max_degree : int;
    degrees : (int * int * int list) list;  (* (node, degree, sorted neighbours) *)
    volume_all : int;
    invariants : (unit, string) result;
  }

  let snap ~ids g =
    let probe = List.init ids Fun.id in
    {
      nodes = B.nodes g;
      edges = List.map (fun e -> (Edge.src e, Edge.dst e)) (B.edges g);
      num_nodes = B.num_nodes g;
      num_edges = B.num_edges g;
      max_node = B.max_node g;
      min_degree = B.min_degree g;
      max_degree = B.max_degree g;
      (* Probe the whole id space, absent nodes included: absent lookups
         must report degree 0 / no neighbours on both backends. *)
      degrees = List.map (fun u -> (u, B.degree g u, B.neighbors g u)) probe;
      volume_all = B.volume g (B.nodes g);
      invariants = B.check_invariants g;
    }
end

module Oh = Obs (H)
module Oc = Obs (C)

(* The two snap types are distinct nominal records with identical
   shapes; compare field by field. *)
let snaps_agree (a : Oh.snap) (b : Oc.snap) =
  a.Oh.nodes = b.Oc.nodes && a.Oh.edges = b.Oc.edges
  && a.Oh.num_nodes = b.Oc.num_nodes
  && a.Oh.num_edges = b.Oc.num_edges
  && a.Oh.max_node = b.Oc.max_node
  && a.Oh.min_degree = b.Oc.min_degree
  && a.Oh.max_degree = b.Oc.max_degree
  && a.Oh.degrees = b.Oc.degrees
  && a.Oh.volume_all = b.Oc.volume_all
  && a.Oh.invariants = Ok () && b.Oc.invariants = Ok ()

(* ------------------------------------------------------------------ *)
(* Random operation sequences over a small id space (collisions,      *)
(* re-adds and removals of absent things all get exercised).          *)

type op =
  | Add_node of int
  | Remove_node of int
  | Add_edge of int * int
  | Remove_edge of int * int
  | Self_loop of int

let gen_ops ~rng ~ids ~steps =
  List.init steps (fun _ ->
      let id () = Random.State.int rng ids in
      match Random.State.int rng 12 with
      | 0 | 1 -> Add_node (id ())
      | 2 | 3 -> Remove_node (id ())
      | 4 | 5 -> Remove_edge (id (), id ())
      | 6 -> Self_loop (id ())
      | _ -> Add_edge (id (), id ()))

let rejects_self_loop add g u =
  match add g u u with
  | (_ : bool) -> false
  | exception Invalid_argument _ -> true

(* Applies one op to both graphs; false when their behaviour diverges
   (mutation results included — add/remove return values are part of
   the contract). *)
let step hg cg = function
  | Add_node u ->
    H.add_node hg u;
    C.add_node cg u;
    true
  | Remove_node u ->
    H.remove_node hg u;
    C.remove_node cg u;
    true
  | Add_edge (u, v) ->
    if u = v then true
    else
      let rh = H.add_edge hg u v in
      let rc = C.add_edge cg u v in
      rh = rc
  | Remove_edge (u, v) ->
    if u = v then true
    else
      let rh = H.remove_edge hg u v in
      let rc = C.remove_edge cg u v in
      rh = rc
  | Self_loop u -> rejects_self_loop H.add_edge hg u && rejects_self_loop C.add_edge cg u

let run_diff ~seed ~ids ~steps =
  let rng = Random.State.make [| seed; 0xd1ff |] in
  let ops = gen_ops ~rng ~ids ~steps in
  let hg = H.create () and cg = C.create ~capacity:4 () in
  List.for_all
    (fun op -> step hg cg op && snaps_agree (Oh.snap ~ids hg) (Oc.snap ~ids cg))
    ops

let prop_diff =
  QCheck.Test.make ~name:"hash and CSR backends are observably identical" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed -> run_diff ~seed ~ids:14 ~steps:120)

(* Derived constructors must agree too: of_edges, induced subgraph,
   union_into, copy, equal. *)
let prop_derived =
  QCheck.Test.make ~name:"derived constructors agree across backends" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xdead |] in
      let pairs =
        List.init 24 (fun _ -> (Random.State.int rng 12, Random.State.int rng 12))
      in
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      let extra = [ Random.State.int rng 12; Random.State.int rng 12 ] in
      let hg = H.of_edges ~nodes:extra pairs and cg = C.of_edges ~nodes:extra pairs in
      let keep = List.filter (fun u -> u mod 3 <> 0) (H.nodes hg) in
      let hs = H.sub hg keep and cs = C.sub cg keep in
      let hu = H.copy hg and cu = C.copy cg in
      H.union_into ~dst:hu hs;
      C.union_into ~dst:cu cs;
      snaps_agree (Oh.snap ~ids:12 hg) (Oc.snap ~ids:12 cg)
      && snaps_agree (Oh.snap ~ids:12 hs) (Oc.snap ~ids:12 cs)
      && snaps_agree (Oh.snap ~ids:12 hu) (Oc.snap ~ids:12 cu)
      && H.equal hg hg && C.equal cg cg
      && H.equal hu hg && C.equal cu cg)

(* ------------------------------------------------------------------ *)
(* Façade-level cross-backend behaviour.                              *)

let facade_graph ~seed backend =
  let rng = Random.State.make [| seed; 0xface |] in
  let g = G.create ~backend () in
  for _ = 1 to 40 do
    let u = Random.State.int rng 10 and v = Random.State.int rng 10 in
    if u <> v then ignore (G.add_edge g u v)
  done;
  for _ = 1 to 6 do
    G.remove_node g (Random.State.int rng 10)
  done;
  g

let prop_with_backend =
  QCheck.Test.make ~name:"with_backend round-trips preserve equality" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let h = facade_graph ~seed G.Hash in
      let c = G.with_backend G.Csr h in
      let h' = G.with_backend G.Hash c in
      G.backend c = G.Csr && G.backend h' = G.Hash
      && G.equal h c && G.equal c h' && G.nodes h = G.nodes c
      && G.edges h = G.edges c)

let prop_cross_union =
  QCheck.Test.make ~name:"union_into works across façade backends" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let h = facade_graph ~seed G.Hash in
      let c = facade_graph ~seed:(seed + 1) G.Csr in
      (* Union each into a fresh graph of the OTHER backend; both unions
         must agree with each other. *)
      let into_c = G.create ~backend:G.Csr () in
      G.union_into ~dst:into_c h;
      G.union_into ~dst:into_c c;
      let into_h = G.create ~backend:G.Hash () in
      G.union_into ~dst:into_h c;
      G.union_into ~dst:into_h h;
      G.equal into_c into_h
      && G.check_invariants into_c = Ok ()
      && G.check_invariants into_h = Ok ())

(* Id spaces for the pack comparison. [Graph_csr.pack] indexes dense
   id sets directly and falls back to sorting for sparse ones, so the
   spaces cover both: small non-negative ids, a dense run straddling
   zero, and ids split by gaps of 10^6 (Byzantine phantoms live at
   10^6 and up). *)
let id_spaces = [| (fun i -> i); (fun i -> i - 5); (fun i -> if i < 4 then i else 1_000_000 * i) |]

let spaced_graph ~seed backend =
  let rng = Random.State.make [| seed; 0x1d5 |] in
  let id = id_spaces.(seed mod Array.length id_spaces) in
  let g = G.create ~backend () in
  for _ = 1 to 40 do
    let u = Random.State.int rng 10 and v = Random.State.int rng 10 in
    if u <> v then ignore (G.add_edge g (id u) (id v))
  done;
  for _ = 1 to 6 do
    G.remove_node g (id (Random.State.int rng 10))
  done;
  g

let prop_pack =
  QCheck.Test.make ~name:"pack is identical across façade backends" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let h = spaced_graph ~seed G.Hash in
      let c = G.with_backend G.Csr h in
      let ph = G.pack h and pc = G.pack c in
      ph.G.p_ids = pc.G.p_ids && ph.G.row_ptr = pc.G.row_ptr && ph.G.cols = pc.G.cols
      && List.for_all
           (fun u ->
             let i = G.packed_index ph u in
             ph.G.p_ids.(i) = u && ph.G.row_ptr.(i + 1) - ph.G.row_ptr.(i) = G.degree h u)
           (G.nodes h))

let test_pack_tiny () =
  List.iter
    (fun backend ->
      let empty = G.pack (G.create ~backend ()) in
      Alcotest.(check (array int)) "empty ids" [||] empty.G.p_ids;
      Alcotest.(check (array int)) "empty row_ptr" [| 0 |] empty.G.row_ptr;
      Alcotest.(check (array int)) "empty cols" [||] empty.G.cols;
      List.iter
        (fun u ->
          let g = G.create ~backend () in
          G.add_node g u;
          let p = G.pack g in
          Alcotest.(check (array int)) "single id" [| u |] p.G.p_ids;
          Alcotest.(check (array int)) "single row_ptr" [| 0; 0 |] p.G.row_ptr;
          Alcotest.(check (array int)) "single cols" [||] p.G.cols;
          Alcotest.(check int) "single index" 0 (G.packed_index p u))
        [ 0; -7; 1_000_000 ])
    [ G.Hash; G.Csr ]

let suite =
  [
    ( "graph-diff",
      List.map
        (fun t -> QCheck_alcotest.to_alcotest t)
        [ prop_diff; prop_derived; prop_with_backend; prop_cross_union; prop_pack ]
      @ [ Alcotest.test_case "pack of empty and one-node graphs" `Quick test_pack_tiny ] );
  ]
