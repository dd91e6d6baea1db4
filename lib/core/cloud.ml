module Edge = Xheal_graph.Edge
module Hgraph = Xheal_expander.Hgraph
module Sampler = Xheal_expander.Sampler

type kind = Primary | Secondary

let kind_to_string = function Primary -> "primary" | Secondary -> "secondary"

type structure = Clique | Expander of Hgraph.t

type t = {
  id : int;
  kind : kind;
  d : int;
  half_rebuild : bool;
  members : Sampler.t;
  mutable structure : structure;
  mutable built_size : int;
  edges : int Edge.Table.t; (* The one edge store; see "Edge store" below. *)
  mutable touched : Edge.t list;
      (* Edges whose entry changed since the last [reconcile] (repeats
         allowed); unused while [full]. *)
  mutable full : bool;
      (* The structure was rebuilt from scratch since the last
         [reconcile], which must then visit every entry. *)
  mutable leader : int option;
  mutable vice : int option;
}

let id t = t.id

let kind t = t.kind

let size t = Sampler.size t.members

let mem t u = Sampler.mem t.members u

let members t = Sampler.to_list t.members

let iter_members t f = Sampler.iter f t.members

let structure_kind t = match t.structure with Clique -> `Clique | Expander _ -> `Expander

let leader t = t.leader

let vice t = t.vice

let clique_threshold t = (2 * t.d) + 1

let refresh_leadership ~rng t =
  (match t.leader with
  | Some l when mem t l -> ()
  | _ -> t.leader <- Sampler.sample ~rng t.members);
  match t.vice with
  | Some w when mem t w && t.leader <> Some w -> ()
  | _ -> (
    t.vice <-
      (match t.leader with
      | None -> None
      | Some l -> Sampler.sample_other ~rng t.members l))

(* ------------------------------------------------------------------ *)
(* Edge store. Each edge's entry packs two facts into one int:
   [2 * multiplicity + held], where the multiplicity counts the
   Hamilton cycles using the edge (1 for a clique edge) and [held] is 1
   iff the network holds the edge for this cloud, i.e. it was desired at
   the last [reconcile] and no endpoint has died since. An edge with
   neither has no entry. A splice changes O(d) entries (three per
   cycle for an H-graph, one per member for a clique); only a structure
   built from scratch is recounted in full. *)

let held v = v land 1 = 1

let set_entry t e v = if v = 0 then Edge.Table.remove t.edges e else Edge.Table.replace t.edges e v

let touch t e = if not t.full then t.touched <- e :: t.touched

let bump t u v delta =
  let e = Edge.make u v in
  set_entry t e ((2 * delta) + Option.value ~default:0 (Edge.Table.find_opt t.edges e));
  touch t e

let bump_clique_edges t u delta = Sampler.iter (fun v -> if v <> u then bump t u v delta) t.members

(* [u] joined (+1) or left (-1) every cycle between [pred] and [succ].
   Rings of an H-graph cloud always have more than κ+1 ≥ 3 nodes, so
   the three edges are distinct and each is on the cycle at most once. *)
let bump_splice t u delta pred succ =
  bump t pred succ (-delta);
  bump t pred u delta;
  bump t u succ delta

(* The structure was rebuilt from scratch: zero every multiplicity,
   keeping what the network holds, and count the new structure. *)
let recount t =
  Edge.Table.filter_map_inplace (fun _ v -> if held v then Some 1 else None) t.edges;
  t.full <- true;
  t.touched <- [];
  match t.structure with
  | Clique -> Sampler.iter (fun u -> Sampler.iter (fun v -> if u < v then bump t u v 1) t.members) t.members
  | Expander h -> Sampler.iter (fun u -> Hgraph.iter_ring_neighbours h u (fun _ s -> bump t u s 1)) t.members

let build_structure ~rng t =
  let ms = members t in
  if size t <= clique_threshold t then t.structure <- Clique
  else t.structure <- Expander (Hgraph.create ~rng ~d:t.d ms);
  t.built_size <- size t;
  recount t

let make ~rng ~id ~kind ~d ~half_rebuild nodes =
  if d < 1 then invalid_arg "Cloud.make: need d >= 1";
  let members = Sampler.of_list nodes in
  let n = Sampler.size members in
  if n <> List.length nodes then invalid_arg "Cloud.make: duplicate nodes";
  let t =
    {
      id;
      kind;
      d;
      half_rebuild;
      members;
      structure = Clique;
      built_size = 0;
      (* d·n bounds the edges of an H-graph, and of a clique (n ≤ 2d+1). *)
      edges = Edge.Table.create (d * n);
      touched = [];
      full = false;
      leader = None;
      vice = None;
    }
  in
  build_structure ~rng t;
  refresh_leadership ~rng t;
  t

let desired_edges t =
  match t.structure with
  | Expander h -> Edge.Set.of_list (Hgraph.edges h)
  | Clique ->
    let ms = members t in
    List.fold_left
      (fun acc u ->
        List.fold_left (fun acc v -> if u < v then Edge.Set.add (Edge.make u v) acc else acc) acc ms)
      Edge.Set.empty ms

let current t =
  (* xlint: order-independent *) (* sorted below *)
  List.sort Edge.compare (Edge.Table.fold (fun e v acc -> if held v then e :: acc else acc) t.edges [])

(* What reconciling an entry pushes: a held edge no longer in the
   structure is removed, a structure edge not held is added. *)
let classify e v (removed, added) =
  if v = 1 then (e :: removed, added) else if held v then (removed, added) else (removed, e :: added)

(* The entry once the network matches the structure. *)
let settled v = if v = 1 then 0 else v lor 1

let reconcile t =
  let removed, added =
    if t.full then begin
      let acc = ref ([], []) in
      (* xlint: order-independent *) (* both lists are sorted below *)
      Edge.Table.filter_map_inplace
        (fun e v ->
          acc := classify e v !acc;
          match settled v with 0 -> None | v -> Some v)
        t.edges;
      !acc
    end
    else
      List.fold_left
        (fun acc e ->
          match Edge.Table.find_opt t.edges e with
          | None -> acc
          | Some v ->
            set_entry t e (settled v);
            classify e v acc)
        ([], []) t.touched
  in
  t.full <- false;
  t.touched <- [];
  (List.sort Edge.compare removed, List.sort Edge.compare added)

(* The network already lost every edge of a dead node: forget that it
   held them. Those are the node's structure edges plus, before the
   next reconcile, edges it has left since the last one. *)
let purge t u =
  let unhold e =
    match Edge.Table.find_opt t.edges e with
    | Some v when held v ->
      set_entry t e (v - 1);
      touch t e
    | _ -> ()
  in
  if t.full then
    Edge.Table.filter_map_inplace
      (fun e v -> if held v && Edge.mem e u then (if v = 1 then None else Some (v - 1)) else Some v)
      t.edges
  else begin
    List.iter (fun e -> if Edge.mem e u then unhold e) t.touched;
    match t.structure with
    | Clique -> Sampler.iter (fun v -> if v <> u then unhold (Edge.make u v)) t.members
    | Expander h ->
      Hgraph.iter_ring_neighbours h u (fun p s ->
          unhold (Edge.make p u);
          unhold (Edge.make u s))
  end

let add_member ~rng t u =
  if not (Sampler.add t.members u) then invalid_arg "Cloud.add_member: already a member";
  (match t.structure with
  | Clique ->
    if size t > clique_threshold t then build_structure ~rng t else bump_clique_edges t u 1
  | Expander h ->
    Hgraph.insert ~rng h u;
    Hgraph.iter_ring_neighbours h u (bump_splice t u 1));
  refresh_leadership ~rng t

let remove_member ~rng t u =
  if not (Sampler.mem t.members u) then false
  else begin
    purge t u;
    ignore (Sampler.remove t.members u);
    let was_leader = t.leader = Some u in
    (match t.structure with
    | Clique -> bump_clique_edges t u (-1)
    | Expander h ->
      if size t <= clique_threshold t then build_structure ~rng t
      else begin
        Hgraph.iter_ring_neighbours h u (bump_splice t u (-1));
        Hgraph.delete h u;
        if t.half_rebuild && 2 * size t < t.built_size then begin
          Hgraph.rebuild ~rng h;
          t.built_size <- size t;
          recount t
        end
      end);
    if was_leader then t.leader <- None;
    if t.vice = Some u then t.vice <- None;
    refresh_leadership ~rng t;
    was_leader
  end

let check t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = size t in
  let leadership_ok =
    match (t.leader, t.vice, n) with
    | None, None, 0 -> true
    | Some l, None, 1 -> mem t l
    | Some l, Some w, _ -> n >= 2 && mem t l && mem t w && l <> w
    | _ -> false
  in
  (* The edge store against a from-scratch recount: the same simple
     edges, and d·n cycle slots over an H-graph (rings have n ≥ 3 nodes,
     so each slot is a distinct edge of its cycle), one per clique edge. *)
  let slots = Edge.Table.fold (fun _ v acc -> acc + (v lsr 1)) t.edges 0 in
  let want_slots =
    match t.structure with Clique -> n * (n - 1) / 2 | Expander _ -> t.d * n
  in
  (* xlint: order-independent *) (* builds a set *)
  let stored =
    Edge.Table.fold (fun e v acc -> if v > 1 then Edge.Set.add e acc else acc) t.edges Edge.Set.empty
  in
  if not leadership_ok then fail "cloud %d: bad leadership for size %d" t.id n
  else if slots <> want_slots || not (Edge.Set.equal stored (desired_edges t)) then
    fail "cloud %d: edge store disagrees with the structure" t.id
  else
    match t.structure with
    | Clique ->
      if n > clique_threshold t then
        fail "cloud %d: clique of size %d exceeds threshold %d" t.id n (clique_threshold t)
      else Ok ()
    | Expander h ->
      if Hgraph.members h <> members t then fail "cloud %d: H-graph member drift" t.id
      else (
        match Hgraph.check h with
        | Ok () -> Ok ()
        | Error e -> fail "cloud %d: %s" t.id e)
