module Edge = Xheal_graph.Edge

type t = {
  succ : (int, int) Hashtbl.t;
  pred : (int, int) Hashtbl.t;
  members : Sampler.t;
}

let size t = Sampler.size t.members

let mem t u = Sampler.mem t.members u

let succ t u = Hashtbl.find t.succ u

let pred t u = Hashtbl.find t.pred u

let link t u v =
  Hashtbl.replace t.succ u v;
  Hashtbl.replace t.pred v u

let of_permutation order =
  let n = List.length order in
  let t = { succ = Hashtbl.create n; pred = Hashtbl.create n; members = Sampler.create ~capacity:n () } in
  List.iter
    (fun u -> if not (Sampler.add t.members u) then invalid_arg "Hamilton.of_permutation: duplicate node")
    order;
  (match order with
  | [] -> ()
  | [ u ] -> link t u u
  | first :: _ ->
    let rec chain = function
      | a :: (b :: _ as rest) ->
        link t a b;
        chain rest
      | [ last ] -> link t last first
      | [] -> ()
    in
    chain order);
  t

let random ~rng order =
  let a = Array.of_list order in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  of_permutation (Array.to_list a)

let insert_after t ~anchor u =
  if mem t u then invalid_arg "Hamilton.insert_after: node already on ring";
  if not (mem t anchor) then invalid_arg "Hamilton.insert_after: anchor absent";
  let next = succ t anchor in
  link t anchor u;
  link t u next;
  ignore (Sampler.add t.members u)

let insert_random ~rng t u =
  if mem t u then invalid_arg "Hamilton.insert_random: node already on ring";
  match Sampler.sample ~rng t.members with
  | None ->
    ignore (Sampler.add t.members u);
    link t u u
  | Some anchor -> insert_after t ~anchor u

let delete t u =
  if mem t u then begin
    let p = pred t u and s = succ t u in
    Hashtbl.remove t.succ u;
    Hashtbl.remove t.pred u;
    ignore (Sampler.remove t.members u);
    if p <> u then link t p s
  end

let nodes t = Sampler.to_list t.members

let edges t =
  let set = ref Edge.Set.empty in
  Sampler.iter
    (fun u ->
      let v = succ t u in
      if u <> v then set := Edge.Set.add (Edge.make u v) !set)
    t.members;
  Edge.Set.elements !set

let iter_ring t ~start f =
  if mem t start then begin
    let u = ref start in
    let continue_ = ref true in
    while !continue_ do
      f !u;
      u := succ t !u;
      if !u = start then continue_ := false
    done
  end

let check t =
  let n = size t in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if n = 0 then
    if Hashtbl.length t.succ = 0 && Hashtbl.length t.pred = 0 then Ok ()
    else fail "empty ring with dangling links"
  else if Hashtbl.length t.succ <> n || Hashtbl.length t.pred <> n then
    fail "link tables sized %d/%d for %d members" (Hashtbl.length t.succ) (Hashtbl.length t.pred) n
  else begin
    let bad = ref None in
    Sampler.iter
      (fun u ->
        match (Hashtbl.find_opt t.succ u, Hashtbl.find_opt t.pred u) with
        | Some s, Some _ ->
          if not (mem t s) then bad := Some (Printf.sprintf "succ %d = %d not a member" u s)
          else if Hashtbl.find_opt t.pred s <> Some u then
            bad := Some (Printf.sprintf "pred (succ %d) <> %d" u u)
        | _ -> bad := Some (Printf.sprintf "node %d missing links" u))
      t.members;
    match !bad with
    | Some msg -> Error msg
    | None ->
      (* Single-cycle coverage. *)
      let start = List.hd (nodes t) in
      let visited = ref 0 in
      iter_ring t ~start (fun _ -> incr visited);
      if !visited = n then Ok () else fail "ring splits: visited %d of %d" !visited n
  end
