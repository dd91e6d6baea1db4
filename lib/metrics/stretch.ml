module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal

type report = {
  max_stretch : float;
  worst_pair : (int * int) option;
  pairs_checked : int;
  sources_used : int;
}

let sample_sources ~rng nodes k =
  let a = Array.of_list nodes in
  let n = Array.length a in
  if n <= k then nodes
  else begin
    let rng = match rng with Some r -> r | None -> Random.State.make [| 0xbf5 |] in
    for i = 0 to k - 1 do
      let j = i + Random.State.int rng (n - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.to_list (Array.sub a 0 k)
  end

(* One pack per graph serves every source: each source costs two flat
   BFS sweeps into reused scratch arrays. Targets are scanned in
   survivor order with the comparisons of a per-source distance-table
   scan, so the worst pair (the last disconnected one, else the first
   strict maximum) is the same. *)
let report ?(max_sources = 64) ?rng ~healed ~reference () =
  let survivors = List.filter (Graph.has_node reference) (Graph.nodes healed) in
  let sources = sample_sources ~rng survivors max_sources in
  let hp = Graph.pack healed and rp = Graph.pack reference in
  let hn = Array.length hp.Graph.p_ids and rn = Array.length rp.Graph.p_ids in
  let targets = Array.of_list survivors in
  let th = Array.map (Graph.packed_index hp) targets in
  let tr = Array.map (Graph.packed_index rp) targets in
  let hd = Array.make hn (-1) and hpar = Array.make hn (-1) and hq = Array.make hn 0 in
  let rd = Array.make rn (-1) and rpar = Array.make rn (-1) and rq = Array.make rn 0 in
  let best = ref 1.0 and pair = ref None and pairs = ref 0 in
  List.iter
    (fun s ->
      Array.fill hd 0 hn (-1);
      Array.fill rd 0 rn (-1);
      ignore (Traversal.packed_bfs hp ~dist:hd ~parent:hpar ~queue:hq (Graph.packed_index hp s));
      ignore (Traversal.packed_bfs rp ~dist:rd ~parent:rpar ~queue:rq (Graph.packed_index rp s));
      for k = 0 to Array.length targets - 1 do
        let v = targets.(k) in
        let d_ref = rd.(tr.(k)) in
        (* [d_ref <= 0]: unreachable in G′ (-1), or the source itself. *)
        if v <> s && d_ref > 0 then begin
          incr pairs;
          let d_healed = hd.(th.(k)) in
          if d_healed < 0 then begin
            best := infinity;
            pair := Some (s, v)
          end
          else begin
            let ratio = float_of_int d_healed /. float_of_int d_ref in
            if ratio > !best then begin
              best := ratio;
              pair := Some (s, v)
            end
          end
        end
      done)
    sources;
  { max_stretch = !best; worst_pair = !pair; pairs_checked = !pairs; sources_used = List.length sources }

let max_stretch ?max_sources ?rng ~healed ~reference () =
  (report ?max_sources ?rng ~healed ~reference ()).max_stretch
