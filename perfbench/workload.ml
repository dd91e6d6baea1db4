(* Workload inputs, generated from the seed and instance number alone:
   the initial graph and the whole operation sequence are fixed before
   the engine sees any of it, so one seed always hands the engine the
   same inputs, traced or not, monitored or not. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators

type kind = Teardown | Churn_lossy | Batch_monitored

let kinds = [ Teardown; Churn_lossy; Batch_monitored ]

let name = function
  | Teardown -> "teardown"
  | Churn_lossy -> "churn-lossy"
  | Batch_monitored -> "batch-monitored"

let of_name s = List.find_opt (fun k -> name k = s) kinds

type op =
  | Delete of int
  | Detect_delete of int  (** Deletion announced by the heartbeat detector. *)
  | Delete_many of int list
  | Insert of int * int list

type t = { g0 : Graph.t; ops : op array }

let is_repair = function Insert _ -> false | _ -> true

(* Sizes of the three workloads (see README.md for why each was chosen). *)
let teardown_n = 4000
let teardown_share = 0.9
let churn_n = 1000
let churn_rounds = 1000
let batch_n = 500
let batches = 1000
let insert_degree = 3

(* The adversary's view of the live node set: O(1) uniform pick and
   removal by swapping with the last slot. *)
module Live = struct
  type t = { mutable ids : int array; mutable len : int; pos : (int, int) Hashtbl.t }

  let create nodes =
    let ids = Array.of_list nodes in
    let pos = Hashtbl.create (2 * Array.length ids) in
    Array.iteri (fun i v -> Hashtbl.replace pos v i) ids;
    { ids; len = Array.length ids; pos }

  let mem t v = Hashtbl.mem t.pos v

  let add t v =
    if t.len = Array.length t.ids then begin
      let ids = Array.make (max 16 (2 * t.len)) 0 in
      Array.blit t.ids 0 ids 0 t.len;
      t.ids <- ids
    end;
    t.ids.(t.len) <- v;
    Hashtbl.replace t.pos v t.len;
    t.len <- t.len + 1

  let remove t v =
    let i = Hashtbl.find t.pos v in
    let last = t.ids.(t.len - 1) in
    t.ids.(i) <- last;
    Hashtbl.replace t.pos last i;
    Hashtbl.remove t.pos v;
    t.len <- t.len - 1

  let pick t rng = t.ids.(Random.State.int rng t.len)

  (* [k] distinct live nodes (fewer when fewer are live). *)
  let pick_distinct t rng k =
    let rec go acc left =
      if left = 0 || List.length acc = t.len then List.rev acc
      else
        let v = pick t rng in
        if List.mem v acc then go acc left else go (v :: acc) (left - 1)
    in
    go [] k
end

let teardown rng =
  let g0 = Gen.random_h_graph ~rng teardown_n 2 in
  let order = Array.of_list (Graph.nodes g0) in
  Gen.shuffle ~rng order;
  let k = int_of_float (teardown_share *. float_of_int teardown_n) in
  { g0; ops = Array.init k (fun i -> Delete order.(i)) }

(* Every fourth deletion is detector-triggered; each deletion is followed
   by one fresh node wired to [insert_degree] random live nodes. *)
let churn rng =
  let g0 = Gen.random_regular ~rng churn_n 4 in
  let live = Live.create (Graph.nodes g0) in
  let ops = ref [] in
  for r = 0 to churn_rounds - 1 do
    let v = Live.pick live rng in
    Live.remove live v;
    ops := (if (r + 1) mod 4 = 0 then Detect_delete v else Delete v) :: !ops;
    let fresh = churn_n + r in
    let nbrs = Live.pick_distinct live rng insert_degree in
    Live.add live fresh;
    ops := Insert (fresh, nbrs) :: !ops
  done;
  { g0; ops = Array.of_list (List.rev !ops) }

(* Victims of one batch: a random live node plus the nearest live nodes
   of a breadth-first walk from it in G' (the insert-only graph, whose
   surviving edges the healed graph always keeps), neighbours taken in
   random order — so the damage regions of one batch touch. *)
let cluster rng gp live ~size =
  let start = Live.pick live rng in
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen start ();
  let q = Queue.create () in
  Queue.push start q;
  let picked = ref [] and budget = ref 256 in
  while List.length !picked < size && (not (Queue.is_empty q)) && !budget > 0 do
    let u = Queue.pop q in
    decr budget;
    if Live.mem live u then picked := u :: !picked;
    let nbrs = Array.of_list (Graph.neighbors gp u) in
    Gen.shuffle ~rng nbrs;
    Array.iter
      (fun w ->
        if not (Hashtbl.mem seen w) then begin
          Hashtbl.replace seen w ();
          Queue.push w q
        end)
      nbrs
  done;
  List.rev !picked

let batch rng =
  let g0 = Gen.random_regular ~rng batch_n 4 in
  let gp = Graph.copy g0 in
  let live = Live.create (Graph.nodes g0) in
  let ops = ref [] and fresh = ref batch_n in
  for _ = 1 to batches do
    let size = 2 + Random.State.int rng 5 in
    let victims = cluster rng gp live ~size in
    List.iter (Live.remove live) victims;
    ops := Delete_many victims :: !ops;
    List.iter
      (fun _ ->
        let nbrs = Live.pick_distinct live rng insert_degree in
        Graph.add_node gp !fresh;
        List.iter (fun u -> ignore (Graph.add_edge gp !fresh u)) nbrs;
        Live.add live !fresh;
        ops := Insert (!fresh, nbrs) :: !ops;
        incr fresh)
      victims
  done;
  { g0; ops = Array.of_list (List.rev !ops) }

(* Independent instances of one workload per run: the simulated metrics
   are their mean, which steadies them across seeds. *)
let instances = function Teardown -> 2 | Churn_lossy -> 6 | Batch_monitored -> 2

(* An integer seed for one consumer ([tag]) of one instance of a run. *)
let derive ~seed ~instance tag = Hashtbl.hash (seed, instance, tag)

let generate kind ~seed ~instance =
  let rng = Random.State.make [| 0x7e4b; seed; instance |] in
  match kind with Teardown -> teardown rng | Churn_lossy -> churn rng | Batch_monitored -> batch rng
