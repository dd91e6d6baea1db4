(** Expander clouds — the paper's repair unit. A cloud is a set of nodes
    carrying either a clique (when the set is small, [size ≤ κ+1]) or a
    κ-regular Law–Siu H-graph. Every cloud has a unique id, which doubles
    as its edge color, and a randomly chosen leader/vice-leader pair as in
    Section 5's invariants.

    A cloud only describes its *desired* edge set; the engine reconciles
    it against the live network through {!Ownership} (see [Xheal.sync]).
    The cloud keeps one edge store: each edge with its multiplicity over
    the Hamilton cycles and whether the network holds it for this cloud.
    A splice updates it in O(d) and {!reconcile} then pushes only the
    edges whose multiplicity crossed zero; only a structure rebuilt from
    scratch (a new cloud, a clique↔H-graph change, the half-loss
    rebuild) is diffed in full. *)

type kind = Primary | Secondary

val kind_to_string : kind -> string

type t

val make :
  rng:Random.State.t ->
  id:int ->
  kind:kind ->
  d:int ->
  half_rebuild:bool ->
  int list ->
  t
(** Fresh cloud over the given distinct nodes. [d] Hamilton cycles
    ([κ = 2d]); [half_rebuild] enables the paper's re-randomization after
    a cloud halves. *)

val id : t -> int

val kind : t -> kind

val size : t -> int

val mem : t -> int -> bool

val members : t -> int list
(** Sorted. *)

val iter_members : t -> (int -> unit) -> unit

val structure_kind : t -> [ `Clique | `Expander ]

val leader : t -> int option

val vice : t -> int option

val desired_edges : t -> Xheal_graph.Edge.Set.t
(** The structure's simple edges, recomputed from scratch. *)

val current : t -> Xheal_graph.Edge.t list
(** Sorted edges the network holds for this cloud: the desired edges as
    of the last {!reconcile}, less those of members removed since. *)

val reconcile : t -> Xheal_graph.Edge.t list * Xheal_graph.Edge.t list
(** [(removed, added)], each sorted: the edges to take out of and to put
    into the network so that it holds exactly {!desired_edges}. Costs
    O(edges changed since the last call), not O(cloud size). *)

val add_member : rng:Random.State.t -> t -> int -> unit
(** Splices the node into the H-graph (or grows the clique, upgrading to
    an H-graph past the size threshold).
    @raise Invalid_argument if already a member. *)

val remove_member : rng:Random.State.t -> t -> int -> bool
(** Removes a member the adversary deleted, downgrading to a clique at
    the threshold and re-randomizing after half-loss when enabled. Its
    edges left the network with it, so {!reconcile} does not report them
    as removed. Returns [true] iff the removed node was the leader (the
    caller charges the leader-handoff message cost). No-op returning
    [false] if not a member. *)

val check : t -> (unit, string) result
(** Structure/member consistency, leadership validity, H-graph rings,
    and the edge store against a from-scratch recount. *)
