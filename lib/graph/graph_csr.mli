(** Compact int-array backend: free-list node slots, sorted packed
    neighbour runs (DESIGN.md §4h).

    Membership is a binary search over a node's run; [iter_neighbors]
    visits in ascending (canonical) order; mutation shifts an array
    tail per endpoint. Iteration orders are deterministic functions of
    the operation history — no hashing is involved. See {!Graph_intf.S}
    for the contract and {!Graph} for the façade all consumers use. *)

include Graph_intf.S

(** {1 Packed view} *)

type packed = {
  p_ids : int array;  (** packed index -> node id, ascending. *)
  row_ptr : int array;  (** length [n+1]. *)
  cols : int array;  (** neighbour packed indices, sorted per row. *)
}

val pack : t -> packed
(** Frozen CSR snapshot with nodes re-indexed [0 .. n-1] in ascending
    id order. Linear time when the node ids span at most a small
    multiple of [n + m] (a direct id map); sparser id sets are sorted
    and binary-searched instead. Both give the same record. *)

val packed_index : packed -> int -> int
(** Packed index of a node id (binary search).
    @raise Invalid_argument when the node is not in the view. *)
