(** Affinity clustering of dataflow nodes by union-find.

    Moved here from [Machine.Placement] so both the flat affinity
    policy and the hierarchical placer share one clustering — the
    resulting roots are bit-identical to the seed affinity placement. *)

val roots : Dfg.Graph.t -> int array
(** [roots g] maps every node id to its cluster representative (the
    smallest node id in the cluster).  Clusters follow schema traffic:
    variable access-token chains, expression trees riding with the
    memory op they feed, control nodes attached to their variable's
    chain; Start/End never join a union.  Runs in O(N + E) for N nodes
    and E arcs: one pass over the arcs, one over the nodes. *)

val sizes : int array -> (int * int) list
(** [(root, member-count)] pairs sorted largest cluster first, ties on
    the lower root id — the deterministic bin-packing order. *)
