(** Work-stealing policy for ready tokens: deterministic victim
    selection with affinity hysteresis.

    Stealing moves only *ready firings* — enabled work whose operands
    are already in hand.  Tokens are location-independent (the token
    store is addressed by node and context, not by PE), so moving a
    firing changes WHERE and WHEN it executes but never WHAT it
    computes; conflicting memory operations stay serialized by access
    tokens regardless.  Hence the final store is unchanged — the
    determinacy grid in test_multiproc.ml enforces exactly that.

    Hysteresis keeps the affinity placement in charge: a PE only steals
    after [hysteresis] consecutive idle cycles, and only from victims
    holding at least [min_victim] ready firings, preferring the closest
    victim under the topology (neighbours first). *)

type spec = {
  hysteresis : int;  (** idle cycles before the first steal attempt *)
  min_victim : int;
      (** victim's minimum ready-queue length; at least 1, a PE with
          nothing ready has nothing to steal *)
}

val default : spec
(** hysteresis 4, min_victim 2. *)

val nearest : Topology.t -> thief:int -> int list -> int option
(** [nearest topo ~thief victims] picks the PE to steal from: the
    candidate at the smallest hop distance from [thief] (never [thief]
    itself), ties broken by the lower PE index — a pure function of the
    candidate set, whatever its order, so simulation stays
    deterministic.  [None] when no other candidate is given.  The
    machine passes only the live PEs holding at least [min_victim]
    ready firings, so the search costs what the eligible set holds, not
    the PE count. *)
