(** Dynamic fractional-permission certificates: per-run translation
    validation in the WaveCert style.

    A translated graph circulates access tokens to serialise memory
    operations; the {e certificate} checks, during execution, that the
    circulation actually enforces the paper's cover discipline.  Each
    cover element starts as one unit of permission, minted by the Start
    firing.  Permission rides token payloads: fan-out splits an
    element's fraction equally over the arcs labelled with it
    ({!Dfg.Graph.arc.tokens}), synchs and merges rejoin the pieces, and
    every memory operation asserts ownership against the {e true} access
    sets recorded in {!Dfg.Graph.cert} — a store must own its elements
    outright (fraction exactly 1), a read must hold a positive fraction.
    At End the permissions retire; quiescence checks each element
    retired exactly 1.

    Because the requirement metadata comes from the alias/cover analysis
    and not from the graph's own token wiring, a mistranslated graph
    cannot vouch for itself: Schema 2 without loop control lets a
    colliding token overwrite another's payload, destroying permission
    that the quiescence account then finds missing; a deliberately
    truncated access set reaches its store without the aliased element's
    permission and fails the ownership assertion outright.

    This subsumes token conservation: the sanitizer counts tokens, the
    certificate tracks {e which right} each token carries.  Certificate
    state snapshots and restores with recovery epochs, so replayed
    firings re-earn their permissions instead of double-counting.

    {b Cost of checking.}  All three engines share one routing
    decision: an engine joins the consumed bags ({!join_slots}), asserts
    ownership ({!on_fire}), names the ports the firing emitted on
    ({!emitted}), routes ({!route}) and reads each arc's bag back
    ({!routed}).  Routing walks the graph's own per-port arc lists, so
    {!create} is O(elements) per run and no label list is built per
    firing.  A firing that consumed no permission (a third to a half of
    all firings on the loop kernels) routes nothing; an element that
    goes whole to one arc travels as the held bag itself; splitting a
    whole element [k] ways uses shared reciprocals.  The clean path of
    a firing therefore allocates only the bags of a genuine split or
    join.  Schema 1 is certified like every other schema: its single
    token carries the one element round every loop trip, and the
    sanitizer's one-fire-per-context rule, not the certificate, is
    what Schema 1 switches off. *)

(** Exact rationals (normalized, native ints).  A pathological
    denominator blow-up raises {!Frac.Overflow} internally and is
    absorbed as a certificate failure, never silent wrap-around. *)
module Frac : sig
  type t

  exception Overflow

  val zero : t
  val one : t
  val is_zero : t -> bool
  val is_one : t -> bool
  val positive : t -> bool
  val add : t -> t -> t
  val div_int : t -> int -> t
  val to_string : t -> string
end

type frac = Frac.t

type bag = (int * frac) list
(** element index -> positive fraction; sorted, no zeros.  The payload
    a token carries. *)

val empty_bag : bag
val join : bag -> bag -> bag
val join_all : bag list -> bag

(** [join_slots bags ~off ~len] — a firing's held bag: the join of
    [bags.(off)] .. [bags.(off + len - 1)] (left to right, as
    {!join_all}); a denominator overflow yields the empty bag, which the
    ownership assertions and the quiescence account then report. *)
val join_slots : bag array -> off:int -> len:int -> bag
val bag_to_string : string array -> bag -> string

type violation =
  | Missing of {
      p_node : int;
      p_label : string;
      p_ctx : Context.t;
      p_elem : string;
      p_need : string;
      p_held : string;
    }  (** a memory operation fired without the required permission *)
  | Lost of { p_node : int; p_label : string; p_elem : string; p_frac : string }
      (** positive permission reached a firing with no labelled outgoing
          delivery to carry it (and the node is not End) *)
  | Unretired of { p_elem : string; p_retired : string }
      (** at quiescence the element's retired total differs from 1:
          permission was destroyed (< 1) or duplicated (> 1) *)

val violation_to_string : violation -> string
val pp_violation : Format.formatter -> violation -> unit

type t

val create : Dfg.Graph.t -> Dfg.Graph.cert -> t
val elements : t -> int
val checks : t -> int

(** All violations recorded so far, in detection order. *)
val violations : t -> violation list

(** The Start firing's bag: full permission for every element. *)
val mint : t -> bag

(** Violations raised by the last {!on_fire} or {!route} call ([[]]
    almost always; also recorded in {!violations}). *)
val fresh : t -> violation list

(** [on_fire t ~node ~ctx held] — assert the certificate requirement if
    [node] is a memory operation, against [held] (the join of the
    consumed bags, see {!join_slots}).  Violations are recorded and
    left in {!fresh}. *)
val on_fire : t -> node:int -> ctx:Context.t -> bag -> unit

(** [emitted t ~port] — record that the firing about to be routed
    emitted on output [port] of its own node (each port at most once per
    firing, in emission order). *)
val emitted : t -> port:int -> unit

(** [route t ~node ~held] — distribute [held] over the firing's actual
    deliveries: every arc of the ports recorded by {!emitted} since the
    last route is a delivery, and each element splits equally over the
    delivered arcs labelled with it ({!Dfg.Graph.arc.tokens}).  At End
    the bag retires instead; a positive fraction with no labelled
    delivery is a Lost violation (recorded, and left in {!fresh}).
    Emissions of other nodes in the same firing (deferred I-structure
    wakeups) carry nothing and are not recorded. *)
val route : t -> node:int -> held:bag -> unit

(** [routed t ~node ~port i] — after {!route}, the bag riding the [i]-th
    arc of [port] of [node]; {!empty_bag} for an unlabelled arc, for a
    node other than the routed one, and after a route of an empty
    bag. *)
val routed : t -> node:int -> port:int -> int -> bag

(** The quiescence account: every element retired exactly 1.  Records
    and returns the discrepancies. *)
val at_quiescence : t -> violation list

(** {1 Checkpoint support} *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
