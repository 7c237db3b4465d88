(** Online token-conservation sanitizer.

    Determinate schema graphs obey counting invariants that hold for
    {e every} legal execution, independent of timing, placement or
    arrival order:

    - each (node, context) pair fires at most once — the single-token-
      per-arc discipline seen from the firing side (a loop gateway's
      initial fire happens at the {e parent} context and each back-edge
      fire at a distinct body context).  The rule is armed from what the
      translation promises, {!Dfg.Graph.t.iteration_tags}, never from
      the wiring: Schema 1 circulates one access token with no loop
      gateways, so its loop bodies legitimately re-fire at one context
      and the rule is off there; every other schema (the broken Figure
      8 one included, which promises tags it fails to deliver) and every
      hand-built graph keeps it;
    - a switch fires exactly once per data token delivered to it;
    - every activation of a loop (one distinct initial-entry context)
      drives each of its entry gateways exactly once, and leaves through
      exactly one of its exit sites — one distinct exit context per
      activation, with the exit fires bounded by the gateway count (a
      goto program's loop may have several exit sites, of which an
      activation takes one);
    - the matching store drains to empty at quiescence.

    The sanitizer checks these incrementally as the machine runs.  A
    violation is evidence of unmasked corruption — a duplicated token
    the transport missed, a bit-flipped predicate desynchronising a
    loop's gates, a leak — and is what triggers rollback in
    {!Multiproc} when recovery is enabled.  It cannot see value
    corruption that stays structurally legal (there are no checksums);
    that residue is caught by the differential store comparison in
    {!Core.Oracle}.

    The sanitizer's memory must roll back with the machine — see
    {!snapshot}/{!restore} — or every replayed firing would read as a
    double fire.

    {b Cost of checking.}  Every default run is sanitized, so the checks
    are O(1) per event and allocate nothing on the clean path.  Per-node
    facts (switch, loop gateway and its loop) are resolved once in
    {!create}.  What has fired is one bit per node in a row per
    interned context id: {!on_fire} interns a context only when it
    differs physically from the last one seen, and {!on_fire_id} takes
    an id the engine already has (the packed core's frame ids).  Loop
    activations and exits are counted as they happen, so
    {!at_quiescence} is linear in nodes and loops, and
    {!snapshot}/{!restore} are array copies.  On the packed core the
    sanitizer adds 10–25% to a certified firing (E23); the rows take
    [nodes / 8] bytes per context the run creates. *)

type violation =
  | Double_fire of { df_node : int; df_ctx : Context.t }
  | Switch_imbalance of { sw_node : int; sw_in : int; sw_fired : int }
      (** fires vs data tokens delivered on port 0 *)
  | Loop_imbalance of {
      li_loop : int;
      li_activations : int;  (** distinct initial-entry contexts *)
      li_entries : int;  (** initial-group entry-gateway fires *)
      li_entry_gates : int;
      li_exits : int;  (** exit-gateway fires *)
      li_exit_ctxs : int;  (** distinct exit contexts *)
      li_exit_gates : int;
    }
  | Store_leak of { sl_tokens : int; sl_by_pe : (int * int) list }
      (** tokens still waiting in matching stores at quiescence;
          [sl_by_pe] breaks the count down as [(pe, tokens)] pairs on
          multiprocessor runs (non-zero entries only, [] on single-PE) —
          a dead or partitioned PE shows up as the one hoarding the
          leak *)

val violation_to_string : violation -> string
val pp_violation : Format.formatter -> violation -> unit

type t

val create : Dfg.Graph.t -> t

(** [on_delivery t ~node ~port] — count a token delivery (data inflow of
    switches).  Call once per token actually handed to matching. *)
val on_delivery : t -> node:int -> port:int -> unit

(** [on_fire t ~node ~ctx ~group] — record a firing ([group] = matched
    input-array length, which distinguishes a loop gateway's initial
    group from its back edge).  Returns the violation immediately if
    this (node, ctx) has already fired — the rollback trigger. *)
val on_fire : t -> node:int -> ctx:Context.t -> group:int -> violation option

(** [on_fire_id t ~node ~cid ~ctx ~group] — {!on_fire} for a caller that
    interns contexts itself: [cid] is a dense id standing for [ctx], one
    id per distinct context for the sanitizer's whole life (the packed
    engine's frame ids).  Do not mix with {!on_fire} on one [t]. *)
val on_fire_id :
  t -> node:int -> cid:int -> ctx:Context.t -> group:int -> violation option

(** Total firings recorded (used for the replayed-firings metric). *)
val fire_count : t -> int

(** [at_quiescence ?by_pe t ~leftover] — the balance checks that only
    make sense once the machine is quiet: switch in/out balance,
    per-loop entry/exit balance, and the matching-store leak ([leftover]
    tokens still waiting, broken down per PE when the caller supplies
    [by_pe]). *)
val at_quiescence : ?by_pe:(int * int) list -> t -> leftover:int -> violation list

(** {1 Checkpoint support} *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
