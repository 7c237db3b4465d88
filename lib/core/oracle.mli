(** The differential schema oracle: translation validation at scale.

    The paper's soundness claim is that every applicable translation
    schema (1, 2, 2-opt, 3 with each cover, plus the Section 6
    transforms) produces a graph whose machine execution reproduces the
    reference interpreter's final store.  The oracle checks that claim
    mechanically: it compiles a program under {e every} applicable
    schema × transform × cover combination, runs each on the ETS
    machine, checks {!Dfg.Check} invariants, and compares stores against
    {!Imp.Eval}.  On a divergence it shrinks the failing program to a
    minimal reproducer (greedy first-improvement over a structural
    shrinker, QCheck-style).

    [selfcheck] drives this over seeded random programs
    ({!Workloads.Random_gen.structured}) — the randomized tier of the
    test suite and the [df_compile selfcheck] subcommand.  Deliberately
    broken schema variants (Schema 2 without loop control — the Figure 8
    pathology) can be included to prove the oracle actually catches
    unsound translations. *)

(** One point of the validation matrix. *)
type combo = {
  c_spec : Driver.spec;
  c_transforms : Driver.transforms;
  c_name : string;
      (** e.g. ["schema2-pipelined+value+reads"] or
          ["schema2-opt-pipelined\@p4-affinity"] for a multiprocessor
          point *)
  c_broken : bool;  (** a deliberately unsound variant: failures expected *)
  c_multiproc : (Machine.Placement.policy * int * Machine.Network.config) option;
      (** [Some (policy, pes, net)] executes on {!Machine.Multiproc}
          instead of the single-PE machine — same differential bar *)
  c_faulty : bool;
      (** multiprocessor point executed under seeded link faults plus
          one seeded PE fail-stop, with reliable transport and
          checkpoint/replay recovery on: the recovered run must still
          verdict [Clean] and match the reference store exactly *)
  c_engine : Machine.Config.engine;
      (** single-PE execution core for this point; [Packed] points
          carry a ["+packed"] name suffix and hold the compiled engine
          to the same differential bar.  Multiprocessor points ignore
          it: {!Machine.Multiproc} is the one multi-PE engine *)
  c_topo : Sched.Topology.kind option;
      (** interconnect topology for a multiprocessor point (["-mesh"]
          etc. in the name); [None] is the uniform wire *)
  c_steal : bool;
      (** multiprocessor point executed with work stealing on
          (["+steal"] suffix): the moved firings must not perturb the
          final store *)
}

(** [combos_for ?include_broken p] — every combination applicable to
    [p]: Schema 1 and Schema 3 (all covers) always; Schema 2 / 2-opt
    families with their transform sets when [p] is alias-free; a
    multiprocessor tier (two placements, two network configurations,
    Schema 3 covering the aliasing side); faulty multiprocessor points
    (link faults plus one PE fail-stop, recovery on — zero divergences
    expected); when asked for, the broken variants —
    [Schema2_unsafe_no_loop_control] on alias-free programs and
    [Schema3_unsafe_bad_cover] on aliased ones. *)
val combos_for : ?include_broken:bool -> Imp.Ast.program -> combo list

(** Outcome of one combo on one program. *)
type status =
  | Agree  (** compiled, ran cleanly, store matches the reference *)
  | Skip of string  (** combo not applicable (irreducible, aliasing) *)
  | Fail of string  (** divergence: mismatch, unclean run, or crash *)

(** [run_combo ?machine ?certify_only combo p] compiles and executes one
    combination and compares against the reference store.  A clean run
    with standing permission-certificate violations is a [Fail] — a
    certified run must also be a correctly certified run.  With
    [certify_only] the differential bar is removed entirely: collision
    detection is off, the reference store is not compared, and [Fail]
    means the fractional-permission certificate alone rejected the run.
    Never raises. *)
val run_combo :
  ?machine:Machine.Config.t ->
  ?certify_only:bool ->
  combo ->
  Imp.Ast.program ->
  status

(** [check_program ?machine ?certify_only ?include_broken p] — all
    combos on one program; returns [(combo name, status)] in combo
    order. *)
val check_program :
  ?machine:Machine.Config.t ->
  ?certify_only:bool ->
  ?include_broken:bool ->
  Imp.Ast.program ->
  (string * status) list

(** Structural program shrinker: statement deletion/hoisting, arm and
    branch selection, expression simplification, declaration dropping.
    Candidates may be ill-typed; consumers filter with {!minimize}'s
    type guard. *)
val shrink_program : Imp.Ast.program -> Imp.Ast.program QCheck.Iter.t

(** [minimize fails p] greedily shrinks [p] while [fails] holds (only
    well-typed candidates are offered to [fails]); returns the minimal
    failing program found and the number of successful shrink steps. *)
val minimize :
  (Imp.Ast.program -> bool) -> Imp.Ast.program -> Imp.Ast.program * int

(** One shrunk divergence found by {!selfcheck}. *)
type divergence = {
  dv_index : int;  (** which generated program (0-based) *)
  dv_combo : string;
  dv_reason : string;
  dv_program : Imp.Ast.program;  (** as generated *)
  dv_shrunk : Imp.Ast.program;  (** minimal reproducer *)
  dv_steps : int;  (** successful shrink steps *)
}

type report = {
  r_seed : int;
  r_count : int;  (** programs requested *)
  r_agreements : int;  (** combo runs that agreed with the reference *)
  r_skips : int;
  r_matrix : (string * int) list;
      (** combo name -> programs on which it was exercised (agree or
          fail), in combo order: the schema-agreement matrix *)
  r_divergences : divergence list;  (** failures of sound combos *)
  r_broken_caught : divergence list;
      (** failures of deliberately broken combos — expected; their
          presence proves the oracle has teeth *)
}

(** [selfcheck ~seed ~count ()] generates [count] random structured
    programs from [seed] and validates each against every applicable
    combo.  The whole (program x combo) grid is submitted as one batch
    to a {!Service.Pool} of [jobs] domains (default 1); statuses are
    folded back in submission order, so the report is identical at any
    [jobs] setting.  Every divergence is shrunk to a minimal reproducer
    (the first [max_shrunk] per category; later ones are recorded
    unshrunk).  Deterministic: same seed, same report. *)
val selfcheck :
  ?gen:Workloads.Random_gen.config ->
  ?machine:Machine.Config.t ->
  ?certify_only:bool ->
  ?include_broken:bool ->
  ?max_shrunk:int ->
  ?jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  report

val pp_divergence : Format.formatter -> divergence -> unit
val pp_report : Format.formatter -> report -> unit
