(* The cheap checkers against naive references.

   [Machine.Sanitize] keeps what has fired as bit rows over interned
   context ids, and [Machine.Permission] routes a firing's held bag
   over the emitted ports without building label lists.  Both must be
   the checkers they replaced, only cheaper.  This file keeps the
   earlier implementations -- the Hashtbl sanitizer, the list-based
   permission split and ownership assertion -- as naive references and
   drives old and new through one event stream on random programs x
   schemas, with the broken Figure 8 and bad-cover schemas and
   mislabelled graphs included and collision detection off.  Every step
   must agree: the same violations in the same order, the same bag on
   every delivery, the same certified totals.  The stream snapshots,
   restores and replays both sides mid-run; the engines themselves are
   held to each other, the multiprocessor under faults and recovery.
   The Schema 1 rule is checked on the engines, and a last test pins
   what checked execution allocates. *)

let checkb = Alcotest.(check bool)

module San = Machine.Sanitize
module Perm = Machine.Permission
module Frac = Machine.Permission.Frac
module Ctx = Machine.Context
module MP = Machine.Multiproc
module Cfg_ = Machine.Config

(* ------------------------------------------------------------------ *)
(* Naive references                                                   *)

(* The Hashtbl sanitizer: one structural (node, context) key per
   firing.  The one difference from its original form is the Schema 1
   rule — the double-fire check is armed only where the translation
   promises iteration tags. *)
module Naive_san = struct
  type t = {
    graph : Dfg.Graph.t;
    entry_gates : (int, int) Hashtbl.t;
    exit_gates : (int, int) Hashtbl.t;
    fired : (int * Ctx.t, unit) Hashtbl.t;
    mutable fires : int;
    switch_in : int array;
    switch_fired : int array;
    loop_entries : (int, int) Hashtbl.t;
    loop_exits : (int, int) Hashtbl.t;
    entry_ctxs : (int * Ctx.t, unit) Hashtbl.t;
    exit_ctxs : (int * Ctx.t, unit) Hashtbl.t;
  }

  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

  let create (graph : Dfg.Graph.t) : t =
    let n = Dfg.Graph.num_nodes graph in
    let entry_gates = Hashtbl.create 4 and exit_gates = Hashtbl.create 4 in
    Dfg.Graph.iter_nodes graph (fun node ->
        match node.Dfg.Node.kind with
        | Dfg.Node.Loop_entry { loop; _ } -> bump entry_gates loop
        | Dfg.Node.Loop_exit { loop; _ } -> bump exit_gates loop
        | _ -> ());
    {
      graph;
      entry_gates;
      exit_gates;
      fired = Hashtbl.create 256;
      fires = 0;
      switch_in = Array.make n 0;
      switch_fired = Array.make n 0;
      loop_entries = Hashtbl.create 4;
      loop_exits = Hashtbl.create 4;
      entry_ctxs = Hashtbl.create 16;
      exit_ctxs = Hashtbl.create 16;
    }

  (* a snapshot is a deep copy; restore copies again, as the original
     did *)
  let copy (t : t) : t =
    {
      t with
      fired = Hashtbl.copy t.fired;
      switch_in = Array.copy t.switch_in;
      switch_fired = Array.copy t.switch_fired;
      loop_entries = Hashtbl.copy t.loop_entries;
      loop_exits = Hashtbl.copy t.loop_exits;
      entry_ctxs = Hashtbl.copy t.entry_ctxs;
      exit_ctxs = Hashtbl.copy t.exit_ctxs;
    }

  let on_delivery (t : t) ~node ~port =
    match Dfg.Graph.kind t.graph node with
    | Dfg.Node.Switch when port = 0 ->
        t.switch_in.(node) <- t.switch_in.(node) + 1
    | _ -> ()

  let on_fire (t : t) ~node ~ctx ~group : San.violation option =
    t.fires <- t.fires + 1;
    (match Dfg.Graph.kind t.graph node with
    | Dfg.Node.Switch -> t.switch_fired.(node) <- t.switch_fired.(node) + 1
    | Dfg.Node.Loop_entry { loop; arity } ->
        if group = arity then begin
          bump t.loop_entries loop;
          Hashtbl.replace t.entry_ctxs (loop, ctx) ()
        end
    | Dfg.Node.Loop_exit { loop; _ } ->
        bump t.loop_exits loop;
        Hashtbl.replace t.exit_ctxs (loop, ctx) ()
    | _ -> ());
    let key = (node, ctx) in
    if t.graph.Dfg.Graph.iteration_tags && Hashtbl.mem t.fired key then
      Some (San.Double_fire { df_node = node; df_ctx = ctx })
    else begin
      Hashtbl.replace t.fired key ();
      None
    end

  let at_quiescence (t : t) ~leftover : San.violation list =
    let vs = ref [] in
    if leftover > 0 then
      vs := [ San.Store_leak { sl_tokens = leftover; sl_by_pe = [] } ];
    let distinct ctxs l =
      Hashtbl.fold (fun (l', _) () a -> if l' = l then a + 1 else a) ctxs 0
    in
    let loops =
      Hashtbl.fold (fun l _ acc -> l :: acc) t.entry_gates []
      |> List.sort_uniq compare
    in
    List.iter
      (fun l ->
        let e_gates = Option.value ~default:0 (Hashtbl.find_opt t.entry_gates l)
        and x_gates =
          Option.value ~default:0 (Hashtbl.find_opt t.exit_gates l)
        in
        let entries =
          Option.value ~default:0 (Hashtbl.find_opt t.loop_entries l)
        and exits = Option.value ~default:0 (Hashtbl.find_opt t.loop_exits l) in
        let activations = distinct t.entry_ctxs l in
        let exit_ctxs = distinct t.exit_ctxs l in
        if
          e_gates > 0 && x_gates > 0
          && (entries <> activations * e_gates
             || exit_ctxs <> activations
             || exits < exit_ctxs
             || exits > activations * x_gates)
        then
          vs :=
            San.Loop_imbalance
              {
                li_loop = l;
                li_activations = activations;
                li_entries = entries;
                li_entry_gates = e_gates;
                li_exits = exits;
                li_exit_ctxs = exit_ctxs;
                li_exit_gates = x_gates;
              }
            :: !vs)
      loops;
    Array.iteri
      (fun node inflow ->
        let fired = t.switch_fired.(node) in
        if inflow <> fired then
          vs :=
            San.Switch_imbalance
              { sw_node = node; sw_in = inflow; sw_fired = fired }
            :: !vs)
      t.switch_in;
    List.rev !vs
end

(* The list-based split: [labels.(i)] is the label set of delivery [i];
   each element splits equally over the deliveries labelled with it,
   retires at End, and is Lost anywhere else. *)
let naive_split (g : Dfg.Graph.t) (cert : Dfg.Graph.cert)
    (retired : Frac.t array) ~node ~(held : Perm.bag) (labels : int list array)
    : Perm.bag array * Perm.violation list =
  let n = Array.length labels in
  let out = Array.make n Perm.empty_bag in
  if held = [] then (out, [])
  else begin
    let is_end =
      match Dfg.Graph.kind g node with Dfg.Node.End _ -> true | _ -> false
    in
    let fresh = ref [] in
    List.iter
      (fun (e, f) ->
        let takers = ref 0 in
        Array.iter (fun ls -> if List.mem e ls then incr takers) labels;
        if !takers > 0 then begin
          let share =
            try Frac.div_int f !takers with Frac.Overflow -> Frac.zero
          in
          if not (Frac.is_zero share) then
            Array.iteri
              (fun i ls ->
                if List.mem e ls then out.(i) <- Perm.join out.(i) [ (e, share) ])
              labels
        end
        else if is_end then
          retired.(e) <-
            (try Frac.add retired.(e) f with Frac.Overflow -> retired.(e))
        else
          fresh :=
            Perm.Lost
              {
                p_node = node;
                p_label = (Dfg.Graph.node g node).Dfg.Node.label;
                p_elem = cert.Dfg.Graph.cert_elements.(e);
                p_frac = Frac.to_string f;
              }
            :: !fresh)
      held;
    (out, List.rev !fresh)
  end

let at_most_one f =
  match String.split_on_char '/' (Frac.to_string f) with
  | [ n ] -> int_of_string n <= 1
  | [ n; d ] -> int_of_string n <= int_of_string d
  | _ -> false

(* The list-based ownership assertion: a store must own each required
   element outright, a load must hold a positive fraction of it and
   never more than the whole.  Returns the violations and the number of
   assertions made. *)
let naive_on_fire (g : Dfg.Graph.t) (cert : Dfg.Graph.cert) ~node ~ctx
    (held : Perm.bag) : Perm.violation list * int =
  let required = cert.Dfg.Graph.cert_require.(node) in
  let is_store =
    match Dfg.Graph.kind g node with Dfg.Node.Store _ -> true | _ -> false
  in
  ( List.filter_map
      (fun e ->
        let h =
          match List.assoc_opt e held with Some f -> f | None -> Frac.zero
        in
        let ok =
          if is_store then Frac.is_one h
          else Frac.positive h && at_most_one h
        in
        if ok then None
        else
          Some
            (Perm.Missing
               {
                 p_node = node;
                 p_label = (Dfg.Graph.node g node).Dfg.Node.label;
                 p_ctx = ctx;
                 p_elem = cert.Dfg.Graph.cert_elements.(e);
                 p_need = (if is_store then "all" else "a fraction");
                 p_held = Frac.to_string h;
               }))
      required,
    List.length required )

(* ------------------------------------------------------------------ *)
(* One event stream, both checkers                                    *)

let expect what ok = if not ok then failwith ("checkers disagree: " ^ what)

(* A token carries its value and the bag each side computed for it. *)
type tok = { value : Imp.Value.t; old_bag : Perm.bag; new_bag : Perm.bag }

(* the replayable checker events of one firing or delivery *)
type event =
  | Delivered of int * int
  | Fired of {
      node : int;
      ctx : Ctx.t;
      group : int;
      consumed : tok array;
      emitted : (int * int) list;  (** (node, port) in emission order *)
    }

let pad = { value = Machine.Firing.dummy_value; old_bag = []; new_bag = [] }

(* [stream g layout ~seed ~snap_at] runs [g] on a small machine built
   from the shared firing rule and matching store, under a scheduler
   drawn from [seed], feeding every event to both checkers.  At firing
   [snap_at] both sides snapshot; 25 firings later they restore and
   replay the events in between, so the replay must neither double-fire
   nor double-count. *)
let stream (g : Dfg.Graph.t) (layout : Imp.Layout.t) ~seed ~snap_at =
  let rng = Random.State.make [| seed |] in
  let memory = Imp.Memory.create layout in
  let env = Machine.Firing.make_env ~graph:g ~layout memory in
  let wait : tok Machine.Matching.store = Machine.Matching.create () in
  let queue : (int * int * Ctx.t * tok) Queue.t = Queue.create () in
  let n_san = San.create g and o_san = ref (Naive_san.create g) in
  let cert = g.Dfg.Graph.cert in
  let n_perm = Option.map (Perm.create g) cert in
  let o_checks = ref 0 in
  let o_retired =
    ref
      (match cert with
      | Some c -> Array.make (Array.length c.Dfg.Graph.cert_elements) Frac.zero
      | None -> [||])
  in
  let o_san_v = ref [] and n_san_v = ref [] and o_cert_v = ref [] in
  let sanitize_fire ~node ~ctx ~group =
    let a = Naive_san.on_fire !o_san ~node ~ctx ~group in
    let b = San.on_fire n_san ~node ~ctx ~group in
    expect "sanitizer verdict of a firing" (a = b);
    Option.iter (fun v -> o_san_v := v :: !o_san_v) a;
    Option.iter (fun v -> n_san_v := v :: !n_san_v) b
  in
  (* the permission side of one firing: both helds, both assertions,
     both splits; returns the per-delivery bags (old, new) *)
  let certify ~node ~ctx (consumed : tok array) emitted =
    let deliveries =
      List.concat_map
        (fun (en, ep) ->
          List.mapi (fun i a -> (en, ep, i, a)) (Dfg.Graph.outgoing g en ep))
        emitted
    in
    match (n_perm, cert) with
    | Some np, Some c ->
        let o_held =
          try Perm.join_all (Array.to_list (Array.map (fun t -> t.old_bag) consumed))
          with Frac.Overflow -> []
        in
        let n_held =
          Perm.join_slots
            (Array.map (fun t -> t.new_bag) consumed)
            ~off:0 ~len:(Array.length consumed)
        in
        expect "held bag" (o_held = n_held);
        let missing, checks = naive_on_fire g c ~node ~ctx o_held in
        o_checks := !o_checks + checks;
        Perm.on_fire np ~node ~ctx n_held;
        expect "ownership assertions" (missing = Perm.fresh np);
        o_cert_v := List.rev_append missing !o_cert_v;
        let labels =
          Array.of_list
            (List.map
               (fun (en, _, _, (a : Dfg.Graph.arc)) ->
                 if en = node then a.Dfg.Graph.tokens else [])
               deliveries)
        in
        let o_out, lost = naive_split g c !o_retired ~node ~held:o_held labels in
        o_cert_v := List.rev_append lost !o_cert_v;
        List.iter
          (fun (en, ep) -> if en = node then Perm.emitted np ~port:ep)
          emitted;
        Perm.route np ~node ~held:n_held;
        expect "lost permission" (Perm.fresh np = lost);
        let n_out =
          Array.of_list
            (List.map
               (fun (en, ep, i, _) -> Perm.routed np ~node:en ~port:ep i)
               deliveries)
        in
        expect "per-delivery bags" (o_out = n_out);
        (deliveries, o_out, n_out)
    | _ ->
        let empty = Array.make (List.length deliveries) [] in
        (deliveries, empty, empty)
  in
  let apply = function
    | Delivered (node, port) ->
        Naive_san.on_delivery !o_san ~node ~port;
        San.on_delivery n_san ~node ~port
    | Fired { node; ctx; group; consumed; emitted } ->
        sanitize_fire ~node ~ctx ~group;
        ignore (certify ~node ~ctx consumed emitted)
  in
  (* rollback support: the snapshot and the events since *)
  let saved = ref None and log = ref [] in
  let fired = ref 0 in
  let take_snapshot () =
    saved :=
      Some
        ( Naive_san.copy !o_san,
          San.snapshot n_san,
          !o_checks,
          Option.map Perm.snapshot n_perm,
          Array.copy !o_retired,
          (!o_san_v, !n_san_v, !o_cert_v) );
    log := []
  in
  let roll_back () =
    match !saved with
    | None -> ()
    | Some (os, ns, checks, np, ret, (osv, nsv, ocv)) ->
        o_san := Naive_san.copy os;
        San.restore n_san ns;
        let restore p s =
          match (p, s) with Some p, Some s -> Perm.restore p s | _ -> ()
        in
        o_checks := checks;
        restore n_perm np;
        o_retired := Array.copy ret;
        o_san_v := osv;
        n_san_v := nsv;
        o_cert_v := ocv;
        saved := None;
        List.iter apply (List.rev !log)
  in
  let record e = if !saved <> None then log := e :: !log in
  let fire node ctx (consumed : tok array) =
    if !fired = snap_at then take_snapshot ();
    if !fired = snap_at + 25 then roll_back ();
    incr fired;
    let group = Array.length consumed in
    sanitize_fire ~node ~ctx ~group;
    let emissions = ref [] in
    Machine.Firing.execute env
      ~emit:(fun ~node ~port ~ctx ~meta:() v ->
        emissions := (node, port, ctx, v) :: !emissions)
      ~meta:() ~meta_max:(fun () () -> ()) ~on_complete:ignore
      ~double_write:failwith ~node ~ctx
      ~inputs:(Array.map (fun t -> t.value) consumed);
    let emissions = List.rev !emissions in
    let emitted = List.map (fun (en, ep, _, _) -> (en, ep)) emissions in
    record (Fired { node; ctx; group; consumed; emitted });
    let deliveries, o_out, n_out = certify ~node ~ctx consumed emitted in
    let ctx_of =
      List.concat_map
        (fun (en, ep, ectx, v) ->
          List.map (fun _ -> (ectx, v)) (Dfg.Graph.outgoing g en ep))
        emissions
    in
    List.iteri
      (fun i ((_, _, _, (a : Dfg.Graph.arc)), (ectx, v)) ->
        Queue.add
          ( a.Dfg.Graph.dst.Dfg.Graph.node,
            a.Dfg.Graph.dst.Dfg.Graph.index,
            ectx,
            { value = v; old_bag = o_out.(i); new_bag = n_out.(i) } )
          queue)
      (List.combine deliveries ctx_of)
  in
  let start_bag p = Option.fold ~none:[] ~some:Perm.mint p in
  (* Start consumes nothing: the minted bag rides a phantom input *)
  fire g.Dfg.Graph.start Ctx.toplevel
    [| { pad with old_bag = start_bag n_perm; new_bag = start_bag n_perm } |];
  let steps = ref 0 in
  while (not (Queue.is_empty queue)) && !steps < 20_000 do
    incr steps;
    (* a seeded scheduler: rotate a few deliveries to the back first, so
       runs interleave differently (and the broken schemas collide) *)
    for _ = 1 to Random.State.int rng 3 do
      Queue.add (Queue.pop queue) queue
    done;
    let node, port, ctx, tok = Queue.pop queue in
    let kind = Dfg.Graph.kind g node in
    match kind with
    | Dfg.Node.Merge -> fire node ctx [| tok |]
    | _ -> (
        Naive_san.on_delivery !o_san ~node ~port;
        San.on_delivery n_san ~node ~port;
        record (Delivered (node, port));
        match
          Machine.Matching.deliver ~kind ~detect_collisions:false ~pad wait
            ~node ~ctx ~port tok
        with
        | Machine.Matching.Fire slots -> fire node ctx slots
        | Machine.Matching.Wait | Machine.Matching.Collision -> ())
  done;
  let leftover = Machine.Matching.leftover [ wait ] in
  let o_q = Naive_san.at_quiescence !o_san ~leftover in
  let n_q = San.at_quiescence n_san ~leftover in
  expect "sanitizer quiescence account" (o_q = n_q);
  expect "sanitizer violations, in order" (!o_san_v = !n_san_v);
  expect "fire count" (!o_san.Naive_san.fires = San.fire_count n_san);
  (match (n_perm, cert) with
  | Some np, Some c ->
      let unretired =
        Array.to_list
          (Array.mapi
             (fun e r ->
               if Frac.is_one r then []
               else
                 [
                   Perm.Unretired
                     {
                       p_elem = c.Dfg.Graph.cert_elements.(e);
                       p_retired = Frac.to_string r;
                     };
                 ])
             !o_retired)
        |> List.concat
      in
      expect "certificate quiescence account"
        (Perm.at_quiescence np = unretired);
      expect "certificate violations, in order"
        (Perm.violations np = List.rev_append !o_cert_v unretired);
      expect "certified (elements, checks)"
        ((Perm.elements np, Perm.checks np)
        = (Array.length c.Dfg.Graph.cert_elements, !o_checks))
  | _ -> ());
  (!fired, List.length !n_san_v + List.length n_q)

(* ------------------------------------------------------------------ *)
(* The property                                                       *)

let gen_cfg =
  {
    Workloads.Random_gen.default_config with
    num_vars = 4;
    num_arrays = 1;
    array_extent = 4;
    max_depth = 2;
    max_len = 3;
    loop_bound = 3;
    allow_alias = true;
  }

let arb_program =
  QCheck.make ~print:Imp.Pretty.program_to_string
    (Workloads.Random_gen.structured ~config:gen_cfg)

let specs =
  Dflow.Driver.
    [
      Schema1;
      Schema2 Dflow.Engine.Barrier;
      Schema2 Dflow.Engine.Pipelined;
      Schema2_opt Dflow.Engine.Pipelined;
      Schema3 (Classes, Dflow.Engine.Barrier);
      Schema3 (Components, Dflow.Engine.Pipelined);
      Schema2_unsafe_no_loop_control;
      Schema3_unsafe_bad_cover;
    ]

(* A mislabelled translation: the graph with the permission label of
   its [k]-th labelled arc (mod their count) erased, so the permission
   that arc carried is Lost at its source and never retires. *)
let erase_label (g : Dfg.Graph.t) k =
  let module B = Dfg.Graph.Builder in
  let b = B.create () in
  Array.iter
    (fun (n : Dfg.Node.t) -> ignore (B.add b ~label:n.Dfg.Node.label n.Dfg.Node.kind))
    g.Dfg.Graph.nodes;
  let labelled =
    Array.fold_left
      (fun n (a : Dfg.Graph.arc) -> if a.Dfg.Graph.tokens = [] then n else n + 1)
      0 g.Dfg.Graph.arcs
  in
  let seen = ref 0 in
  Array.iter
    (fun (a : Dfg.Graph.arc) ->
      let tokens =
        match a.Dfg.Graph.tokens with
        | [] -> []
        | ts ->
            incr seen;
            if !seen - 1 = k mod max 1 labelled then [] else ts
      in
      B.connect b ~dummy:a.Dfg.Graph.dummy ~tokens
        (a.Dfg.Graph.src.Dfg.Graph.node, a.Dfg.Graph.src.Dfg.Graph.index)
        (a.Dfg.Graph.dst.Dfg.Graph.node, a.Dfg.Graph.dst.Dfg.Graph.index))
    g.Dfg.Graph.arcs;
  let g' = B.finish b in
  Dfg.Graph.set_cert g' g.Dfg.Graph.cert;
  Dfg.Graph.set_iteration_tags g' g.Dfg.Graph.iteration_tags;
  g'

let broken = function
  | Dflow.Driver.Schema2_unsafe_no_loop_control
  | Dflow.Driver.Schema3_unsafe_bad_cover ->
      true
  | _ -> false

(* every schema plain and with Section 6.2's parallel reads, whose read
   runs fan one element out over several arcs *)
let compiled p =
  List.concat_map
    (fun parallel_reads ->
      let transforms =
        { Dflow.Driver.no_transforms with Dflow.Driver.parallel_reads }
      in
      List.filter_map
        (fun spec ->
          match Dflow.Driver.compile ~transforms spec p with
          | c -> Some (spec, c)
          | exception
              ( Dflow.Driver.Aliasing_unsupported _
              | Cfg.Intervals.Irreducible _ ) ->
              None)
        specs)
    [ false; true ]

let checked (d : Machine.Diagnosis.t) =
  (d.Machine.Diagnosis.sanitizer, d.Machine.Diagnosis.permission,
   d.Machine.Diagnosis.certified)

let prop_checkers_agree (p : Imp.Ast.program) =
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let h = Hashtbl.hash (Imp.Pretty.program_to_string p) in
  List.for_all
    (fun (spec, (c : Dflow.Driver.compiled)) ->
      let g = c.Dflow.Driver.graph and layout = c.Dflow.Driver.layout in
      ignore (stream g layout ~seed:h ~snap_at:(h mod 40) : int * int);
      if g.Dfg.Graph.cert <> None then
        ignore
          (stream (erase_label g h) layout ~seed:h ~snap_at:(h mod 40)
            : int * int);
      (* the engines: reference and packed report the same checks, in
         the same order, on sound and broken translations alike *)
      let prog = { Machine.Interp.graph = g; layout } in
      let config = { Cfg_.default with Cfg_.detect_collisions = false } in
      let run config =
        match Machine.Interp.run_report ~config prog with
        | Ok r -> Some (checked r.Machine.Interp.diagnosis)
        | Error _ -> None
      in
      let reference_run = run config in
      expect "reference vs packed engine"
        (reference_run = run { config with Cfg_.engine = Cfg_.Packed });
      (* the multiprocessor under link faults and a fail-stop, whose
         recovery snapshots and restores both checkers: a run that lands
         on the reference store certifies what the reference certifies,
         with no violation standing *)
      (if not (broken spec) then
         let faults =
           Machine.Fault.make
             (Machine.Fault.spec ~rate:0.01
                ~classes:Machine.Fault.link_classes ~seed:(1 + (h land 0xFF))
                ())
         in
         let recovery =
           Machine.Recovery.spec ~interval:40
             ~deaths:(Machine.Recovery.seeded_deaths ~seed:h ~pes:4 ~window:60)
             ()
         in
         match MP.run ~pes:4 ~faults ~recovery prog with
         | Ok r when Imp.Memory.equal reference r.MP.memory -> (
             let s, perm, cert = checked r.MP.diagnosis in
             expect "multiprocessor: no standing violation"
               (s = [] && perm = []);
             match reference_run with
             | Some (_, _, ref_cert) ->
                 expect "multiprocessor certified totals" (cert = ref_cert)
             | None -> ())
         | Ok _ | Error _ -> ());
      true)
    (compiled p)

let qcheck_checkers =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5A17 |])
    (QCheck.Test.make
       ~name:
         "cheap checkers = naive references (random programs x schemas, \
          broken included, rollback, three engines)"
       ~count:60 arb_program prop_checkers_agree)

(* The stream must actually exercise what it compares: some runs carry
   double fires and lost or unretired permission. *)
let test_stream_has_teeth () =
  let p =
    Imp.Parser.program_of_string
      "s := 0 i := 0 while i < 4 do s := s + i; i := i + 1 end"
  in
  let c = Dflow.Driver.compile Dflow.Driver.Schema2_unsafe_no_loop_control p in
  let firings, violations =
    stream c.Dflow.Driver.graph c.Dflow.Driver.layout ~seed:1 ~snap_at:10
  in
  checkb "fig8 stream fires" true (firings > 40);
  checkb "fig8 stream carries sanitizer violations" true (violations > 0);
  let c1 = Dflow.Driver.compile Dflow.Driver.Schema1 p in
  let _, v1 =
    stream c1.Dflow.Driver.graph c1.Dflow.Driver.layout ~seed:1 ~snap_at:5
  in
  checkb "schema 1 stream is clean" true (v1 = 0)

(* ------------------------------------------------------------------ *)
(* The Schema 1 rule on the engines                                   *)

let programs_dir =
  List.find_opt Sys.file_exists [ "../examples/programs"; "examples/programs" ]

let example name =
  match programs_dir with
  | None -> Alcotest.fail "cannot locate examples/programs"
  | Some d ->
      Imp.Parser.program_of_string
        (In_channel.with_open_text
           (Filename.concat d (name ^ ".imp"))
           In_channel.input_all)

let double_fires (d : Machine.Diagnosis.t) =
  List.length
    (List.filter
       (function San.Double_fire _ -> true | _ -> false)
       d.Machine.Diagnosis.sanitizer)

(* Schema 1 loops re-fire their bodies at ctx <> by design: no engine
   may report that as a double fire — the reference and packed cores,
   the optimised rebuild, and the multiprocessor with its sanitizer
   armed by a zero-rate fault plan (which rejected sum at node 4).  The
   broken Figure 8 schema keeps the rule. *)
let test_schema1_not_double_fires () =
  List.iter
    (fun name ->
      let c = Dflow.Driver.compile Dflow.Driver.Schema1 (example name) in
      let prog =
        { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
      in
      let optimised =
        { prog with Machine.Interp.graph = Dfg.Opt.run (Dfg.Simplify.run prog.Machine.Interp.graph) }
      in
      List.iter
        (fun (what, config, prog) ->
          let r = Machine.Interp.run ~config prog in
          checkb (name ^ " " ^ what ^ ": no sanitizer violations") true
            (r.Machine.Interp.diagnosis.Machine.Diagnosis.sanitizer = []))
        [
          ("reference", Cfg_.default, prog);
          ("packed", { Cfg_.default with Cfg_.engine = Cfg_.Packed }, prog);
          ("optimised", Cfg_.default, optimised);
        ];
      let faults = Machine.Fault.make (Machine.Fault.spec ~rate:0.0 ~seed:3 ()) in
      match MP.run ~pes:2 ~faults prog with
      | Ok r ->
          checkb (name ^ " multiprocessor, zero-rate faults: clean") true
            (r.MP.diagnosis.Machine.Diagnosis.sanitizer = [])
      | Error d ->
          Alcotest.failf "%s multiprocessor rejected a sound run: %s" name
            (Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict))
    [ "sum"; "spaghetti"; "stencil" ];
  let fig8 =
    Dflow.Driver.compile Dflow.Driver.Schema2_unsafe_no_loop_control
      (example "sum")
  in
  let r =
    Machine.Interp.run
      { Machine.Interp.graph = fig8.Dflow.Driver.graph; layout = fig8.Dflow.Driver.layout }
  in
  checkb "fig8 sum still double-fires" true
    (double_fires r.Machine.Interp.diagnosis > 0)

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                   *)

(* Checked execution must stay close to allocation-free: the committed
   stencil on the packed core at p=1, sanitizer and certificate on, as
   the benchmark's packed cell runs it.  It measured 26 minor words per
   firing when this guard was set (163 before the checkers were made
   cheap, 18 with both off); the bound leaves headroom for compiler and
   runtime drift, not for a checker that allocates per firing again. *)
let test_checked_allocation () =
  let c =
    Dflow.Driver.compile
      (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) (example "stencil")
  in
  checkb "certified" true (c.Dflow.Driver.graph.Dfg.Graph.cert <> None);
  let code = Machine.Packed.compile_graph c.Dflow.Driver.graph in
  let config = { Cfg_.default with Cfg_.pes = Some 1 } in
  let run () =
    match
      Machine.Packed.run_report ~config ~sanitize:true
        ~layout:c.Dflow.Driver.layout code
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "stencil run failed"
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let r = run () in
  let per_firing =
    (Gc.minor_words () -. w0) /. float_of_int r.Machine.Packed.firings
  in
  let d = r.Machine.Packed.diagnosis in
  checkb "clean and certified" true
    (d.Machine.Diagnosis.sanitizer = []
    && d.Machine.Diagnosis.permission = []
    && d.Machine.Diagnosis.certified <> None);
  if per_firing > 35.0 then
    Alcotest.failf "checked packed run allocates %.1f minor words per firing \
                    (bound 35)" per_firing

let () =
  Alcotest.run "checkers"
    [
      ( "differential",
        [
          Alcotest.test_case "stream has teeth" `Quick test_stream_has_teeth;
          qcheck_checkers;
        ] );
      ( "schema 1",
        [ Alcotest.test_case "loop bodies re-fire legitimately" `Quick
            test_schema1_not_double_fires ] );
      ( "allocation",
        [ Alcotest.test_case "checked packed run" `Quick test_checked_allocation ] );
    ]
