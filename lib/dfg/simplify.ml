(** Peephole simplification of dataflow graphs.

    The translation introduces [Id] nodes as materialised fan-out points
    (value-passing entries).  After wiring, each [Id] can be spliced: its
    single input source feeds its consumers directly.  Also drops
    [Merge] nodes with a single incoming arc (no actual merging) and any
    node left without consumers transitively (cannot occur in translated
    graphs, but keeps the pass total).  Semantics-preserving; saves one
    routing cycle per spliced node. *)

(** [run g] returns the simplified graph.  Idempotent. *)
let run (g : Graph.t) : Graph.t =
  let n = Graph.num_nodes g in
  let splice = Array.make n false in
  for i = 0 to n - 1 do
    match Graph.kind g i with
    | Node.Id -> splice.(i) <- true
    | Node.Merge -> if List.length (Graph.incoming g i 0) = 1 then splice.(i) <- true
    | _ -> ()
  done;
  if not (Array.exists Fun.id splice) then g
  else begin
    (* A permission element flows along a spliced chain only where every
       arc of it carries the element, so the chain's labels intersect
       ([None]: no arc spliced yet).  A union would hand a fraction to a
       consumer the spliced node never fed, e.g. a constant's trigger
       fanning out beside a load, which then destroys it. *)
    let restrict toks ls =
      match toks with
      | None -> ls
      | Some ts -> List.filter (fun e -> List.mem e ts) ls
    in
    (* resolve a source port through spliced nodes, unioning the dummy
       flag and intersecting the permission labels of the chain *)
    let rec resolve (p : Graph.port) : Graph.port * bool * int list option =
      if splice.(p.Graph.node) then
        match Graph.incoming g p.Graph.node 0 with
        | [ a ] ->
            let src, d, toks = resolve a.Graph.src in
            (src, d || a.Graph.dummy, Some (restrict toks a.Graph.tokens))
        | _ -> assert false
      else (p, false, None)
    in
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if not splice.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    let b = Graph.Builder.create () in
    for i = 0 to n - 1 do
      if not splice.(i) then begin
        let node = Graph.node g i in
        let id = Graph.Builder.add b ~label:node.Node.label node.Node.kind in
        assert (id = remap.(i))
      end
    done;
    Array.iter
      (fun a ->
        (* keep arcs whose destination survives; re-source through
           spliced chains *)
        if not splice.(a.Graph.dst.Graph.node) then begin
          let src, extra_dummy, extra_tokens = resolve a.Graph.src in
          if not splice.(src.Graph.node) then
            Graph.Builder.connect b
              ~dummy:(a.Graph.dummy || extra_dummy)
              ~tokens:(restrict extra_tokens a.Graph.tokens)
              (remap.(src.Graph.node), src.Graph.index)
              (remap.(a.Graph.dst.Graph.node), a.Graph.dst.Graph.index)
        end)
      g.Graph.arcs;
    let out = Graph.Builder.finish b in
    Option.iter
      (fun c ->
        Graph.set_cert out (Some (Graph.remap_cert c remap (Graph.num_nodes out))))
      g.Graph.cert;
    Graph.set_iteration_tags out g.Graph.iteration_tags;
    out
  end
