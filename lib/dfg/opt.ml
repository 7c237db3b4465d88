(** Optimization passes over dataflow graphs.

    The paper's closing claim is that dataflow graphs can serve as the
    intermediate representation of an optimizing compiler.  This module
    backs the claim with three classical optimizations performed
    {e directly on the graph}:

    - {b constant folding}: an ALU operator whose operands are constants
      becomes a constant (triggered by one of the folded constants'
      triggers, preserving once-per-activation firing);
    - {b common subexpression elimination}: pure operators of identical
      kind fed from identical source ports compute identical values in
      every context and are merged;
    - {b dead node elimination}: pure operators whose outputs feed
      nothing are removed (their input tokens were fan-out copies).

    All three are semantics-preserving on translated graphs (differential
    tests).  Their scope is per-activation value computation: the
    translator already reads each variable once per statement, so wins
    come from repeated subexpressions and constant arithmetic within
    statements.  Memory operations, switches, merges, synchs and loop
    gateways are structural and never moved. *)

(* A graph under edit: nodes alive or dead, arcs rewritten through a
   source substitution. *)
type edit = {
  g : Graph.t;
  alive : bool array;
  replace : (Graph.port, Graph.port) Hashtbl.t;
      (** output-port substitution applied to arc sources *)
}

let rec resolve (e : edit) (p : Graph.port) : Graph.port =
  match Hashtbl.find_opt e.replace p with
  | Some q -> resolve e q
  | None -> p

(* Current source port feeding input port [i] of node [n]. *)
let input_source (e : edit) (n : int) (i : int) : Graph.port option =
  match Graph.incoming e.g n i with
  | [ a ] -> Some (resolve e a.Graph.src)
  | _ -> None

let const_of (e : edit) (folded : (int, Imp.Value.t) Hashtbl.t)
    (p : Graph.port) : Imp.Value.t option =
  if p.Graph.index = 0 && e.alive.(p.Graph.node) then
    match Hashtbl.find_opt folded p.Graph.node with
    | Some v -> Some v  (* cascaded folds *)
    | None -> (
        match Graph.kind e.g p.Graph.node with
        | Node.Const v -> Some v
        | _ -> None)
  else None

(* One constant-folding sweep; returns true if anything changed.  A
   folded operator is re-labelled as a Const in a fresh rebuild, so we
   record fold decisions and apply them during reconstruction. *)
let fold_decisions (e : edit) (folded : (int, Imp.Value.t) Hashtbl.t) : bool =
  let changed = ref false in
  for n = 0 to Graph.num_nodes e.g - 1 do
    if e.alive.(n) && not (Hashtbl.mem folded n) then begin
      match Graph.kind e.g n with
      | Node.Binop op -> (
          match (input_source e n 0, input_source e n 1) with
          | Some p0, Some p1 -> (
              match (const_of e folded p0, const_of e folded p1) with
              | Some v0, Some v1 -> (
                  match Imp.Value.binop op v0 v1 with
                  | v ->
                      Hashtbl.replace folded n v;
                      changed := true
                  | exception Imp.Value.Type_error _ -> ())
              | _ -> ())
          | _ -> ())
      | Node.Unop op -> (
          match input_source e n 0 with
          | Some p0 -> (
              match const_of e folded p0 with
              | Some v0 -> (
                  match Imp.Value.unop op v0 with
                  | v ->
                      Hashtbl.replace folded n v;
                      changed := true
                  | exception Imp.Value.Type_error _ -> ())
              | None -> ())
          | None -> ())
      | _ -> ()
    end
  done;
  !changed

(* CSE: two pure operators with the same kind and the same (resolved)
   input sources are merged; the later one's output is substituted by
   the earlier one's. *)
let cse_pass (e : edit) (folded : (int, Imp.Value.t) Hashtbl.t) : bool =
  let changed = ref false in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let pure_key n =
    let kind =
      match Hashtbl.find_opt folded n with
      | Some v -> Node.Const v
      | None -> Graph.kind e.g n
    in
    match kind with
    | Node.Binop _ | Node.Unop _ | Node.Const _ | Node.Id ->
        let ins =
          List.init
            (Node.in_arity (Graph.kind e.g n))
            (fun i ->
              match input_source e n i with
              | Some p -> Fmt.str "%d.%d" p.Graph.node p.Graph.index
              | None -> "?")
        in
        Some (Fmt.str "%s|%s" (Node.kind_to_string kind) (String.concat "," ins))
    | _ -> None
  in
  for n = 0 to Graph.num_nodes e.g - 1 do
    if e.alive.(n) then
      match pure_key n with
      | Some key -> (
          match Hashtbl.find_opt seen key with
          | Some m when m <> n ->
              (* merge n into m *)
              Hashtbl.replace e.replace
                { Graph.node = n; Graph.index = 0 }
                { Graph.node = m; Graph.index = 0 };
              e.alive.(n) <- false;
              changed := true
          | Some _ -> ()
          | None -> Hashtbl.replace seen key n)
      | None -> ()
  done;
  !changed

(* Dead pure nodes: no live arc resolves to any of their output ports.
   Operand arcs into folded nodes do not count as consumption (only the
   chosen trigger survives the rebuild); the trigger source is always a
   statement entry fan-out that also feeds other consumers, or a live
   constant handled by the cascade. *)
let dead_pass (e : edit) (folded : (int, Imp.Value.t) Hashtbl.t) : bool =
  let changed = ref false in
  let resolved_used : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun a ->
      let dst = a.Graph.dst.Graph.node in
      (* arcs into live, unfolded nodes consume; arcs into folded nodes
         consume only as potential triggers, which resolve transitively
         to live nodes during rebuild -- treat them as consuming so
         trigger chains stay alive *)
      (* operand arcs into folded nodes do not consume: the rebuild
         derives the trigger by walking through dead operand chains *)
      if e.alive.(dst) && not (Hashtbl.mem folded dst) then begin
        let src = resolve e a.Graph.src in
        Hashtbl.replace resolved_used src.Graph.node ()
      end)
    e.g.Graph.arcs;
  for n = 0 to Graph.num_nodes e.g - 1 do
    if e.alive.(n) then
      match Graph.kind e.g n with
      | Node.Const _ | Node.Binop _ | Node.Unop _ | Node.Id ->
          if not (Hashtbl.mem resolved_used n) then begin
            e.alive.(n) <- false;
            changed := true
          end
      | _ -> ()
  done;
  !changed

(** [run g] applies folding, CSE and dead-node elimination to a fixpoint
    and rebuilds the graph. *)
let run (g : Graph.t) : Graph.t =
  let e = { g; alive = Array.make (Graph.num_nodes g) true; replace = Hashtbl.create 16 } in
  let folded : (int, Imp.Value.t) Hashtbl.t = Hashtbl.create 16 in
  let continue_ = ref true in
  while !continue_ do
    let c1 = fold_decisions e folded in
    let c2 = cse_pass e folded in
    let c3 = dead_pass e folded in
    continue_ := c1 || c2 || c3
  done;
  if Array.for_all Fun.id e.alive && Hashtbl.length folded = 0 then g
  else begin
    (* rebuild *)
    let n = Graph.num_nodes g in
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if e.alive.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    let b = Graph.Builder.create () in
    for i = 0 to n - 1 do
      if e.alive.(i) then begin
        let node = Graph.node g i in
        let kind, label =
          match Hashtbl.find_opt folded i with
          | Some v ->
              (Node.Const v, Fmt.str "folded %s" (Imp.Value.to_string v))
          | None -> (node.Node.kind, node.Node.label)
        in
        ignore (Graph.Builder.add b ~label kind)
      end
    done;
    (* arcs: keep arcs into live nodes; re-source through substitutions;
       drop VALUE inputs of folded nodes (a folded constant keeps only
       its trigger = its first input's source as trigger).  A folded
       node's in-arity changes from 2/1 to 1 (the trigger). *)
    let trigger_done = Array.make n false in
    Array.iter
      (fun a ->
        let dst = a.Graph.dst.Graph.node in
        if e.alive.(dst) then begin
          let src = resolve e a.Graph.src in
          if e.alive.(src.Graph.node) then
            match Hashtbl.find_opt folded dst with
            | Some _ ->
                (* the folded constant needs exactly one trigger; derive
                   it from the trigger of a constant operand (itself
                   possibly dead), else from the first incoming arc.  A
                   trigger carries no permission, so the new arc has no
                   token labels in either branch *)
                if not trigger_done.(dst) then begin
                  trigger_done.(dst) <- true;
                  (* find the transitive trigger: walk back through dead
                     const operands to a live source *)
                  let rec trigger_of (p : Graph.port) : Graph.port option =
                    if e.alive.(p.Graph.node) then Some p
                    else
                      match Graph.incoming e.g p.Graph.node 0 with
                      | [ a' ] -> trigger_of (resolve e a'.Graph.src)
                      | _ -> None
                  in
                  match trigger_of src with
                  | Some t ->
                      Graph.Builder.connect b ~dummy:a.Graph.dummy
                        (remap.(t.Graph.node), t.Graph.index)
                        (remap.(dst), 0)
                  | None -> ()
                end
            | None ->
                Graph.Builder.connect b ~dummy:a.Graph.dummy
                  ~tokens:a.Graph.tokens
                  (remap.(src.Graph.node), src.Graph.index)
                  (remap.(dst), a.Graph.dst.Graph.index)
          else begin
            (* source folded away entirely: can only be the operand of a
               folded node (already handled) or a dead chain *)
            match Hashtbl.find_opt folded dst with
            | Some _ when not trigger_done.(dst) -> (
                trigger_done.(dst) <- true;
                let rec trigger_of (p : Graph.port) : Graph.port option =
                  if e.alive.(p.Graph.node) then Some p
                  else
                    match Graph.incoming e.g p.Graph.node 0 with
                    | [ a' ] -> trigger_of (resolve e a'.Graph.src)
                    | _ -> None
                in
                match trigger_of src with
                | Some t ->
                    Graph.Builder.connect b ~dummy:true
                      (remap.(t.Graph.node), t.Graph.index)
                      (remap.(dst), 0)
                | None -> ())
            | _ -> ()
          end
        end)
      g.Graph.arcs;
    let out = Graph.Builder.finish b in
    (* permission labels live on structural arcs, which this pass never
       rewrites; the certificate only needs its node ids renumbered *)
    Option.iter
      (fun c ->
        Graph.set_cert out (Some (Graph.remap_cert c remap (Graph.num_nodes out))))
      g.Graph.cert;
    Graph.set_iteration_tags out g.Graph.iteration_tags;
    out
  end
