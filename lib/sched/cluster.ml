(* Affinity clustering by union-find.  The aim is to keep the arcs that
   carry the bulk of schema traffic internal to a PE:
   - all memory operations on one variable form that variable's
     access-token chain — union them;
   - expression trees stay whole (expr-expr arcs) and ride with the
     memory operation they feed (expr -> load/store input arcs);
   - a switch joins the cluster of its data input (port 0) — NOT its
     predicate input, which fans out across every variable's gate at a
     branch and would collapse all chains into one cluster;
   - a merge joins the cluster feeding it (same variable's gated token);
   - a synch collects access-out dummies of many variables, so it joins
     its consumer's cluster instead of any producer's;
   - arity-1 (pipelined) loop gateways join their variable's chain via
     the back edge; barrier gateways (arity > 1) rendezvous every chain
     and stay singleton — wherever they land, all but one chain pays.
   Start/End touch everything and never participate in a union. *)
let roots (g : Dfg.Graph.t) : int array =
  let n = Dfg.Graph.num_nodes g in
  let parent = Array.init n (fun i -> i) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
  in
  let kind i = Dfg.Graph.kind g i in
  let is_expr i =
    match kind i with
    | Dfg.Node.Const _ | Dfg.Node.Binop _ | Dfg.Node.Unop _ | Dfg.Node.Id
    | Dfg.Node.Sink ->
        true
    | _ -> false
  in
  let is_mem i = Dfg.Node.is_memory_op (kind i) in
  let is_terminal i =
    match kind i with Dfg.Node.Start _ | Dfg.Node.End _ -> true | _ -> false
  in
  (* variable chains *)
  let var_rep : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Dfg.Graph.iter_nodes g (fun node ->
      match node.Dfg.Node.kind with
      | Dfg.Node.Load { var; _ } | Dfg.Node.Store { var; _ } -> (
          match Hashtbl.find_opt var_rep var with
          | Some r -> union r node.Dfg.Node.id
          | None -> Hashtbl.add var_rep var node.Dfg.Node.id)
      | _ -> ());
  (* expression trees and their consuming memory ops; the same pass
     notes, for the rule below, which nodes feed data and each node's
     first non-terminal producer in arc-array order *)
  let feeds_data = Array.make n false in
  let producer = Array.make n (-1) in
  Array.iter
    (fun (a : Dfg.Graph.arc) ->
      let s = a.Dfg.Graph.src.Dfg.Graph.node
      and d = a.Dfg.Graph.dst.Dfg.Graph.node in
      if is_expr d || is_mem d then begin
        feeds_data.(s) <- true;
        if is_expr s then union s d
      end;
      if producer.(d) < 0 && not (is_terminal s) then producer.(d) <- s)
    g.Dfg.Graph.arcs;
  (* An expression consumed only by control nodes — a loop predicate
     feeding switch gates, an index feeding a gateway — joins the
     cluster that PRODUCES its operands.  Left alone it would be a
     singleton placed arbitrarily, and a loop predicate in the wrong
     bin puts a network round trip inside the iteration-advance cycle:
     the one latency pipelining cannot hide. *)
  Dfg.Graph.iter_nodes g (fun node ->
      let i = node.Dfg.Node.id in
      if is_expr i && (not feeds_data.(i)) && producer.(i) >= 0 then
        union i producer.(i));
  (* control nodes attach to one side of their variable's chain *)
  let first_in i port =
    match Dfg.Graph.incoming g i port with
    | a :: _ ->
        let s = a.Dfg.Graph.src.Dfg.Graph.node in
        if is_terminal s then None else Some s
    | [] -> None
  in
  let first_out i port =
    match Dfg.Graph.outgoing g i port with
    | a :: _ ->
        let d = a.Dfg.Graph.dst.Dfg.Graph.node in
        if is_terminal d then None else Some d
    | [] -> None
  in
  Dfg.Graph.iter_nodes g (fun node ->
      let i = node.Dfg.Node.id in
      match node.Dfg.Node.kind with
      | Dfg.Node.Switch -> (
          match first_in i 0 with Some s -> union i s | None -> ())
      | Dfg.Node.Merge ->
          List.iter
            (fun (a : Dfg.Graph.arc) ->
              let s = a.Dfg.Graph.src.Dfg.Graph.node in
              if not (is_terminal s) then union i s)
            (Dfg.Graph.incoming g i 0)
      | Dfg.Node.Synch _ -> (
          match first_out i 0 with Some d -> union i d | None -> ())
      | Dfg.Node.Loop_entry { arity = 1; _ } -> (
          match first_in i 1 with
          | Some s -> union i s
          | None -> ( match first_out i 0 with Some d -> union i d | None -> ()))
      | Dfg.Node.Loop_exit { arity = 1; _ } -> (
          match first_in i 0 with Some s -> union i s | None -> ())
      | _ -> ());
  Array.init n find

let sizes (roots : int array) : (int * int) list =
  let size : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      Hashtbl.replace size r
        (1 + (try Hashtbl.find size r with Not_found -> 0)))
    roots;
  Hashtbl.fold (fun r s acc -> (r, s) :: acc) size []
  |> List.sort (fun (r1, s1) (r2, s2) ->
         if s1 <> s2 then compare s2 s1 else compare r1 r2)
