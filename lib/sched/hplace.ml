type level_stats = {
  regions : int;
  top_cut : int;
  intra_cut : int;
  total_arcs : int;
  avg_hops : float;
}

type t = {
  assign : int array;
  region_of_pe : int array;
  stats : level_stats;
}

(* top-level ancestor in the loop-nesting forest; the parent table is
   built once per placement, not once per lookup *)
let top_ancestor tree =
  let parent = Hashtbl.create 8 in
  List.iter (fun (id, p) -> Hashtbl.replace parent id p) tree;
  let rec up id seen =
    if List.mem id seen then id
    else
      match Hashtbl.find_opt parent id with
      | Some (Some p) -> up p (id :: seen)
      | _ -> id
  in
  fun lid -> up lid []

let compute ?(tree = []) ~(topo : Topology.t) ~pes (g : Dfg.Graph.t) : t =
  let n = Dfg.Graph.num_nodes g in
  let p = max 1 pes in
  let roots = Cluster.roots g in
  (* each cluster votes for a loop through the gateway nodes it holds;
     majority wins, ties to the smaller loop id; no gateway -> the
     toplevel (straight-line) region, keyed -1 *)
  let votes : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  Dfg.Graph.iter_nodes g (fun node ->
      match node.Dfg.Node.kind with
      | Dfg.Node.Loop_entry { loop; _ } | Dfg.Node.Loop_exit { loop; _ } ->
          let r = roots.(node.Dfg.Node.id) in
          let key = (r, loop) in
          Hashtbl.replace votes key
            (1 + (try Hashtbl.find votes key with Not_found -> 0))
      | _ -> ());
  let cluster_loop : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (r, loop) cnt ->
      match Hashtbl.find_opt cluster_loop r with
      | Some (best_cnt, best_loop)
        when best_cnt > cnt || (best_cnt = cnt && best_loop <= loop) ->
          ()
      | _ -> Hashtbl.replace cluster_loop r (cnt, loop))
    votes;
  let top_ancestor = top_ancestor tree in
  let region_of_cluster r =
    match Hashtbl.find_opt cluster_loop r with
    | Some (_, lid) -> top_ancestor lid
    | None -> -1
  in
  (* region keys present, toplevel first then ascending loop id *)
  let clusters = Cluster.sizes roots in
  let region_keys =
    List.map (fun (r, _) -> region_of_cluster r) clusters
    |> List.sort_uniq compare
  in
  let region_keys = match region_keys with [] -> [ -1 ] | l -> l in
  let nregions = List.length region_keys in
  let ords : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri (fun i k -> Hashtbl.replace ords k i) region_keys;
  let region_ord key = Option.value ~default:0 (Hashtbl.find_opt ords key) in
  (* contiguous PE ranges proportional to the node weight per region *)
  let weight = Array.make nregions 0 in
  List.iter
    (fun (r, s) ->
      let o = region_ord (region_of_cluster r) in
      weight.(o) <- weight.(o) + s)
    clusters;
  let total = Array.fold_left ( + ) 0 weight in
  let range = Array.make nregions (0, 1) in
  let cum = ref 0 in
  Array.iteri
    (fun o w ->
      let lo = if total = 0 then 0 else p * !cum / total in
      cum := !cum + w;
      let hi = if total = 0 then p else p * !cum / total in
      (* a tiny region can round to an empty slice: clamp it to one PE
         shared with its neighbour rather than dropping it *)
      if hi <= lo then range.(o) <- (min lo (p - 1), min lo (p - 1) + 1)
      else range.(o) <- (lo, hi))
    weight;
  (* largest-first bin-pack of each region's clusters into its range *)
  let assign = Array.make n 0 in
  let load = Array.make p 0 in
  let cluster_pe : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r, s) ->
      let lo, hi = range.(region_ord (region_of_cluster r)) in
      let best = ref lo in
      for pe = lo + 1 to hi - 1 do
        if load.(pe) < load.(!best) then best := pe
      done;
      Hashtbl.replace cluster_pe r !best;
      load.(!best) <- load.(!best) + s)
    clusters;
  Array.iteri (fun i r -> assign.(i) <- Hashtbl.find cluster_pe r) roots;
  (* PE -> region ordinal (later regions win a shared clamped PE) *)
  let region_of_pe = Array.make p 0 in
  Array.iteri
    (fun o (lo, hi) ->
      for pe = lo to hi - 1 do
        region_of_pe.(pe) <- o
      done)
    range;
  (* per-level cut statistics *)
  let top_cut = ref 0 and intra_cut = ref 0 and hop_sum = ref 0 in
  Array.iter
    (fun (a : Dfg.Graph.arc) ->
      let ps = assign.(a.Dfg.Graph.src.Dfg.Graph.node)
      and pd = assign.(a.Dfg.Graph.dst.Dfg.Graph.node) in
      if ps <> pd then begin
        hop_sum := !hop_sum + Routing.hops topo ps pd;
        if region_of_pe.(ps) <> region_of_pe.(pd) then incr top_cut
        else incr intra_cut
      end)
    g.Dfg.Graph.arcs;
  let cut = !top_cut + !intra_cut in
  {
    assign;
    region_of_pe;
    stats =
      {
        regions = nregions;
        top_cut = !top_cut;
        intra_cut = !intra_cut;
        total_arcs = Dfg.Graph.num_arcs g;
        avg_hops =
          (if cut = 0 then 0.0 else float_of_int !hop_sum /. float_of_int cut);
      };
  }

let pp_stats ppf (s : level_stats) =
  Fmt.pf ppf
    "%d region(s): top-level cut %d, intra-region cut %d of %d arcs, avg \
     %.2f hops"
    s.regions s.top_cut s.intra_cut s.total_arcs s.avg_hops
