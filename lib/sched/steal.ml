type spec = { hysteresis : int; min_victim : int }

let default = { hysteresis = 4; min_victim = 2 }

let nearest (topo : Topology.t) ~thief candidates =
  List.fold_left
    (fun best pe ->
      if pe = thief then best
      else
        let d = Routing.hops topo thief pe in
        match best with
        | Some (bd, bpe) when bd < d || (bd = d && bpe < pe) -> best
        | _ -> Some (d, pe))
    None candidates
  |> Option.map snd
