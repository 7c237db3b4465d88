(** Online token-conservation sanitizer (see the interface). *)

type violation =
  | Double_fire of { df_node : int; df_ctx : Context.t }
  | Switch_imbalance of { sw_node : int; sw_in : int; sw_fired : int }
  | Loop_imbalance of {
      li_loop : int;
      li_activations : int;  (** distinct initial-entry contexts *)
      li_entries : int;
      li_entry_gates : int;
      li_exits : int;
      li_exit_ctxs : int;  (** distinct exit contexts *)
      li_exit_gates : int;
    }
  | Store_leak of { sl_tokens : int; sl_by_pe : (int * int) list }

let violation_to_string = function
  | Double_fire { df_node; df_ctx } ->
      Fmt.str "double fire: node %d at ctx %s" df_node
        (Context.to_string df_ctx)
  | Switch_imbalance { sw_node; sw_in; sw_fired } ->
      Fmt.str "switch %d fired %d times on %d data tokens" sw_node sw_fired
        sw_in
  | Loop_imbalance { li_loop; li_activations; li_entries; li_entry_gates;
                     li_exits; li_exit_ctxs; li_exit_gates } ->
      Fmt.str
        "loop %d unbalanced: %d activation(s), %d initial entries over %d \
         entry gateway(s), %d exits at %d context(s) over %d exit gateway(s)"
        li_loop li_activations li_entries li_entry_gates li_exits li_exit_ctxs
        li_exit_gates
  | Store_leak { sl_tokens; sl_by_pe } ->
      Fmt.str "%d token(s) leaked in the matching store at quiescence%s"
        sl_tokens
        (match sl_by_pe with
        | [] -> ""
        | by_pe ->
            Fmt.str " (%s)"
              (String.concat ", "
                 (List.map
                    (fun (pe, n) -> Fmt.str "pe %d: %d" pe n)
                    by_pe)))

let pp_violation ppf v = Fmt.string ppf (violation_to_string v)

(* A set of (context id, index) pairs as one bit row per context id,
   each row allocated on the context's first use: what has fired (index
   = node) and which loop activations and exits a context has seen
   (index = dense loop).  A run of firings in one context touches one
   small row, so the test-and-set stays in cache and allocates
   nothing. *)
module Rows = struct
  type t = { width : int; mutable rows : Bytes.t array }

  let none = Bytes.empty
  let create n = { width = (n + 7) / 8; rows = Array.make 16 none }

  let copy f =
    {
      f with
      rows = Array.map (fun r -> if r == none then r else Bytes.copy r) f.rows;
    }

  (* [add f cid i] is [false] when ([cid], [i]) was already present *)
  let add f cid i =
    if cid >= Array.length f.rows then begin
      let rows = Array.make (max (2 * Array.length f.rows) (cid + 1)) none in
      Array.blit f.rows 0 rows 0 (Array.length f.rows);
      f.rows <- rows
    end;
    let row =
      let r = Array.unsafe_get f.rows cid in
      if r != none then r
      else begin
        let r = Bytes.make f.width '\000' in
        f.rows.(cid) <- r;
        r
      end
    in
    let byte = i lsr 3 and bit = 1 lsl (i land 7) in
    let b = Char.code (Bytes.unsafe_get row byte) in
    if b land bit <> 0 then false
    else begin
      Bytes.unsafe_set row byte (Char.unsafe_chr (b lor bit));
      true
    end
end

type t = {
  tagged : bool;  (** arm the one-fire-per-(node, context) rule *)
  is_switch : bool array;
  entry_loop : int array;  (** dense loop index of a Loop_entry, else -1 *)
  entry_arity : int array;
  exit_loop : int array;  (** dense loop index of a Loop_exit, else -1 *)
  loop_ids : int array;  (** dense loop index -> loop id, ascending *)
  entry_gates : int array;  (** per dense loop: Loop_entry node count *)
  exit_gates : int array;
  (* context interning: dense ids, with a physical-equality cache of the
     last context seen so a run of firings in one context hashes once *)
  ctx_ids : (Context.t, int) Hashtbl.t;
  mutable last_ctx : Context.t;
  mutable last_cid : int;
  (* the rolling-back part *)
  mutable fired : Rows.t;  (** (cid, node) *)
  mutable fires : int;
  switch_in : int array;  (** data (port 0) deliveries per switch *)
  switch_fired : int array;
  loop_entries : int array;  (** initial-group fires per loop *)
  loop_exits : int array;
  activations : int array;  (** distinct initial-entry contexts *)
  exit_ctx_count : int array;  (** distinct exit contexts *)
  mutable entry_ctxs : Rows.t;  (** (cid, dense loop) *)
  mutable exit_ctxs : Rows.t;
}

let create (graph : Dfg.Graph.t) : t =
  let n = Dfg.Graph.num_nodes graph in
  let entry_loop = Array.make n (-1) and exit_loop = Array.make n (-1) in
  let entry_arity = Array.make n 0 and is_switch = Array.make n false in
  let ids = ref [] in
  Dfg.Graph.iter_nodes graph (fun node ->
      match node.Dfg.Node.kind with
      | Dfg.Node.Loop_entry { loop; _ } | Dfg.Node.Loop_exit { loop; _ } ->
          ids := loop :: !ids
      | _ -> ());
  let loop_ids = Array.of_list (List.sort_uniq compare !ids) in
  let nl = Array.length loop_ids in
  let dense loop =
    let rec go i = if loop_ids.(i) = loop then i else go (i + 1) in
    go 0
  in
  let entry_gates = Array.make nl 0 and exit_gates = Array.make nl 0 in
  Dfg.Graph.iter_nodes graph (fun node ->
      let v = node.Dfg.Node.id in
      match node.Dfg.Node.kind with
      | Dfg.Node.Switch -> is_switch.(v) <- true
      | Dfg.Node.Loop_entry { loop; arity } ->
          let l = dense loop in
          entry_loop.(v) <- l;
          entry_arity.(v) <- arity;
          entry_gates.(l) <- entry_gates.(l) + 1
      | Dfg.Node.Loop_exit { loop; _ } ->
          let l = dense loop in
          exit_loop.(v) <- l;
          exit_gates.(l) <- exit_gates.(l) + 1
      | _ -> ());
  {
    tagged = graph.Dfg.Graph.iteration_tags;
    is_switch;
    entry_loop;
    entry_arity;
    exit_loop;
    loop_ids;
    entry_gates;
    exit_gates;
    ctx_ids =
      (let h = Hashtbl.create 64 in
       Hashtbl.add h Context.toplevel 0;
       h);
    last_ctx = Context.toplevel;
    last_cid = 0;
    fired = Rows.create n;
    fires = 0;
    switch_in = Array.make n 0;
    switch_fired = Array.make n 0;
    loop_entries = Array.make nl 0;
    loop_exits = Array.make nl 0;
    activations = Array.make nl 0;
    exit_ctx_count = Array.make nl 0;
    entry_ctxs = Rows.create nl;
    exit_ctxs = Rows.create nl;
  }

let on_delivery (t : t) ~node ~port =
  if port = 0 && Array.unsafe_get t.is_switch node then
    t.switch_in.(node) <- t.switch_in.(node) + 1

let on_fire_id (t : t) ~node ~cid ~ctx ~group : violation option =
  t.fires <- t.fires + 1;
  if t.is_switch.(node) then t.switch_fired.(node) <- t.switch_fired.(node) + 1
  else begin
    let l = t.entry_loop.(node) in
    if l >= 0 then begin
      (* group length [arity] = initial entry; [arity + 1] = back edge *)
      if group = t.entry_arity.(node) then begin
        t.loop_entries.(l) <- t.loop_entries.(l) + 1;
        if Rows.add t.entry_ctxs cid l then
          t.activations.(l) <- t.activations.(l) + 1
      end
    end
    else
      let l = t.exit_loop.(node) in
      if l >= 0 then begin
        t.loop_exits.(l) <- t.loop_exits.(l) + 1;
        if Rows.add t.exit_ctxs cid l then
          t.exit_ctx_count.(l) <- t.exit_ctx_count.(l) + 1
      end
  end;
  if t.tagged && not (Rows.add t.fired cid node) then
    Some (Double_fire { df_node = node; df_ctx = ctx })
  else None

let intern (t : t) (ctx : Context.t) : int =
  if ctx == t.last_ctx then t.last_cid
  else begin
    let cid =
      match Hashtbl.find t.ctx_ids ctx with
      | i -> i
      | exception Not_found ->
          let i = Hashtbl.length t.ctx_ids in
          Hashtbl.add t.ctx_ids ctx i;
          i
    in
    t.last_ctx <- ctx;
    t.last_cid <- cid;
    cid
  end

let on_fire (t : t) ~node ~ctx ~group : violation option =
  on_fire_id t ~node ~cid:(intern t ctx) ~ctx ~group

let fire_count (t : t) = t.fires

let at_quiescence ?(by_pe = []) (t : t) ~leftover : violation list =
  let vs = ref [] in
  if leftover > 0 then
    vs :=
      [
        Store_leak
          {
            sl_tokens = leftover;
            sl_by_pe = List.filter (fun (_, n) -> n > 0) by_pe;
          };
      ];
  (* Every loop's activations must balance.  An activation is one
     distinct initial-entry context.  Each activation drives every entry
     gateway exactly once (initial group), and leaves through exactly
     one exit site — all of that site's gateways fire once, at one
     shared exit context.  A loop may have several exit sites (goto
     programs), so exit fires are only bounded by the total gateway
     count; the exact conservation law is on the distinct contexts. *)
  Array.iteri
    (fun l loop ->
      let e_gates = t.entry_gates.(l) and x_gates = t.exit_gates.(l) in
      let entries = t.loop_entries.(l) and exits = t.loop_exits.(l) in
      let activations = t.activations.(l) in
      let exit_ctxs = t.exit_ctx_count.(l) in
      if
        e_gates > 0 && x_gates > 0
        && (entries <> activations * e_gates
           || exit_ctxs <> activations
           || exits < exit_ctxs
           || exits > activations * x_gates)
      then
        vs :=
          Loop_imbalance
            {
              li_loop = loop;
              li_activations = activations;
              li_entries = entries;
              li_entry_gates = e_gates;
              li_exits = exits;
              li_exit_ctxs = exit_ctxs;
              li_exit_gates = x_gates;
            }
          :: !vs)
    t.loop_ids;
  Array.iteri
    (fun node inflow ->
      let fired = t.switch_fired.(node) in
      if inflow <> fired then
        vs :=
          Switch_imbalance { sw_node = node; sw_in = inflow; sw_fired = fired }
          :: !vs)
    t.switch_in;
  List.rev !vs

(* Checkpoint support: the sanitizer's memory of what has fired must
   roll back with the machine, or replayed firings would all read as
   double fires.  Context ids are names, not state: they never roll
   back. *)
type snap = {
  sn_fired : Rows.t;
  sn_fires : int;
  sn_counts : int array array;
  sn_entry_ctxs : Rows.t;
  sn_exit_ctxs : Rows.t;
}

let counts (t : t) =
  [|
    t.switch_in; t.switch_fired; t.loop_entries; t.loop_exits; t.activations;
    t.exit_ctx_count;
  |]

let snapshot (t : t) : snap =
  {
    sn_fired = Rows.copy t.fired;
    sn_fires = t.fires;
    sn_counts = Array.map Array.copy (counts t);
    sn_entry_ctxs = Rows.copy t.entry_ctxs;
    sn_exit_ctxs = Rows.copy t.exit_ctxs;
  }

let restore (t : t) (s : snap) : unit =
  t.fired <- Rows.copy s.sn_fired;
  t.fires <- s.sn_fires;
  Array.iteri
    (fun i c -> Array.blit c 0 (counts t).(i) 0 (Array.length c))
    s.sn_counts;
  t.entry_ctxs <- Rows.copy s.sn_entry_ctxs;
  t.exit_ctxs <- Rows.copy s.sn_exit_ctxs
