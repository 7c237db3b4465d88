(** Dynamic fractional-permission certificates (see the interface). *)

(* Exact rationals on native ints, normalized (den > 0, gcd = 1).  The
   fractions a run manipulates come from repeated halving/fan-out and
   rejoining, so denominators stay tiny; the [guard] bound turns a
   pathological blow-up into an explicit certificate failure instead of
   silent wrap-around. *)
module Frac = struct
  type t = { num : int; den : int }

  exception Overflow

  let guard = 1 lsl 40

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  let mk num den =
    if den = 0 then invalid_arg "Frac.mk: zero denominator";
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    if num = 0 then { num = 0; den = 1 }
    else begin
      let g = gcd (abs num) den in
      let num = num / g and den = den / g in
      if abs num > guard || den > guard then raise Overflow;
      { num; den }
    end

  let zero = { num = 0; den = 1 }
  let one = { num = 1; den = 1 }
  let is_zero f = f.num = 0
  let is_one f = f.num = 1 && f.den = 1
  let positive f = f.num > 0
  (* shared reciprocals: splitting a whole element [k] ways is the
     common fan-out and allocates nothing *)
  let recip = Array.init 65 (fun k -> if k = 0 then zero else mk 1 k)

  let add a b =
    if a.num = 0 then b
    else if b.num = 0 then a
    else if a.den = b.den then begin
      let s = a.num + b.num in
      if s = a.den then one else mk s a.den
    end
    else mk ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)

  let div_int a k =
    if k = 1 then a
    else if a.den = 1 && a.num = 1 && k > 1 && k < Array.length recip then
      recip.(k)
    else mk a.num (a.den * k)

  (* a > 1? *)
  let gt_one a = a.num > a.den

  let to_string f =
    if f.den = 1 then string_of_int f.num else Fmt.str "%d/%d" f.num f.den
end

type frac = Frac.t

(* A permission bag: element index -> positive fraction, sorted by
   element, zero entries absent.  Bags ride token payloads; almost all
   tokens carry a singleton bag or none, so an assoc list wins over any
   heavier structure. *)
type bag = (int * frac) list

let empty_bag : bag = []

let join (a : bag) (b : bag) : bag =
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (e1, f1) :: t1, (e2, f2) :: t2 ->
        if e1 < e2 then (e1, f1) :: go t1 b
        else if e2 < e1 then (e2, f2) :: go a t2
        else
          let f = Frac.add f1 f2 in
          if Frac.is_zero f then go t1 t2 else (e1, f) :: go t1 t2
  in
  go a b

let join_all (bags : bag list) : bag = List.fold_left join empty_bag bags

let join_slots (bags : bag array) ~off ~len : bag =
  try
    let acc = ref empty_bag in
    for i = off to off + len - 1 do
      acc := join !acc bags.(i)
    done;
    !acc
  with Frac.Overflow -> empty_bag

let rec find (b : bag) (e : int) : frac =
  match b with
  | [] -> Frac.zero
  | (e', f) :: rest -> if e' = e then f else find rest e

let bag_to_string (names : string array) (b : bag) : string =
  if b = [] then "{}"
  else
    Fmt.str "{%s}"
      (String.concat ", "
         (List.map
            (fun (e, f) -> Fmt.str "%s:%s" names.(e) (Frac.to_string f))
            b))

type violation =
  | Missing of {
      p_node : int;
      p_label : string;
      p_ctx : Context.t;
      p_elem : string;
      p_need : string;  (** "all of it" for stores, "a fraction" for loads *)
      p_held : string;
    }
  | Lost of { p_node : int; p_label : string; p_elem : string; p_frac : string }
  | Unretired of { p_elem : string; p_retired : string }

let violation_to_string = function
  | Missing { p_node; p_label; p_ctx; p_elem; p_need; p_held } ->
      Fmt.str
        "permission violation: %s (node %d) at ctx %s needs %s of %s, holds %s"
        p_label p_node (Context.to_string p_ctx) p_need p_elem p_held
  | Lost { p_node; p_label; p_elem; p_frac } ->
      Fmt.str "permission lost: %s of %s destroyed at %s (node %d)" p_frac
        p_elem p_label p_node
  | Unretired { p_elem; p_retired } ->
      Fmt.str "certificate incomplete: %s retired %s of 1 at quiescence" p_elem
        p_retired

let pp_violation ppf v = Fmt.string ppf (violation_to_string v)

type t = {
  graph : Dfg.Graph.t;
  cert : Dfg.Graph.cert;
  (* the routing scratch: the ports {!emitted} recorded, and after
     {!route} the bag of every delivered arc, port by port ([base.(k)] is
     the first slot of [ports.(k)]'s arcs in [out]) *)
  mutable ports : int array;
  mutable nports : int;
  mutable routed_ports : int;
  mutable base : int array;
  mutable out : bag array;
  mutable routed_node : int;  (** -1 when the last route carried nothing *)
  takers : int array;  (** per element: labelled arcs of the last route *)
  shares : frac array;  (** per element: its per-arc share *)
  mutable retired : frac array;  (** per element, accumulated at End *)
  mutable violations : violation list;  (** reverse order *)
  mutable fresh : violation list;  (** raised by the last call *)
  mutable checks : int;  (** memory-op ownership assertions performed *)
}

let create (graph : Dfg.Graph.t) (cert : Dfg.Graph.cert) : t =
  let elements = Array.length cert.Dfg.Graph.cert_elements in
  {
    graph;
    cert;
    ports = Array.make 8 0;
    nports = 0;
    routed_ports = 0;
    base = Array.make 8 0;
    out = Array.make 16 empty_bag;
    routed_node = -1;
    takers = Array.make elements 0;
    shares = Array.make elements Frac.zero;
    retired = Array.make elements Frac.zero;
    violations = [];
    fresh = [];
    checks = 0;
  }

let elements (t : t) = Array.length t.cert.Dfg.Graph.cert_elements
let checks (t : t) = t.checks
let violations (t : t) = List.rev t.violations
let fresh (t : t) = t.fresh
let record (t : t) (v : violation) = t.violations <- v :: t.violations
let label (t : t) node = (Dfg.Graph.node t.graph node).Dfg.Node.label

(** The initial bag: full permission for every element, held by the
    Start firing. *)
let mint (t : t) : bag =
  List.init (elements t) (fun e -> (e, Frac.one))

(* The ownership assertion of one firing: for memory operations, check
   the certificate's requirement against the joined bag — a store must
   own each required element outright, a load must hold a positive
   fraction of it (and never more than the whole). *)
let rec assert_owned t ~node ~ctx ~is_store held = function
  | [] -> ()
  | e :: rest ->
      t.checks <- t.checks + 1;
      let h = find held e in
      let ok =
        if is_store then Frac.is_one h
        else Frac.positive h && not (Frac.gt_one h)
      in
      if not ok then
        t.fresh <-
          Missing
            {
              p_node = node;
              p_label = label t node;
              p_ctx = ctx;
              p_elem = t.cert.Dfg.Graph.cert_elements.(e);
              p_need = (if is_store then "all" else "a fraction");
              p_held = Frac.to_string h;
            }
          :: t.fresh;
      assert_owned t ~node ~ctx ~is_store held rest

let on_fire (t : t) ~(node : int) ~(ctx : Context.t) (held : bag) : unit =
  t.fresh <- [];
  match t.cert.Dfg.Graph.cert_require.(node) with
  | [] -> ()
  | required ->
      let is_store =
        match Dfg.Graph.kind t.graph node with
        | Dfg.Node.Store _ -> true
        | _ -> false
      in
      assert_owned t ~node ~ctx ~is_store held required;
      if t.fresh <> [] then begin
        t.fresh <- List.rev t.fresh;
        List.iter (record t) t.fresh
      end

let emitted (t : t) ~(port : int) : unit =
  let k = t.nports in
  if k = Array.length t.ports then begin
    let grow a =
      let b = Array.make (2 * k) 0 in
      Array.blit a 0 b 0 k;
      b
    in
    t.ports <- grow t.ports;
    t.base <- grow t.base
  end;
  t.ports.(k) <- port;
  t.nports <- k + 1

(* The helpers of [route] recurse on their lists instead of iterating
   closures, so a route allocates only the bags it builds. *)
let rec clear_takers t = function
  | [] -> ()
  | (e, _) :: rest ->
      t.takers.(e) <- 0;
      clear_takers t rest

let rec count_labels t = function
  | [] -> ()
  | e :: rest ->
      t.takers.(e) <- t.takers.(e) + 1;
      count_labels t rest

(* count the takers over [arcs]; the result is [n] plus the arc count *)
let rec count_arcs t n = function
  | [] -> n
  | (a : Dfg.Graph.arc) :: rest ->
      count_labels t a.Dfg.Graph.tokens;
      count_arcs t (n + 1) rest

(* per element: its share, retired at End or Lost; [true] when every
   element goes whole to exactly one arc *)
let rec settle t ~node ~is_end whole = function
  | [] -> whole
  | (e, f) :: rest ->
      let k = t.takers.(e) in
      if k = 1 then begin
        t.shares.(e) <- f;
        settle t ~node ~is_end whole rest
      end
      else begin
        if k > 1 then
          t.shares.(e) <- (try Frac.div_int f k with Frac.Overflow -> Frac.zero)
        else if is_end then
          t.retired.(e) <-
            (try Frac.add t.retired.(e) f with Frac.Overflow -> t.retired.(e))
        else
          t.fresh <-
            Lost
              {
                p_node = node;
                p_label = label t node;
                p_elem = t.cert.Dfg.Graph.cert_elements.(e);
                p_frac = Frac.to_string f;
              }
            :: t.fresh;
        settle t ~node ~is_end false rest
      end

let rec carries ls = function
  | [] -> true
  | (e, _) :: rest -> List.mem e ls && carries ls rest

let rec share t ls = function
  | [] -> []
  | (e, _) :: rest ->
      let f = t.shares.(e) in
      if List.mem e ls && not (Frac.is_zero f) then (e, f) :: share t ls rest
      else share t ls rest

let rec fill t ~held ~whole j = function
  | [] -> ()
  | (a : Dfg.Graph.arc) :: rest ->
      t.out.(j) <-
        (match a.Dfg.Graph.tokens with
        | [] -> empty_bag
        | ls -> if whole && carries ls held then held else share t ls held);
      fill t ~held ~whole (j + 1) rest

(* Distribute the firing's held bag over its actual emissions: each
   element's fraction splits equally over the emitted arcs labelled with
   it.  At [End] the whole bag retires instead.  Any positive fraction
   with no labelled arc (and no End) has been destroyed — a Lost
   violation.  A firing that consumed no permission (a third to a half
   of all firings) returns at once; when every element goes whole to
   one arc, that arc carries [held] itself. *)
let route (t : t) ~(node : int) ~(held : bag) : unit =
  let nports = t.nports in
  t.nports <- 0;
  t.routed_ports <- nports;
  t.fresh <- [];
  if held = [] then t.routed_node <- -1
  else begin
    t.routed_node <- node;
    clear_takers t held;
    let total = ref 0 in
    for k = 0 to nports - 1 do
      t.base.(k) <- !total;
      total := count_arcs t !total (Dfg.Graph.outgoing t.graph node t.ports.(k))
    done;
    if !total > Array.length t.out then
      t.out <- Array.make (2 * !total) empty_bag;
    let is_end =
      match Dfg.Graph.kind t.graph node with Dfg.Node.End _ -> true | _ -> false
    in
    let whole = settle t ~node ~is_end true held in
    for k = 0 to nports - 1 do
      fill t ~held ~whole t.base.(k)
        (Dfg.Graph.outgoing t.graph node t.ports.(k))
    done;
    if t.fresh <> [] then begin
      t.fresh <- List.rev t.fresh;
      List.iter (record t) t.fresh
    end
  end

let routed (t : t) ~(node : int) ~(port : int) (i : int) : bag =
  if node <> t.routed_node then empty_bag
  else
    let rec find k =
      if k >= t.routed_ports then empty_bag
      else if t.ports.(k) = port then t.out.(t.base.(k) + i)
      else find (k + 1)
    in
    find 0

(* The global account, checkable only once the machine is quiet: every
   element's permission must have retired in full at End — exactly 1.
   Undershoot means permission was dropped or is stuck in a matching
   store (a collision overwrite, a leak); overshoot means it was
   duplicated somewhere along the way. *)
let at_quiescence (t : t) : violation list =
  let vs = ref [] in
  Array.iteri
    (fun e r ->
      if not (Frac.is_one r) then
        vs :=
          Unretired
            {
              p_elem = t.cert.Dfg.Graph.cert_elements.(e);
              p_retired = Frac.to_string r;
            }
          :: !vs)
    t.retired;
  let vs = List.rev !vs in
  List.iter (record t) vs;
  vs

(* Checkpoint support: certificate memory must roll back with the
   machine so replayed firings re-earn (not double-count) their
   permissions. *)
type snap = {
  sn_retired : frac array;
  sn_violations : violation list;
  sn_checks : int;
}

let snapshot (t : t) : snap =
  {
    sn_retired = Array.copy t.retired;
    sn_violations = t.violations;
    sn_checks = t.checks;
  }

let restore (t : t) (s : snap) : unit =
  t.retired <- Array.copy s.sn_retired;
  t.violations <- s.sn_violations;
  t.checks <- s.sn_checks
