(** Sparse PE sets (see the interface). *)

type t = { mem : bool array; elts : int array; mutable n : int }

let create size =
  { mem = Array.make size false; elts = Array.make size 0; n = 0 }

let add s pe =
  if not s.mem.(pe) then begin
    s.mem.(pe) <- true;
    s.elts.(s.n) <- pe;
    s.n <- s.n + 1
  end

let is_empty s = s.n = 0

(* insertion sort in place: members kept from the previous pass are
   already in order, so only the newly added ones move *)
let iter s f =
  for i = 1 to s.n - 1 do
    let pe = s.elts.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && s.elts.(!j) > pe do
      s.elts.(!j + 1) <- s.elts.(!j);
      decr j
    done;
    s.elts.(!j + 1) <- pe
  done;
  for i = 0 to s.n - 1 do
    f s.elts.(i)
  done

let retain s keep =
  let k = ref 0 in
  for i = 0 to s.n - 1 do
    let pe = s.elts.(i) in
    if keep pe then begin
      s.elts.(!k) <- pe;
      incr k
    end
    else s.mem.(pe) <- false
  done;
  s.n <- !k
