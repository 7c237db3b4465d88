(* Spans around the benchmark's calls into the libraries' public
   functions.  Off (the untraced runs) a span is one boolean test; on, it
   appends a record to an in-memory list that is written out and reduced
   to per-layer self times when the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;  (** "<layer>.<what>", e.g. "cfg.build" *)
  subject : string;  (** the program, job or cell the span worked on *)
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []

let with_span ?(subject = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      stack := List.tl !stack;
      recorded :=
        { id; parent; name; subject; start; stop = Unix.gettimeofday () }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(** A root span for an interval timed elsewhere (a job in flight on a
    socket while others are too). *)
let record ?(subject = "") name ~start ~stop =
  if !enabled then begin
    recorded := { id = !next_id; parent = 0; name; subject; start; stop } :: !recorded;
    incr next_id
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part of its interval covered
   by its children.  Children of one parent run sequentially here, so
   their union is their sum, clipped to the parent's interval. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let covered =
        List.fold_left
          (fun acc c ->
            acc +. Float.max 0.0 (Float.min c.stop s.stop -. Float.max c.start s.start))
          0.0 (Hashtbl.find_all children s.id)
      in
      (s, Float.max 0.0 (duration s -. covered)))
    spans

(** Self time summed per layer, largest first. *)
let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      Hashtbl.replace tbl l
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
    (self_times spans);
  Hashtbl.fold (fun l t acc -> (l, t) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(** Durations of every span called [name], in recording order. *)
let durations name =
  List.rev !recorded
  |> List.filter_map (fun s -> if s.name = name then Some (duration s) else None)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"subject\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.subject s.start s.stop)
    (List.rev !recorded);
  close_out oc
