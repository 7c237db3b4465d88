(* Workload inputs, all derived from the benchmark's --seed.  The program
   under test only ever sees the generated IMP source text. *)

type program = {
  name : string;
  why : string;  (** why this input is in the workload *)
  source : string;  (** pretty-printed IMP, parsed by every consumer *)
}

let rng seed salt = Random.State.make [| seed; salt |]

(* --- random programs ------------------------------------------------------ *)

(* Program shapes are drawn from this fixed seed; the benchmark's --seed
   draws every program's initial data (and the kernels' data).  A new seed changes values and the paths taken through the
   code, never how much code there is, so runs with different seeds
   measure comparable work — the run-to-run spread the bounds allow
   leaves no room for a fresh random program per seed. *)
let shape_seed = 1990

(* A random program is a sequence of small independently drawn chunks,
   appended until their Schema-1 node counts sum to the target (DFG size
   is close to additive over chunks). *)
let chunk_config ~loop_bound =
  {
    Workloads.Random_gen.num_vars = 6;
    num_arrays = 1;
    array_extent = 8;
    max_depth = 2;
    max_len = 3;
    expr_depth = 3;
    loop_bound;
    allow_alias = false;
  }

let program_of_body body : Imp.Ast.program =
  { Imp.Ast.arrays = [ ("a0", 8) ]; equiv = []; may_alias = []; procs = [];
    body }

let schema1_nodes (p : Imp.Ast.program) =
  Dfg.Graph.num_nodes
    (Dflow.Driver.compile Dflow.Driver.Schema1 p).Dflow.Driver.graph

(** [random ~seed ~salt ~target ~loop_bound] is the shape numbered [salt]
    of about [target] Schema-1 nodes, preceded by seed-drawn initial
    values for every scalar and array cell it uses. *)
let random ~seed ~salt ~target ~loop_bound : Imp.Ast.program =
  let config = chunk_config ~loop_bound in
  let shape = rng shape_seed salt in
  let rec grow acc nodes =
    if nodes >= target then List.rev acc
    else
      let c = Workloads.Random_gen.structured_body config shape in
      grow (c :: acc) (nodes + schema1_nodes (program_of_body c))
  in
  let data = rng seed salt in
  let value () = Imp.Ast.Int (Random.State.int data 41 - 20) in
  let init =
    List.init config.num_vars (fun i ->
        Imp.Ast.Assign (Imp.Ast.Lvar (Printf.sprintf "v%d" i), value ()))
    @ List.init config.array_extent (fun k ->
          Imp.Ast.Assign (Imp.Ast.Lindex ("a0", Imp.Ast.Int k), value ()))
  in
  let p = program_of_body (Imp.Ast.seq (init @ grow [] 0)) in
  Imp.Typecheck.check_program p;
  p

let to_source p = Imp.Pretty.program_to_string p

(* --- compile-ladder ---------------------------------------------------- *)

(* Twelve programs whose Schema-1 sizes step log-uniformly from 10^2 to
   10^4 nodes (ROADMAP's x1/x10/x100 ladder).  A continuous ladder rather
   than three discrete rungs keeps compile-time percentiles inside a
   dense run of samples instead of on the edge between two rungs. *)
let ladder_size = 12

let ladder_target k =
  int_of_float
    (100.0 *. (100.0 ** (float_of_int k /. float_of_int (ladder_size - 1))))

let ladder seed : program list =
  List.init ladder_size (fun k ->
      let target = ladder_target k in
      {
        name = Printf.sprintf "ladder%02d_%d" k target;
        why =
          Printf.sprintf
            "random structured program of ~%d Schema-1 nodes (ladder step %d)"
            target k;
        source = to_source (random ~seed ~salt:k ~target ~loop_bound:3);
      })

(* --- kernels ------------------------------------------------------------- *)

(* Seed-derived constants feed the kernels' initial data; sizes are fixed
   so that a seed changes values, never the shape of the computation. *)
let consts seed salt n =
  let r = rng seed salt in
  List.init n (fun _ -> 3 + Random.State.int r 97)

let stencil seed =
  match consts seed 1 4 with
  | [ k1; k2; k3; k4 ] ->
      Printf.sprintf
        "array a[96]\narray b[96]\narray c[96]\narray d[96]\n\
         i := 0\n\
         while i < 96 do\n\
        \  a[i] := (i * %d + %d) %% 23\n\
        \  b[i] := (i * %d + %d) %% 19\n\
        \  i := i + 1\n\
         end\n\
         j := 1\n\
         while j < 95 do\n\
        \  c[j] := (a[j - 1] + a[j] + a[j + 1] + b[j - 1] + b[j] + b[j + 1]) / 6\n\
        \  d[j] := (a[j] * b[j] + c[j]) %% 17\n\
        \  j := j + 1\n\
         end\n"
        k1 k2 k3 k4
  | _ -> assert false

let matmul seed =
  match consts seed 2 2 with
  | [ k1; k2 ] ->
      Printf.sprintf
        "array a[36]\narray b[36]\narray c[36]\n\
         i := 0\n\
         while i < 36 do\n\
        \  a[i] := (i * %d) %% 11\n\
        \  b[i] := (i * %d) %% 13\n\
        \  i := i + 1\n\
         end\n\
         r := 0\n\
         while r < 6 do\n\
        \  q := 0\n\
        \  while q < 6 do\n\
        \    s := 0\n\
        \    k := 0\n\
        \    while k < 6 do\n\
        \      s := s + a[r * 6 + k] * b[k * 6 + q]\n\
        \      k := k + 1\n\
        \    end\n\
        \    c[r * 6 + q] := s\n\
        \    q := q + 1\n\
        \  end\n\
        \  r := r + 1\n\
         end\n"
        k1 k2
  | _ -> assert false

let histogram seed =
  match consts seed 3 2 with
  | [ k1; k2 ] ->
      Printf.sprintf
        "array x[96]\narray h[8]\n\
         i := 0\n\
         while i < 96 do\n\
        \  x[i] := (i * i * %d + i * %d) %% 8\n\
        \  i := i + 1\n\
         end\n\
         j := 0\n\
         while j < 96 do\n\
        \  h[x[j]] := h[x[j]] + 1\n\
        \  j := j + 1\n\
         end\n"
        k1 k2
  | _ -> assert false

(* Labyrinth-style: sweep until a sweep changes nothing.  Each backward
   sweep carries the running maximum one cell further; a sentinel above
   every seeded value at cell 0 makes the sweep count exactly the array
   length whatever the data, while which cells change depends on it. *)
let converge seed =
  match consts seed 4 2 with
  | [ k1; k2 ] ->
      Printf.sprintf
        "array a[16]\n\
         a[0] := 1000\n\
         i := 1\n\
         while i < 16 do\n\
        \  a[i] := (i * %d + %d) %% 31\n\
        \  i := i + 1\n\
         end\n\
         changed := 1\n\
         while changed == 1 do\n\
        \  changed := 0\n\
        \  j := 15\n\
        \  while j > 0 do\n\
        \    if a[j - 1] > a[j] then\n\
        \      a[j] := a[j - 1]\n\
        \      changed := 1\n\
        \    end\n\
        \    j := j - 1\n\
        \  end\n\
         end\n"
        k1 k2
  | _ -> assert false

let kernels seed : program list =
  [
    { name = "stencil";
      why = "the committed stencil widened to 96 cells: independent \
             producer/consumer chains per iteration";
      source = stencil seed };
    { name = "matmul";
      why = "6x6 triple loop nest: deep nesting, many firings per node";
      source = matmul seed };
    { name = "histogram";
      why = "indirect h[x[j]] writes: data-dependent addresses serialise \
             on the access token";
      source = histogram seed };
    { name = "converge";
      why = "Labyrinth-style repeat-until-no-change loop: trip count set \
             by the data";
      source = converge seed };
    { name = "wide";
      why = "one random program of ~10^4 executed (Schema 2-opt) nodes with \
             loops of at most two trips: many nodes, few firings each";
      source = to_source (random ~seed ~salt:100 ~target:6_000 ~loop_bound:2) };
  ]

(* --- serve-mix ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let examples_dir = "examples/programs"

(* The committed examples plus small random programs: jobs this small
   leave framing, JSON, the caches, supervisor IPC and the pool a
   visible share of each job's time. *)
let serve_pool seed : program list =
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".imp")
    |> List.sort compare
    |> List.map (fun f ->
           { name = Filename.chop_suffix f ".imp";
             why = "committed example";
             source = read_file (Filename.concat examples_dir f) })
  in
  let randoms =
    List.init 15 (fun i ->
        { name = Printf.sprintf "small%d" i;
          why = "small random structured program";
          source = to_source (random ~seed ~salt:(200 + i) ~target:60 ~loop_bound:3) })
  in
  examples @ randoms
