(* The benchmark harness: one process per run.

     harness.exe --workload W --seed N --seconds S --trace 0|1
                 --df-compile EXE --out DIR

   Every workload runs the same three phases over its own inputs —
   compile (four schema families), execute (four engine configurations)
   and serve (the real binary over a socket and over stdin) — with the
   run's seconds split between them by the workload's shares.  Every
   output is checked against the reference interpreter (Imp.Eval);
   exact counts are checked to repeat on every pass.  The last stdout
   line is the JSON result; perfbench/run.py adds peak RSS to it. *)

let now = Unix.gettimeofday
let span = Spans.with_span

(* --- statistics --------------------------------------------------------- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs
let best xs = List.fold_left Float.min infinity xs

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum_int xs = List.fold_left ( + ) 0 xs

(* The highest percentile with at least ten samples beyond it, for the
   fewest samples a run can take (every phase repeats at least
   [min_passes] times).  Fixed per workload, so runs of different length
   report the same percentile. *)
let tail_q n_min =
  match
    List.find_opt (fun pct -> n_min * (100 - pct) >= 1000) [ 99; 95; 90; 80; 75 ]
  with
  | Some pct -> float_of_int pct /. 100.0
  | None -> 0.5

let ms s = s *. 1000.0

(* --- output checks ------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(** One checked operation: counts against [error_rate] if any condition
    fails; the first failures are explained on stderr. *)
let check what conds =
  incr attempted;
  match List.filter (fun (_, ok) -> not ok) conds with
  | [] -> ()
  | bad ->
      incr failed;
      if !failed <= 20 then
        prerr_endline
          ("FAIL " ^ what ^ ": " ^ String.concat ", " (List.map fst bad))

let guarded what f =
  try f ()
  with e ->
    check what [ (Printexc.to_string e, false) ];
    None

(* --- inputs ------------------------------------------------------------- *)

let schemas = [ "1"; "2p"; "2optp"; "3" ]

let spec s =
  match Serve.Server.spec_of_string s with Ok v -> v | Error e -> failwith e

(* A source the reference interpreter has already run. *)
type input = {
  program : Gen.program;
  ast : Imp.Ast.program;
  reference : Imp.Memory.t;
  store : string;  (** the reference store as `serve` prints it *)
}

let store_json m =
  Machine.Json.to_string
    (Machine.Json.Assoc
       (List.map
          (fun (name, idx, v) -> (Printf.sprintf "%s[%d]" name idx, Machine.Json.Int v))
          (Imp.Memory.dump_vars m)))

let prepare (program : Gen.program) =
  let ast = Imp.Parser.program_of_string program.source in
  let reference = Imp.Eval.run_program ~fuel:10_000_000 ast in
  { program; ast; reference; store = store_json reference }

(* Combinations a sound schema rejects by design (aliasing under Schema
   2, irreducible flow under 2 and 3) are not attempted. *)
let unsupported = function
  | Dflow.Driver.Aliasing_unsupported _ | Cfg.Intervals.Irreducible _ -> true
  | _ -> false

let supported_schemas ast =
  List.filter
    (fun s ->
      match Dflow.Driver.compile (spec s) ast with
      | _ -> true
      | exception e when unsupported e -> false)
    schemas

(* An execution input: one program compiled once, as `run` and
   `simulate` compile it by default (no -O). *)
type cell = {
  input : input;
  schema : string;
  compiled : Dflow.Driver.compiled;
  graph : Dfg.Graph.t;
  code : Machine.Packed.code;
}

let exec_schema input =
  match supported_schemas input.ast with
  | ss when List.mem "2optp" ss -> "2optp"
  | s :: _ -> s
  | [] -> failwith (input.program.Gen.name ^ " compiles under no schema")

let make_cell input =
  let schema = exec_schema input in
  let compiled = Dflow.Driver.compile (spec schema) input.ast in
  let graph = compiled.Dflow.Driver.graph in
  Dfg.Check.check graph;
  { input; schema; compiled; graph; code = Machine.Packed.compile_graph graph }

(* --- workloads ---------------------------------------------------------- *)

type workload = {
  compile_set : Gen.program list;
  exec_set : Gen.program list;
  serve_set : Gen.program list;
  jobs : int;  (** serve job-list length *)
  serve_passes : int;  (** socket and stdin passes per round *)
}

let workload name seed =
  match name with
  | "compile-ladder" ->
      let ladder = Gen.ladder seed in
      {
        compile_set = ladder;
        (* the ladder's middle steps (~500 to ~2300 nodes) execute: big
           enough that a run is not all engine start-up, small enough
           for p=64; its six smallest programs are served *)
        exec_set = List.filteri (fun i _ -> i >= 4 && i < 8) ladder;
        serve_set = List.filteri (fun i _ -> i < 6) ladder;
        jobs = 50;
        serve_passes = 3;
      }
  | "kernels" ->
      let k = Gen.kernels seed in
      {
        compile_set = k;
        exec_set = k;
        (* wide's jobs would be a few 10^4-node compiles whose latency is
           decided by which shard's cache they meet; compile-ladder
           measures that front end *)
        serve_set = List.filter (fun (p : Gen.program) -> p.name <> "wide") k;
        jobs = 40;
        serve_passes = 2;
      }
  | "serve-mix" ->
      let pool = Gen.serve_pool seed in
      { compile_set = pool; exec_set = pool; serve_set = pool; jobs = 160;
        serve_passes = 4 }
  | w -> failwith ("unknown workload " ^ w)

(* --- serve job list ---------------------------------------------------- *)

type expect = Nodes of int | Store of string

type job = { line : string; expect : expect }

(* A fixed composition, so that every seed serves the same jobs: ops
   follow a 10-job pattern of 2 compile, 5 run and 3 simulate (p=4);
   even jobs take the next input in turn with the next schema it
   supports, and each odd job repeats the (source, schema) of the even
   job two before it, so that about half the jobs can hit the caches.
   The order is fixed too: which job of a repeated pair misses the cache
   depends on it, and with a seed-drawn order job_ms_p50 spread 0.33
   (IQR over median, six seeds) against 0.06 with this one. *)
let ops = [| "compile"; "run"; "simulate"; "run"; "run"; "simulate"; "compile"; "run"; "simulate"; "run" |]

let job_list n (inputs : input list) =
  let pool =
    Array.of_list
      (List.filter_map
         (fun i ->
           match supported_schemas i.ast with
           | [] -> None
           | s -> Some (i, Array.of_list s))
         inputs)
  in
  let len = Array.length pool in
  let picks = Array.make n (fst pool.(0), "") in
  for id = 0 to n - 1 do
    picks.(id) <-
      (if id mod 2 = 1 then picks.(max 0 (id - 3))
       else
         let k = id / 2 in
         let i, ss = pool.(k mod len) in
         (i, ss.(k / len mod Array.length ss)))
  done;
  let canonical = Array.mapi (fun id (i, s) -> (i, s, ops.(id mod Array.length ops))) picks in
  let nodes = Hashtbl.create 64 in
  let expected_nodes i s =
    let key = (i.program.Gen.name, s) in
    match Hashtbl.find_opt nodes key with
    | Some n -> n
    | None ->
        let n = Dfg.Graph.num_nodes (Dflow.Driver.compile (spec s) i.ast).Dflow.Driver.graph in
        Hashtbl.replace nodes key n;
        n
  in
  List.mapi
    (fun id (input, schema, op) ->
      let module J = Machine.Json in
      let fields =
        [ ("id", J.Int id); ("op", J.String op);
          ("source", J.String input.program.Gen.source);
          ("schema", J.String schema) ]
        @ if op = "simulate" then [ ("pes", J.Int 4) ] else []
      in
      { line = J.to_string (J.Assoc fields);
        expect =
          (if op = "compile" then Nodes (expected_nodes input schema)
           else Store input.store) })
    (Array.to_list canonical)

let excerpt s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

let reply_ok (j : job) reply =
  let module J = Machine.Json in
  match J.of_string reply with
  | exception J.Parse_error _ -> false
  | r -> (
      J.member "ok" r = Some (J.Bool true)
      &&
      match j.expect with
      | Nodes n -> J.member "nodes" r = Some (J.Int n)
      | Store s ->
          J.member "reference" r = Some (J.String "ok")
          && Option.map J.to_string (J.member "store" r) = Some s)

(* --- set-up -------------------------------------------------------------- *)

type setup = {
  w : workload;
  compile_inputs : input list;
  cells : cell list;
  jobs : job array;
  job_file : string;  (** the socket job list, one per line *)
  batch_file : string;  (** the same, then a stats request *)
}

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(** Generate the inputs from the seed, run the reference interpreter on
    each, compile the execution cells, build the job list. *)
let setup ~name ~seed ~out =
  let w = workload name seed in
  let compile_inputs = List.map prepare w.compile_set in
  (* the execute and serve sets are drawn from the compile set *)
  let prepared = List.map (fun p -> List.find (fun i -> i.program == p) compile_inputs) in
  let cells = List.map make_cell (prepared w.exec_set) in
  let jobs = Array.of_list (job_list w.jobs (prepared w.serve_set)) in
  let base = Filename.concat out (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  let lines = Array.to_list (Array.map (fun j -> j.line) jobs) in
  write_lines (base ^ ".jobs") lines;
  write_lines (base ^ ".batch") (lines @ [ {|{"op":"stats"}|} ]);
  { w; compile_inputs; cells; jobs; job_file = base ^ ".jobs";
    batch_file = base ^ ".batch" }

(** [reps n f] runs [f] [n] times: every run's time, the total and the
    last result. *)
let reps n f =
  let rec go k times total =
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    let total = total +. dt in
    if k <= 1 then (dt :: times, total, r) else go (k - 1) (dt :: times) total
  in
  go n [] 0.0

(* How many repeats make a burst of 10-30 ms on the machine this was
   built on.  Counted from the input's size, never from a clock, so that
   every run allocates the same and the heap's peak repeats. *)
let burst budget size = max 1 (min 64 (budget / max 1 size))


(* --- what a run measures ---------------------------------------------------- *)

(* The four configurations every workload runs, and three more that the
   traced rounds add for the baseline ratios. *)
type config =
  | Interp_p1
  | Packed_p1
  | Mp_p4  (** reference multiprocessor, uniform network, affinity *)
  | Mp_p64  (** mesh, hierarchical placement, work stealing *)
  | Packed_p4
  | Mp_p64_nosteal
  | Packed_p1_nosan

let config_name = function
  | Interp_p1 -> "interp_p1"
  | Packed_p1 -> "packed_p1"
  | Mp_p4 -> "mp_p4"
  | Mp_p64 -> "mp_p64"
  | Packed_p4 -> "packed_p4"
  | Mp_p64_nosteal -> "mp_p64_nosteal"
  | Packed_p1_nosan -> "packed_p1_nosan"

let base_configs = [ Interp_p1; Packed_p1; Mp_p4; Mp_p64 ]
let traced_configs = [ Packed_p4; Mp_p64_nosteal; Packed_p1_nosan ]

type outcome = {
  memory : Imp.Memory.t;
  completed : bool;
  cycles : int;
  firings : int;
  net_messages : int;
  mem_remote : int;
  steals : int;
  net_hops : int;
  utilisation : float;
}

let exact o = (o.cycles, o.firings, o.net_messages, o.mem_remote, o.steals, o.net_hops)

(* A timing as taken, with when it was taken: the metrics scale it by
   the host's speed at that moment (Probe). *)
type sample = { at : float; raw : float }

let sample_since t0 raw = { at = t0; raw }

type timing = { seconds : sample list; minor_words : float list }

(* Everything one mode (untraced or traced) measures.  An operation is
   timed once per round, as the mean of a burst of repeats (so that its
   share of garbage collection is in it), right after a probe of the
   host's speed; the metrics take each operation's median over the
   rounds of its host-scaled times.  The machine this was built on slows
   by up to 2x for seconds to minutes at a time: the scaling removes most
   of that, and the median of samples spread over the whole run most of
   the rest.  The best sample of a run does not repeat. *)
type acc = {
  compile_ms : (string * string, sample list) Hashtbl.t;
      (** per program x schema, one burst mean per round *)
  exec : (string * config, timing) Hashtbl.t;
  job_ms : sample list array;  (** per job, its socket latency each pass *)
  mutable batch_walls : sample list;  (** seconds per stdin batch *)
  mutable drained : Serving.drained;  (** summed over socket passes *)
}

let new_acc jobs =
  { compile_ms = Hashtbl.create 64; exec = Hashtbl.create 64;
    job_ms = Array.make jobs []; batch_walls = [];
    drained = { Serving.restarts = 0; deadline = 0; overloaded = 0 } }

(* What an operation's first run established; every later run of it must
   reproduce it exactly. *)
type first = {
  nodes : (string * string, int option) Hashtbl.t;
      (** graph nodes per program x schema; [None]: not supported *)
  outcomes : (string * config, outcome) Hashtbl.t;
  mutable socket_replies : string array;
  mutable batch : string list;
  mutable cache : int * int;  (** stdin stats: hits, misses *)
  mutable front : (int * int) option;  (** CFG nodes, switches *)
}

(* --- compile ----------------------------------------------------------------- *)

let compile_op source schema =
  let p = span "imp.parse" (fun () -> Imp.Parser.program_of_string source) in
  let fr = span "core.front" (fun () -> Dflow.Driver.front p) in
  let c =
    span ("core.translate." ^ schema) (fun () ->
        Dflow.Driver.compile_front fr (spec schema))
  in
  let g = span "dfg.simplify" (fun () -> Dfg.Simplify.run c.Dflow.Driver.graph) in
  let g = span "dfg.opt" (fun () -> Dfg.Opt.run g) in
  span "dfg.check" (fun () -> Dfg.Check.check g);
  let code = span "machine.packed_lower" (fun () -> Machine.Packed.compile_graph g) in
  (c, g, code)

(* The front end's stages called one by one (traced rounds only): the
   layer timings Driver.front hides. *)
let front_probe (i : input) =
  let subject = i.program.Gen.name in
  let p = i.ast in
  span ~subject "imp.typecheck" (fun () -> Imp.Typecheck.check_program p);
  let g = span ~subject "cfg.build" (fun () -> Cfg.Builder.of_program p) in
  ignore (span ~subject "analysis.alias" (fun () -> Analysis.Alias.of_program p));
  match span ~subject "cfg.loopify" (fun () -> Cfg.Loopify.transform g) with
  | exception e when unsupported e -> (Cfg.Core.num_nodes g, 0)
  | lp ->
      let lg = lp.Cfg.Loopify.graph in
      ignore (span ~subject "analysis.postdom" (fun () -> Analysis.Dom.postdominators_of lg));
      ignore (span ~subject "analysis.control_dep" (fun () -> Analysis.Control_dep.compute lg));
      let vars = Imp.Flat.vars (Imp.Flat.flatten p) in
      let sp =
        span ~subject "analysis.switch_place" (fun () ->
            Analysis.Switch_place.compute lg ~vars)
      in
      (Cfg.Core.num_nodes g, Analysis.Switch_place.switch_count sp)

let run_packed ?(sanitize = true) (c : Dflow.Driver.compiled) code =
  let config = { Machine.Config.default with Machine.Config.pes = Some 1 } in
  match
    Machine.Packed.run_report ~config ~sanitize ~layout:c.Dflow.Driver.layout code
  with
  | Ok r -> r
  | Error d ->
      failwith (Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict)

let compile_pass ~first ~acc (inputs : input list) =
  if !Spans.enabled then begin
    let probes = List.map front_probe inputs in
    if first.front = None then
      first.front <-
        Some (List.fold_left (fun (a, b) (c, s) -> (a + c, b + s)) (0, 0) probes)
  end;
  List.iter
    (fun i ->
      (* each program starts from a compacted heap, so the garbage of the
         one before is not collected on its time *)
      Gc.compact ();
      List.iter
        (fun schema ->
          let key = (i.program.Gen.name, schema) in
          let what = Printf.sprintf "compile %s/%s" (fst key) schema in
          let known = Hashtbl.find_opt first.nodes key in
          if known <> Some None then
            let () = Probe.sample () in
            let t0 = now () in
            match
              reps (burst 10_000 (String.length i.program.Gen.source)) (fun () ->
                  span ~subject:(fst key ^ "/" ^ schema) "bench.compile" (fun () ->
                      compile_op i.program.Gen.source schema))
            with
            | exception e when known = None && unsupported e ->
                Hashtbl.replace first.nodes key None
            | exception e -> check what [ (Printexc.to_string e, false) ]
            | times, total, (c, g, code) -> (
                Hashtbl.replace acc.compile_ms key
                  (sample_since t0 (ms (total /. float_of_int (List.length times)))
                  :: Option.value ~default:[] (Hashtbl.find_opt acc.compile_ms key));
                let n = Dfg.Graph.num_nodes g in
                match known with
                | Some expected -> check what [ ("nodes repeat", expected = Some n) ]
                | None ->
                    Hashtbl.replace first.nodes key (Some n);
                    (* run once on packed at p=1 to check the store *)
                    ignore
                      (guarded what (fun () ->
                           let r = run_packed c code in
                           check what
                             [ ("completed", r.Machine.Packed.completed);
                               ( "store = Imp.Eval",
                                 Imp.Memory.equal r.Machine.Packed.memory i.reference ) ];
                           None))))
        schemas)
    inputs

(* --- execute ------------------------------------------------------------------ *)

let of_mp (r : Machine.Multiproc.result) =
  let u = r.Machine.Multiproc.utilisation in
  { memory = r.memory; completed = r.completed; cycles = r.cycles;
    firings = r.firings; net_messages = r.net_messages;
    mem_remote = r.mem_remote; steals = r.steals; net_hops = r.net_hops;
    utilisation =
      Array.fold_left ( +. ) 0.0 u /. float_of_int (max 1 (Array.length u)) }

let ok_or_fail = function
  | Ok r -> r
  | Error d ->
      failwith (Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict)

let mesh64 = lazy (Sched.Topology.make Sched.Topology.Mesh ~pes:64)

let execute cell cfg =
  let prog = { Machine.Interp.graph = cell.graph; layout = cell.compiled.Dflow.Driver.layout } in
  let tree = cell.compiled.Dflow.Driver.ltree in
  let mp ?config ?topo ?steal placement pes =
    of_mp (ok_or_fail (Machine.Multiproc.run ?config ?topo ?steal ~placement ~tree ~pes prog))
  in
  let packed ?sanitize () =
    let r = run_packed ?sanitize cell.compiled cell.code in
    { memory = r.Machine.Packed.memory; completed = r.completed; cycles = r.cycles;
      firings = r.firings; net_messages = 0; mem_remote = 0; steals = 0;
      net_hops = 0; utilisation = 1.0 }
  in
  let subject = cell.input.program.Gen.name in
  match cfg with
  | Interp_p1 ->
      span ~subject "machine.interp" (fun () ->
          let config = { Machine.Config.default with Machine.Config.pes = Some 1 } in
          let r = ok_or_fail (Machine.Interp.run_report ~config prog) in
          { memory = r.Machine.Interp.memory; completed = r.completed;
            cycles = r.cycles; firings = r.firings; net_messages = 0;
            mem_remote = 0; steals = 0; net_hops = 0; utilisation = 1.0 })
  | Packed_p1 -> span ~subject "machine.packed" (fun () -> packed ())
  | Packed_p1_nosan -> span ~subject "machine.packed_nosan" (fun () -> packed ~sanitize:false ())
  | Mp_p4 ->
      span ~subject "machine.multiproc_p4" (fun () -> mp Machine.Placement.Affinity 4)
  | Packed_p4 ->
      span ~subject "machine.packed_p4" (fun () ->
          mp ~config:{ Machine.Config.default with Machine.Config.engine = Machine.Config.Packed }
            Machine.Placement.Affinity 4)
  | Mp_p64 | Mp_p64_nosteal ->
      let topo = span ~subject "sched.topology" (fun () -> Lazy.force mesh64) in
      ignore
        (span ~subject "sched.hplace" (fun () ->
             Sched.Hplace.compute ~tree ~topo ~pes:64 cell.graph));
      let steal = if cfg = Mp_p64 then Some Sched.Steal.default else None in
      span ~subject ("machine.multiproc_" ^ config_name cfg) (fun () ->
          mp ~topo ?steal Machine.Placement.Hier 64)

(* firings in a burst of about 20 ms, per configuration *)
let firing_budget = function
  | Interp_p1 | Packed_p1 | Packed_p1_nosan -> 15_000
  | Mp_p4 | Packed_p4 -> 4_000
  | Mp_p64 | Mp_p64_nosteal -> 400

let exec_pass ~first ~acc ~configs cells =
  List.iter
    (fun cell ->
      let name = cell.input.program.Gen.name in
      Gc.compact ();
      if !Spans.enabled then
        ignore
          (span ~subject:name "imp.eval" (fun () ->
               Imp.Eval.run_program ~fuel:10_000_000 cell.input.ast));
      List.iter
        (fun cfg ->
          let key = (name, cfg) in
          let what = Printf.sprintf "execute %s on %s" name (config_name cfg) in
          ignore
            (guarded what (fun () ->
                 let run () = span ~subject:name "bench.execute" (fun () -> execute cell cfg) in
                 (* the first run of a cell is checked, and its firings
                    size the bursts *)
                 let o0 =
                   match Hashtbl.find_opt first.outcomes key with
                   | Some o0 -> o0
                   | None ->
                       let o = run () in
                       Hashtbl.replace first.outcomes key o;
                       check what
                         [ ("completed", o.completed);
                           ("store = Imp.Eval", Imp.Memory.equal o.memory cell.input.reference) ];
                       (if cfg = Packed_p1 then
                          match Hashtbl.find_opt first.outcomes (name, Interp_p1) with
                          | Some a ->
                              check
                                (Printf.sprintf "interp = packed at p=1 on %s" name)
                                [ ("store", Imp.Memory.equal a.memory o.memory);
                                  ("firings", a.firings = o.firings);
                                  ("cycles", a.cycles = o.cycles) ]
                          | None -> ());
                       o
                 in
                 Probe.sample ();
                 let t0 = now () in
                 let w0 = Gc.minor_words () in
                 let ts, total, o = reps (burst (firing_budget cfg) o0.firings) run in
                 let k = float_of_int (List.length ts) in
                 let dw = (Gc.minor_words () -. w0) /. k in
                 let t =
                   Option.value (Hashtbl.find_opt acc.exec key)
                     ~default:{ seconds = []; minor_words = [] }
                 in
                 Hashtbl.replace acc.exec key
                   { seconds = sample_since t0 (total /. k) :: t.seconds; minor_words = dw :: t.minor_words };
                 check what [ ("exact counts repeat", exact o0 = exact o) ];
                 None)))
        configs)
    cells

(* --- serve ------------------------------------------------------------------------ *)

(* One client and one batch domain: on the two cores this was built on,
   two clients (or two domains) in flight beside the server's processes
   made every job's time depend on how the host scheduled them, and the
   socket and batch metrics spread 0.2-0.8 (IQR over median, six seeds)
   where the in-process ones spread under 0.07.  The pool's speed-up at
   two domains is measured on its own, in the traced run
   (service.pool_speedup). *)
let clients = 1

let socket_path out = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* One socket pass (a fresh server, so every pass starts from cold
   caches) and one stdin batch. *)
let serve_pass ~first ~acc ~exe ~out (s : setup) =
  let lines = Array.map (fun j -> j.line) s.jobs in
  let n = Array.length lines in
  let sock = socket_path out in
  let server = Serving.start_server ~exe ~sock ~shards:2 in
  (* probes bracket the socket pass and the batch *)
  Probe.sample ();
  let replies, sent, lat = Serving.closed_loop ~sock ~clients lines in
  Probe.sample ();
  let d = Serving.stop_server server in
  acc.drained <-
    { Serving.restarts = acc.drained.restarts + d.restarts;
      deadline = acc.drained.deadline + d.deadline;
      overloaded = acc.drained.overloaded + d.overloaded };
  Array.iteri
    (fun i l ->
      acc.job_ms.(i) <- sample_since sent.(i) (ms l) :: acc.job_ms.(i);
      Spans.record ~subject:(string_of_int i) "service.socket_job" ~start:sent.(i)
        ~stop:(sent.(i) +. l);
      check (Printf.sprintf "socket job %d" i)
        [ (excerpt replies.(i), reply_ok s.jobs.(i) replies.(i)) ])
    lat;
  if first.socket_replies = [||] then first.socket_replies <- replies;
  let t0 = now () in
  let outl, wall =
    span "service.batch" (fun () -> Serving.batch ~exe ~jobs:1 ~input:s.batch_file)
  in
  Probe.sample ();
  acc.batch_walls <- { at = t0 +. (wall /. 2.0); raw = wall } :: acc.batch_walls;
  let replies = Array.of_list outl in
  check "batch reply count" [ ("one line per job", Array.length replies = n + 1) ];
  if Array.length replies = n + 1 then begin
    let module J = Machine.Json in
    let stats = J.of_string replies.(n) in
    let count k = Option.value ~default:(-1) (Option.bind (J.member k stats) J.to_int_opt) in
    let c = (count "hits", count "misses") in
    if first.batch = [] then begin
      first.cache <- c;
      first.batch <- outl;
      Array.iteri
        (fun i r ->
          if i < n then
            check (Printf.sprintf "batch job %d" i)
              [ (excerpt r, reply_ok s.jobs.(i) r);
                ("= socket reply", r = first.socket_replies.(i)) ])
        replies
    end
    else
      check "batch repeat"
        [ ("byte-identical replies", outl = first.batch);
          ("cache counters repeat", c = first.cache) ]
  end

(* In-process probes of lib/service (traced runs only).  The pool probe
   spawns domains, after which this process may not fork: it runs last. *)
type service_probe = {
  handle_ms : sample list;
  memo_hit_rate : float;
  memo_miss_ms : sample list;
  submit_ms : sample list;
  framing_mb_per_s : float;
  pool_speedup : float;
}

let service_probe (s : setup) =
  let lines = Array.to_list (Array.map (fun j -> j.line) s.jobs) in
  Dflow.Memo.reset ();
  let handled =
    List.mapi
      (fun i l ->
        let before = Dflow.Memo.stats () in
        Probe.sample ();
        let t0 = now () in
        ignore (span ~subject:(string_of_int i) "service.handle" (fun () -> Serve.Server.handle_line i l));
        let dt = sample_since t0 (ms (now () -. t0)) in
        let d = Service.Cache.diff ~after:(Dflow.Memo.stats ()) ~before in
        (dt, d.Service.Cache.misses > 0))
      lines
  in
  let memo = Dflow.Memo.stats () in
  Dflow.Memo.reset ();
  let sup =
    Service.Supervisor.start
      ~config:{ Service.Supervisor.default_config with Service.Supervisor.shards = 2 }
      (fun id l -> Machine.Json.to_string (Serve.Server.handle_line id l))
  in
  let submit_ms =
    List.mapi
      (fun i l ->
        Probe.sample ();
        let t0 = now () in
        (match span ~subject:(string_of_int i) "service.submit" (fun () ->
                   Service.Supervisor.submit sup ~id:i l) with
        | Service.Supervisor.Ok_line r -> check (Printf.sprintf "supervised job %d" i) [ (excerpt r, reply_ok s.jobs.(i) r) ]
        | _ -> check (Printf.sprintf "supervised job %d" i) [ ("outcome", false) ]);
        sample_since t0 (ms (now () -. t0)))
      lines
  in
  Service.Supervisor.drain sup;
  let bytes = ref 0 and reads = ref 0 and t0 = now () in
  while now () -. t0 < 0.1 || !reads < 3 do
    let ic = open_in_bin s.job_file in
    span "service.framing" (fun () ->
        let rec go () =
          match Service.Framing.input ic with
          | Service.Framing.Line l -> bytes := !bytes + String.length l + 1; go ()
          | Service.Framing.Truncated k -> bytes := !bytes + k + 1; go ()
          | Service.Framing.Eof -> ()
        in
        go ());
    close_in ic;
    incr reads
  done;
  let framing = float_of_int !bytes /. 1e6 /. (now () -. t0) in
  let batch jobs =
    Dflow.Memo.reset ();
    let t0 = now () in
    let r = span "service.pool" (fun () -> Serve.Server.run_batch ~jobs lines) in
    (r, now () -. t0)
  in
  let r1, t1 = batch 1 in
  let r2, t2 = batch 2 in
  check "run_batch ~jobs:2 = ~jobs:1" [ ("byte-identical", r1 = r2) ];
  { handle_ms = List.map fst handled;
    memo_hit_rate = Service.Cache.hit_rate memo;
    memo_miss_ms = List.filter_map (fun (t, miss) -> if miss then Some t else None) handled;
    submit_ms;
    framing_mb_per_s = framing;
    pool_speedup = t1 /. t2 }

(* --- the run ----------------------------------------------------------------- *)

(* Rounds of one compile pass, one execute pass and the workload's serve
   passes, until about [seconds] have gone by and at least [min_rounds]
   per mode: spreading every operation's samples over the whole run is what
   lets its median shrug off a slow stretch of the machine.  Traced
   runs alternate untraced and traced rounds, so the tracing overhead is
   not confounded with drift. *)
let min_rounds = 4

let run_rounds ~seconds ~trace ~exe ~out (s : setup) =
  let n = Array.length s.jobs in
  let untraced = new_acc n and traced = new_acc n in
  let first =
    { nodes = Hashtbl.create 64; outcomes = Hashtbl.create 64; socket_replies = [||];
      batch = []; cache = (0, 0); front = None }
  in
  let t_end = now () +. seconds in
  let modes = if trace then 2 else 1 in
  let rec go round =
    let t_round = now () in
    let tracing = round mod modes = 1 in
    let acc = if tracing then traced else untraced in
    (* each round starts from a compacted heap, so that the major-GC debt
       of set-up or of earlier rounds does not land on this one *)
    Gc.compact ();
    Spans.enabled := tracing;
    compile_pass ~first ~acc s.compile_inputs;
    exec_pass ~first ~acc
      ~configs:(if tracing then base_configs @ traced_configs else base_configs)
      s.cells;
    for _ = 1 to s.w.serve_passes do
      serve_pass ~first ~acc ~exe ~out s
    done;
    Spans.enabled := false;
    (* stop when another round would end nearer past the deadline than
       this one ends before it *)
    let took = now () -. t_round in
    if round + 1 < min_rounds * modes || now () +. (took /. 2.0) < t_end then go (round + 1)
  in
  go 0;
  (untraced, traced, first)

(* name, value, unit, sample count *)
type metric = string * float * string * int

(* per-cell values of one configuration, for the cells that ran it *)
let per_cell (acc : acc) (first : first) cells cfg f =
  List.filter_map
    (fun c ->
      let key = (c.input.program.Gen.name, cfg) in
      match (Hashtbl.find_opt first.outcomes key, Hashtbl.find_opt acc.exec key) with
      | Some o, Some t -> Some (f c o t)
      | _ -> None)
    cells

(* timings as they would read at the probe's nominal speed *)
let scaled sp xs = List.map (fun x -> Probe.scale sp ~at:x.at x.raw) xs
let host_s sp t = median (scaled sp t.seconds)

let mfirings sp acc first cells cfgs =
  geomean
    (List.concat_map
       (fun cfg ->
         per_cell acc first cells cfg (fun _ o t -> float_of_int o.firings /. host_s sp t /. 1e6))
       cfgs)

(* every sample of an operation at the operation's median *)
let at_median lists = List.concat_map (fun xs -> List.map (fun _ -> median xs) xs) lists

let end_to_end ~sp ~setup_s (s : setup) (acc : acc) (first : first) : metric list =
  let cells = s.cells in
  let compile = at_median (Hashtbl.fold (fun _ xs l -> scaled sp xs :: l) acc.compile_ms []) in
  (* source bytes over compile time, each operation at its median *)
  let kb_per_s =
    let size = Hashtbl.create 16 in
    List.iter
      (fun i -> Hashtbl.replace size i.program.Gen.name (String.length i.program.Gen.source))
      s.compile_inputs;
    let bytes, msec =
      Hashtbl.fold
        (fun (name, _) xs (b, t) -> (b + Hashtbl.find size name, t +. median (scaled sp xs)))
        acc.compile_ms (0, 0.0)
    in
    float_of_int bytes /. 1024.0 /. (msec /. 1000.0)
  in
  let combos = Hashtbl.length acc.compile_ms in
  let q = tail_q (combos * min_rounds) in
  let job_medians = Array.map (fun xs -> median (scaled sp xs)) acc.job_ms in
  let jobs = at_median (Array.to_list (Array.map (scaled sp) acc.job_ms)) in
  let n = float_of_int (Array.length s.jobs) in
  (* one client keeps one job in flight, so a pass takes the sum of its
     jobs' latencies: the socket rate is taken at every job's median *)
  let socket_rate = n /. (Array.fold_left ( +. ) 0.0 job_medians /. 1000.0) in
  let batch_rate = n /. median (scaled sp acc.batch_walls) in
  let qj = tail_q (min_rounds * Array.length s.jobs) in
  let cycles =
    List.concat_map
      (fun cfg -> per_cell acc first cells cfg (fun _ o _ -> float_of_int o.cycles))
      [ Interp_p1; Mp_p4; Mp_p64 ]
  in
  let runs = List.length cells in
  Printf.printf "tails: compile_ms_tail is p%g, job_ms_tail is p%g\n" (100. *. q) (100. *. qj);
  [
    ("setup_s", setup_s, "s", 5);
    ("compile_ms_p50", median compile, "ms", List.length compile);
    ("compile_ms_tail", quantile q compile, "ms", List.length compile);
    ("compile_kb_per_s", kb_per_s, "KB/s", List.length compile);
    ("run_mfirings_per_s", mfirings sp acc first cells [ Interp_p1; Packed_p1 ], "Mfirings/s", 2 * runs);
    ("simulate_mfirings_per_s", mfirings sp acc first cells [ Mp_p4; Mp_p64 ], "Mfirings/s", 2 * runs);
    ("sim_cycles", geomean cycles, "cycles", List.length cycles);
    ("job_ms_p50", median jobs, "ms", List.length jobs);
    ("job_ms_tail", quantile qj jobs, "ms", List.length jobs);
    ("jobs_per_s", socket_rate, "1/s", List.length jobs);
    ("batch_jobs_per_s", batch_rate, "1/s", List.length acc.batch_walls);
  ]

let layers = [ "bench"; "imp"; "cfg"; "analysis"; "core"; "dfg"; "machine"; "sched"; "service" ]

let per_layer ~sp (s : setup) ~untraced ~traced (acc : acc) (first : first) (p : service_probe) :
    metric list =
  let cells = s.cells in
  let med name = ms (median (Spans.durations name)) in
  let count name = List.length (Spans.durations name) in
  let timing name = (name ^ "_ms", med name, "ms", count name) in
  let value cfg f = per_cell acc first cells cfg f in
  let ns_per_firing cfg =
    geomean (value cfg (fun _ o t -> host_s sp t *. 1e9 /. float_of_int o.firings))
  in
  let words cfg =
    geomean (value cfg (fun _ o t -> median t.minor_words /. float_of_int o.firings))
  in
  let sumc cfgs f = float_of_int (sum_int (List.concat_map (fun cfg -> value cfg (fun _ o _ -> f o)) cfgs)) in
  let ratio a b f =
    geomean
      (List.filter_map Fun.id
         (per_cell acc first cells a (fun c o t ->
              match (Hashtbl.find_opt first.outcomes (c.input.program.Gen.name, b),
                     Hashtbl.find_opt acc.exec (c.input.program.Gen.name, b)) with
              | Some o', Some t' -> Some (f o t o' t')
              | _ -> None)))
  in
  let widest =
    List.fold_left
      (fun a c -> if Dfg.Graph.num_nodes c.graph > Dfg.Graph.num_nodes a.graph then c else a)
      (List.hd cells) cells
  in
  let host c cfg = host_s sp (Hashtbl.find acc.exec (c.input.program.Gen.name, cfg)) in
  let nsum f = float_of_int (sum_int (List.map f cells)) in
  let self = Spans.by_layer !Spans.recorded in
  let total = List.fold_left (fun a (_, t) -> a +. t) 0.0 self in
  let cfg_nodes, switches = Option.value ~default:(0, 0) first.front in
  let nh = List.length p.handle_ms in
  let handle_ms = scaled sp p.handle_ms and submit_ms = scaled sp p.submit_ms in
  let qh = tail_q nh in
  (* the share by which tracing worsened a metric: positive is a cost *)
  let rel (name, _, unit, _) =
    let find l = List.find_map (fun (n, v, _, _) -> if n = name then Some v else None) l in
    match (find untraced, find traced) with
    | Some u, Some t ->
        let worse = if unit = "ms" then t /. u else u /. t in
        ("trace.overhead." ^ name, worse -. 1.0, "ratio", 1)
    | _ -> ("trace.overhead." ^ name, nan, "ratio", 0)
  in
  [
    timing "imp.parse"; timing "imp.typecheck"; timing "imp.eval";
    timing "cfg.build"; timing "cfg.loopify";
    ("cfg.nodes", float_of_int cfg_nodes, "count", 1);
    timing "analysis.alias"; timing "analysis.postdom";
    timing "analysis.control_dep"; timing "analysis.switch_place";
    ("analysis.switches", float_of_int switches, "count", 1);
    timing "core.front" ]
  @ List.map
      (fun sch ->
        let name = "core.translate." ^ sch in
        ("core.translate_ms." ^ sch, med name, "ms", count name))
      schemas
  @ [
    ("core.memo_hit_rate", p.memo_hit_rate, "ratio", nh);
    ("core.memo_miss_ms", median (scaled sp p.memo_miss_ms), "ms", List.length p.memo_miss_ms);
    timing "dfg.simplify"; timing "dfg.opt"; timing "dfg.check";
    ("dfg.nodes", nsum (fun c -> Dfg.Graph.num_nodes c.graph), "count", 1);
    ("dfg.arcs", nsum (fun c -> Dfg.Graph.num_arcs c.graph), "count", 1);
    timing "machine.packed_lower";
    ("machine.interp_ns_per_firing", ns_per_firing Interp_p1, "ns", List.length cells);
    ("machine.packed_ns_per_firing", ns_per_firing Packed_p1, "ns", List.length cells);
    ("machine.gc_minor_words_per_firing.interp", words Interp_p1, "words", List.length cells);
    ("machine.gc_minor_words_per_firing.packed", words Packed_p1, "words", List.length cells);
    ("machine.gc_minor_words_per_firing.mp_p4", words Mp_p4, "words", List.length cells);
    ("machine.gc_minor_words_per_firing.mp_p64", words Mp_p64, "words", List.length cells);
    ("machine.multiproc_ns_per_firing.p4", ns_per_firing Mp_p4, "ns", List.length cells);
    ("machine.multiproc_ns_per_firing.p64", ns_per_firing Mp_p64, "ns", List.length cells);
    ("machine.multiproc_ns_per_pe_cycle.p64",
     geomean (value Mp_p64 (fun _ o t -> host_s sp t *. 1e9 /. float_of_int (64 * o.cycles))), "ns",
     List.length cells);
    ("machine.firings", sumc [ Interp_p1 ] (fun o -> o.firings), "count", 1) ]
  @ List.map
      (fun cfg ->
        ("machine.cycles." ^ config_name cfg,
         geomean (value cfg (fun _ o _ -> float_of_int o.cycles)), "cycles", List.length cells))
      base_configs
  @ [
    ("machine.net_messages", sumc [ Mp_p4; Mp_p64 ] (fun o -> o.net_messages), "count", 1);
    ("machine.mem_remote", sumc [ Mp_p4; Mp_p64 ] (fun o -> o.mem_remote), "count", 1);
    ("machine.utilisation.p64",
     (let u = value Mp_p64 (fun _ o _ -> o.utilisation) in
      List.fold_left ( +. ) 0.0 u /. float_of_int (List.length u)), "ratio", List.length cells);
    ("machine.multiproc_over_interp.wide", host widest Mp_p4 /. host widest Interp_p1, "ratio", 1);
    ("machine.cycles_gap.packed_p4",
     ratio Packed_p4 Mp_p4 (fun o _ o' _ -> float_of_int o.cycles /. float_of_int o'.cycles), "ratio",
     List.length cells);
    ("machine.sanitize_overhead",
     ratio Packed_p1 Packed_p1_nosan (fun _ t _ t' -> host_s sp t /. host_s sp t'), "ratio", List.length cells);
    ("sched.steal_overhead",
     ratio Mp_p64 Mp_p64_nosteal (fun _ t _ t' -> host_s sp t /. host_s sp t'), "ratio", List.length cells);
    ("sched.steals", sumc [ Mp_p64 ] (fun o -> o.steals), "count", 1);
    ("sched.net_hops", sumc [ Mp_p64 ] (fun o -> o.net_hops), "count", 1);
    ("service.handle_ms_p50", median handle_ms, "ms", nh);
    ("service.handle_ms_tail", quantile qh handle_ms, "ms", nh);
    ("service.supervisor_rtt_ms_p50", median submit_ms -. median handle_ms, "ms", nh);
    ("service.socket_overhead_ms_p50",
     (match List.find_opt (fun (n, _, _, _) -> n = "job_ms_p50") untraced with
      | Some (_, v, _, _) -> v -. median submit_ms
      | None -> nan), "ms", nh);
    ("service.framing_mb_per_s", p.framing_mb_per_s, "MB/s", 1);
    ("service.pool_speedup", p.pool_speedup, "ratio", 1);
    ("service.cache_hits", float_of_int (fst first.cache), "count", 1);
    ("service.cache_misses", float_of_int (snd first.cache), "count", 1);
    ("service.restarts", float_of_int acc.drained.restarts, "count", 1);
    ("service.deadline", float_of_int acc.drained.deadline, "count", 1);
    ("service.overloaded", float_of_int acc.drained.overloaded, "count", 1) ]
  @ List.map
      (fun l ->
        ("trace.self_share." ^ l,
         (match List.assoc_opt l self with Some t -> t /. total | None -> 0.0), "ratio", 1))
      layers
  @ List.map rel
      (List.filter
         (fun (n, _, _, _) -> List.mem n [ "compile_ms_p50"; "run_mfirings_per_s"; "job_ms_p50" ])
         untraced)

let report_cells ~sp (s : setup) (acc : acc) (first : first) =
  Printf.printf
    "== execution cells (schema, config: cycles, firings, host ms min, median, max of n rounds; \
     median scaled to the probe's nominal speed) ==\n";
  List.iter
    (fun c ->
      List.iter
        (fun cfg ->
          let key = (c.input.program.Gen.name, cfg) in
          match (Hashtbl.find_opt first.outcomes key, Hashtbl.find_opt acc.exec key) with
          | Some o, Some t ->
              let xs = List.map (fun x -> ms x.raw) t.seconds in
              Printf.printf "%-14s %-6s %-15s %8d %8d %10.3f %10.3f %10.3f n=%d %10.3f\n"
                c.input.program.Gen.name c.schema (config_name cfg) o.cycles o.firings
                (best xs) (median xs) (List.fold_left Float.max 0.0 xs) (List.length xs)
                (ms (host_s sp t))
          | _ -> ())
        (base_configs @ traced_configs))
    s.cells

let report_probe (sp : Probe.speed) =
  let took = Array.to_list (Array.map ms sp.took) in
  Printf.printf
    "host probe: %d samples, median %.3f ms (p10 %.3f, p90 %.3f); timings are scaled to %.3f ms\n"
    (List.length took) (median took) (quantile 0.1 took) (quantile 0.9 took)
    (ms Probe.nominal_s)

(* --- main ------------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report ~title (ms : metric list) =
  Printf.printf "== %s ==\n" title;
  List.iter
    (fun (n, v, u, k) -> Printf.printf "%-44s %16.6g %-12s n=%d\n" n v u k)
    ms

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/df_compile.exe" and out = ref "perfbench/out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "compile-ladder | kernels | serve-mix");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measuring time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--df-compile", Arg.Set_string exe, "the df_compile binary");
      ("--out", Arg.Set_string out, "directory for job lists, sockets and spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload W --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let name = !workload and seed = !seed and out = !out in
  (* set up five times and keep the median time: work moved into set-up
     shows in setup_s *)
  let timed_setup () =
    let t0 = now () in
    let s = setup ~name ~seed ~out in
    (s, now () -. t0)
  in
  let earlier = List.init 4 (fun _ -> snd (timed_setup ())) in
  let s, last = timed_setup () in
  let setup_s = median (last :: earlier) in
  Printf.printf "workload %s seed %d: %d compile inputs, %d execution cells, %d jobs\n%!"
    name seed (List.length s.compile_inputs) (List.length s.cells) (Array.length s.jobs);
  List.iter
    (fun (i : input) -> Printf.printf "  %-14s %s\n" i.program.Gen.name i.program.Gen.why)
    s.compile_inputs;
  List.iter
    (fun c ->
      Printf.printf "  executes %-14s schema %s, %d nodes\n" c.input.program.Gen.name c.schema
        (Dfg.Graph.num_nodes c.graph))
    s.cells;
  let metrics =
    if !trace = 0 then begin
      let acc, _, first = run_rounds ~seconds:!seconds ~trace:false ~exe:!exe ~out s in
      let sp = Probe.freeze () in
      report_probe sp;
      report_cells ~sp s acc first;
      let e2e = end_to_end ~sp ~setup_s s acc first in
      report ~title:"end to end, unscaled" (end_to_end ~sp:Probe.unscaled ~setup_s s acc first);
      report ~title:"end to end" e2e;
      e2e
    end
    else begin
      let u, t, first = run_rounds ~seconds:!seconds ~trace:true ~exe:!exe ~out s in
      Spans.enabled := true;
      let svc = service_probe s in
      Spans.enabled := false;
      let sp = Probe.freeze () in
      report_probe sp;
      let untraced = end_to_end ~sp ~setup_s s u first in
      let traced = end_to_end ~sp ~setup_s s t first in
      report ~title:"end to end, untraced" untraced;
      report ~title:"end to end, traced" traced;
      Printf.printf "== self time by layer ==\n";
      List.iter (fun (l, t) -> Printf.printf "%-10s %10.3f s\n" l t) (Spans.by_layer !Spans.recorded);
      let pl = per_layer ~sp s ~untraced ~traced t first svc in
      report ~title:"per layer" pl;
      let path = Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" name seed) in
      Spans.write path;
      Printf.printf "spans written to %s\n" path;
      pl
    end
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ s.job_file; s.batch_file ];
  let correct = !failed = 0 in
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed !attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u, _) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
              (if Float.is_finite v then json_number v else "null") u)
          metrics));
  exit (if correct then 0 else 1)
