(* Engine throughput (E24): end-to-end wall clock of the packed engine
   against the reference interpreter, per example program, measured with
   bechamel's OLS estimator (ns/run regressed over batched runs, which
   is far more robust than a stopwatch around a single execution).

   The stripped ratio runs both engines in service mode — certificate
   stripped, packed sanitizer off (the reference interpreter always
   sanitizes) — on the same compiled graph, so the comparison isolates
   the execution core.  The checked ratio runs them as [df_compile run]
   does, sanitizer and certificate on: what a user of [run] gets.
   Before timing anything the two engines are run once and their final
   stores compared: a divergence aborts the benchmark, because a fast
   wrong engine is not a result.

   Usage: dune exec bench/throughput.exe [-- --programs DIR] [--floor X]
   With [--floor X] the exit status enforces the CI claim: the packed
   engine must reach at least [X]x the reference on the stencil, stripped
   ratio. *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let find_programs_dir () =
  List.find_opt Sys.file_exists
    [
      "examples/programs";
      "../examples/programs";
      "../../examples/programs";
      "../../../examples/programs";
    ]

let ols_ns tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols instance raw

let () =
  let argv = Array.to_list Sys.argv in
  let programs_dir =
    let rec scan = function
      | "--programs" :: d :: _ -> Some d
      | _ :: rest -> scan rest
      | [] -> None
    in
    match scan argv with Some d -> Some d | None -> find_programs_dir ()
  in
  let floor_req =
    let rec scan = function
      | "--floor" :: x :: _ -> Some (float_of_string x)
      | _ :: rest -> scan rest
      | [] -> None
    in
    scan argv
  in
  let stencil_speedup = ref None in
  let dir =
    match programs_dir with
    | Some d -> d
    | None ->
        Fmt.epr
          "throughput: cannot find examples/programs from %s (pass \
           --programs DIR)@."
          (Sys.getcwd ());
        exit 2
  in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".imp")
    |> List.sort compare
    |> List.map (fun f ->
           ( Filename.chop_extension f,
             Imp.Parser.program_of_string (read_file (Filename.concat dir f))
           ))
  in
  Fmt.pr "== engine throughput (schema2-opt pipelined, service mode) ==@.";
  Fmt.pr "  %-12s %8s %14s %14s %16s %9s %9s@." "program" "firings"
    "reference" "packed" "firings/sec" "stripped" "checked";
  List.iter
    (fun (pname, p) ->
      match
        Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined)
          p
      with
      | exception Cfg.Intervals.Irreducible _ ->
          Fmt.pr "  %-12s (irreducible)@." pname
      | exception Dflow.Driver.Aliasing_unsupported _ ->
          Fmt.pr "  %-12s (aliasing: schema2-opt not applicable)@." pname
      | c ->
          let layout = c.Dflow.Driver.layout in
          (* the checked twin keeps its certificate *)
          let checked_prog =
            {
              Machine.Interp.graph =
                (Dflow.Driver.compile
                   (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p)
                  .Dflow.Driver.graph;
              layout;
            }
          in
          let checked_code =
            Machine.Packed.compile_graph checked_prog.Machine.Interp.graph
          in
          let g = c.Dflow.Driver.graph in
          Dfg.Graph.set_cert g None;
          let prog = { Machine.Interp.graph = g; layout } in
          let rref = Machine.Interp.run_exn prog in
          let code = Machine.Packed.compile_graph g in
          let rpk =
            match Machine.Packed.run_report ~sanitize:false ~layout code with
            | Ok r -> r
            | Error d ->
                Fmt.epr "throughput: %s packed run failed:@.%a@." pname
                  Machine.Diagnosis.pp d;
                exit 1
          in
          if
            not
              (rpk.Machine.Packed.completed
              && rpk.Machine.Packed.firings = rref.Machine.Interp.firings
              && Imp.Memory.equal rref.Machine.Interp.memory
                   rpk.Machine.Packed.memory)
          then begin
            Fmt.epr
              "throughput: %s DIVERGED between engines — refusing to time a \
               wrong answer@."
              pname;
            exit 1
          end;
          let open Bechamel in
          let tests =
            Test.make_grouped ~name:pname
              [
                Test.make ~name:"reference"
                  (Staged.stage (fun () ->
                       ignore (Machine.Interp.run_exn prog)));
                Test.make ~name:"packed"
                  (Staged.stage (fun () ->
                       ignore
                         (Machine.Packed.run_report ~sanitize:false ~layout
                            code)));
                Test.make ~name:"reference-checked"
                  (Staged.stage (fun () ->
                       ignore (Machine.Interp.run_exn checked_prog)));
                Test.make ~name:"packed-checked"
                  (Staged.stage (fun () ->
                       ignore
                         (Machine.Packed.run_report ~sanitize:true ~layout
                            checked_code)));
              ]
          in
          let results = ols_ns tests in
          let est name =
            match Hashtbl.find_opt results (pname ^ "/" ^ name) with
            | Some o -> (
                match Analyze.OLS.estimates o with
                | Some [ e ] -> Some e
                | _ -> None)
            | None -> None
          in
          (match (est "reference", est "packed") with
          | Some tr, Some tp when tp > 0.0 ->
              let firings = rpk.Machine.Packed.firings in
              if pname = "stencil" then stencil_speedup := Some (tr /. tp);
              let checked =
                match (est "reference-checked", est "packed-checked") with
                | Some cr, Some cp when cp > 0.0 -> Fmt.str "%8.1fx" (cr /. cp)
                | _ -> Fmt.str "%9s" "-"
              in
              Fmt.pr "  %-12s %8d %11.0f ns %11.0f ns %16.3e %8.1fx %s@." pname
                firings tr tp
                (float_of_int firings /. (tp *. 1e-9))
                (tr /. tp) checked
          | _ -> Fmt.pr "  %-12s (no estimate)@." pname))
    examples;
  match floor_req with
  | None -> ()
  | Some floor -> (
      match !stencil_speedup with
      | Some sp when sp >= floor ->
          Fmt.pr "floor: stencil packed speedup %.1fx >= %.1fx@." sp floor
      | Some sp ->
          Fmt.epr "throughput: stencil packed speedup %.1fx BELOW the floor                    %.1fx@." sp floor;
          exit 1
      | None ->
          Fmt.epr "throughput: no stencil estimate — cannot check the floor@.";
          exit 1)
