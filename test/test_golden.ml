(* Golden snapshots: every example program, compiled under the four
   benchmark schemas, reduced to its static shape (node / arc / switch /
   merge counts) plus the machine verdict.  Any translation change that
   moves these numbers shows up as a readable diff against the files in
   test/golden/; deliberate changes are re-blessed with

     dune exec test/test_golden.exe -- --update      (from the repo root)

   which rewrites the snapshots in the source tree. *)

let schemas =
  [
    ("schema1", Dflow.Driver.Schema1);
    ("schema2-barrier", Dflow.Driver.Schema2 Dflow.Engine.Barrier);
    ("schema2-pipelined", Dflow.Driver.Schema2 Dflow.Engine.Pipelined);
    ("schema2-opt", Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined);
  ]

(* cwd is _build/default/test under `dune runtest` (deps below copy the
   programs and snapshots there), the repo root under `dune exec` *)
let programs_dir =
  List.find_opt Sys.file_exists
    [ "../examples/programs"; "examples/programs" ]

let golden_dir =
  List.find_opt Sys.file_exists [ "golden"; "test/golden" ]
  |> Option.value ~default:"golden"

(* --update must write into the source tree, never the build sandbox *)
let golden_src_dir =
  List.find_opt Sys.file_exists [ "test/golden"; "../../../test/golden" ]

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let programs () =
  match programs_dir with
  | None ->
      Alcotest.fail
        "cannot locate examples/programs (expected as a dune dep or from \
         the repo root)"
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".imp")
      |> List.sort compare
      |> List.map (fun f -> (Filename.chop_extension f, Filename.concat dir f))

(* The certificate cell: element count when the run was certified clean,
   VIOLATED when permission violations stood, none when the translation
   carried no certificate. *)
let cert_cell (d : Machine.Diagnosis.t) =
  match d.Machine.Diagnosis.certified with
  | None -> "cert=none"
  | Some (elements, _) ->
      if d.Machine.Diagnosis.permission = [] then
        Fmt.str "cert=ok(%d)" elements
      else "cert=VIOLATED"

(* One snapshot line per schema: static counts and the machine verdict.
   Cells a schema cannot express snapshot the reason instead. *)
let verdict_line name spec p =
  match Dflow.Driver.compile spec p with
  | exception Cfg.Intervals.Irreducible _ -> Fmt.str "%-18s irreducible" name
  | exception Dflow.Driver.Aliasing_unsupported _ ->
      Fmt.str "%-18s unsupported-aliasing" name
  | c ->
      let st = Dfg.Stats.of_graph c.Dflow.Driver.graph in
      let verdict, cert =
        match
          Machine.Interp.run
            {
              Machine.Interp.graph = c.Dflow.Driver.graph;
              layout = c.Dflow.Driver.layout;
            }
        with
        | r when not r.Machine.Interp.completed ->
            ("stalled", cert_cell r.Machine.Interp.diagnosis)
        | r ->
            let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
            ( (if Imp.Memory.equal reference r.Machine.Interp.memory then "ok"
               else "diverged"),
              cert_cell r.Machine.Interp.diagnosis )
        | exception e -> (Fmt.str "raised %s" (Printexc.to_string e), "cert=?")
      in
      Fmt.str
        "%-18s nodes=%-4d arcs=%-4d switches=%-3d merges=%-3d verdict=%s %s"
        name st.Dfg.Stats.nodes st.Dfg.Stats.arcs st.Dfg.Stats.switches
        st.Dfg.Stats.merges verdict cert

(* One multiprocessor line per placement at p=4: the partition shape
   (cut arcs, balance) and the differential verdict against the
   reference store.  Uses the best sound no-aliasing schema that
   compiles (2-opt pipelined, else schema 1) and says which. *)
let multiproc_line placement p =
  let sname, c =
    match Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p with
    | c -> ("schema2-opt", Some c)
    | exception (Cfg.Intervals.Irreducible _ | Dflow.Driver.Aliasing_unsupported _)
      -> (
        match Dflow.Driver.compile Dflow.Driver.Schema1 p with
        | c -> ("schema1", Some c)
        | exception _ -> ("none", None))
  in
  let pname = Machine.Placement.policy_to_string placement in
  match c with
  | None -> Fmt.str "multiproc p=4 %-12s not-compilable" pname
  | Some c -> (
      let prog =
        {
          Machine.Interp.graph = c.Dflow.Driver.graph;
          layout = c.Dflow.Driver.layout;
        }
      in
      match Machine.Multiproc.run ~placement ~pes:4 prog with
      | exception e ->
          Fmt.str "multiproc p=4 %-12s (%s) raised %s" pname sname
            (Printexc.to_string e)
      | Error _ -> Fmt.str "multiproc p=4 %-12s (%s) failed" pname sname
      | Ok r ->
          let verdict =
            if not r.Machine.Multiproc.completed then "stalled"
            else if r.Machine.Multiproc.leftover_tokens <> 0 then "leftover"
            else if
              Imp.Memory.equal
                (Imp.Eval.run_program ~fuel:10_000_000 p)
                r.Machine.Multiproc.memory
            then "ok"
            else "diverged"
          in
          let st = r.Machine.Multiproc.placement_stats in
          Fmt.str
            "multiproc p=4 %-12s (%s) cut=%d/%d balance=%.2f verdict=%s %s"
            pname sname st.Machine.Placement.cut_arcs
            st.Machine.Placement.total_arcs st.Machine.Placement.balance
            verdict
            (cert_cell r.Machine.Multiproc.diagnosis))

(* One fault-tolerance line at p=4: seeded link faults plus one seeded
   PE fail-stop under checkpoint/replay recovery.  The whole fault
   schedule is a pure function of the seed, so the recovery cost is as
   snapshot-stable as the static counts. *)
let recovery_line p =
  let c =
    match Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p with
    | c -> Some c
    | exception (Cfg.Intervals.Irreducible _ | Dflow.Driver.Aliasing_unsupported _)
      -> (
        match Dflow.Driver.compile Dflow.Driver.Schema1 p with
        | c -> Some c
        | exception _ -> None)
  in
  match c with
  | None -> "multiproc p=4 faulty+recover not-compilable"
  | Some c -> (
      let prog =
        {
          Machine.Interp.graph = c.Dflow.Driver.graph;
          layout = c.Dflow.Driver.layout;
        }
      in
      let seed = 7 in
      let faults =
        Machine.Fault.make
          (Machine.Fault.spec ~seed ~rate:0.01
             ~classes:Machine.Fault.link_classes ())
      in
      let recovery =
        Machine.Recovery.spec
          ~deaths:(Machine.Recovery.seeded_deaths ~seed ~pes:4 ~window:60)
          ()
      in
      match
        Machine.Multiproc.run ~placement:Machine.Placement.Affinity ~pes:4
          ~faults ~recovery prog
      with
      | exception e ->
          Fmt.str "multiproc p=4 faulty+recover raised %s" (Printexc.to_string e)
      | Error _ -> "multiproc p=4 faulty+recover failed"
      | Ok r ->
          let verdict =
            if not r.Machine.Multiproc.completed then "stalled"
            else if
              Imp.Memory.equal
                (Imp.Eval.run_program ~fuel:10_000_000 p)
                r.Machine.Multiproc.memory
            then "ok"
            else "diverged"
          in
          let m =
            match r.Machine.Multiproc.recovery with
            | Some m -> m
            | None -> Machine.Recovery.metrics_create ()
          in
          Fmt.str
            "multiproc p=4 faulty+recover  deaths=%d rollbacks=%d verdict=%s %s"
            m.Machine.Recovery.m_deaths m.Machine.Recovery.m_rollbacks verdict
            (cert_cell r.Machine.Multiproc.diagnosis))

(* One packed-engine line: the same graph compiled to the flat-array
   core and executed over the explicit token store, differentially
   checked against BOTH the reference interpreter's store (bit-identity
   between engines, the tentpole claim) and {!Imp.Eval}.  Firings,
   cycles and peak frames are deterministic, so the line is as
   snapshot-stable as the static counts. *)
let packed_line p =
  let sname, c =
    match Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p with
    | c -> ("schema2-opt", Some c)
    | exception (Cfg.Intervals.Irreducible _ | Dflow.Driver.Aliasing_unsupported _)
      -> (
        match Dflow.Driver.compile Dflow.Driver.Schema1 p with
        | c -> ("schema1", Some c)
        | exception _ -> ("none", None))
  in
  match c with
  | None -> "packed engine not-compilable"
  | Some c -> (
      let code = Machine.Packed.compile_graph c.Dflow.Driver.graph in
      match
        Machine.Packed.run_report ~layout:c.Dflow.Driver.layout code
      with
      | exception e -> Fmt.str "packed engine (%s) raised %s" sname
          (Printexc.to_string e)
      | Error d ->
          Fmt.str "packed engine (%s) failed: %s" sname
            (Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict)
      | Ok r ->
          let rref =
            Machine.Interp.run
              {
                Machine.Interp.graph = c.Dflow.Driver.graph;
                layout = c.Dflow.Driver.layout;
              }
          in
          let store =
            if
              r.Machine.Packed.completed
              && rref.Machine.Interp.completed
              && r.Machine.Packed.firings = rref.Machine.Interp.firings
              && Imp.Memory.equal rref.Machine.Interp.memory
                   r.Machine.Packed.memory
            then "identical"
            else "DIVERGED"
          in
          let verdict =
            if not r.Machine.Packed.completed then "stalled"
            else if
              Imp.Memory.equal
                (Imp.Eval.run_program ~fuel:10_000_000 p)
                r.Machine.Packed.memory
            then "ok"
            else "diverged"
          in
          Fmt.str
            "packed engine (%s) firings=%-5d cycles=%-5d frames=%-3d \
             verdict=%s store=%s %s"
            sname r.Machine.Packed.firings r.Machine.Packed.cycles
            r.Machine.Packed.peak_frames verdict store
            (cert_cell r.Machine.Packed.diagnosis))

(* Cycle-exact multiprocessor lines: every simulated counter the
   reference multiprocessor reports, at configurations that exercise
   topologies, hierarchical placement, LIFO scheduling and work stealing
   (default and eager specs) up to p=256.  Any change to the engine's
   per-cycle bookkeeping that moves a single cycle shows up here. *)
let eager_steal = { Sched.Steal.hysteresis = 1; min_victim = 1 }

let cycle_configs =
  let lifo = { Machine.Config.default with policy = Machine.Config.Lifo } in
  let open Sched.Topology in
  [
    ( "p=64 mesh/hier+steal",
      64, Machine.Config.default, Some Mesh, Machine.Placement.Hier,
      Some Sched.Steal.default );
    ( "p=256 torus/hash+steal",
      256, Machine.Config.default, Some Torus, Machine.Placement.Hash,
      Some eager_steal );
    ("p=8 cube/affinity", 8, Machine.Config.default, Some Cube,
     Machine.Placement.Affinity, None);
    ("p=4 lifo/affinity+steal", 4, lifo, None, Machine.Placement.Affinity,
     Some Sched.Steal.default);
  ]

let cycle_line p (label, pes, config, kind, placement, steal) =
  match Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p with
  | exception (Cfg.Intervals.Irreducible _ | Dflow.Driver.Aliasing_unsupported _)
    ->
      Fmt.str "cycles %-24s not-compilable" label
  | c -> (
      let prog =
        {
          Machine.Interp.graph = c.Dflow.Driver.graph;
          layout = c.Dflow.Driver.layout;
        }
      in
      let topo = Option.map (fun k -> Sched.Topology.make k ~pes) kind in
      match
        Machine.Multiproc.run ~config ?topo ?steal ~tree:c.Dflow.Driver.ltree
          ~placement ~pes prog
      with
      | exception e ->
          Fmt.str "cycles %-24s raised %s" label (Printexc.to_string e)
      | Error _ -> Fmt.str "cycles %-24s failed" label
      | Ok r ->
          let module M = Machine.Multiproc in
          Fmt.str
            "cycles %-24s cycles=%d firings=%d steals=%d hops=%d \
             mem_remote=%d peak_matching=%d busy=%d"
            label r.M.cycles r.M.firings r.M.steals r.M.net_hops
            r.M.mem_remote r.M.peak_matching
            (Array.fold_left ( + ) 0 r.M.per_pe_busy))

let snapshot name path =
  let p = Imp.Parser.program_of_string (read_file path) in
  let lines =
    List.map (fun (sname, spec) -> verdict_line sname spec p) schemas
    @ List.map
        (fun placement -> multiproc_line placement p)
        [ Machine.Placement.Hash; Machine.Placement.Affinity ]
    @ [ recovery_line p; packed_line p ]
    @ List.map (cycle_line p) cycle_configs
  in
  Fmt.str "# %s.imp — static counts and machine verdict per schema@.%s@."
    name
    (String.concat "\n" lines)

(* line-oriented diff rendering; good enough to read in a CI log *)
let diff_lines expected actual =
  let split s = String.split_on_char '\n' s in
  let e = Array.of_list (split expected) and a = Array.of_list (split actual) in
  let n = max (Array.length e) (Array.length a) in
  let buf = Buffer.create 256 in
  for i = 0 to n - 1 do
    let ei = if i < Array.length e then Some e.(i) else None in
    let ai = if i < Array.length a then Some a.(i) else None in
    match (ei, ai) with
    | Some x, Some y when x = y -> Buffer.add_string buf (Fmt.str "  %s\n" x)
    | _ ->
        Option.iter (fun x -> Buffer.add_string buf (Fmt.str "- %s\n" x)) ei;
        Option.iter (fun y -> Buffer.add_string buf (Fmt.str "+ %s\n" y)) ai
  done;
  Buffer.contents buf

let check_program (name, path) () =
  let actual = snapshot name path in
  let golden_path = Filename.concat golden_dir (name ^ ".golden") in
  if not (Sys.file_exists golden_path) then
    Alcotest.failf
      "no golden snapshot %s — bless it with `dune exec \
       test/test_golden.exe -- --update` and review the new file"
      golden_path
  else
    let expected = read_file golden_path in
    if expected <> actual then
      Alcotest.failf
        "golden drift for %s.imp (-%s, +current):@.%s@.if the change is \
         intended, re-bless with `dune exec test/test_golden.exe -- \
         --update` and commit the diff"
        name golden_path (diff_lines expected actual)

let update () =
  let dir =
    match golden_src_dir with
    | Some d -> d
    | None ->
        (* first blessing: create test/golden under the repo root *)
        if Sys.file_exists "test" then begin
          Sys.mkdir "test/golden" 0o755;
          "test/golden"
        end
        else Fmt.failwith "run --update from the repo root"
  in
  List.iter
    (fun (name, path) ->
      let out = Filename.concat dir (name ^ ".golden") in
      let oc = open_out out in
      output_string oc (snapshot name path);
      close_out oc;
      Fmt.pr "blessed %s@." out)
    (programs ())

let () =
  if Array.exists (( = ) "--update") Sys.argv then update ()
  else
    Alcotest.run "golden"
      [
        ( "snapshots",
          List.map
            (fun pr ->
              Alcotest.test_case (fst pr) `Quick (check_program pr))
            (programs ()) );
      ]
