(* Counter golden: the deterministic Stats counters (and the simulated
   cycle count) of every engine on the seq-core benchmark programs at
   their test-suite sizes, pinned in counter_golden.txt.  A refactor of
   the engines' shared machinery must leave every line unchanged.

   Left out because they do not repeat exactly from run to run: [par]'s
   [time] (wall-clock nanoseconds). *)

module Config = Ace_machine.Config
module Stats = Ace_machine.Stats
module Engine = Ace_core.Engine
module Programs = Ace_benchmarks.Programs

let benchmarks =
  [ "queen1"; "queen2"; "puzzle"; "members"; "maps"; "pderiv"; "matrix";
    "hanoi"; "takeuchi"; "bt_cluster"; "quick_sort" ]

(* engine tag, kind, configuration; each runs interpreted and compiled.
   The "o" rows switch the paper's optimizations on; "par1a" builds
   parcall frames on one domain (SPO off, so every independent '&'
   gets a frame). *)
let engines =
  let opt agents = Config.all_optimizations ~agents () in
  [ ("seq", Engine.Sequential, Config.default);
    ("and1", Engine.And_parallel, Config.default);
    ("and3", Engine.And_parallel, { Config.default with Config.agents = 3 });
    ("and3o", Engine.And_parallel, opt 3);
    ("or1", Engine.Or_parallel, Config.default);
    ("or3", Engine.Or_parallel, { Config.default with Config.agents = 3 });
    ("or3o", Engine.Or_parallel, opt 3);
    ("par1", Engine.Par_or, Config.default);
    ("par1a", Engine.Par_or,
     { (opt 1) with Config.par_and = true; spo = false }) ]

let counters (s : Stats.t) =
  [ ("sols", s.Stats.solutions);
    ("cp_allocs", s.Stats.cp_allocs);
    ("cp_updates", s.Stats.cp_updates);
    ("backtracks", s.Stats.backtracks);
    ("bt_nodes", s.Stats.bt_nodes_visited);
    ("unify", s.Stats.unify_steps);
    ("trail", s.Stats.trail_pushes);
    ("envs", s.Stats.env_allocs);
    ("instrs", s.Stats.code_instrs);
    ("lao", s.Stats.lao_hits);
    ("copies", s.Stats.copies);
    ("cells", s.Stats.copied_cells);
    ("frames", s.Stats.frames);
    ("slots", s.Stats.slots);
    ("in_markers", s.Stats.input_markers);
    ("end_markers", s.Stats.end_markers);
    ("avoided", s.Stats.markers_avoided);
    ("lpco", s.Stats.lpco_hits);
    ("spo", s.Stats.spo_hits);
    ("pdo", s.Stats.pdo_hits);
    ("steals", s.Stats.steals);
    ("kills", s.Stats.kills) ]

let line name (tag, kind, config) compile =
  let b = Programs.find name in
  let size = b.Programs.small_size in
  let config = { config with Config.compile } in
  let r =
    Engine.solve_program kind config ~program:(b.Programs.program size)
      ~query:(b.Programs.query size)
  in
  let fields =
    counters r.Engine.stats
    @ if kind = Engine.Par_or then [] else [ ("time", r.Engine.time) ]
  in
  String.concat " "
    (name :: (tag ^ if compile then "/c" else "")
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fields)

let lines () =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun engine -> [ line name engine false; line name engine true ])
        engines)
    benchmarks

let test_golden () =
  (* dune runtest runs in the test directory, dune exec in the root *)
  let file =
    if Sys.file_exists "counter_golden.txt" then "counter_golden.txt"
    else "test/counter_golden.txt"
  in
  let expected =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "counters" expected (lines ())

let suite = [ Alcotest.test_case "golden" `Quick test_golden ]
