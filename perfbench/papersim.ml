(* paper_sim: the simulated and/or engines (lib/sched/sim, And_engine,
   Or_engine) on a fixed subset of the cells of the paper's tables, each
   cell run with its optimization off and on at its processor count.
   Simulated cycle counts are exact, so every run is checked against the
   kilocycle figures recorded in experiments_output.txt (extracted into
   paper_sim_expected.tsv by extract_sim_expected.py). *)

open Common
module Config = Ace_machine.Config
module Programs = Ace_benchmarks.Programs
module Experiment = Ace_harness.Experiment

(* One simulated run: a table cell with its optimization off or on. *)
type run = {
  label : string;
  kind : Engine.kind;
  config : Config.t;
  prep : int;  (** index into the prepared programs *)
  text : string;
  expected_kc : int;
}

let expected_file = "perfbench/paper_sim_expected.tsv"

(* The subset is chosen once, by a fixed seed, so every run measures the
   same cells; the run seed only orders them.  Twenty-four of the 102
   cells keep one pass near a second on a 2-core host. *)
let subset_seed = 1997

let cells ~tiny =
  let rows =
    In_channel.with_open_text expected_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.split_on_char '\t' l with
           | [ r; label; p; u; o ] ->
             (r, label, int_of_string p, int_of_string u, int_of_string o)
           | _ -> failwith ("bad line in " ^ expected_file ^ ": " ^ l))
    |> Array.of_list
  in
  let st = Random.State.make [| subset_seed |] in
  let picked = shuffle st rows in
  Array.sub picked 0 (if tiny then 3 else 24)

let find_workload ref_ label =
  let e = List.find (fun e -> e.Experiment.paper_ref = ref_) Experiment.all in
  (e, List.find (fun w -> w.Experiment.w_label = label) e.Experiment.workloads)

(* Programs to prepare and the two runs of every cell. *)
let plan ~tiny =
  let sources = Hashtbl.create 16 in
  let progs = ref [] in
  let prep_of (w : Experiment.workload) =
    let key = (w.Experiment.w_benchmark, w.Experiment.w_size) in
    match Hashtbl.find_opt sources key with
    | Some i -> i
    | None ->
      let b = Programs.find w.Experiment.w_benchmark in
      let i = Hashtbl.length sources in
      Hashtbl.replace sources key i;
      progs := b.Programs.program w.Experiment.w_size :: !progs;
      i
  in
  let runs =
    Array.to_list (cells ~tiny)
    |> List.concat_map (fun (ref_, label, p, u, o) ->
           let e, w = find_workload ref_ label in
           let b = Programs.find w.Experiment.w_benchmark in
           let base = { Config.default with Config.agents = p } in
           let mk tag config kc =
             { label = Printf.sprintf "%s %s P=%d %s" ref_ label p tag;
               kind = b.Programs.kind; config; prep = prep_of w;
               text = b.Programs.query w.Experiment.w_size; expected_kc = kc }
           in
           [ mk "unopt" base u;
             mk "opt" (Experiment.apply_optimization base e.Experiment.optimization) o ])
  in
  (Array.of_list (List.rev !progs), Array.of_list runs)

let setup_only opts =
  let sources, _ = plan ~tiny:opts.tiny in
  let t0 = now () in
  ignore (prepare_sources sources);
  now () -. t0

let run opts res =
  let sources, runs = plan ~tiny:opts.tiny in
  if opts.corrupt then runs.(0) <- { (runs.(0)) with expected_kc = runs.(0).expected_kc + 1 };
  let prepared = prepare_sources sources in
  (* each run's simulated cycles; they are the same on every pass *)
  let cycles = Array.make (Array.length runs) 0 in
  let check ~qid:_ i result =
    let r = runs.(i) in
    cycles.(i) <- result.Engine.time;
    let ok = (result.Engine.time + 500) / 1000 = r.expected_kc in
    if not ok then
      Printf.eprintf "%s: %d cycles, recorded %d kilocycles\n%!" r.label result.Engine.time
        r.expected_kc;
    ok
  in
  let layers a ~self ~per =
    let s = a.stats in
    let f = float_of_int in
    let pq x = per (f x) in
    set res "lang.clauses" (f (clauses prepared));
    set res "sim.run_s" (per (self "sim.run"));
    set res "sim.cycles" (f (Array.fold_left ( + ) 0 cycles));
    set res "sim.frames" (pq s.Stats.frames);
    set res "sim.markers" (pq (s.Stats.input_markers + s.Stats.end_markers));
    set res "sim.lao_hits" (pq s.Stats.lao_hits);
    set res "sim.copied_cells" (pq s.Stats.copied_cells)
  in
  run_in_process opts res ~labels:(Array.map (fun r -> r.label) runs) ~per_pass:false
    ~reprepare:(fun () -> ignore (prepare_sources sources))
    ~exec:(fun qid i ->
      let r = runs.(i) in
      let goal =
        span ~qid "engine.parse_query" (fun () -> (Program.parse_query r.text).Program.goal)
      in
      span ~qid "sim.run" (fun () -> Engine.run r.kind r.config prepared.(r.prep) goal))
    ~check ~layers
