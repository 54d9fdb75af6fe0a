(* The batch workloads, run in-process through the public API:
   [Program.consult_string] + [Engine.prepare] once per program, then
   every query parsed afresh and run with [Engine.run] on the par engine.

   or_search: the only workload with real or-nondeterminism; publishing,
   stealing and copying do the work and parcall frames none.

   and_determinate: determinate '&' programs run with par_and, where
   parcall frames, LPCO, SPO and PDO do the work and any choice point or
   copy is waste; it carries the list builder go/2, whose compiled
   dispatch leaves a choice point per element on par. *)

open Common
module Config = Ace_machine.Config
module Programs = Ace_benchmarks.Programs
module Gen = Ace_benchmarks.Gen

type query = {
  label : string;
  source : string;  (** program text *)
  text : string;  (** query text, parsed afresh on every run *)
}

let registry name n =
  let b = Programs.find name in
  { label = Printf.sprintf "%s(%d)" name n; source = b.Programs.program n;
    text = b.Programs.query n }

let list_builder_program =
  {|
mk(0, []).
mk(N, [N|T]) :- N > 0, M is N-1, mk(M, T).
cnt([], 0).
cnt([_|T], C) :- cnt(T, C0), C is C0+1.
go(N, C) :- mk(N, L), cnt(L, C).
|}

(* Query data comes from the run seed; sizes are fixed per workload. *)
let queries opts =
  let st = rng opts 1 in
  let ints n bound = Gen.int_list ~seed:(Random.State.bits st) ~n ~bound in
  let size ~tiny ~full = if opts.tiny then tiny else full in
  match opts.workload with
  | "or_search" ->
    let m = size ~tiny:6 ~full:24 in
    let l () = Gen.pp_int_list (ints m 50) in
    [ registry "queen1" (size ~tiny:5 ~full:7);
      registry "queen2" (size ~tiny:5 ~full:9);
      registry "puzzle" 1;
      { (registry "members" m) with
        text = Printf.sprintf "members(%s, %s, %s, 75, T)" (l ()) (l ()) (l ()) };
      registry "maps" 1 ]
  | "and_determinate" ->
    let q = size ~tiny:50 ~full:1000 in
    let n = size ~tiny:4 ~full:20 in
    let m2 = size ~tiny:20 ~full:2000 in
    let matrix () = Gen.matrix ~seed:(Random.State.bits st) ~n ~bound:10 in
    let go = size ~tiny:50 ~full:2000 in
    [ registry "takeuchi" (size ~tiny:8 ~full:16);
      registry "hanoi" (size ~tiny:5 ~full:13);
      { (registry "quick_sort" q) with
        text = Printf.sprintf "qsort(%s, S)" (Gen.pp_int_list (ints q 10000)) };
      { (registry "matrix" n) with
        text =
          Printf.sprintf "mmul(%s, %s, R)" (Gen.pp_matrix (matrix ()))
            (Gen.pp_matrix (Gen.transpose (matrix ()))) };
      { (registry "map2" m2) with
        text = Printf.sprintf "map2(%s, Out)" (Gen.pp_int_list (ints m2 1000)) };
      { label = Printf.sprintf "go(%d)" go; source = list_builder_program;
        text = Printf.sprintf "go(%d, C)" go } ]
  | w -> invalid_arg w

let config opts =
  {
    (Config.all_optimizations ~agents:opts.domains ()) with
    Config.compile = true;
    par_and = opts.workload = "and_determinate";
  }

(* The differential reference: the interpreted sequential engine. *)
let reference = { Config.default with Config.compile = false }

let run_one ?(qid = -1) kind config prepared text =
  let goal =
    span ~qid "engine.parse_query" (fun () -> (Program.parse_query text).Program.goal)
  in
  span ~qid "engine.run" (fun () -> Engine.run kind config prepared goal)

(* Upper bound of the histogram bucket holding the [q] quantile. *)
let hist_quantile h q =
  let target = int_of_float (Float.ceil (q *. float_of_int h.Metrics.h_n)) in
  let rec go seen = function
    | [] -> 0.0
    | (ub, c) :: rest ->
      if seen + c >= target then float_of_int ub else go (seen + c) rest
  in
  if h.Metrics.h_n = 0 then 0.0 else go 0 (Metrics.hist_buckets h)

let sources opts = Array.of_list (List.map (fun q -> q.source) (queries opts))

let setup_only opts =
  let sources = sources opts in
  let t0 = now () in
  ignore (prepare_sources sources);
  now () -. t0

let run opts res =
  let qs = Array.of_list (queries opts) in
  let prepared = prepare_sources (sources opts) in
  let expected =
    Array.mapi
      (fun i q ->
        let r = run_one Engine.Sequential reference prepared.(i) q.text in
        Ace_check.Canon.digest r.Engine.solutions)
      qs
  in
  if opts.corrupt then expected.(0) <- Digest.to_hex (Digest.string "corrupt");
  note res "expected_digests"
    (Json.Obj (Array.to_list (Array.mapi (fun i q -> (q.label, Json.Str expected.(i))) qs)));
  let config = config opts in
  let check ~qid i r =
    let ok =
      span ~qid "check.digest" (fun () -> Ace_check.Canon.digest r.Engine.solutions)
      = expected.(i)
    in
    if not ok then Printf.eprintf "wrong answer set: %s\n%!" qs.(i).label;
    ok
  in
  let layers a ~self ~per =
    let s = a.stats in
    let f = float_of_int in
    let pq x = per (f x) in
    set res "lang.clauses" (f (clauses prepared));
    set res "engine.run_s" (per (self "engine.run"));
    set res "par.steals" (pq s.Stats.steals);
    set res "par.steal_tries_mean" (Metrics.hist_mean a.steal_tries);
    set res "par.copies" (pq s.Stats.copies);
    set res "par.copied_cells" (pq s.Stats.copied_cells);
    set res "par.copy_cells_p90" (hist_quantile a.copy_cells 0.9);
    set res "par.busy_frac" (f a.busy_ns /. f (max 1 (a.busy_ns + a.idle_ns)));
    set res "par.idle_s" (per (f a.idle_ns *. 1e-9));
    set res "par.publish_skipped" (pq s.Stats.publish_skipped_small);
    set res "par_and.frames" (pq s.Stats.frames);
    set res "par_and.slots" (pq s.Stats.slots);
    set res "par_and.lpco_hits" (pq s.Stats.lpco_hits);
    set res "par_and.spo_hits" (pq s.Stats.spo_hits);
    set res "par_and.pdo_hits" (pq s.Stats.pdo_hits)
  in
  run_in_process opts res ~labels:(Array.map (fun q -> q.label) qs) ~per_pass:true
    ~reprepare:(fun () -> ignore (prepare_sources (sources opts)))
    ~exec:(fun qid i -> run_one ~qid Engine.Par_or config prepared.(i) qs.(i).text)
    ~check ~layers
