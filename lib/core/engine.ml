(* Facade over the four engines, exposing one result type so that the
   harness, tests and examples can sweep engine × configuration
   uniformly. *)

module Term = Ace_term.Term
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Database = Ace_lang.Database
module Metrics = Ace_obs.Metrics

type kind =
  | Sequential   (* baseline; '&' runs as ',' *)
  | And_parallel (* &ACE: LPCO / SPO / PDO *)
  | Or_parallel  (* MUSE-style: LAO, on the deterministic simulator *)
  | Par_or       (* MUSE-style on real OCaml domains (wall clock) *)

let kind_to_string = function
  | Sequential -> "seq"
  | And_parallel -> "and"
  | Or_parallel -> "or"
  | Par_or -> "par"

type result = Machine.result = {
  solutions : Term.t list;
  stats : Stats.t;
  metrics : Metrics.t;
    (* per-agent shards behind [stats]; the multicore engine also fills
       the busy/idle and histogram fields *)
  time : int;
    (* abstract cycles: charged total (seq) or simulated makespan; for
       [Par_or] this is measured wall-clock nanoseconds instead *)
  cancelled : Cancel.reason option;
    (* [Some _]: the run was aborted and [solutions] is the partial set
       completed before the token fired *)
}

(* Samples the GC allocation counters around [f] and writes the deltas
   into the result's stats.  [Gc.quick_stat] counters are per-domain in
   OCaml 5, so for the multi-domain engine the deltas cover only the
   calling domain's share — a lower bound, which is still the right
   signal for the allocation-regression gate (the sequential engine, the
   gate's subject, runs entirely on this domain). *)
let with_alloc_counters f =
  let g0 = Gc.quick_stat () in
  let result = f () in
  let g1 = Gc.quick_stat () in
  let minor = int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words) in
  let promoted = int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words) in
  result.stats.Stats.minor_words <- result.stats.Stats.minor_words + minor;
  result.stats.Stats.promoted_words <-
    result.stats.Stats.promoted_words + promoted;
  result

(* The shared, immutable artifact of the run lifecycle split: consulting,
   freezing and clause compilation happen once in [prepare]; [run] is the
   cheap per-query step, safe to issue concurrently against one
   [prepared] (sessions overlay it, they never mutate it). *)
type prepared = { pbase : Database.t }

let prepare db =
  (* build the dispatch trees and precompile clause code once; runs then
     read the database without mutating it (required by the multi-domain
     engine) *)
  Database.freeze db;
  { pbase = db }

let prepare_string program =
  prepare (Ace_lang.Program.db (Ace_lang.Program.consult_string program))

let database p = p.pbase
let session p = Database.overlay p.pbase

let run ?output ?trace ?chaos ?prof ?table ?(cancel = Cancel.none) ?session
    kind (config : Config.t) p goal =
  let db = match session with Some s -> s | None -> p.pbase in
  (* idempotent on the shared base; for a session overlay this re-indexes
     and re-compiles only the session's own asserted clauses *)
  Database.freeze db;
  (* one answer table per run unless the caller shares one across runs;
     only the multi-domain engine needs the per-shard locks *)
  let table =
    match table with
    | Some t -> t
    | None ->
      Ace_lang.Table.create
        ~locked:(kind = Par_or)
        ~max_answers:config.Config.table_max_answers ()
  in
  (* however the run ends (exhaustion, solution limit, cancel, error) its
     bindings die with it: the query's variables are unbound again, so
     the same parsed goal can be run again *)
  let query_vars = Term.variables goal in
  Fun.protect ~finally:(fun () ->
      List.iter (fun (v : Term.var) -> v.Term.binding <- None) query_vars)
  @@ fun () ->
  with_alloc_counters @@ fun () ->
  match kind with
  | Sequential ->
    let solutions, m =
      Seq_engine.solve ?output ?trace ?chaos ?prof ~cost:config.Config.cost
        ~compile:config.Config.compile ~table ~cancel
        ?limit:config.Config.max_solutions db goal
    in
    let stats = Seq_engine.stats m in
    {
      solutions;
      stats;
      metrics = Metrics.of_stats stats;
      time = Seq_engine.time m;
      cancelled = Cancel.fired cancel;
    }
  | And_parallel ->
    And_engine.solve ?output ?trace ?chaos ?prof ~table ~cancel config db goal
  | Or_parallel ->
    Or_engine.solve ?output ?trace ?chaos ?prof ~table ~cancel config db goal
  | Par_or ->
    Par_or_engine.solve ?output ?trace ?chaos ?prof ~table ~cancel config db
      goal

let solve ?output ?trace ?chaos ?prof ?table ?cancel kind config db goal =
  run ?output ?trace ?chaos ?prof ?table ?cancel kind config (prepare db) goal

(* Convenience: consult a program and run a query in one call. *)
let solve_program ?output ?trace ?chaos ?prof ?table ?cancel kind config
    ~program ~query =
  let p = prepare_string program in
  let q = Ace_lang.Program.parse_query query in
  run ?output ?trace ?chaos ?prof ?table ?cancel kind config p
    q.Ace_lang.Program.goal

(* Solutions as a sorted list (for multiset comparison between engines,
   since or-parallel discovery order is interleaved). *)
let sorted_solutions result = List.sort Term.compare result.solutions
