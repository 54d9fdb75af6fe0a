(* Sequential Prolog engine: the "state-of-the-art sequential system"
   baseline of the paper (its SICStus stand-in).

   An explicit machine with a continuation stack and a choice-point stack,
   driven by the shared {!Machine} loop; this file supplies the
   sequential engine's hooks: shallow backtracking, trust/retry in place,
   and cut, disjunction, if-then-else and negation.
   Parallel conjunctions ('&') are executed as ordinary sequential
   conjunctions, so annotated benchmark programs run unchanged and the
   parallel engines' 1-agent overhead can be measured against this engine
   on identical programs.

   The engine charges every operation to an abstract-cycle accumulator
   using the same {!Ace_machine.Cost} table as the simulated parallel
   engines; the resulting total is the T_seq that parallel overhead is
   computed against. *)

module Term = Ace_term.Term
module Trail = Ace_term.Trail
module Clause = Ace_lang.Clause
module Code = Ace_lang.Code
module Database = Ace_lang.Database
module Table = Ace_lang.Table
module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Chaos = Ace_sched.Chaos
module Trace = Ace_obs.Trace
module Prof = Ace_obs.Prof

type alts =
  | Aclauses of Clause.t list
      (* remaining candidate clauses, stored as the selection's own list
         so a nondeterminate call allocates no per-clause wrapper *)
  | Agoal of Clause.body (* right branch of a disjunction *)

type cp = {
  cp_goal : Term.t option; (* None for disjunction choice points *)
  mutable cp_alts : alts;
  cp_cont : Machine.cont;
  cp_trail : int;
  cp_height : int; (* stack height below this choice point *)
}

type t = {
  db : Database.t;
  table : Table.t; (* shared answer table for tabled predicates *)
  trail : Trail.t;
  stats : Stats.t;
  cost : Cost.t;
  ctx : Builtins.ctx;
  goal : Term.t;
  compile : bool; (* execute flat clause code instead of interpreting *)
  tbuf : Trace.buffer; (* events stamped with the abstract-cycle clock *)
  chaos : Chaos.agent;
    (* jitter charges extra abstract cycles at yield sites; answers must
       not depend on it (there is no concurrency here — the hook exists so
       the checker can assert cycle-jitter invariance uniformly) *)
  sc : Code.scratch; (* frame buffer + argument registers (compiled path) *)
  cancel : Cancel.t;
    (* polled at the call and backtrack chokepoints; {!Cancel.none} costs
       one physical-equality test there (the allocation gate covers it) *)
  mutable prof : Prof.shard;
    (* per-predicate profiler shard ([Prof.null] when off); mutable only
       because its clock closure needs the machine *)
  mutable cps : cp list;
  mutable height : int;
  mutable charge : int; (* accumulated abstract cycles *)
  mutable started : bool;
  mutable exhausted : bool;
}

let create ?(cost = Cost.default) ?(compile = false) ?output
    ?(trace = Trace.disabled) ?(chaos = Chaos.disabled)
    ?(prof = Prof.disabled) ?table ?(cancel = Cancel.none) db goal =
  let trail = Trail.create () in
  let m =
    {
      db;
      table = (match table with Some t -> t | None -> Table.create ());
      trail;
      stats = Stats.create ();
      cost;
      ctx = Builtins.make_ctx ?output ~trail ();
      goal;
      compile;
      tbuf = Trace.buffer trace ~dom:0;
      chaos = Chaos.agent chaos 0;
      sc = Code.create_scratch ();
      cancel;
      prof = Prof.null;
      cps = [];
      height = 0;
      charge = 0;
      started = false;
      exhausted = false;
    }
  in
  if Prof.enabled prof then
    m.prof <-
      Prof.shard prof ~dom:0 ~stats:m.stats ~clock:(fun () -> m.charge) ();
  m

let spend m n = m.charge <- m.charge + n

(* The machine over this engine: charges go to the private
   abstract-cycle accumulator, stats to the single machine shard. *)
module M = Machine.Make (struct
  type nonrec t = t

  let name = "the sequential engine"
  let cost m = m.cost
  let stats m = m.stats
  let charge = spend
  let scratch m = m.sc
  let prof m = m.prof
  let record m kind arg = Trace.record_at m.tbuf ~ts:m.charge kind arg
  let cancel m = m.cancel
end)

(* [mark] is the trail height the choice point restores on backtracking —
   the caller's mark from *before* any bindings the first taken
   alternative made (shallow backtracking pushes the choice point only
   after a head has already matched). *)
let push_cp m ~mark ~goal ~alts ~cont =
  spend m (Chaos.jitter m.chaos);
  spend m m.cost.Cost.cp_alloc;
  m.stats.Stats.cp_allocs <- m.stats.Stats.cp_allocs + 1;
  m.stats.Stats.stack_words <- m.stats.Stats.stack_words + Cost.words_choice_point;
  let cp =
    {
      cp_goal = goal;
      cp_alts = alts;
      cp_cont = cont;
      cp_trail = mark;
      cp_height = m.height;
    }
  in
  m.cps <- cp :: m.cps;
  m.height <- m.height + 1

let undo_to m mark = M.untrail m m.trail mark

let pop m below =
  m.cps <- below;
  m.height <- m.height - 1

let cut m barrier =
  while m.height > barrier do
    match m.cps with [] -> assert false | _ :: below -> pop m below
  done

(* Shallow backtracking (WAM-style), the nondeterminate-call hook: scan
   the candidates for the first one whose head matches before allocating
   a choice point, so clauses rejected by head unification cost no
   choice-point traffic.  The choice point — pushed only when a later
   alternative remains — records the pre-scan trail mark, since those
   alternatives must be retried from the caller's bindings. *)
let shallow m () g clause rest cont =
  let mark = Trail.mark m.trail in
  let rec scan clause rest =
    match M.resolve m ~ctx:m.ctx ~compiled:m.compile ~trail:m.trail g clause with
    | Kernel.R_fail -> (
      undo_to m mark;
      match rest with
      | [] ->
        if Prof.live m.prof then Prof.fail m.prof (Prof.key_of_term g);
        Kernel.R_fail
      | clause :: rest -> scan clause rest)
    | resolved ->
      if rest <> [] then push_cp m ~mark ~goal:(Some g) ~alts:(Aclauses rest) ~cont;
      resolved
  in
  scan clause rest

let rec backtrack (loop : (t, unit, bool) Machine.loop) m () =
  Cancel.check m.cancel;
  m.stats.Stats.backtracks <- m.stats.Stats.backtracks + 1;
  spend m (Chaos.jitter m.chaos);
  match m.cps with
  | [] -> false
  | cp :: below -> (
    spend m m.cost.Cost.backtrack_node;
    m.stats.Stats.bt_nodes_visited <- m.stats.Stats.bt_nodes_visited + 1;
    undo_to m cp.cp_trail;
    spend m m.cost.Cost.cp_restore;
    match cp.cp_alts with
    | Aclauses clauses ->
      let goal = match cp.cp_goal with Some g -> g | None -> assert false in
      if Prof.live m.prof then Prof.redo m.prof (Prof.key_of_term goal);
      (* Shallow scan, as in [shallow]: head-rejected alternatives are
         dropped without re-entering the backtracker; the last matching
         alternative pops the choice point (WAM "trust"). *)
      let rec rescan = function
        | [] ->
          if Prof.live m.prof then Prof.fail m.prof (Prof.key_of_term goal);
          pop m below;
          backtrack loop m ()
        | clause :: alts -> (
          match
            M.resolve m ~ctx:m.ctx ~compiled:m.compile ~trail:m.trail goal clause
          with
          | Kernel.R_fail ->
            undo_to m cp.cp_trail;
            rescan alts
          | resolved ->
            if alts = [] then pop m below
            else begin
              (* the retained choice point is updated in place with the
                 shrunken alternative list *)
              cp.cp_alts <- Aclauses alts;
              m.stats.Stats.cp_updates <- m.stats.Stats.cp_updates + 1
            end;
            loop.continue m () resolved ~barrier:cp.cp_height cp.cp_cont)
      in
      rescan clauses
    | Agoal body ->
      (* a disjunction's right branch is its only alternative: trust *)
      pop m below;
      loop.run m () (Machine.push body m.height cp.cp_cont))

(* Cut, if-then-else, disjunction and negation; a dynamically built
   '&'/2 goal and the '$solution' sentinel are not part of this engine's
   language and fall through to the database (and its existence error),
   as they always have. *)
let branch (loop : (t, unit, bool) Machine.loop) m goal barrier cont =
  loop.run m () (Machine.push (Clause.compile_body goal) barrier cont)

let rec control loop m () cls g ~barrier cont =
  match cls with
  | Kernel.Cut ->
    cut m barrier;
    loop.Machine.run m () cont
  | Kernel.Ite (cond, then_, else_) ->
    let mark = Trail.mark m.trail in
    (* commit to the condition's first solution (bindings kept) *)
    if solve_once loop m cond then branch loop m then_ barrier cont
    else begin
      undo_to m mark;
      branch loop m else_ barrier cont
    end
  | Kernel.Disj (left, else_) ->
    push_cp m ~mark:(Trail.mark m.trail) ~goal:None
      ~alts:(Agoal (Clause.compile_body else_)) ~cont;
    branch loop m left barrier cont
  | Kernel.Naf g ->
    let mark = Trail.mark m.trail in
    let proved = solve_once loop m g in
    undo_to m mark;
    if proved then backtrack loop m () else loop.run m () cont
  | _ -> loop.call m () g cont

(* Proves [g] once on a private choice-point stack, keeping bindings.  Used
   by negation and if-then-else. *)
and solve_once loop m g =
  let saved_cps = m.cps and saved_height = m.height in
  m.cps <- [];
  m.height <- 0;
  let found = loop.Machine.dispatch m () g ~barrier:0 [] in
  m.cps <- saved_cps;
  m.height <- saved_height;
  found

module L = M.Loop (struct
  type nonrec t = t
  type m = unit
  type r = bool

  let halt = false
  let db m = m.db
  let table m = m.table
  let compiled m = m.compile
  let ctx m () = m.ctx
  let height m () = m.height
  let trims = true

  (* the call chokepoints: a fired token unwinds out of [next] through
     the [Cancelled] handler, so no further (possibly wrong-under-
     cancellation) solution can be reported *)
  let proceed m () = function
    | Machine.Step -> true
    | Machine.Call | Machine.Call_regs ->
      Cancel.check m.cancel;
      true

  let empty _ _ () = true
  let nondet = shallow
  let backtrack = backtrack

  (* '&' runs as a plain conjunction *)
  let par (loop : (t, unit, bool) Machine.loop) m () bodies ~barrier cont =
    loop.run m () (Machine.conj bodies barrier cont)

  let control = control
end)

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let next m =
  if m.exhausted then None
  else begin
    let found =
      (* a fired cancel token unwinds here like exhaustion: solutions
         already reported stay valid (each was complete when copied),
         the machine just stops producing more *)
      match
        if not m.started then begin
          m.started <- true;
          L.run m () (Machine.push (Clause.compile_body m.goal) 0 [])
        end
        else L.backtrack m ()
      with
      | found -> found
      | exception Cancel.Cancelled -> false
    in
    if found then begin
      m.stats.Stats.solutions <- m.stats.Stats.solutions + 1;
      Trace.record_at m.tbuf ~ts:m.charge Trace.Solution m.stats.Stats.solutions;
      Some (Term.copy_resolved m.goal)
    end
    else begin
      m.exhausted <- true;
      None
    end
  end

let all_solutions ?limit m =
  let rec go acc n =
    match limit with
    | Some l when n >= l -> List.rev acc
    | Some _ | None -> (
      match next m with
      | Some s -> go (s :: acc) (n + 1)
      | None -> List.rev acc)
  in
  go [] 0

let stats m = m.stats

let time m = m.charge

let solve ?cost ?compile ?output ?trace ?chaos ?prof ?table ?cancel ?limit db
    goal =
  let m = create ?cost ?compile ?output ?trace ?chaos ?prof ?table ?cancel db
      goal
  in
  let solutions = all_solutions ?limit m in
  (solutions, m)
