(* The or-parallel engine (MUSE-style, as in the ACE or-parallel
   component).

   Every worker owns a complete private machine state (choice-point stack,
   trail, bindings).  An idle worker picks a victim, scans the victim's
   choice-point stack bottom-up for a node with untried alternatives
   (charged per node visited — dead, exhausted nodes on the way cost real
   scan time), then *copies* the victim's machine state, backtracks the
   copy to the stolen node, and takes the next alternative.  The
   alternative lists of copied choice points are shared (behind a ref), so
   every alternative is explored exactly once globally — the MUSE
   public-region discipline.

   Because a shared (copied) node may back branches of other workers, an
   exhausted node cannot be trust-popped at its last alternative the way a
   sequential engine would: it stays on the stack until backtracking pops
   it, and scans and copies keep paying for it.  This is precisely the
   behaviour the Last Alternative Optimization (LAO, paper §3.2) attacks:
   with LAO, creating a choice point while the current top node is
   exhausted *updates that node in place* instead of allocating a new one,
   so member/2-style generators keep a single live node holding all
   remaining alternatives (paper's Figures 6 and 7).  The in-place update
   of a potentially shared node needs synchronization, so it is charged
   *more* than a private allocation — which is why LAO loses a little at 1
   worker (the negative first column of the paper's Table 3) and wins once
   scans and copies matter.

   Solutions: the root continuation ends in a sentinel goal ['$solution']
   that records the current bindings and then fails, driving exploration of
   the entire search tree (or until [max_solutions]). *)

module Term = Ace_term.Term
module Trail = Ace_term.Trail
module Clause = Ace_lang.Clause
module Database = Ace_lang.Database
module Table = Ace_lang.Table
module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Sim = Ace_sched.Sim
module Chaos = Ace_sched.Chaos
module Trace = Ace_obs.Trace
module Prof = Ace_obs.Prof

type ocp = {
  mutable o_goal : Term.t;
  mutable o_alts : Clause.t list ref; (* shared with copies of this node *)
  mutable o_cont : Machine.cont;
  mutable o_trail : int;
}

type worker = {
  w_id : int;
  mutable w_cps : ocp list; (* newest first *)
  mutable w_trail : Trail.t;
  mutable w_idle : bool;
}

type t = {
  db : Database.t;
  table : Table.t; (* shared answer table for tabled predicates *)
  config : Config.t;
  ag : Agents.t; (* the simulator and the per-worker shards *)
  workers : worker array;
  output : Buffer.t option;
  mutable idle_count : int;
}

module A = Agents.Scheduler (struct
  type nonrec t = t

  let name = "the or-parallel engine"
  let agents st = st.ag
end)

open A
module M = Machine.Make (A)

(* ------------------------------------------------------------------ *)
(* Raw state copying (the MUSE stack copy)                             *)
(* ------------------------------------------------------------------ *)

(* Copies the victim's entire machine state into the thief (full stack +
   full trail, exactly like a MUSE stack copy); the caller then backtracks
   the copy to the stolen node.  The alternative refs stay shared. *)
let copy_state st ~victim ~thief =
  let table = Hashtbl.create 256 in
  let cells = ref 0 in
  let raw = Kernel.Copy.raw_term table cells in
  let cps =
    List.map
      (fun cp ->
        {
          o_goal = raw cp.o_goal;
          o_alts = cp.o_alts; (* shared *)
          o_cont = Machine.map_cont raw cp.o_cont;
          o_trail = cp.o_trail;
        })
      victim.w_cps
  in
  let trail = Trail.create () in
  let n = Trail.size victim.w_trail in
  let entries = Trail.segment victim.w_trail ~lo:0 ~hi:n in
  Array.iter (fun v -> Trail.push trail (Kernel.Copy.raw_var table cells v)) entries;
  thief.w_cps <- cps;
  thief.w_trail <- trail;
  charge st (st.ag.cost.Cost.copy_setup + (!cells * st.ag.cost.Cost.copy_cell));
  (stats st).Stats.copies <- (stats st).Stats.copies + 1;
  (stats st).Stats.copied_cells <- (stats st).Stats.copied_cells + !cells;
  if Prof.live (prof st) then Prof.copied (prof st) !cells;
  record st Trace.Copy !cells

(* ------------------------------------------------------------------ *)
(* The machine hooks                                                   *)
(* ------------------------------------------------------------------ *)

let ctx_of st w = Builtins.make_ctx ?output:st.output ~trail:w.w_trail ()

let try_clause st w goal clause =
  M.resolve st ~ctx:(ctx_of st w) ~compiled:st.config.Config.compile
    ~trail:w.w_trail goal clause

(* Choice-point creation, with the LAO check: if the current top node is
   exhausted, refurbish it in place instead of allocating a new node. *)
let push_cp st w ~goal ~alts ~cont =
  chaos_yield st;
  let cost = st.ag.cost in
  if st.config.Config.lao then charge st cost.Cost.runtime_check;
  match w.w_cps with
  | top :: _
    when Kernel.Schema.lao_refurbish st.config ~top_exhausted:(!(top.o_alts) = []) ->
    charge st cost.Cost.lao_update;
    (stats st).Stats.cp_updates <- (stats st).Stats.cp_updates + 1;
    (stats st).Stats.lao_hits <- (stats st).Stats.lao_hits + 1;
    record st Trace.Lao_hit (List.length alts);
    top.o_goal <- goal;
    top.o_alts <- ref alts; (* fresh ref: old copies keep their dead ref *)
    top.o_cont <- cont;
    top.o_trail <- Trail.mark w.w_trail
  | _ ->
    charge st cost.Cost.cp_alloc;
    (stats st).Stats.cp_allocs <- (stats st).Stats.cp_allocs + 1;
    (stats st).Stats.stack_words <-
      (stats st).Stats.stack_words + Cost.words_choice_point;
    w.w_cps <-
      { o_goal = goal; o_alts = ref alts; o_cont = cont; o_trail = Trail.mark w.w_trail }
      :: w.w_cps

(* Local backtracking: exhausted nodes are popped (each visit charged); a
   node with remaining shared alternatives yields the next one.  Returns
   when the worker has no local alternatives left. *)
let rec backtrack (loop : (t, worker, unit) Machine.loop) st w =
  (stats st).Stats.backtracks <- (stats st).Stats.backtracks + 1;
  if Agents.stopped st.ag then ()
  else if Cancel.poll st.ag.cancel then Agents.stop st.ag
  else begin
    chaos_yield st;
    match w.w_cps with
    | [] -> () (* no local work left: the worker loop will go stealing *)
    | cp :: below -> (
      charge st st.ag.cost.Cost.backtrack_node;
      (stats st).Stats.bt_nodes_visited <- (stats st).Stats.bt_nodes_visited + 1;
      match !(cp.o_alts) with
      | [] ->
        if Prof.live (prof st) then Prof.fail (prof st) (Prof.key_of_term cp.o_goal);
        w.w_cps <- below;
        backtrack loop st w
      | clause :: alts ->
        if Prof.live (prof st) then Prof.redo (prof st) (Prof.key_of_term cp.o_goal);
        cp.o_alts := alts;
        M.untrail st w.w_trail cp.o_trail;
        charge st st.ag.cost.Cost.cp_restore;
        loop.continue st w (try_clause st w cp.o_goal clause) ~barrier:0 cp.o_cont)
  end

(* Solutions: the root continuation ends in the ['$solution'] sentinel,
   which records the bindings and fails (report-and-fail drives the full
   search). *)
let control loop st w cls g ~barrier cont =
  match cls with
  | Kernel.Sentinel goal ->
    if Agents.solution st.ag goal then backtrack loop st w
    else Agents.stop st.ag
  | Kernel.Amp g ->
    loop.Machine.run st w (Machine.push (Clause.compile_body g) barrier cont)
  | _ -> M.unsupported st g

module L = M.Loop (struct
  type nonrec t = t
  type m = worker
  type r = unit

  let halt = ()
  let db st = st.db
  let table st = st.table
  let compiled st = st.config.Config.compile
  let ctx = ctx_of
  let height _ _ = 0

  (* a stolen (copied) stack may still reference a frame at an earlier
     pc, so dead slots must survive *)
  let trims = false

  (* a fired token stops the whole search exactly like a solution limit *)
  let proceed st _ = function
    | Machine.Step | Machine.Call_regs -> not (Agents.stopped st.ag)
    | Machine.Call ->
      if Cancel.poll st.ag.cancel then begin
        Agents.stop st.ag;
        false
      end
      else true

  (* only reachable for a goal without the sentinel: treat as done *)
  let empty = backtrack

  let nondet st w g clause rest cont =
    push_cp st w ~goal:g ~alts:rest ~cont;
    try_clause st w g clause

  let backtrack = backtrack

  (* the or-engine runs '&' sequentially *)
  let par (loop : (t, worker, unit) Machine.loop) st w bodies ~barrier cont =
    loop.run st w (Machine.conj bodies barrier cont)

  let control = control
end)

(* ------------------------------------------------------------------ *)
(* Or-scheduler: scanning and stealing                                 *)
(* ------------------------------------------------------------------ *)

(* Scans [victim]'s stack bottom-up for the first node with untried
   alternatives; charges per node visited (dead nodes on the way cost real
   scan time).  The scan itself does not tick, so the result is consistent
   with the claim that follows; the accumulated cost is charged in one
   step. *)
let find_work st victim =
  let visited = ref 0 in
  let rec scan = function
    | [] -> None
    | cp :: above ->
      incr visited;
      if !(cp.o_alts) <> [] then Some cp else scan above
  in
  let result = scan (List.rev victim.w_cps) in
  (stats st).Stats.or_scans <- (stats st).Stats.or_scans + !visited;
  (result, !visited * st.ag.cost.Cost.or_scan_node)

(* Steals from the first victim (in id order after the thief) that has
   work: copy the whole state, backtrack the copy to the stolen node, pop
   one alternative.  Returns the goal/continuation to resume with. *)
let try_steal st (w : worker) =
  let p = Array.length st.workers in
  let rec attempt k =
    if k >= p then None
    else
      let victim = st.workers.((w.w_id + 1 + k) mod p) in
      (* injected steal failure: skip this victim as if it had no work *)
      if
        victim.w_id = w.w_id || victim.w_cps = []
        || Chaos.steal_blocked st.ag.chaos.(w.w_id)
      then attempt (k + 1)
      else begin
        (* scan, claim and copy happen without an intervening tick: a live
           node (non-empty alternatives) is guaranteed to still be on the
           victim's stack, so the copied stack contains the target *)
        let target, scan_cost = find_work st victim in
        match target with
        | None ->
          charge st scan_cost;
          attempt (k + 1)
        | Some target -> (
          match !(target.o_alts) with
          | [] ->
            charge st scan_cost;
            attempt (k + 1)
          | clause :: alts ->
            (* claim, remember the claimed ref, and copy — all before the
               first tick, so the victim cannot mutate underneath.  Leaving
               the idle set must be atomic with the claim, or another
               worker could observe "everyone idle" while this one holds
               claimed work and declare premature exhaustion. *)
            let claimed_ref = target.o_alts in
            claimed_ref := alts;
            (if Prof.live (prof st) then begin
               let k = Prof.key_of_term target.o_goal in
               Prof.stole (prof st) k;
               Prof.redo (prof st) k
             end);
            if w.w_idle then begin
              w.w_idle <- false;
              st.idle_count <- st.idle_count - 1
            end;
            copy_state st ~victim ~thief:w;
            charge st scan_cost;
            (* backtrack the copy to the stolen node *)
            let rec pop_to popped = function
              | [] -> assert false
              | cp :: below ->
                if cp.o_alts == claimed_ref then (cp, popped + 1)
                else pop_to (popped + 1) below
            in
            let cp, visited = pop_to 0 w.w_cps in
            let rec drop = function
              | cp' :: below when not (cp'.o_alts == claimed_ref) -> drop below
              | rest -> rest
            in
            w.w_cps <- drop w.w_cps;
            charge st (visited * st.ag.cost.Cost.backtrack_node);
            (stats st).Stats.bt_nodes_visited <-
              (stats st).Stats.bt_nodes_visited + visited;
            M.untrail st w.w_trail cp.o_trail;
            charge st (st.ag.cost.Cost.cp_restore + st.ag.cost.Cost.steal_grab);
            (stats st).Stats.steals <- (stats st).Stats.steals + 1;
            record st Trace.Steal victim.w_id;
            Some (cp, clause))
      end
  in
  attempt 0

let worker_body st w ~initial () =
  let resume (cp, clause) =
    L.continue st w (try_clause st w cp.o_goal clause) ~barrier:0 cp.o_cont
  in
  (* steal loop with distributed termination detection: a worker that finds
     nothing to steal while every other worker is idle declares global
     exhaustion *)
  let rec idle_loop () =
    if Agents.stopped st.ag then ()
    else begin
      w.w_idle <- true;
      st.idle_count <- st.idle_count + 1;
      record st Trace.Idle_begin 0;
      let rec poll () =
        if Agents.stopped st.ag then record st Trace.Idle_end 0
        else if Cancel.poll st.ag.cancel then begin
          Agents.stop st.ag;
          record st Trace.Idle_end 0
        end
        else
          match try_steal st w with
          | Some work ->
            (* the idle set was left at claim time, inside try_steal *)
            record st Trace.Idle_end 0;
            resume work;
            idle_loop ()
          | None ->
            if st.idle_count = Array.length st.workers then begin
              Agents.stop st.ag;
              record st Trace.Idle_end 0
            end
            else begin
              charge st st.ag.cost.Cost.steal_poll;
              (stats st).Stats.polls <- (stats st).Stats.polls + 1;
              chaos_yield st;
              poll ()
            end
      in
      poll ()
    end
  in
  (* an abort inside the tabling mini-solver unwinds to here: the entry
     stays incomplete but consistent (Kernel.table_call's contract) *)
  try
    (match initial with Some cont -> L.run st w cont | None -> ());
    idle_loop ()
  with Cancel.Cancelled -> Agents.stop st.ag

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let solve ?output ?(trace = Trace.disabled) ?(chaos = Chaos.disabled)
    ?(prof = Prof.disabled) ~table ~cancel (config : Config.t) db goal =
  let config = Config.validate config in
  let st =
    {
      db;
      table;
      config;
      ag = Agents.create ~trace ~chaos ~prof ~cancel config;
      workers =
        Array.init config.Config.agents (fun i ->
            { w_id = i; w_cps = []; w_trail = Trail.create (); w_idle = false });
      output;
      idle_count = 0;
    }
  in
  let init = Machine.push (Kernel.sentinel_body goal) 0 [] in
  Array.iter
    (fun w ->
      let initial = if w.w_id = 0 then Some init else None in
      Sim.spawn st.ag.sim ~agent:w.w_id (worker_body st w ~initial))
    st.workers;
  Sim.run st.ag.sim;
  Agents.result st.ag
