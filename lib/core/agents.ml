(* The simulated agents shared by the and- and or-parallel engines: the
   discrete-event simulator and one stat shard, trace ring, chaos
   stream, scratch and profiler shard per agent.

   The agents are coroutines on one OS thread, so the "current agent" is
   exact at every update site (interleaving happens only at ticks), and
   work is attributed to the agent the simulator is stepping. *)

module Term = Ace_term.Term
module Code = Ace_lang.Code
module Cost = Ace_machine.Cost
module Stats = Ace_machine.Stats
module Config = Ace_machine.Config
module Sim = Ace_sched.Sim
module Chaos = Ace_sched.Chaos
module Trace = Ace_obs.Trace
module Prof = Ace_obs.Prof
module Metrics = Ace_obs.Metrics

type t = {
  sim : Sim.t;
  cost : Cost.t;
  cancel : Cancel.t;
  shards : Stats.t array;
  tbufs : Trace.buffer array;
  chaos : Chaos.agent array;
  scratches : Code.scratch array;
  pshards : Prof.shard array;
  limit : int option; (* [config.max_solutions] *)
  mutable sol_count : int; (* the run's solutions (shards count per agent) *)
  mutable solutions : Term.t list; (* newest first *)
}

let create ~trace ~chaos ~prof ~cancel (config : Config.t) =
  let n = config.Config.agents in
  let sim = Sim.create ~max_steps:3_000_000 () in
  let shards = Array.init n (fun _ -> Stats.create ()) in
  {
    sim;
    cost = config.Config.cost;
    cancel;
    shards;
    tbufs = Array.init n (fun i -> Trace.buffer trace ~dom:i);
    chaos = Array.init n (fun i -> Chaos.agent chaos i);
    scratches = Array.init n (fun _ -> Code.create_scratch ());
    pshards =
      Array.init n (fun i ->
          if Prof.enabled prof then
            Prof.shard prof ~dom:i ~stats:shards.(i)
              ~clock:(fun () -> Sim.now sim)
              ()
          else Prof.null);
    limit = config.Config.max_solutions;
    sol_count = 0;
    solutions = [];
  }

type agents = t

let cur a =
  let c = Sim.current_agent a.sim in
  if c < 0 then 0 else c

(* The engine state's view of its agents, as the machine's scheduler:
   charges tick the simulator, stats go to the current agent's shard,
   and events are stamped with the virtual clock. *)
module Scheduler (E : sig
  type t

  val name : string
  val agents : t -> agents
end) =
struct
  type t = E.t

  let name = E.name
  let cost e = (E.agents e).cost
  let stats e = let a = E.agents e in a.shards.(cur a)
  let charge (_ : t) n = Sim.tick n

  (* one scratch per agent: a context switch at a tick can never hand
     one agent's half-loaded registers to another *)
  let scratch e = let a = E.agents e in a.scratches.(cur a)
  let prof e = let a = E.agents e in a.pshards.(cur a)

  let record e kind arg =
    let a = E.agents e in
    Trace.record_at a.tbufs.(cur a) ~ts:(Sim.now a.sim) kind arg

  let cancel e = (E.agents e).cancel

  (* Schedule-exploration yield site: chaos may charge a few extra
     virtual cycles here.  The simulator always resumes the agent with
     the smallest clock, so each jitter seed deterministically selects one
     alternative interleaving of the same search.  Never called between a
     state read and the claim that depends on it. *)
  let chaos_yield e =
    let a = E.agents e in
    let j = Chaos.jitter a.chaos.(cur a) in
    if j > 0 then Sim.tick j
end

(* Ends the run (a solution limit, a cancel, global exhaustion):
   [Sim.stop] discards the other agents' pending continuations,
   abandoning their private stacks and trails mid-flight, as when a real
   query completes. *)
let stop a = Sim.stop a.sim
let stopped a = Sim.stopped a.sim

(* Records a solution — a snapshot of [goal] — on the current agent;
   true while the solution limit wants more. *)
let solution a goal =
  let stats = a.shards.(cur a) in
  stats.Stats.solutions <- stats.Stats.solutions + 1;
  a.sol_count <- a.sol_count + 1;
  Trace.record_at a.tbufs.(cur a) ~ts:(Sim.now a.sim) Trace.Solution a.sol_count;
  a.solutions <- Term.copy_resolved goal :: a.solutions;
  match a.limit with Some limit -> a.sol_count < limit | None -> true

(* The run's result once the simulation has stopped: the shards are no
   longer written, so merging them is safe (see {!Stats.merge_into}). *)
let result a =
  let stats = Stats.create () in
  Array.iter (fun s -> Stats.merge_into ~into:stats s) a.shards;
  {
    Machine.solutions = List.rev a.solutions;
    stats;
    metrics = Metrics.of_stats_array a.shards;
    time = Sim.stop_time a.sim;
    cancelled = Cancel.fired a.cancel;
  }
