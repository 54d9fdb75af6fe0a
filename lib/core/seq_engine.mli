(** Sequential Prolog engine — the paper's "state-of-the-art sequential
    system" baseline.  Parallel conjunctions ('&') run as ordinary
    conjunctions.  Supports cut, negation-as-failure, if-then-else and
    disjunction; charges abstract cycles from the shared cost model so the
    parallel engines' overhead can be measured against it. *)

type t

(** [trace] (default {!Ace_obs.Trace.disabled}) records solution events on
    domain track 0, stamped with the abstract-cycle clock.

    [chaos] (default {!Ace_sched.Chaos.disabled}) charges seeded extra
    abstract cycles at yield sites; with no concurrency the answers must
    not depend on it (the checker asserts cycle-jitter invariance
    uniformly across engines).

    [compile] (default [false]) executes clauses as flat instruction code
    through the deep-indexing dispatch tree; identical solutions, fewer
    cycles.

    [prof] (default {!Ace_obs.Prof.disabled}) attributes 4-port counters
    and exclusive costs per predicate, stamped against the abstract-cycle
    clock.

    [cancel] (default {!Cancel.none}) is polled at the call and
    backtrack chokepoints; once fired, {!next} answers [None] (and
    {!all_solutions} returns the solutions found so far) — each already
    reported solution was complete when copied, so partial results stay
    valid. *)
val create :
  ?cost:Ace_machine.Cost.t ->
  ?compile:bool ->
  ?output:Buffer.t ->
  ?trace:Ace_obs.Trace.t ->
  ?chaos:Ace_sched.Chaos.t ->
  ?prof:Ace_obs.Prof.t ->
  ?table:Ace_lang.Table.t ->
  ?cancel:Cancel.t ->
  Ace_lang.Database.t ->
  Ace_term.Term.t ->
  t

(** Next solution: a snapshot of the instantiated goal, or [None] when
    exhausted. *)
val next : t -> Ace_term.Term.t option

val all_solutions : ?limit:int -> t -> Ace_term.Term.t list

val stats : t -> Ace_machine.Stats.t

(** Abstract cycles consumed so far (the sequential execution time). *)
val time : t -> int

(** Convenience: run to exhaustion (or [limit] solutions). *)
val solve :
  ?cost:Ace_machine.Cost.t ->
  ?compile:bool ->
  ?output:Buffer.t ->
  ?trace:Ace_obs.Trace.t ->
  ?chaos:Ace_sched.Chaos.t ->
  ?prof:Ace_obs.Prof.t ->
  ?table:Ace_lang.Table.t ->
  ?cancel:Cancel.t ->
  ?limit:int ->
  Ace_lang.Database.t ->
  Ace_term.Term.t ->
  Ace_term.Term.t list * t
