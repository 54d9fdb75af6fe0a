(* The machine loop shared by the four engines.

   The paper's schemas are runtime decisions on one abstract machine of
   choice points, parcall frames and markers; this module is that
   machine's driver, written once.  [Make] applies {!Kernel.Resolver} to
   an engine's scheduler and [Make.Loop] runs the forward-execution loop
   over it: stepping the continuation, resuming compiled frames, goal
   dispatch, builtins, clause selection and the last-call bounce between
   [continue] and [user_call_regs].  An engine supplies {!HOOKS} only for
   what is genuinely its own — its choice points, its backtracking, its
   reading of '&', its control constructs and its abort checks — so a
   change to the loop reaches all four engines.  See DESIGN.md, "Machine
   loop". *)

module Term = Ace_term.Term
module Clause = Ace_lang.Clause
module Code = Ace_lang.Code
module Database = Ace_lang.Database
module Table = Ace_lang.Table
module Stats = Ace_machine.Stats
module Metrics = Ace_obs.Metrics

(* The continuation: a stack of body segments.  [barrier] is the
   choice-point stack height a cut in [items] restores (the sequential
   engine's cut; the other engines carry 0).  No segment with empty
   [items] is ever stacked — and-LPCO's "nothing follows the parcall"
   test is [cont = []]. *)
type seg = { items : Clause.item list; barrier : int }

type cont = seg list

let push items barrier cont =
  match items with [] -> cont | _ -> { items; barrier } :: cont

(* '&' read as a plain conjunction: the branches run left to right in
   the enclosing cut scope. *)
let conj bodies barrier cont =
  List.fold_right (fun body cont -> push body barrier cont) bodies cont

(* Resumes compiled frame [xf] at [pc]; nothing is stacked once the body
   is exhausted (the last-call generalization). *)
let resume xf pc barrier cont =
  if pc >= Array.length (Kernel.code_of_frame xf).Code.c_body then cont
  else { items = [ Clause.Exec { xf with Clause.xf_pc = pc } ]; barrier } :: cont

(* Copies every term of a continuation with [f] (a publication snapshot
   or a MUSE raw copy, see {!Kernel.Copy}). *)
let map_cont f cont =
  List.map (fun seg -> { seg with items = Kernel.Copy.items f seg.items }) cont

(* What every engine's run returns (re-exported as [Engine.result]). *)
type result = {
  solutions : Term.t list;
  stats : Stats.t;
  metrics : Metrics.t;
  time : int;
  cancelled : Cancel.reason option;
}

(* The abort-check sites: each continuation step, the call of a goal
   term, and the register call. *)
type site = Step | Call | Call_regs

(* The loop's entry points, handed to every hook that runs the loop
   again. *)
type ('t, 'm, 'r) loop = {
  run : 't -> 'm -> cont -> 'r;
  dispatch : 't -> 'm -> Term.t -> barrier:int -> cont -> 'r;
  call : 't -> 'm -> Term.t -> cont -> 'r;
      (* a plain goal: builtin, else user predicate *)
  continue : 't -> 'm -> Kernel.resolved -> barrier:int -> cont -> 'r;
}

module type HOOKS = sig
  type t
  (* the engine's scheduler state (the {!Kernel.SCHEDULER} handle) *)

  type m
  (* the machine the loop drives: seq's is its state ([unit] here), or's
     a worker, and's an execution record, par's a root or slot machine *)

  type r
  (* what a run of the loop answers *)

  val halt : r
  (* the answer when [proceed] stops the loop *)

  val db : t -> Database.t
  val table : t -> Table.t
  val compiled : t -> bool
  val ctx : t -> m -> Builtins.ctx

  val height : t -> m -> int
  (* the choice-point height, i.e. the barrier of a new cut scope *)

  val trims : bool
  (* whether environment trimming is sound (only seq: no stolen copy or
     recomputation ever resumes a frame at an earlier pc) *)

  val proceed : t -> m -> site -> bool
  (* the abort check at a poll site; false stops the loop with [halt] *)

  val empty : (t, m, r) loop -> t -> m -> r
  (* the continuation ran out *)

  val nondet :
    t -> m -> Term.t -> Clause.t -> Clause.t list -> cont -> Kernel.resolved
  (* a call with several candidate clauses: record the alternatives and
     resolve the first; the loop continues in the cut scope that held
     before the call *)

  val backtrack : (t, m, r) loop -> t -> m -> r

  val par : (t, m, r) loop -> t -> m -> Clause.body list -> barrier:int -> cont -> r
  (* a parallel conjunction *)

  val control :
    (t, m, r) loop -> t -> m -> Kernel.cls -> Term.t -> barrier:int -> cont -> r
  (* a control construct other than ','/2 and call/1 (the goal term is
     passed dereferenced) *)
end

module Make (S : Kernel.SCHEDULER) = struct
  include Kernel.Resolver (S)

  module Loop (H : HOOKS with type t = S.t) = struct
    let rec run s m cont =
      if not (H.proceed s m Step) then H.halt
      else
        match cont with
        | [] -> H.empty loop s m
        | { items = []; _ } :: _ -> assert false (* see [push] *)
        | ({ items = item :: items; barrier } as seg) :: rest -> (
          let cont = match items with [] -> rest | _ -> { seg with items } :: rest in
          match item with
          | Clause.Call g -> dispatch s m g ~barrier cont
          | Clause.Exec xf -> exec_frame s m xf ~barrier cont
          | Clause.Par bodies -> H.par loop s m bodies ~barrier cont)

    (* Resumes a compiled clause body from its saved pc: the kernel runs
       consecutive builtins inline and decodes the first step it cannot
       finish. *)
    and exec_frame s m xf ~barrier cont =
      match exec_body s ~ctx:(H.ctx s m) xf with
      | Kernel.Ex_fail -> H.backtrack loop s m
      | Kernel.Ex_done -> run s m cont
      | Kernel.Ex_goal (g, pc) -> dispatch s m g ~barrier (resume xf pc barrier cont)
      | Kernel.Ex_par (bodies, pc) ->
        H.par loop s m bodies ~barrier (resume xf pc barrier cont)
      | Kernel.Ex_call (sym, arity, pc, live) ->
        (* environment trimming: untrailed clears, legal only while the
           frame is provably private — no choice point pushed (and still
           alive) since clause entry *)
        if H.trims && H.height s m = barrier then Kernel.trim_env xf live;
        user_call_regs s m sym arity (resume xf pc barrier cont)
      | Kernel.Ex_exec (sym, arity) ->
        (* last call: the frame is dropped before the callee runs *)
        user_call_regs s m sym arity cont

    and dispatch s m g ~barrier cont =
      let g = Term.deref g in
      if Kernel.is_plain g then
        (* the hot case, allocation-free: a plain user or builtin call *)
        call s m g cont
      else
        match Kernel.classify g with
        | Kernel.Conj g -> run s m (push (Clause.compile_body g) barrier cont)
        | Kernel.Meta g ->
          (* call/1 is transparent to everything but cut: its cut is
             local *)
          dispatch s m g ~barrier:(H.height s m) cont
        | Kernel.Goal g -> call s m g cont
        | cls -> H.control loop s m cls g ~barrier cont

    and call s m g cont =
      let ctx = H.ctx s m in
      match call_builtin s ctx g with
      | Builtins.Ok -> run s m cont
      | Builtins.Fail -> H.backtrack loop s m
      | Builtins.Not_builtin -> user_call s m ctx g cont

    and user_call s m ctx g cont =
      if not (H.proceed s m Call) then H.halt
      else begin
        let compiled = H.compiled s and db = H.db s in
        let clauses =
          (* tabled predicates are answered from the shared answer table;
             the kernel completes the subgoal first if needed and the
             pseudo-fact answers flow through the clause machinery below *)
          if Database.is_tabled_goal db g then
            table_call s ~table:(H.table s) ~ctx ~compiled ~db g
          else select s ~compiled db g
        in
        match clauses with
        | [] -> H.backtrack loop s m
        | [ clause ] ->
          (* determinate after indexing: no choice point (the property
             LPCO and SPO key on) *)
          continue s m
            (resolve s ~ctx ~compiled ~trail:ctx.Builtins.trail g clause)
            ~barrier:(H.height s m) cont
        | clause :: rest ->
          let barrier = H.height s m in
          continue s m (H.nondet s m g clause rest cont) ~barrier cont
      end

    (* A user call whose arguments live in the scratch registers: clause
       selection walks the dispatch tree straight from the register file.
       Only the nondeterminate case materializes a goal term — the
       alternatives must outlive the registers. *)
    and user_call_regs s m sym arity cont =
      if not (H.proceed s m Call_regs) then H.halt
      else begin
        let regs = (S.scratch s).Code.s_regs and db = H.db s in
        if Database.is_tabled db sym arity then
          (* tabled answers must outlive the registers, and the table keys
             on the goal term *)
          user_call s m (H.ctx s m) (Kernel.goal_of_regs sym arity regs) cont
        else
          match select_args s db sym arity regs with
          | [] -> H.backtrack loop s m
          | [ clause ] ->
            let ctx = H.ctx s m in
            continue s m
              (try_code_args s ~ctx ~trail:ctx.Builtins.trail regs clause)
              ~barrier:(H.height s m) cont
          | clause :: rest ->
            let barrier = H.height s m in
            let g = Kernel.goal_of_regs sym arity regs in
            continue s m (H.nondet s m g clause rest cont) ~barrier cont
      end

    (* Schedules what one clause try resolved to.  [R_exec] is the
       last-call case: the callee's arguments sit in the registers and
       nothing was stacked, so a determinate recursion bounces between
       [continue] and [user_call_regs] in constant space. *)
    and continue s m resolved ~barrier cont =
      match resolved with
      | Kernel.R_fail -> H.backtrack loop s m
      | Kernel.R_body items -> run s m (push items barrier cont)
      | Kernel.R_exec (sym, arity) -> user_call_regs s m sym arity cont

    and loop = { run; dispatch; call; continue }

    let backtrack s m = H.backtrack loop s m
  end
end
