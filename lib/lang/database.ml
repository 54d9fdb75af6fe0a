(* Clause database with first-argument indexing.

   First-argument indexing matters beyond speed: the engines create a
   choice point only when more than one clause survives indexing, so the
   index is what makes *runtime determinacy* observable — the property the
   LPCO and shallow-parallelism optimizations of the paper are driven by.

   Indexing is fully integer-keyed: predicates are filed under
   (symbol id, arity) and first-argument buckets under a key whose
   equality and hash touch only machine integers.  No string is compared
   or hashed anywhere on the lookup path — callers resolve names through
   the symbol intern table at the (cold) API boundary.

   Representation.  Each predicate keeps its clauses in per-key hash
   buckets plus a separate list for variable-headed (Kany) clauses.
   Source order is reconstructed from per-clause sequence numbers:
   [assertz] counts up, [asserta] counts down, and a lookup merges the
   (sequence-sorted) bucket and Kany lists.  Both assert directions
   prepend to lists, so asserting N clauses costs O(N) total.

   One index.  {!freeze} builds each predicate's switch-on-term dispatch
   tree ([dtree] below), whose root switches on the first argument.  The
   interpreted {!lookup} reads only that first level — exactly classic
   first-argument indexing, which the paper experiments' cycle counts
   depend on — and the compiled {!lookup_code} walks the whole tree, so
   its candidates are always a source-ordered sublist of {!lookup}'s.
   An unfrozen database has no tree; its lookups merge the buckets
   directly.

   The structure is mutated only at assert time; lookups are read-only, so
   a consulted program can be shared by concurrently running engine
   workers (the hardware or-parallel engine relies on this). *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol

type key =
  | Kany                      (* head first argument is a variable *)
  | Kint of int
  | Katom of Symbol.t
  | Kstruct of Symbol.t * int

(* Buckets dispatch on integers only: constructor tag, symbol id, arity.
   The polymorphic hash/equality would walk the same data, but through
   generic traversal; these monomorphic versions compile to straight-line
   integer code. *)
module Key = struct
  type t = key

  let equal a b =
    match a, b with
    | Kany, Kany -> true
    | Kint x, Kint y -> x = y
    | Katom x, Katom y -> Symbol.equal x y
    | Kstruct (x, n), Kstruct (y, m) -> Symbol.equal x y && n = m
    | (Kany | Kint _ | Katom _ | Kstruct _), _ -> false

  let hash = function
    | Kany -> 0
    | Kint n -> (n lsl 2) lor 1
    | Katom s -> (Symbol.id s lsl 2) lor 2
    | Kstruct (s, n) -> (((Symbol.id s lsl 5) lxor n) lsl 2) lor 3
end

module KeyTbl = Hashtbl.Make (Key)

(* Predicates are keyed on (symbol id, arity). *)
module Pred_key = struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d

  let hash (a, b) = (a lsl 4) lxor b
end

module PredTbl = Hashtbl.Make (Pred_key)

let key_of_term t =
  match Term.deref t with
  | Term.Var _ -> Kany
  | Term.Int n -> Kint n
  | Term.Atom a -> Katom a
  | Term.Struct (f, args) -> Kstruct (f, Array.length args)

(* Key compatibility (the old per-clause filter) is structural equality
   between non-Kany keys, and always true when either side is Kany; the
   bucket map below encodes exactly that relation. *)

type entry = { seq : int; e_key : key; e_clause : Clause.t }

(* Switch-on-term dispatch tree with deep argument indexing: the
   predicate's one clause index (built by {!freeze}; both the compiled
   and the interpreted lookups read it).

   A [Dswitch] discriminates on the key found at [d_path] — a sequence of
   argument positions from the call's root, so paths longer than one look
   *inside* structure arguments, beyond the classic first-argument key.
   [d_cases] maps each rigid key to the subtree over the clauses
   compatible with it (bucket clauses plus the variable-at-path clauses,
   merged in source order); a rigid call key with no case falls back to
   [d_anys] (the subtree over just the variable-at-path clauses) and a
   call with a variable at the path to [d_all] (every clause of the
   subtree).  Dropping a clause therefore only ever happens on provably
   non-unifiable rigid-key disagreement.

   The root switches on the first argument whenever any clause has a
   rigid one, so the tree's first level is exactly first-argument
   indexing (the interpreted {!lookup} reads only that level) and every
   deeper level only narrows it: the compiled candidates are always a
   source-ordered sublist of the interpreted ones. *)
type dtree =
  | Dleaf of Clause.t list
  | Dswitch of {
      d_path : int array;
      d_cases : dtree KeyTbl.t;
      d_anys : dtree;
      d_all : Clause.t list;
    }

type pred = {
  p_name : Symbol.t;
  p_arity : int;
  mutable front : entry list;
    (* asserta'd clauses, ascending [seq] (all negative) *)
  mutable back_rev : entry list;
    (* assertz'd clauses, descending [seq] (newest first) *)
  mutable count : int;
  mutable next_seq : int; (* next assertz sequence number (counts up) *)
  mutable prev_seq : int; (* next asserta sequence number (counts down) *)
  buckets : entry list KeyTbl.t;
    (* non-Kany clauses by key, descending [seq] *)
  mutable anys : entry list; (* Kany clauses, descending [seq] *)
  mutable dtree : dtree option;
    (* the dispatch tree; built by {!freeze}, invalidated by asserts.
       Lookups never write it, so a frozen database stays read-only and
       can be shared across domains *)
}

type t = {
  preds : pred PredTbl.t;
  mutable frozen : bool;
    (* dispatch trees are complete and the database is read-only;
       cleared by asserts, making a second {!freeze} O(1) *)
  freeze_lock : Mutex.t;
    (* serializes the index build: two sessions freezing the shared
       base concurrently must not race the dispatch-tree build *)
  tabled : string PredTbl.t;
    (* predicates declared [:- table name/arity]; the value is the
       predicate name (cold-path introspection only).  Registered at
       consult time, read-only afterwards.  An overlay shares its
       base's registry (sessions never declare tables). *)
  mutable has_tabled : bool;
    (* fast gate so the engines' dispatch loops pay one load per call
       on programs with no tabled predicate *)
  base : t option;
    (* [Some b]: this database is a session overlay over the frozen
       base [b] — its own preds hold only the session's asserts, and
       every lookup merges them around [b]'s (never-mutated) result *)
  mutable removed : Clause.t list;
    (* overlay only: base clauses retracted by this session, tombstoned
       by physical identity so the shared base stays untouched (a
       retracted session clause is removed from the overlay instead) *)
}

let create () =
  {
    preds = PredTbl.create 64;
    frozen = false;
    freeze_lock = Mutex.create ();
    tabled = PredTbl.create 4;
    has_tabled = false;
    base = None;
    removed = [];
  }

let clause_key clause =
  match Term.deref clause.Clause.head with
  | Term.Struct (_, args) when Array.length args > 0 -> key_of_term args.(0)
  | Term.Struct _ | Term.Atom _ -> Kany
  | Term.Int _ | Term.Var _ -> assert false

let find_pred_sym db sym arity =
  PredTbl.find_opt db.preds (Symbol.id sym, arity)

let find_pred db name arity = find_pred_sym db (Symbol.intern name) arity

let get_pred db sym arity =
  match find_pred_sym db sym arity with
  | Some p -> p
  | None ->
    let p =
      {
        p_name = sym;
        p_arity = arity;
        front = [];
        back_rev = [];
        count = 0;
        next_seq = 0;
        prev_seq = -1;
        buckets = KeyTbl.create 8;
        anys = [];
        dtree = None;
      }
    in
    PredTbl.add db.preds (Symbol.id sym, arity) p;
    p

(* Files an entry under its index key.  [at_front] distinguishes the
   asserta direction, whose (descending-sorted) bucket position is the
   tail — an O(bucket) insertion, acceptable because asserta is rare and
   the cost is bounded by the matching clauses, not the predicate. *)
let index_entry p entry ~at_front =
  match entry.e_key with
  | Kany ->
    if at_front then p.anys <- p.anys @ [ entry ]
    else p.anys <- entry :: p.anys
  | key ->
    let bucket = Option.value ~default:[] (KeyTbl.find_opt p.buckets key) in
    let bucket = if at_front then bucket @ [ entry ] else entry :: bucket in
    KeyTbl.replace p.buckets key bucket

let invalidate p = p.dtree <- None

let assertz db clause =
  let sym, arity = Clause.functor_arity clause in
  let p = get_pred db sym arity in
  let entry = { seq = p.next_seq; e_key = clause_key clause; e_clause = clause } in
  p.next_seq <- p.next_seq + 1;
  p.back_rev <- entry :: p.back_rev;
  p.count <- p.count + 1;
  db.frozen <- false;
  invalidate p;
  index_entry p entry ~at_front:false

let asserta db clause =
  let sym, arity = Clause.functor_arity clause in
  let p = get_pred db sym arity in
  let entry = { seq = p.prev_seq; e_key = clause_key clause; e_clause = clause } in
  p.prev_seq <- p.prev_seq - 1;
  p.front <- entry :: p.front;
  p.count <- p.count + 1;
  db.frozen <- false;
  invalidate p;
  index_entry p entry ~at_front:true

(* All clauses in source order: the ascending front then the reversed
   back. *)
let all_entries p = p.front @ List.rev p.back_rev

let clauses_of db name arity =
  match find_pred db name arity with
  | None -> []
  | Some p -> List.map (fun e -> e.e_clause) (all_entries p)

(* Merges two descending-[seq] entry lists into one ascending list:
   source order, O(length of the inputs) — i.e. proportional to the
   clauses that survive indexing, never to the whole predicate. *)
let merge_desc a b =
  let rec go a b acc =
    match a, b with
    | [], [] -> acc
    | x :: xs, [] -> go xs [] (x :: acc)
    | [], y :: ys -> go [] ys (y :: acc)
    | x :: xs, y :: ys ->
      if x.seq > y.seq then go xs b (x :: acc) else go a ys (y :: acc)
  in
  go a b []

(* The entries surviving first-argument indexing for [key], in source
   order, read straight from the buckets: the index of an unfrozen
   database, and of a session overlay (small, and mutated often). *)
let first_arg_entries p key =
  match key with
  | Kany -> all_entries p
  | key ->
    merge_desc (Option.value ~default:[] (KeyTbl.find_opt p.buckets key)) p.anys

(* ------------------------------------------------------------------ *)
(* Dispatch tree                                                       *)
(* ------------------------------------------------------------------ *)

(* Bounds on tree construction: paths never look more than [max_depth]
   positions into the call, and a node tracks at most [max_paths]
   candidate paths.  Both cap build time on wide fact tables while
   leaving typical recursive predicates fully discriminated. *)
let max_depth = 3
let max_paths = 8

(* Key of a clause head at an argument path; [Kany] when a variable sits
   anywhere along it (such a clause matches any call, so it must be kept
   in every case). *)
let clause_key_at clause (path : int array) =
  let rec go t i =
    match Term.deref t with
    | Term.Var _ -> Kany
    | t' when i >= Array.length path -> key_of_term t'
    | Term.Struct (_, args) when path.(i) < Array.length args ->
      go args.(path.(i)) (i + 1)
    | _ -> Kany (* cannot descend: treat as compatible with anything *)
  in
  match Term.deref clause.Clause.head with
  | Term.Struct (_, args) when path.(0) < Array.length args ->
    go args.(path.(0)) 1
  | _ -> Kany

let entry_clauses entries = List.map (fun e -> e.e_clause) entries

(* Builds the tree over [entries] (ascending seq = source order).  A path
   is worth switching on when some clause has a rigid key there: a call
   with a different rigid key then drops every clause but the
   variable-keyed ones.  A single clause below the root is a leaf (it
   allocates no choice point however the call looks); the root switches
   even then, so its first level is always the first-argument index.
   Each [Kstruct] case adds the positions inside that structure as new
   candidate paths — that is the deep indexing. *)
let rec build_dtree ~root entries paths =
  match entries with
  | [ _ ] when not root -> Dleaf (entry_clauses entries)
  | _ ->
    let rigid path =
      List.exists
        (fun e ->
          match clause_key_at e.e_clause path with Kany -> false | _ -> true)
        entries
    in
    (* Prefer the earliest qualifying path over the most discriminating
       one: calls instantiate early (input) arguments far more often than
       late (output) ones, and a switch on a position that is unbound at
       run time degenerates to [d_all] however well it discriminates the
       clause heads.  Candidate order is leftmost-shallowest first, and
       [sub_paths] below keeps refinements of the matched position ahead
       of later arguments for the same reason. *)
    let best = List.find_opt rigid paths in
    (match best with
     | None -> Dleaf (entry_clauses entries)
     | Some path ->
       let buckets = KeyTbl.create 8 in
       let anys_rev = ref [] in
       List.iter
         (fun e ->
           match clause_key_at e.e_clause path with
           | Kany -> anys_rev := e :: !anys_rev
           | k ->
             KeyTbl.replace buckets k
               (e :: Option.value ~default:[] (KeyTbl.find_opt buckets k)))
         entries;
       let anys = List.rev !anys_rev in
       let rest_paths = List.filter (fun p -> p != path) paths in
       let cases = KeyTbl.create (KeyTbl.length buckets) in
       KeyTbl.iter
         (fun k bucket_rev ->
           let bucket = List.rev bucket_rev in
           (* merge bucket and anys back into source order (both ascending) *)
           let rec merge a b =
             match (a, b) with
             | [], l | l, [] -> l
             | x :: xs, y :: ys ->
               if x.seq < y.seq then x :: merge xs b else y :: merge a ys
           in
           let sub_entries = merge bucket anys in
           let sub_paths =
             match k with
             | Kstruct (_, arity) when Array.length path < max_depth ->
               let ext =
                 List.init arity (fun j -> Array.append path [| j |])
               in
               let paths' = ext @ rest_paths in
               if List.length paths' > max_paths then
                 List.filteri (fun i _ -> i < max_paths) paths'
               else paths'
             | _ -> rest_paths
           in
           KeyTbl.replace cases k
             (build_dtree ~root:false sub_entries sub_paths))
         buckets;
       Dswitch
         {
           d_path = path;
           d_cases = cases;
           d_anys = build_dtree ~root:false anys rest_paths;
           d_all = entry_clauses entries;
         })

let build_pred_dtree p =
  build_dtree ~root:true (all_entries p)
    (List.init p.p_arity (fun i -> [| i |]))

let tree_clauses = function Dleaf cs -> cs | Dswitch { d_all; _ } -> d_all

(* Lookups take the call spread in a register file, as the compiled body
   path calls (it never packs a [Term.Struct] for the call): [args] may
   be longer than [arity] (a shared register buffer) — only the first
   [arity] cells are the call. *)

let first_key arity (args : Term.t array) =
  if arity = 0 then Kany else key_of_term args.(0)

(* Key of a call at a path; [None] when a variable is met along it (the
   call could take any branch). *)
let call_key_at arity (args : Term.t array) (path : int array) =
  let rec go t i =
    match Term.deref t with
    | Term.Var _ -> None
    | t' when i >= Array.length path -> Some (key_of_term t')
    | Term.Struct (_, cells) when path.(i) < Array.length cells ->
      go cells.(path.(i)) (i + 1)
    | _ -> None (* cannot descend; be conservative *)
  in
  if path.(0) < arity then go args.(path.(0)) 1 else None

let rec walk_dtree tree arity args =
  match tree with
  | Dleaf clauses -> clauses
  | Dswitch { d_path; d_cases; d_anys; d_all } -> (
    match call_key_at arity args d_path with
    | None | Some Kany -> d_all
    | Some key ->
      walk_dtree
        (match KeyTbl.find_opt d_cases key with Some sub -> sub | None -> d_anys)
        arity args)

(* First-argument indexing for a call with first-argument key [key]: the
   tree's first level on a frozen database, the buckets merged directly
   on an unfrozen one.  Both give every clause whose first argument is a
   variable or has [key], in source order. *)
let first_arg_clauses p key =
  match p.dtree, key with
  | Some (Dswitch { d_path = [| 0 |]; d_cases; d_anys; _ }),
    (Kint _ | Katom _ | Kstruct _) ->
    tree_clauses
      (match KeyTbl.find_opt d_cases key with Some sub -> sub | None -> d_anys)
  | Some tree, _ -> tree_clauses tree
  | None, _ -> entry_clauses (first_arg_entries p key)

(* The lookups of one database, ignoring any overlay.  [None] when the
   predicate is undefined (distinct from defined with no matching
   clause). *)
let direct_lookup db sym arity key =
  match find_pred_sym db sym arity with
  | None -> None
  | Some p -> Some (first_arg_clauses p key)

let direct_lookup_code db sym arity args =
  match find_pred_sym db sym arity with
  | None -> None
  | Some p -> (
    match p.dtree with
    | Some tree -> Some (walk_dtree tree arity args)
    | None -> Some (first_arg_clauses p (first_key arity args)))

(* Builds every predicate's dispatch tree, so subsequent lookups are pure
   reads — safe to share across domains (the next assert invalidates, so
   freeze again after updates).  Also precompiles every clause to
   instruction code, so parallel workers on the compiled path never
   write.

   Idempotent: O(1) on an already-frozen database, so per-query freezing
   (as the engine front end does) costs nothing after the first. *)
let freeze_preds db =
  PredTbl.iter
    (fun _ p ->
      p.dtree <- Some (build_pred_dtree p);
      List.iter
        (fun e -> ignore (Code.of_clause e.e_clause))
        (all_entries p))
    db.preds

let rec freeze db =
  (match db.base with Some b -> freeze b | None -> ());
  (* Double-checked under the lock, and the flag is set only AFTER the
     trees are built: a concurrent freezer that loses the race blocks on
     the mutex until the build is done, and one that reads [frozen =
     true] without the lock can only do so once the trees are complete.
     (The unlocked fast path makes the per-query re-freeze of an
     already-frozen database one load, as before.) *)
  if not db.frozen then begin
    Mutex.lock db.freeze_lock;
    match
      if not db.frozen then begin
        freeze_preds db;
        db.frozen <- true
      end
    with
    | () -> Mutex.unlock db.freeze_lock
    | exception e ->
      Mutex.unlock db.freeze_lock;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Session overlays                                                    *)
(* ------------------------------------------------------------------ *)

let overlay b =
  if b.base <> None then
    invalid_arg "Database.overlay: the base is itself an overlay";
  freeze b;
  {
    preds = PredTbl.create 8;
    frozen = true; (* nothing to index yet *)
    freeze_lock = Mutex.create ();
    tabled = b.tabled; (* shared: sessions never declare tables *)
    has_tabled = b.has_tabled;
    base = Some b;
    removed = [];
  }

let base db = db.base

(* The session view of one (keyed) lookup, in overlay source order:
   asserta'd session clauses (negative seq), then the base's (indexed)
   answer less this session's retracted base clauses, then assertz'd
   session clauses.  [None] exactly when neither side defines the
   predicate. *)
let overlay_view db p_opt key base_part =
  let bs =
    match base_part, db.removed with
    | None, _ -> []
    | Some bs, [] -> bs
    | Some bs, removed -> List.filter (fun c -> not (List.memq c removed)) bs
  in
  match p_opt, base_part with
  | None, None -> None
  | None, Some _ -> Some bs
  | Some p, _ ->
    let front, back =
      List.partition (fun e -> e.seq < 0) (first_arg_entries p key)
    in
    Some (entry_clauses front @ bs @ entry_clauses back)

(* Removes a session-asserted entry from its overlay predicate. *)
let unindex db p e =
  let drop = List.filter (fun x -> x != e) in
  p.front <- drop p.front;
  p.back_rev <- drop p.back_rev;
  (match e.e_key with
   | Kany -> p.anys <- drop p.anys
   | key -> (
     match drop (KeyTbl.find p.buckets key) with
     | [] -> KeyTbl.remove p.buckets key
     | bucket -> KeyTbl.replace p.buckets key bucket));
  p.count <- p.count - 1;
  db.frozen <- false;
  invalidate p

(* Retracts the first clause of the session view whose [H :- B] term
   unifies with [pattern]'s.  A clause the session asserted itself is
   removed from the overlay; a base clause is tombstoned in [removed],
   so the base database is never written.  Returns [false] when nothing
   matched. *)
let retract db pattern =
  match db.base with
  | None -> invalid_arg "Database.retract: session overlay expected"
  | Some b ->
    let sym, arity = Clause.functor_arity pattern in
    let own_front, own_back =
      match find_pred_sym db sym arity with
      | None -> ([], [])
      | Some p ->
        List.map (fun e -> (Some p, e)) (all_entries p)
        |> List.partition (fun (_, e) -> e.seq < 0)
    in
    let base_es =
      match find_pred_sym b sym arity with
      | None -> []
      | Some p -> List.map (fun e -> (None, e)) (all_entries p)
    in
    let pat = Clause.to_term (Clause.rename pattern) in
    let hit (_, e) =
      (not (List.memq e.e_clause db.removed))
      && Ace_term.Unify.matches (Clause.to_term e.e_clause) pat
    in
    match List.find_opt hit (own_front @ base_es @ own_back) with
    | None -> false
    | Some (Some p, e) -> unindex db p e; true
    | Some (None, e) -> db.removed <- e.e_clause :: db.removed; true

(* Overlay-aware public lookups.  A database without a base pays exactly
   one extra load and branch; an overlay merges its (bucket-indexed)
   delta around the base's answer, never touching the base's index.
   The compiled-path variants run the base through its dispatch tree
   and filter the overlay part by first-argument key only — both
   filters drop only provably non-unifiable clauses, so the combination
   is still sound. *)

let lookup_args db sym arity (args : Term.t array) =
  let key = first_key arity args in
  match db.base with
  | None -> direct_lookup db sym arity key
  | Some b ->
    overlay_view db (find_pred_sym db sym arity) key
      (direct_lookup b sym arity key)

let lookup_code_args db sym arity (args : Term.t array) =
  match db.base with
  | None -> direct_lookup_code db sym arity args
  | Some b ->
    overlay_view db
      (find_pred_sym db sym arity)
      (first_key arity args)
      (direct_lookup_code b sym arity args)

(* The call-term entry points spread the call's arguments as a register
   file. *)
let on_call name lookup db call =
  match Term.deref call with
  | Term.Struct (sym, args) -> lookup db sym (Array.length args) args
  | Term.Atom sym -> lookup db sym 0 [||]
  | Term.Int _ | Term.Var _ -> invalid_arg (name ^ ": callable expected")

let lookup db call = on_call "Database.lookup" lookup_args db call
let lookup_code db call = on_call "Database.lookup_code" lookup_code_args db call

(* Overlay-aware introspection (cold paths). *)

let mem db name arity =
  find_pred db name arity <> None
  || match db.base with None -> false | Some b -> find_pred b name arity <> None

let clauses_of db name arity =
  match db.base with
  | None -> clauses_of db name arity
  | Some b ->
    let front, back =
      match find_pred db name arity with
      | None -> ([], [])
      | Some p -> List.partition (fun e -> e.seq < 0) (all_entries p)
    in
    entry_clauses front
    @ List.filter
        (fun c -> not (List.memq c db.removed))
        (clauses_of b name arity)
    @ entry_clauses back

(* ------------------------------------------------------------------ *)
(* Tabling registry                                                    *)
(* ------------------------------------------------------------------ *)

let set_tabled db name arity =
  let sym = Symbol.intern name in
  PredTbl.replace db.tabled (Symbol.id sym, arity) name;
  db.has_tabled <- true

let is_tabled db sym arity =
  db.has_tabled && PredTbl.mem db.tabled (Symbol.id sym, arity)

let is_tabled_goal db goal =
  db.has_tabled
  &&
  match Term.functor_of (Term.deref goal) with
  | Some (sym, arity) -> PredTbl.mem db.tabled (Symbol.id sym, arity)
  | None -> false

let tabled_preds db =
  PredTbl.fold (fun (_, arity) name acc -> (name, arity) :: acc) db.tabled []
  |> List.sort compare

let predicates db =
  let fold db acc =
    PredTbl.fold
      (fun _ p acc -> (Symbol.name p.p_name, p.p_arity) :: acc)
      db.preds acc
  in
  let own = fold db [] in
  (match db.base with None -> own | Some b -> fold b own)
  |> List.sort_uniq compare

let total_clauses db =
  let own = PredTbl.fold (fun _ p acc -> acc + p.count) db.preds 0 in
  match db.base with
  | None -> own
  | Some b ->
    own
    + PredTbl.fold (fun _ p acc -> acc + p.count) b.preds 0
    - List.length db.removed

(* A predicate is statically determinate-on-first-arg when no two of its
   clauses can match the same (non-variable) first argument.  Used by the
   analysis library and by LPCO's applicability conditions.

   Two non-Kany keys are compatible exactly when they are equal, i.e. when
   they share a bucket — so with two or more clauses the predicate is
   exclusive iff no clause is variable-headed and every bucket is a
   singleton. *)
let rec first_arg_exclusive db name arity =
  match find_pred db name arity with
  | None -> (
    (* an overlay that does not touch the predicate inherits the base's
       answer; one that does is conservatively non-exclusive *)
    match db.base with
    | Some b when db.removed = [] -> first_arg_exclusive b name arity
    | _ -> false)
  | Some _ when db.base <> None ->
    false (* session clauses may overlap the base's: stay conservative *)
  | Some p ->
    p.count <= 1
    || (p.anys = []
        && KeyTbl.fold
             (fun _ bucket ok ->
               ok && match bucket with [ _ ] -> true | _ -> false)
             p.buckets true)
