(* Shared pieces of the benchmark: run options, the seeded RNG, sample
   statistics, process accounting from /proc, the in-memory span tracer,
   the run that every in-process workload shares, and the metric table
   that the final JSON line is printed from. *)

module Json = Ace_obs.Json
module Engine = Ace_core.Engine
module Stats = Ace_machine.Stats
module Metrics = Ace_obs.Metrics
module Program = Ace_lang.Program
module Database = Ace_lang.Database

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** smoke-test sizes: every workload in about a second *)
  domains : int;
  serve_exe : string;
  corrupt : bool;
      (** self-check: flip one expected digest; the run must then report
          a failure *)
  setup_only : bool;  (** time one cold set-up, print it and exit *)
}

let now () = Unix.gettimeofday ()

let rng opts salt = Random.State.make [| opts.seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array ([q] in [0,1]). *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The highest quantile not above [target] that still has at least ten
   samples beyond it: a p99 over 300 samples would rest on three. *)
let tail_q ~n target =
  if n = 0 then 0.0 else Float.max 0.0 (Float.min target (1.0 -. (10.0 /. float_of_int n)))

let median l = quantile (sorted_array l) 0.5

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Process accounting                                                  *)
(* ------------------------------------------------------------------ *)

let proc_status_kb pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ k; v ] when k = key ->
             Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
           | _ -> None)
    |> Option.value ~default:0

let peak_rss_mb pid = float_of_int (proc_status_kb pid "VmHWM") /. 1024.0

(* User + system CPU seconds of process [pid] (all its threads), from
   /proc/PID/stat in clock ticks (USER_HZ = 100 on Linux). *)
let cpu_s_of_pid pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> 0.0
  | text ->
    (* the command field may hold spaces: fields count from the last ')' *)
    let rest =
      let i = String.rindex text ')' in
      String.sub text (i + 2) (String.length text - i - 2)
    in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    float_of_string (f.(11)) /. 100.0 +. (float_of_string f.(12) /. 100.0)

(* Host-wide (steal, total) CPU ticks from /proc/stat: on a virtual
   machine, stolen time is the hypervisor running someone else. *)
let host_ticks () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | exception (Sys_error _ | End_of_file) -> (0, 0)
  | line ->
    let f =
      String.split_on_char ' ' line |> List.filter (( <> ) "") |> List.tl
      |> List.filter_map int_of_string_opt
    in
    let steal = match List.nth_opt f 7 with Some v -> v | None -> 0 in
    (steal, List.fold_left ( + ) 0 f)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let nproc () =
  match Unix.open_process_in "nproc" with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    ignore (Unix.close_process_in ic);
    if n > 0 then n else Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span is recorded around each call the benchmark makes into a layer.
   Spans stay in memory until the run ends.  All spans are opened and
   closed on the benchmark's one thread, so children nest strictly and a
   span's self time is its duration minus its children's durations. *)
type span = {
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  qid : int;  (** query the span belongs to, -1 for none *)
}

let tracing = ref false
let no_span = { name = ""; t0 = 0.0; t1 = 0.0; parent = -1; qid = -1 }
let spans = ref (Array.make 4096 no_span)
let nspans = ref 0
let open_stack : int list ref = ref []

let span ?(qid = -1) name f =
  if not !tracing then f ()
  else begin
    let id = !nspans in
    incr nspans;
    if id >= Array.length !spans then begin
      let a = Array.make (2 * id) no_span in
      Array.blit !spans 0 a 0 id;
      spans := a
    end;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        open_stack := List.tl !open_stack;
        !spans.(id) <- { name; t0; t1 = now (); parent; qid })
      f
  end

(* Self seconds summed per span name. *)
let self_times () =
  let n = !nspans in
  let a = !spans in
  let child = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = a.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let s = a.(i) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name (prev +. (s.t1 -. s.t0 -. child.(i)))
  done;
  tbl

(* Spans named [name], as (duration seconds, query id) pairs. *)
let spans_named name =
  let acc = ref [] in
  for i = !nspans - 1 downto 0 do
    let s = !spans.(i) in
    if s.name = name then acc := (s.t1 -. s.t0, s.qid) :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Timed phases                                                        *)
(* ------------------------------------------------------------------ *)

(* Set-up time as a user pays it: one cold consult + prepare in a fresh
   process (bench.exe --setup-only), the median over [reps] processes.
   Repeated set-ups inside one process gave a median that moved by half
   from one run to the next.  The children start on their parent's CPU,
   and the two virtual CPUs of the 2-core host this was written on
   differ in speed, so each child is pinned to CPU 0 with taskset(1)
   when the host has it. *)
let setup_in_children opts ~reps =
  let taskset =
    List.exists
      (fun dir -> Sys.file_exists (Filename.concat dir "taskset"))
      (String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH")))
  in
  let args =
    (if taskset then [ "taskset"; "-c"; "0" ] else [])
    @ [ Sys.executable_name; "--workload"; opts.workload; "--seed"; string_of_int opts.seed;
        "--setup-only" ]
    @ if opts.tiny then [ "--tiny" ] else []
  in
  median
    (List.init reps (fun _ ->
         let ic = Unix.open_process_args_in (List.hd args) (Array.of_list args) in
         let v = Option.bind (In_channel.input_line ic) float_of_string_opt in
         match (Unix.close_process_in ic, v) with
         | Unix.WEXITED 0, Some v -> v
         | _ -> failwith "set-up child process failed"))

(* Calls [f qid i] for i in [0, n), pass after pass, each pass in a
   seeded order, within [seconds]; returns the passes' durations.  Only
   whole passes run: a pass starts when the previous one's duration
   still fits before the end (the first always runs).  Operations differ
   in cost up to tenfold, so a pass cut short would count more or fewer
   of them per second depending on the seeded order. *)
let passes opts ~salt ~seconds n f =
  let st = rng opts salt in
  let order = Array.init n Fun.id in
  let stop = now () +. seconds and qid = ref 0 and whole = ref [] in
  let rec go last =
    let p0 = now () in
    if !whole = [] || p0 +. last <= stop then begin
      Array.iter
        (fun i ->
          incr qid;
          f !qid i)
        (shuffle st order);
      let d = now () -. p0 in
      whole := d :: !whole;
      go d
    end
  in
  go 0.0;
  List.rev !whole

type phase = {
  elapsed : float;
  cpu_s : float;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  pass_s : float list;  (** durations of the whole passes *)
}

let measured f =
  let gc0 = Gc.quick_stat () and cpu0 = self_cpu_s () and t0 = now () in
  let pass_s = f () in
  let elapsed = now () -. t0 and cpu1 = self_cpu_s () in
  { elapsed; cpu_s = cpu1 -. cpu0; gc0; gc1 = Gc.quick_stat (); pass_s }

(* ------------------------------------------------------------------ *)
(* Metrics and the result line                                         *)
(* ------------------------------------------------------------------ *)

(* Every metric a run can print, in print order.  A trace-0 run prints
   the end-to-end group; a trace-1 run prints the per-layer group.  A
   layer that the workload does not reach reads 0. *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_qps", "q/s"); ("cpu_ms_per_query", "ms");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("lang.consult_s", "s"); ("lang.prepare_s", "s"); ("lang.clauses", "count");
    ("engine.run_s", "s"); ("engine.parse_query_s", "s");
    ("engine.unify_steps", "count"); ("engine.code_instrs", "count");
    ("engine.clause_tries", "count"); ("engine.cp_allocs", "count");
    ("engine.backtracks", "count"); ("engine.trail_pushes", "count");
    ("engine.env_allocs", "count"); ("engine.minor_words_per_solution", "words");
    ("par.steals", "count"); ("par.steal_tries_mean", "count");
    ("par.copies", "count"); ("par.copied_cells", "count");
    ("par.copy_cells_p90", "count"); ("par.busy_frac", "ratio");
    ("par.idle_s", "s"); ("par.publish_skipped", "count");
    ("par_and.frames", "count"); ("par_and.slots", "count");
    ("par_and.lpco_hits", "count"); ("par_and.spo_hits", "count");
    ("par_and.pdo_hits", "count");
    ("sim.run_s", "s"); ("sim.cycles", "cycles"); ("sim.frames", "count");
    ("sim.markers", "count"); ("sim.lao_hits", "count");
    ("sim.copied_cells", "count");
    ("table.run_s", "s"); ("table.subgoals", "count"); ("table.answers", "count");
    ("table.variant_hits", "count"); ("table.suspends", "count");
    ("table.resumes", "count");
    ("protocol.parse_us", "us"); ("protocol.print_us", "us");
    ("session.read_run_ms_p50", "ms"); ("session.read_run_ms_p99", "ms");
    ("session.table_run_ms_p50", "ms"); ("session.table_run_ms_p99", "ms");
    ("session.write_run_ms_p50", "ms"); ("session.write_run_ms_p99", "ms");
    ("session.deadline_run_ms_p50", "ms"); ("session.deadline_run_ms_p99", "ms");
    ("session.write_ms", "ms");
    ("server.wait_ms_p50", "ms"); ("server.wait_ms_p99", "ms");
    ("server.active_p50", "count"); ("server.active_max", "count");
    ("server.refused", "count");
    ("cancel.overshoot_ms_p50", "ms"); ("cancel.overshoot_ms_max", "ms");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.promoted_words", "words");
    ("loadgen.late_p99_ms", "ms"); ("loadgen.sent", "count");
    ("check.digest_s", "s"); ("loadgen.io_s", "s"); ("loadgen.wait_s", "s");
    ("trace.unattributed_share", "ratio"); ("trace.overhead_share", "ratio");
    ("p50_ms", "ms"); ("p99_ms", "ms"); ("p999_ms", "ms"); ("slo_qps", "q/s"); ("refused_share", "ratio");
    ("failed_share", "ratio") ]

type result = {
  mutable attempted : int;
  mutable failed : int;
  values : (string, float) Hashtbl.t;
  validity : (string * Json.t) list ref;
      (** the run's validity record, printed on stderr *)
}

let result () =
  { attempted = 0; failed = 0; values = Hashtbl.create 64; validity = ref [] }

let set r name v = Hashtbl.replace r.values name v

let note r key v = r.validity := (key, v) :: !(r.validity)

(* JSON cannot carry nan or infinity; a metric that is not finite is a
   benchmark bug, so it fails the run rather than print a fake value. *)
let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let set_latencies r lat_ms =
  let lat = sorted_array lat_ms in
  let n = Array.length lat in
  set r "p50_ms" (quantile lat 0.5);
  set r "p99_ms" (quantile lat (tail_q ~n 0.99));
  set r "p999_ms" (quantile lat (tail_q ~n 0.999));
  note r "latency_samples" (Json.int n);
  note r "p99_quantile" (Json.Num (tail_q ~n 0.99));
  note r "p999_quantile" (Json.Num (tail_q ~n 0.999))

(* The end-to-end group of an in-process workload. *)
let set_end_to_end r ~setup_s ~completed ph lat_ms =
  note r "pass_s" (Json.List (List.map (fun v -> Json.Num (Float.round (v *. 1e4) /. 1e4)) ph.pass_s));
  set r "setup_s" setup_s;
  set r "throughput_qps" (float_of_int completed /. ph.elapsed);
  set r "cpu_ms_per_query" (ph.cpu_s *. 1e3 /. float_of_int (max 1 completed));
  set r "peak_rss_mb" (peak_rss_mb "self");
  set_latencies r lat_ms

let set_gc r ~per ph =
  set r "gc.minor_collections" (per (float_of_int (ph.gc1.Gc.minor_collections - ph.gc0.Gc.minor_collections)));
  set r "gc.major_collections" (per (float_of_int (ph.gc1.Gc.major_collections - ph.gc0.Gc.major_collections)));
  set r "gc.promoted_words" (per (ph.gc1.Gc.promoted_words -. ph.gc0.Gc.promoted_words))

(* Closes the traced run's accounting: the root span "phase" covers the
   traced wall time; its self time is the part no layer span covers.
   Every layer's self time is noted, and the shares must sum to 1. *)
let set_trace_accounting r ~overhead =
  let selfs = self_times () in
  let wall = List.fold_left (fun s (d, _) -> s +. d) 0.0 (spans_named "phase") in
  let under_phase = Hashtbl.create 16 in
  for i = 0 to !nspans - 1 do
    (* a span belongs to the traced phase when its root is a "phase" span *)
    let rec root j = if !spans.(j).parent < 0 then j else root !spans.(j).parent in
    if !spans.(root i).name = "phase" then Hashtbl.replace under_phase !spans.(i).name ()
  done;
  let shares =
    Hashtbl.fold
      (fun name () acc ->
        (name, Option.value ~default:0.0 (Hashtbl.find_opt selfs name) /. wall) :: acc)
      under_phase []
    |> List.sort compare
  in
  let unattributed = Option.value ~default:0.0 (List.assoc_opt "phase" shares) in
  set r "trace.unattributed_share" unattributed;
  set r "trace.overhead_share" overhead;
  note r "traced_wall_s" (Json.Num wall);
  note r "self_time_shares"
    (Json.Obj (List.map (fun (n, v) -> (if n = "phase" then "unattributed" else n), Json.Num v) shares));
  note r "self_time_shares_sum" (Json.Num (List.fold_left (fun s (_, v) -> s +. v) 0.0 shares))

(* End-to-end metrics of the design that are not steady enough, or
   not non-zero enough, to carry a bound: an untraced run still prints
   them, and the traced run reports them as per-layer numbers.  The
   latency percentiles follow the host's scheduling more than the
   program (NOTES.md, "End-to-end metrics"). *)
let ungated =
  [ ("p50_ms", "ms"); ("p99_ms", "ms"); ("p999_ms", "ms"); ("refused_share", "ratio");
    ("failed_share", "ratio") ]

let print_result opts r =
  let group = if opts.trace then per_layer else end_to_end in
  set r "failed_share" (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  let value name = Option.value ~default:0.0 (Hashtbl.find_opt r.values name) in
  (* the human-readable report, every metric by name and unit *)
  let line (name, unit) = Printf.printf "%-34s %16.6f %s\n" name (value name) unit in
  List.iter line group;
  if not opts.trace then List.iter line ungated;
  Printf.eprintf "validity %s\n%!" (Json.to_string (Json.Obj (List.rev !(r.validity))));
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number (value name)) unit)
      group
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* In-process workloads                                                *)
(* ------------------------------------------------------------------ *)

(* Consults and prepares each program, the set-up a user pays. *)
let prepare_sources sources =
  Array.map
    (fun src ->
      let program = span "lang.consult" (fun () -> Program.consult_string src) in
      span "lang.prepare" (fun () -> Engine.prepare (Program.db program)))
    sources

let clauses prepared =
  Array.fold_left
    (fun acc p ->
      let db = Engine.database p in
      List.fold_left
        (fun acc (name, arity) -> acc + List.length (Database.clauses_of db name arity))
        acc (Database.predicates db))
    0 prepared

(* Counters of one timed phase. *)
type acc = {
  mutable n : int;
  per_query : (string, float list) Hashtbl.t;  (** latencies by label *)
  mutable pass_ms : float list;  (** completed passes over all the operations *)
  mutable in_pass : int;
  mutable cur_pass_ms : float;
  mutable check_s : float;  (** wall seconds spent checking answers *)
  mutable check_cpu_s : float;  (** CPU seconds spent checking answers *)
  stats : Stats.t;
  copy_cells : Metrics.hist;
  steal_tries : Metrics.hist;
  mutable busy_ns : int;
  mutable idle_ns : int;
}

let acc () =
  { n = 0; per_query = Hashtbl.create 8; pass_ms = []; in_pass = 0; cur_pass_ms = 0.0;
    check_s = 0.0; check_cpu_s = 0.0; stats = Stats.create ();
    copy_cells = Metrics.hist_create (); steal_tries = Metrics.hist_create ();
    busy_ns = 0; idle_ns = 0 }

let record ~per_pass a label r ms =
  a.n <- a.n + 1;
  a.cur_pass_ms <- a.cur_pass_ms +. ms;
  a.in_pass <- a.in_pass + 1;
  if a.in_pass = per_pass then begin
    a.pass_ms <- a.cur_pass_ms :: a.pass_ms;
    a.in_pass <- 0;
    a.cur_pass_ms <- 0.0
  end;
  Hashtbl.replace a.per_query label
    (ms :: Option.value ~default:[] (Hashtbl.find_opt a.per_query label));
  Stats.merge_into ~into:a.stats r.Engine.stats;
  let m = r.Engine.metrics in
  for d = 0 to Metrics.domains m - 1 do
    let s = Metrics.shard m d in
    Metrics.hist_merge_into ~into:a.copy_cells s.Metrics.s_copy_cells;
    Metrics.hist_merge_into ~into:a.steal_tries s.Metrics.s_steal_tries;
    a.busy_ns <- a.busy_ns + s.Metrics.s_busy_ns;
    a.idle_ns <- a.idle_ns + s.Metrics.s_idle_ns
  done

(* The run every in-process workload shares.  Operation [i] is named
   [labels.(i)]; [exec qid i] parses and runs it through the public API
   and [check i r] says whether its result is right.  Checking is the
   benchmark's own work, so its wall and CPU time is taken out of the
   timed phase.  A latency sample is a whole pass when [per_pass] (when
   the operations' costs differ tenfold, a per-operation median sits
   between two of them and jumps), else one operation.

   After a checked warm-up pass, an untraced run times [opts.seconds].  A
   traced run times half of it untraced and half traced, re-preparing
   under tracing with [reprepare]; [layers a ~self ~per] then sets the
   workload's own counters from the traced phase's accumulator, the
   layers' self seconds and a per-operation divisor. *)
let run_in_process opts res ~labels ~per_pass ~reprepare ~exec ~check ~layers =
  let n = Array.length labels in
  let setup_s = setup_in_children opts ~reps:(if opts.tiny then 2 else 31) in
  let one a qid i =
    res.attempted <- res.attempted + 1;
    let q0 = now () in
    match exec qid i with
    | r ->
      let ms = (now () -. q0) *. 1e3 in
      let c0 = now () and cpu0 = self_cpu_s () in
      if not (check ~qid i r) then res.failed <- res.failed + 1;
      a.check_s <- a.check_s +. (now () -. c0);
      a.check_cpu_s <- a.check_cpu_s +. (self_cpu_s () -. cpu0);
      record ~per_pass:n a labels.(i) r ms
    | exception e ->
      res.failed <- res.failed + 1;
      Printf.eprintf "%s raised %s\n%!" labels.(i) (Printexc.to_string e)
  in
  (* warm-up: one checked pass in order, so lazy set-up is done *)
  let warm = acc () in
  for i = 0 to n - 1 do one warm (-1) i done;
  let phase ~salt ~seconds =
    let a = acc () in
    let ph = measured (fun () -> passes opts ~salt ~seconds n (one a)) in
    (a, { ph with elapsed = ph.elapsed -. a.check_s; cpu_s = ph.cpu_s -. a.check_cpu_s })
  in
  let latencies a =
    if per_pass then a.pass_ms else Hashtbl.fold (fun _ l acc -> l @ acc) a.per_query []
  in
  let per a x = x /. float_of_int (max 1 a.n) in
  if not opts.trace then begin
    let a, ph = phase ~salt:3 ~seconds:opts.seconds in
    set_end_to_end res ~setup_s ~completed:a.n ph (latencies a);
    note res "check_share" (Json.Num (a.check_s /. (a.check_s +. ph.elapsed)));
    note res "per_query_ms"
      (Json.Obj
         (Hashtbl.fold
            (fun label l acc ->
              let s = sorted_array l in
              (label,
               Json.Obj
                 [ ("n", Json.int (Array.length s)); ("p10", Json.Num (quantile s 0.1));
                   ("p50", Json.Num (quantile s 0.5)); ("p90", Json.Num (quantile s 0.9)) ])
              :: acc)
            a.per_query []))
  end
  else begin
    (* half untraced, half traced: the difference is the tracing cost *)
    let half = opts.seconds /. 2.0 in
    let a0, ph0 = phase ~salt:3 ~seconds:half in
    set_latencies res (latencies a0);
    tracing := true;
    reprepare ();
    let a, ph = span "phase" (fun () -> phase ~salt:4 ~seconds:half) in
    tracing := false;
    let selfs = self_times () in
    let self name = Option.value ~default:0.0 (Hashtbl.find_opt selfs name) in
    let s = a.stats in
    let f = float_of_int in
    let pq x = per a (f x) in
    set res "lang.consult_s" (self "lang.consult");
    set res "lang.prepare_s" (self "lang.prepare");
    set res "engine.parse_query_s" (per a (self "engine.parse_query"));
    set res "check.digest_s" (per a (self "check.digest"));
    set res "engine.unify_steps" (pq s.Stats.unify_steps);
    set res "engine.code_instrs" (pq s.Stats.code_instrs);
    set res "engine.clause_tries" (pq s.Stats.clause_tries);
    set res "engine.cp_allocs" (pq s.Stats.cp_allocs);
    set res "engine.backtracks" (pq s.Stats.backtracks);
    set res "engine.trail_pushes" (pq s.Stats.trail_pushes);
    set res "engine.env_allocs" (pq s.Stats.env_allocs);
    set res "engine.minor_words_per_solution"
      (f s.Stats.minor_words /. f (max 1 s.Stats.solutions));
    layers a ~self ~per:(per a);
    set_gc res ~per:(per a) ph;
    set_trace_accounting res ~overhead:(per a ph.elapsed /. per a0 ph0.elapsed -. 1.0)
  end
