(* serve_mix: ace_serve in its own process (seq engine, compiled,
   default workers and --max-active), fed by an open-loop seeded Poisson
   schedule from one generator thread over two connections.

   The mix: ~70% path/2 reads over a seeded tree, ~15% tabled
   left-recursive reachability over a seeded cyclic graph, ~13% writes
   and ~2% deadline queries on spin/0.  A write is a chain on one
   session: assert a fresh note/2 fact, query it (the answer must be
   exactly that fact), retract it, so overlays stay bounded.  The
   generator pipelines requests over select, matches query replies by id
   (control replies carry no id and come back in order per connection),
   and times every request from its due time, so a server stall delays
   every request due during it (no coordinated omission).  A refused
   ("overloaded") query is re-sent after an exponential back-off; its
   latency still runs from the original due time. *)

open Common
module Config = Ace_machine.Config
module Protocol = Ace_server.Protocol

(* Nominal rate: about half the rate the server sustains over a whole
   run of this mix (about 600 q/s on the 2-core host of NOTES.md); a
   constant, so runs compare. *)
let nominal_qps = 300.0

let deadline_ms = 8

(* ------------------------------------------------------------------ *)
(* The program and the requests                                        *)
(* ------------------------------------------------------------------ *)

type cls = Read | Tabled | Write | Deadline

let cls_name = function
  | Read -> "read" | Tabled -> "table" | Write -> "write" | Deadline -> "deadline"

(* The graphs' shapes are fixed, so a read or a tabled query costs the
   same on every seed; the seed permutes the node names and picks the
   queried nodes and the schedule. *)
type shape = {
  tree_nodes : int;
  cyc_nodes : int;
  tree_name : int array;  (** node -> the number in its name *)
  cyc_name : int array;
}

let shape_seed = 1997

let shape opts =
  let tree_nodes, cyc_nodes = if opts.tiny then (12, 8) else (48, 24) in
  let st = rng opts 10 in
  { tree_nodes; cyc_nodes;
    tree_name = shuffle st (Array.init tree_nodes Fun.id);
    cyc_name = shuffle st (Array.init cyc_nodes Fun.id) }

let read_goal sh k = Printf.sprintf "path(n%d, X)" sh.tree_name.(k)
let table_goal sh k = Printf.sprintf "reach(r%d, X)" sh.cyc_name.(k)

let program sh =
  let st = Random.State.make [| shape_seed |] in
  let b = Buffer.create 8192 in
  (* a random tree (each node's parent is one of the four before it), so
     every path is unique and a read's cost is its subtree's size *)
  for i = 1 to sh.tree_nodes - 1 do
    Printf.bprintf b "edge(n%d, n%d).\n"
      sh.tree_name.(i - 1 - Random.State.int st (min 4 i)) sh.tree_name.(i)
  done;
  Buffer.add_string b "path(X, Y) :- edge(X, Y).\n";
  Buffer.add_string b "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  Buffer.add_string b ":- table(reach/2).\n";
  let r i = sh.cyc_name.(i) in
  for i = 0 to sh.cyc_nodes - 1 do
    Printf.bprintf b "redge(r%d, r%d).\n" (r i) (r ((i + 1) mod sh.cyc_nodes));
    Printf.bprintf b "redge(r%d, r%d).\n" (r i) (r (Random.State.int st sh.cyc_nodes))
  done;
  Buffer.add_string b "reach(X, Y) :- redge(X, Y).\n";
  Buffer.add_string b "reach(X, Y) :- reach(X, Z), redge(Z, Y).\n";
  Buffer.add_string b "note(k0, v0).\n";
  Buffer.add_string b "gen(z).\ngen(s(N)) :- gen(N).\n";
  Buffer.add_string b "spin :- gen(N), never(N).\nnever(none).\n";
  Buffer.contents b

(* A solution set's digest, over the strings the server prints. *)
let digest_strings l = Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare l)))

let print_term t = Format.asprintf "%a" Ace_term.Pp.pp t

type req = {
  rid : int;
  cls : cls;
  conn : int;
  mutable due : float;  (** seconds from the schedule's start, then absolute *)
  goal : string;  (** query goal; for a write, the note/2 fact *)
  expected : string;  (** digest of the expected answer strings *)
  mutable sent : float;  (** last (re)send of the query line *)
  mutable retry_at : float;  (** > 0 while waiting to re-send a refusal *)
  mutable refusals : int;
}

(* Expected answers come from the interpreted sequential engine, the
   repository's differential reference. *)
let reference_digests source goals =
  let prepared = Engine.prepare_string source in
  let config = { Config.default with Config.compile = false } in
  List.map
    (fun g ->
      let r =
        Engine.run Engine.Sequential config prepared (Program.parse_query g).Program.goal
      in
      (g, digest_strings (List.map print_term r.Engine.solutions)))
    goals

(* Poisson arrival times at [rate] over [seconds], drawn from [st]. *)
let arrivals st ~rate ~seconds =
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t < seconds then go t (t :: acc) else List.rev acc
  in
  go 0.0 []

(* The open-loop schedule: the mix's requests at Poisson arrivals. *)
let schedule opts ~salt ~rate ~seconds sh refs =
  let st = rng opts salt in
  arrivals st ~rate ~seconds
  |> List.mapi (fun k due ->
    let i = k + 1 in
    let u = Random.State.float st 1.0 in
    let cls, goal =
      if u < 0.70 then (Read, read_goal sh (Random.State.int st (sh.tree_nodes - 1)))
      else if u < 0.85 then (Tabled, table_goal sh (Random.State.int st sh.cyc_nodes))
      else if u < 0.98 then
        (Write, Printf.sprintf "note(w%d_%d, v%d)" salt i (Random.State.int st 1000))
      else (Deadline, "spin")
    in
    let expected =
      match cls with
      | Read | Tabled -> List.assoc goal refs
      | Write -> digest_strings [ print_term (Ace_lang.Parser.term_of_string (goal ^ ".")) ]
      | Deadline -> ""
    in
    { rid = i; cls; conn = Random.State.int st 2; due; goal; expected;
      sent = 0.0; retry_at = 0.0; refusals = 0 })
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

type ctl = Assert of req | Retract of req | Stats_probe

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (** bytes not yet written *)
  inbuf : Buffer.t;  (** a partial reply line *)
  ctl : ctl Queue.t;  (** control requests awaiting their id-less reply *)
}

type outcome = {
  mutable lat_ms : (cls * float) list;  (** due time to final reply *)
  mutable lat_due : (float * float) list;  (** (due time, latency) *)
  mutable run_ms : (cls * float) list;  (** server time_ns *)
  mutable wait_ms : float list;  (** round trip minus time_ns *)
  mutable write_ms : float list;  (** assert and retract round trips *)
  mutable overshoot_ms : float list;
  mutable late_ms : float list;  (** first send minus due time *)
  mutable active : float list;  (** sampled admitted-query counts *)
  mutable completed : int;
  mutable refused : int;
  mutable failed : int;
  mutable attempted : int;
  mutable sent_lines : string list;
  mutable reply_lines : string list;
  mutable backlog_end : int;  (** requests unanswered when the schedule ended *)
  mutable start : float;  (** when the schedule started *)
}

let outcome () =
  { lat_ms = []; lat_due = []; run_ms = []; wait_ms = []; write_ms = []; overshoot_ms = [];
    late_ms = []; active = []; completed = 0; refused = 0; failed = 0;
    attempted = 0; sent_lines = []; reply_lines = []; backlog_end = 0;
    start = 0.0 }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* One ping round trip on a fresh blocking connection; fails unless the
   reply is a pong. *)
let ping fd =
  let ping = "{\"op\":\"ping\"}\n" in
  ignore (Unix.write_substring fd ping 0 (String.length ping));
  let b = Bytes.create 256 in
  let rec await got =
    match String.index_opt got '\n' with
    | Some i -> String.sub got 0 i
    | None ->
      let n = Unix.read fd b 0 (Bytes.length b) in
      if n = 0 then failwith "server closed the connection";
      await (got ^ Bytes.sub_string b 0 n)
  in
  let line = await "" in
  if Option.bind (Result.to_option (Json.parse line)) (Json.member "pong") <> Some (Json.Bool true)
  then failwith ("bad pong: " ^ line)

let query_line r =
  let fields =
    [ ("op", Json.Str "query"); ("id", Json.int r.rid); ("goal", Json.Str r.goal) ]
    @ if r.cls = Deadline then [ ("deadline_ms", Json.int deadline_ms) ] else []
  in
  Json.to_string (Json.Obj fields)

let member_str k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
let member_num k j = match Json.member k j with Some (Json.Num n) -> Some n | _ -> None

(* Runs [sched] against the server at [sock] over [nconns] connections;
   returns once every request is answered or 5 s after the last one was
   due.  [stats_every] > 0 samples the server's admitted count;
   [keep_lines] keeps the wire lines for the protocol replay. *)
let generate ?(stats_every = 0.0) ?(keep_lines = false) ~sock ~nconns sched =
  let o = outcome () in
  (* connections (and their server sessions) are set up before the
     schedule starts: a ping round trip on each *)
  let conns =
    Array.init nconns (fun _ ->
        match connect sock with
        | Some fd ->
          ping fd;
          Unix.set_nonblock fd;
          { fd; out = Buffer.create 4096; inbuf = Buffer.create 4096; ctl = Queue.create () }
        | None -> failwith ("cannot connect to " ^ sock))
  in
  o.start <- now () +. 0.001;
  Array.iter (fun r -> r.due <- o.start +. r.due) sched;
  let pending = Hashtbl.create 1024 in
  let retries = ref [] in
  let send c line =
    if keep_lines then o.sent_lines <- line :: o.sent_lines;
    Buffer.add_string c.out line;
    Buffer.add_char c.out '\n'
  in
  let assert_line r = Printf.sprintf {|{"op":"assert","clause":%S}|} r.goal in
  let retract_line r = Printf.sprintf {|{"op":"retract","clause":%S}|} r.goal in
  let send_query r t =
    r.sent <- t;
    send conns.(r.conn) (query_line r)
  in
  let issue r t =
    o.attempted <- o.attempted + 1;
    o.late_ms <- ((t -. r.due) *. 1e3) :: o.late_ms;
    Hashtbl.replace pending r.rid r;
    match r.cls with
    | Write ->
      r.sent <- t;
      Queue.push (Assert r) conns.(r.conn).ctl;
      send conns.(r.conn) (assert_line r)
    | Read | Tabled | Deadline -> send_query r t
  in
  let finish r t =
    Hashtbl.remove pending r.rid;
    o.completed <- o.completed + 1;
    if r.cls <> Deadline then begin
      o.lat_ms <- (r.cls, (t -. r.due) *. 1e3) :: o.lat_ms;
      o.lat_due <- (r.due, (t -. r.due) *. 1e3) :: o.lat_due
    end
  in
  let fail r why =
    Hashtbl.remove pending r.rid;
    o.failed <- o.failed + 1;
    Printf.eprintf "serve_mix: %s %s: %s\n%!" (cls_name r.cls) r.goal why
  in
  let on_answer r j t =
    let time_ms = Option.value ~default:0.0 (member_num "time_ns" j) *. 1e-6 in
    o.run_ms <- (r.cls, time_ms) :: o.run_ms;
    o.wait_ms <- (((t -. r.sent) *. 1e3) -. time_ms) :: o.wait_ms;
    let sols =
      match Json.member "solutions" j with
      | Some (Json.List l) -> List.filter_map (function Json.Str s -> Some s | _ -> None) l
      | _ -> []
    in
    match r.cls with
    | Deadline ->
      if member_str "cancelled" j = Some "deadline" then begin
        o.overshoot_ms <- (time_ms -. float_of_int deadline_ms) :: o.overshoot_ms;
        finish r t
      end
      else fail r "deadline query not cancelled by its deadline"
    | Read | Tabled ->
      if span "check.digest" (fun () -> digest_strings sols) = r.expected then finish r t
      else fail r "wrong answer set"
    | Write ->
      if digest_strings sols = r.expected then begin
        Queue.push (Retract r) conns.(r.conn).ctl;
        r.sent <- t;
        send conns.(r.conn) (retract_line r)
      end
      else fail r "asserted fact not visible to the session"
  in
  let on_line ci line t =
    if keep_lines then o.reply_lines <- line :: o.reply_lines;
    match Json.parse line with
    | Error m -> failwith ("bad reply: " ^ m)
    | Ok j -> (
      match member_num "id" j with
      | Some id -> (
        match Hashtbl.find_opt pending (int_of_float id) with
        | None -> failwith ("reply to unknown id: " ^ line)
        | Some r ->
          if Json.member "ok" j = Some (Json.Bool true) then on_answer r j t
          else if member_str "error" j = Some Protocol.overloaded then begin
            o.refused <- o.refused + 1;
            (* exponential back-off from 1 ms to 64 ms: a fixed short
               back-off turns a burst of refusals into a retry storm *)
            r.retry_at <- t +. (0.001 *. float_of_int (1 lsl min 6 r.refusals));
            r.refusals <- r.refusals + 1;
            retries := r :: !retries
          end
          else fail r (Option.value ~default:line (member_str "error" j)))
      | None -> (
        let ok = Json.member "ok" j = Some (Json.Bool true) in
        match Queue.take_opt conns.(ci).ctl with
        | None -> failwith ("unexpected reply: " ^ line)
        | Some Stats_probe ->
          Option.iter (fun a -> o.active <- a :: o.active) (member_num "active" j)
        | Some (Assert r) ->
          if ok then begin
            o.write_ms <- ((t -. r.sent) *. 1e3) :: o.write_ms;
            send_query r t
          end
          else fail r line
        | Some (Retract r) ->
          o.write_ms <- ((t -. r.sent) *. 1e3) :: o.write_ms;
          if Json.member "removed" j = Some (Json.Bool true) then finish r t
          else fail r "retract found nothing"))
  in
  let buf = Bytes.create 65536 in
  let read_conn ci =
    let c = conns.(ci) in
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "server closed the connection"
    | n ->
      let t = now () in
      Buffer.add_subbytes c.inbuf buf 0 n;
      let s = Buffer.contents c.inbuf in
      let lines = String.split_on_char '\n' s in
      let rec go = function
        | [ last ] ->
          Buffer.clear c.inbuf;
          Buffer.add_string c.inbuf last
        | l :: rest ->
          if l <> "" then on_line ci l t;
          go rest
        | [] -> ()
      in
      go lines
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let write_conn c =
    let s = Buffer.contents c.out in
    match Unix.single_write_substring c.fd s 0 (String.length s) with
    | n ->
      Buffer.clear c.out;
      Buffer.add_string c.out (String.sub s n (String.length s - n))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let n = Array.length sched in
  let last_due = if n = 0 then now () else sched.(n - 1).due in
  let give_up = last_due +. 5.0 in
  let next = ref 0 and next_stats = ref (now ()) in
  let backlog_taken = ref false in
  let rec loop () =
    let t = now () in
    while !next < n && sched.(!next).due <= t do
      issue sched.(!next) t;
      incr next
    done;
    if !next = n && not !backlog_taken then begin
      backlog_taken := true;
      o.backlog_end <- Hashtbl.length pending
    end;
    let due_retries, later = List.partition (fun r -> r.retry_at <= t) !retries in
    retries := later;
    List.iter (fun r -> r.retry_at <- 0.0; send_query r t) due_retries;
    if stats_every > 0.0 && t >= !next_stats && !next < n then begin
      next_stats := t +. stats_every;
      Queue.push Stats_probe conns.(0).ctl;
      send conns.(0) {|{"op":"stats"}|}
    end;
    span "loadgen.io" (fun () ->
        Array.iter (fun c -> if Buffer.length c.out > 0 then write_conn c) conns);
    let busy =
      Hashtbl.length pending > 0 || Array.exists (fun c -> not (Queue.is_empty c.ctl)) conns
    in
    if (!next < n || busy) && t < give_up then begin
      let wake =
        List.fold_left (fun w r -> Float.min w r.retry_at)
          (if !next < n then sched.(!next).due else t +. 0.05)
          !retries
      in
      let wake = if stats_every > 0.0 then Float.min wake !next_stats else wake in
      let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
      let wfds =
        Array.to_list conns
        |> List.filter (fun c -> Buffer.length c.out > 0)
        |> List.map (fun c -> c.fd)
      in
      let timeout = Float.max 0.0 (wake -. now ()) in
      let r, _, _ =
        span "loadgen.wait" (fun () ->
            try Unix.select fds wfds [] timeout
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []))
      in
      span "loadgen.io" (fun () ->
          Array.iteri (fun ci c -> if List.mem c.fd r then read_conn ci) conns);
      loop ()
    end
  in
  loop ();
  Hashtbl.iter
    (fun _ r ->
      o.failed <- o.failed + 1;
      Printf.eprintf "serve_mix: lost response to %s %s\n%!" (cls_name r.cls) r.goal)
    pending;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  o

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

(* Scratch files live in the checkout; the socket path is relative so it
   stays within the Unix socket path limit. *)
let tmp_dir = ".bench_tmp"

let server_pid = ref 0

let stop_server () =
  let pid = !server_pid in
  if pid > 0 then begin
    server_pid := 0;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  end

let () = at_exit stop_server

let rec await_pong sock ~until =
  match connect sock with
  | None ->
    if now () > until then failwith "ace_serve did not come up";
    Unix.sleepf 0.001;
    await_pong sock ~until
  | Some fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> ping fd)

(* Spawns ace_serve on [prog] and waits for its first pong; returns the
   seconds that took. *)
let start_server opts ~prog ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let t0 = now () in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process opts.serve_exe
      [| opts.serve_exe; "--socket"; sock; prog |]
      stdin_r Unix.stderr Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdin_w;
  server_pid := pid;
  await_pong sock ~until:(t0 +. 30.0);
  now () -. t0

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let pct l q =
  let a = sorted_array l in
  quantile a (tail_q ~n:(Array.length a) q)

let of_cls c l = List.filter_map (fun (k, v) -> if k = c then Some v else None) l

let account (res : Common.result) (o : outcome) =
  res.attempted <- res.attempted + o.attempted;
  res.failed <- res.failed + o.failed

(* The highest rung of a fixed rate ladder at which p99 stays at or
   under 10 ms, refused requests count as misses and the generator's
   backlog at the end of the rung stays under 10 ms of arrivals. *)
let ladder opts (res : Common.result) ~sock sh refs =
  let rungs = if opts.tiny then [ 0.5 ] else [ 0.5; 0.75; 1.0; 1.25; 1.5; 1.75; 2.0; 2.5 ] in
  let seconds = if opts.tiny then 0.3 else 1.5 in
  let rec climb best salt = function
    | [] -> best
    | f :: rest ->
      let rate = f *. nominal_qps in
      let sched = schedule opts ~salt ~rate ~seconds sh refs in
      let o = generate ~sock ~nconns:2 sched in
      account res o;
      let lats = List.map snd o.lat_ms in
      let n = List.length lats + o.refused in
      let misses = o.refused + List.length (List.filter (fun v -> v > 10.0) lats) in
      let ok =
        float_of_int misses <= 0.01 *. float_of_int (max 1 n)
        && float_of_int o.backlog_end <= 0.010 *. rate +. 1.0
      in
      if ok then climb rate (salt + 1) rest else best
  in
  climb 0.0 20 rungs

(* Runs the traced mix's goals in-process, as the server would (seq,
   compiled, fresh parse), to read the engine and tabling counters that
   the wire does not carry. *)
let replay source sched =
  let prepared = Engine.prepare_string source in
  let config = { Config.default with Config.compile = true } in
  let stats = Stats.create () in
  let n = ref 0 in
  let gc0 = Gc.quick_stat () in
  Array.iter
    (fun r ->
      let layer =
        match r.cls with Read -> Some "engine.run" | Tabled -> Some "table.run" | _ -> None
      in
      Option.iter
        (fun layer ->
          incr n;
          let goal =
            span "engine.parse_query" (fun () -> (Program.parse_query r.goal).Program.goal)
          in
          let res = span layer (fun () -> Engine.run Engine.Sequential config prepared goal) in
          Stats.merge_into ~into:stats res.Engine.stats)
        layer)
    sched;
  (stats, !n, gc0, Gc.quick_stat ())

(* Mean microseconds to parse the sent request lines and to print the
   received replies, through the server's own protocol code. *)
let protocol_replay o =
  let time f l =
    let t0 = now () in
    List.iter f l;
    (now () -. t0) *. 1e6 /. float_of_int (max 1 (List.length l))
  in
  let parse_us = time (fun l -> ignore (Protocol.parse_request l)) o.sent_lines in
  let responses =
    List.filter_map
      (fun line ->
        match Json.parse line with
        | Ok j -> (
          match (member_num "id" j, Json.member "solutions" j) with
          | Some id, Some (Json.List l) ->
            Some
              (Protocol.Answer
                 { id = int_of_float id;
                   solutions = List.filter_map (function Json.Str s -> Some s | _ -> None) l;
                   cancelled = member_str "cancelled" j;
                   time_ns = int_of_float (Option.value ~default:0.0 (member_num "time_ns" j)) })
          | _ -> None)
        | Error _ -> None)
      o.reply_lines
  in
  let print_us = time (fun r -> ignore (Protocol.print_response r)) responses in
  (parse_us, print_us)

let run opts (res : Common.result) =
  if not (Sys.file_exists opts.serve_exe) then
    failwith ("ace_serve executable not found: " ^ opts.serve_exe);
  (try Unix.mkdir tmp_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = string_of_int (Unix.getpid ()) in
  let prog = Filename.concat tmp_dir ("serve_" ^ tag ^ ".pl") in
  let sock = Filename.concat tmp_dir ("serve_" ^ tag ^ ".sock") in
  let sh = shape opts in
  let source = program sh in
  Out_channel.with_open_text prog (fun oc -> output_string oc source);
  Fun.protect
    ~finally:(fun () ->
      stop_server ();
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ prog; sock ])
    (fun () ->
      let goals =
        List.init (sh.tree_nodes - 1) (read_goal sh) @ List.init sh.cyc_nodes (table_goal sh)
      in
      let refs = reference_digests source goals in
      let refs =
        if opts.corrupt then List.map (fun (g, d) -> (g, if g = read_goal sh 0 then "corrupt" else d)) refs
        else refs
      in
      (* set-up (spawn to first pong) is timed several times *)
      let setup_s =
        median
          (List.init (if opts.tiny then 2 else 21) (fun _ ->
               stop_server ();
               start_server opts ~prog ~sock))
      in
      let pid = !server_pid in
      let at_rate ?stats_every ?keep_lines ~salt ~seconds rate =
        let sched = schedule opts ~salt ~rate ~seconds sh refs in
        let o = generate ?stats_every ?keep_lines ~sock ~nconns:2 sched in
        account res o;
        (o, sched)
      in
      (* warm-up at the nominal rate, checked but not timed *)
      ignore (at_rate ~salt:2 ~seconds:(if opts.tiny then 0.2 else 1.0) nominal_qps);
      note res "nominal_qps" (Json.Num nominal_qps);
      note res "connections" (Json.int 2);
      if not opts.trace then begin
        let cpu0 = cpu_s_of_pid pid and gen_cpu0 = self_cpu_s () in
        let o, _ = at_rate ~salt:3 ~seconds:opts.seconds nominal_qps in
        let cpu = cpu_s_of_pid pid -. cpu0 and elapsed = now () -. o.start in
        note res "loadgen_cpu_share" (Json.Num ((self_cpu_s () -. gen_cpu0) /. elapsed));
        set res "setup_s" setup_s;
        set res "throughput_qps" (float_of_int o.completed /. elapsed);
        set res "cpu_ms_per_query" (cpu *. 1e3 /. float_of_int (max 1 o.completed));
        set res "peak_rss_mb" (peak_rss_mb (string_of_int pid));
        set_latencies res (List.map snd o.lat_ms);
        set res "refused_share" (float_of_int o.refused /. float_of_int (max 1 o.attempted));
        (* the slowest requests: when they were due and what they were *)
        note res "slowest"
          (Json.List
             (List.filteri (fun i _ -> i < 12)
                (List.sort (fun (_, a) (_, b) -> compare b a) o.lat_due)
             |> List.map (fun (due, v) ->
                    Json.List [ Json.Num (due -. o.start); Json.Num v ])));
        (* a backlog that grows shows as p50 rising through the run *)
        note res "p50_ms_by_fifth"
          (Json.List
             (List.init 5 (fun k ->
                  let lo = o.start +. (float_of_int k *. opts.seconds /. 5.0) in
                  let hi = lo +. (opts.seconds /. 5.0) in
                  Json.Num
                    (pct
                       (List.filter_map
                          (fun (due, v) -> if due >= lo && due < hi then Some v else None)
                          o.lat_due)
                       0.5))));
        note res "loadgen_late_p99_ms" (Json.Num (pct o.late_ms 0.99))
      end
      else begin
        let half = opts.seconds /. 2.0 in
        let o0, _ = at_rate ~salt:3 ~seconds:half nominal_qps in
        set_latencies res (List.map snd o0.lat_ms);
        tracing := true;
        let o, sched =
          span "phase" (fun () ->
              at_rate ~stats_every:0.02 ~keep_lines:true ~salt:4 ~seconds:half nominal_qps)
        in
        tracing := false;
        let mean_latency o = mean (List.map snd o.lat_ms) in
        set_trace_accounting res ~overhead:(mean_latency o /. mean_latency o0 -. 1.0);
        let selfs = self_times () in
        let self name = Option.value ~default:0.0 (Hashtbl.find_opt selfs name) in
        set res "loadgen.io_s" (self "loadgen.io");
        set res "loadgen.wait_s" (self "loadgen.wait");
        set res "check.digest_s" (self "check.digest");
        let slo = ladder opts res ~sock sh refs in
        tracing := true;
        let stats, nrep, gc0, gc1 = replay source sched in
        tracing := false;
        let selfs = self_times () in
        let self name = Option.value ~default:0.0 (Hashtbl.find_opt selfs name) in
        let parse_us, print_us = protocol_replay o in
        let f = float_of_int in
        let pq x = f x /. f (max 1 nrep) in
        let reads = List.length (List.filter (fun r -> r.cls = Read) (Array.to_list sched)) in
        let tabled = nrep - reads in
        set res "lang.clauses" (f (List.length (String.split_on_char '.' source) - 1));
        set res "engine.run_s" (self "engine.run" /. f (max 1 reads));
        set res "engine.parse_query_s" (self "engine.parse_query" /. f (max 1 nrep));
        set res "engine.unify_steps" (pq stats.Stats.unify_steps);
        set res "engine.code_instrs" (pq stats.Stats.code_instrs);
        set res "engine.clause_tries" (pq stats.Stats.clause_tries);
        set res "engine.cp_allocs" (pq stats.Stats.cp_allocs);
        set res "engine.backtracks" (pq stats.Stats.backtracks);
        set res "engine.trail_pushes" (pq stats.Stats.trail_pushes);
        set res "engine.env_allocs" (pq stats.Stats.env_allocs);
        set res "engine.minor_words_per_solution"
          (f stats.Stats.minor_words /. f (max 1 stats.Stats.solutions));
        set res "table.run_s" (self "table.run" /. f (max 1 tabled));
        let tq x = f x /. f (max 1 tabled) in
        set res "table.subgoals" (tq stats.Stats.table_subgoals);
        set res "table.answers" (tq stats.Stats.table_answers);
        set res "table.variant_hits" (tq stats.Stats.table_variant_hits);
        set res "table.suspends" (tq stats.Stats.table_suspends);
        set res "table.resumes" (tq stats.Stats.table_resumes);
        set res "gc.minor_collections" (pq (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        set res "gc.major_collections" (pq (gc1.Gc.major_collections - gc0.Gc.major_collections));
        set res "gc.promoted_words" ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. f (max 1 nrep));
        set res "protocol.parse_us" parse_us;
        set res "protocol.print_us" print_us;
        List.iter
          (fun c ->
            let l = of_cls c o.run_ms in
            set res (Printf.sprintf "session.%s_run_ms_p50" (cls_name c)) (pct l 0.5);
            set res (Printf.sprintf "session.%s_run_ms_p99" (cls_name c)) (pct l 0.99))
          [ Read; Tabled; Write; Deadline ];
        set res "session.write_ms" (pct o.write_ms 0.5);
        set res "server.wait_ms_p50" (pct o.wait_ms 0.5);
        set res "server.wait_ms_p99" (pct o.wait_ms 0.99);
        set res "server.active_p50" (pct o.active 0.5);
        set res "server.active_max" (List.fold_left Float.max 0.0 o.active);
        set res "server.refused" (f o.refused);
        set res "cancel.overshoot_ms_p50" (pct o.overshoot_ms 0.5);
        set res "cancel.overshoot_ms_max" (List.fold_left Float.max 0.0 o.overshoot_ms);
        set res "loadgen.late_p99_ms" (pct o.late_ms 0.99);
        set res "loadgen.sent" (f o.attempted);
        set res "slo_qps" slo;
        set res "refused_share" (f o.refused /. f (max 1 o.attempted))
      end)

(* ------------------------------------------------------------------ *)
(* Coordinated-omission self-test                                      *)
(* ------------------------------------------------------------------ *)

(* A stub server in a child process: answers a ping with a pong and
   every query at once with no solutions, except that after [stall_after] queries it stops reading
   for [stall_s] once.  Every request due during the stall is late by up
   to [stall_s]; an open-loop generator must show that in p99, where a
   closed loop would record one slow request and hide the rest. *)
let stub_server ~sock ~stall_after ~stall_s =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 4;
  match Unix.fork () with
  | 0 ->
    let conns = ref [] and answered = ref 0 and stalled = ref false in
    let buf = Bytes.create 65536 in
    let pending = Hashtbl.create 4 in
    (try
       while true do
         let r, _, _ = Unix.select (lfd :: !conns) [] [] 1.0 in
         List.iter
           (fun fd ->
             if fd = lfd then conns := fst (Unix.accept lfd) :: !conns
             else begin
               let n = Unix.read fd buf 0 (Bytes.length buf) in
               if n = 0 then raise Exit;
               let prev = Option.value ~default:"" (Hashtbl.find_opt pending fd) in
               let lines = String.split_on_char '\n' (prev ^ Bytes.sub_string buf 0 n) in
               let rec go = function
                 | [ last ] -> Hashtbl.replace pending fd last
                 | l :: rest ->
                   (match Json.parse l with
                   | Ok j when member_str "op" j = Some "ping" ->
                     let pong = "{\"pong\":true}\n" in
                     ignore (Unix.write_substring fd pong 0 (String.length pong))
                   | Ok j ->
                     let id = Option.value ~default:0.0 (member_num "id" j) in
                     if !answered = stall_after && not !stalled then begin
                       stalled := true;
                       Unix.sleepf stall_s
                     end;
                     incr answered;
                     let reply =
                       Printf.sprintf
                         {|{"id":%d,"ok":true,"solutions":[],"count":0,"time_ns":1000}|}
                         (int_of_float id)
                       ^ "\n"
                     in
                     ignore (Unix.write_substring fd reply 0 (String.length reply))
                   | Error _ -> ());
                   go rest
                 | [] -> ()
               in
               go lines
             end)
           r
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close lfd;
    pid

let stall_selftest opts =
  (try Unix.mkdir tmp_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Filename.concat tmp_dir (Printf.sprintf "stub_%d.sock" (Unix.getpid ())) in
  let stall_s = 0.2 and rate = 500.0 and seconds = 3.0 in
  let pid = stub_server ~sock ~stall_after:500 ~stall_s in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Unix.unlink sock with Unix.Unix_error _ -> ())
    (fun () ->
      let sched =
        arrivals (rng opts 30) ~rate ~seconds
        |> List.mapi (fun k due ->
               { rid = k + 1; cls = Read; conn = k mod 2; due; goal = "stub";
                 expected = digest_strings []; sent = 0.0; retry_at = 0.0; refusals = 0 })
      in
      let o = generate ~sock ~nconns:2 (Array.of_list sched) in
      let lat = List.map snd o.lat_ms in
      let p50 = pct lat 0.5 and p99 = pct lat 0.99 in
      Printf.printf
        "stall self-test: %d requests, %.0f ms stall: p50 %.2f ms, p99 %.2f ms, \
         generator late p99 %.2f ms, failed %d\n"
        (List.length lat) (stall_s *. 1e3) p50 p99 (pct o.late_ms 0.99) o.failed;
      o.failed = 0 && p99 >= stall_s *. 1e3 /. 2.0)
