(* The benchmark's entry point: one workload per invocation.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --serve-exe PATH [--domains 2] [--tiny]
               [--corrupt] [--setup-only]

   The last line of standard output is the JSON result; the validity
   record (host, domains, seed, generator lateness) goes to standard
   error.  Exits 2 on bad arguments or when a par workload asks for more
   domains than the host has cores.  [--workload stall_selftest] runs the
   generator's coordinated-omission self-test instead (exit 0 = pass). *)

open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload or_search|and_determinate|paper_sim|serve_mix|stall_selftest \
     --seed N --seconds S --trace 0|1 --serve-exe PATH [--domains N] \
     [--tiny] [--corrupt] [--setup-only]";
  exit 2

let parse_args () =
  let opts =
    ref
      { workload = ""; seed = 0; seconds = 10.0; trace = false; tiny = false;
        domains = 2; serve_exe = ""; corrupt = false;
        setup_only = false }
  in
  let rec go = function
    | "--workload" :: w :: rest -> opts := { !opts with workload = w }; go rest
    | "--seed" :: n :: rest -> opts := { !opts with seed = int_of_string n }; go rest
    | "--seconds" :: s :: rest ->
      opts := { !opts with seconds = float_of_string s }; go rest
    | "--trace" :: t :: rest -> opts := { !opts with trace = t = "1" }; go rest
    | "--domains" :: n :: rest ->
      opts := { !opts with domains = int_of_string n }; go rest
    | "--serve-exe" :: p :: rest -> opts := { !opts with serve_exe = p }; go rest
    | "--tiny" :: rest -> opts := { !opts with tiny = true }; go rest
    | "--corrupt" :: rest -> opts := { !opts with corrupt = true }; go rest
    | "--setup-only" :: rest -> opts := { !opts with setup_only = true }; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !opts

let () =
  let opts = parse_args () in
  (* a set-up child prints its one cold set-up time and nothing else *)
  if opts.setup_only then begin
    (match opts.workload with
    | "or_search" | "and_determinate" -> Printf.printf "%.17g\n" (Batch.setup_only opts)
    | "paper_sim" -> Printf.printf "%.17g\n" (Papersim.setup_only opts)
    | _ -> usage ());
    exit 0
  end;
  (* a run stopped early still exits through at_exit, which stops the
     serve_mix server process *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint ];
  let cores = nproc () in
  let par = opts.workload = "or_search" || opts.workload = "and_determinate" in
  let res = result () in
  note res "workload" (Json.Str opts.workload);
  note res "seed" (Json.int opts.seed);
  note res "nproc" (Json.int cores);
  let domains = if par then opts.domains else 1 in
  note res "domains" (Json.int domains);
  note res "scaling_valid" (Json.Bool (domains <= cores));
  note res "ocaml" (Json.Str Sys.ocaml_version);
  note res "trace" (Json.Bool opts.trace);
  if domains > cores then begin
    Printf.eprintf "%s asks for %d domains but the host has %d core(s)\n"
      opts.workload opts.domains cores;
    exit 2
  end;
  let steal0, total0 = host_ticks () in
  (match opts.workload with
  | "or_search" | "and_determinate" -> Batch.run opts res
  | "paper_sim" -> Papersim.run opts res
  | "serve_mix" -> Serve.run opts res
  | "stall_selftest" -> exit (if Serve.stall_selftest opts then 0 else 1)
  | _ -> usage ());
  let steal1, total1 = host_ticks () in
  note res "host_steal_share"
    (Json.Num (float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))));
  print_result opts res
