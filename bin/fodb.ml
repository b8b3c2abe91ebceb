(* fodb — command-line front end for the nowhere-enum library.

   Graphs come either from a generator spec ("grid:30x30", "tree:1000",
   "bdeg:5000:4", …) or from an edge-list file (one "u v" pair per
   line, optional "c <color> <vertex>" lines).  Queries use the FO⁺
   surface syntax of Nd_logic.Parse.  All query subcommands run through
   the Nd_engine façade; --stats / --stats-json report its cost-model
   instrumentation.

   Examples:
     fodb enumerate -g grid:20x20 -q "dist(x,y) <= 2" --limit 10
     fodb enumerate -g grid:30x30 -q "dist(x,y) <= 2" --stats-json
     fodb test      -g tree:500   -q "E(x,y)" --tuple 3,4
     fodb count     -g bdeg:2000:4 -q "C0(x) & dist(x,y) > 2" --colors 2
     fodb cover     -g grid:50x50 -r 2
     fodb splitter  -g clique:30 -r 1
     fodb stats     -g subdiv:8 *)

open Cmdliner
open Nd_graph

(* ---------------- graph loading ---------------- *)

let load_file path =
  let ic = open_in path in
  let edges = ref [] and colors = ref [] and maxv = ref (-1) in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line with
         | [ "c"; col; v ] ->
             let v = int_of_string v in
             maxv := max !maxv v;
             colors := (int_of_string col, v) :: !colors
         | [ u; v ] ->
             let u = int_of_string u and v = int_of_string v in
             maxv := max !maxv (max u v);
             edges := (u, v) :: !edges
         | _ -> failwith ("bad line: " ^ line)
     done
   with End_of_file -> close_in ic);
  let n = !maxv + 1 in
  let ncolors =
    List.fold_left (fun acc (c, _) -> max acc (c + 1)) 0 !colors
  in
  let sets = Array.init ncolors (fun _ -> Nd_util.Bitset.create n) in
  List.iter (fun (c, v) -> Nd_util.Bitset.add sets.(c) v) !colors;
  Cgraph.create ~n ~colors:sets !edges

let load spec ~colors ~seed =
  let g =
    if Sys.file_exists spec then load_file spec else Gen.of_spec ~seed:1 spec
  in
  if colors > 0 && Cgraph.color_count g = 0 then
    Gen.randomly_color ~seed ~colors g
  else g

(* a mutation journal: one wire-syntax mutation per line, '#' comments *)
let read_mutations path =
  let ic =
    try open_in path
    with Sys_error m -> raise (Nd_error.User_error ("mutation journal: " ^ m))
  in
  let muts = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         muts := Cgraph.mutation_of_string line :: !muts
     done
   with End_of_file -> close_in ic);
  List.rev !muts

(* ---------------- common options ---------------- *)

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"SPEC" ~doc:"Graph spec or edge-list file.")

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"FO⁺ query.")

let colors_arg =
  Arg.(
    value & opt int 3
    & info [ "colors" ]
        ~doc:"Random colors to add when the graph has none (default 3).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed for coloring.")

let radius_arg =
  Arg.(value & opt int 2 & info [ "r"; "radius" ] ~doc:"Radius parameter.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Enable cost-model instrumentation and print a human-readable \
           report (phase timings, operation counters, delay histograms).")

let stats_json_arg =
  Arg.(
    value & flag
    & info [ "stats-json" ]
        ~doc:"Like $(b,--stats) but emit a single-line JSON object.")

let prometheus_arg =
  Arg.(
    value & flag
    & info [ "prometheus" ]
        ~doc:
          "Enable cost-model instrumentation and print the whole metrics \
           registry in the Prometheus text exposition format (suppresses the \
           human-readable output).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans (preprocessing phases, per-answer next calls, store \
           updates) and write a Chrome trace-event JSON file loadable in \
           Perfetto or chrome://tracing.")

let budget_ops_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-ops" ] ~docv:"N"
        ~doc:
          "Cost-model operation budget.  Preprocessing that exhausts it \
           degrades to an exact naive-evaluation handle; answering that \
           exhausts it aborts with exit code 3.")

let timeout_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"N"
        ~doc:
          "Wall-clock budget in milliseconds, with the same degradation \
           and exit semantics as $(b,--budget-ops).")

let mutations_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutations" ] ~docv:"FILE"
        ~doc:
          "Mutation journal (one $(b,add-edge U V) / $(b,remove-edge U V) / \
           $(b,set-color C V on|off) per line, $(b,#) comments) absorbed \
           through the incremental update pipeline after preparing — the \
           command then answers over the mutated graph without a \
           re-prepare.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains to fan the preprocessing bag-jobs over ($(b,0), the \
           default, auto-detects the machine's core count).  Parallelism \
           never changes results: the prepared structure, its answers, its \
           cost-model ops counters and its snapshot bytes are identical \
           for every N — only wall time varies.")

let resolve_jobs jobs =
  if jobs < 0 then
    invalid_arg "--jobs must be >= 0 (0 auto-detects the core count)"
  else if jobs = 0 then Domain.recommended_domain_count ()
  else jobs

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Structured exit codes (documented in every subcommand's man page):
   2 — user error (unknown graph spec, unparsable query, malformed
       tuple, arity mismatch, out-of-range vertex);
   3 — a resource budget was exhausted;
   4 — an internal invariant violation (paranoid-mode disagreement,
       store corruption).  Plain messages, never cmdliner's
       internal-error banner. *)
let run f =
  let fail code msg =
    flush stdout;
    prerr_endline ("fodb: " ^ msg);
    exit code
  in
  try f () with
  | Invalid_argument msg | Failure msg | Nd_error.User_error msg ->
      fail 2 msg
  | Nd_logic.Parse.Syntax_error msg ->
      fail 2 ("syntax error in query: " ^ msg)
  | Nd_error.Budget_exceeded info ->
      fail 3 ("budget exceeded: " ^ Nd_error.describe_budget info)
  | Nd_error.Internal_invariant msg ->
      fail 4 ("internal invariant violation: " ^ msg)

(* Build the engine handle; every query subcommand funnels through
   here.  Returns the handle plus an [emit] closure printing the
   requested stats report after the command body ran. *)
let with_engine spec query colors seed stats stats_json prometheus
    trace budget_ops timeout_ms mutations jobs f =
 run @@ fun () ->
  let g = load spec ~colors ~seed in
  let phi = Nd_logic.Parse.formula query in
  let jobs = resolve_jobs jobs in
  let metrics = stats || stats_json || prometheus in
  if metrics then Nd_engine.reset_metrics ();
  (match trace with Some _ -> Nd_trace.enable () | None -> ());
  let budget =
    if budget_ops = None && timeout_ms = None then None
    else Some (Nd_util.Budget.create ?max_ops:budget_ops ?timeout_ms ())
  in
  let eng, prep =
    time (fun () -> Nd_engine.prepare ~metrics ?budget ~jobs g phi)
  in
  if not (stats_json || prometheus) then begin
    Printf.printf "graph: %d vertices, %d edges, %d colors\n" (Cgraph.n g)
      (Cgraph.m g) (Cgraph.color_count g);
    Printf.printf "query: %s (arity %d, %s)\n"
      (Nd_logic.Fo.to_string phi)
      (Nd_engine.arity eng)
      (if Nd_engine.compiled eng then "compiled"
       else if Nd_engine.degraded eng then "degraded"
       else "fallback");
    (match Nd_engine.degradation eng with
    | `Fallback reason -> Printf.printf "degraded: %s\n" reason
    | `Stale_rebuild reason -> Printf.printf "stale rebuild: %s\n" reason
    | `None -> ());
    Printf.printf "preprocessing: %.3fs\n" prep
  end;
  (match mutations with
  | None -> ()
  | Some path ->
      let muts = read_mutations path in
      let (), t = time (fun () -> Nd_engine.update_batch eng muts) in
      if not (stats_json || prometheus) then
        Printf.printf "updates: %d absorbed in %.3fs (epoch %d%s)\n"
          (List.length muts) t (Nd_engine.epoch eng)
          (match Nd_engine.degradation eng with
          | `None -> ""
          | `Stale_rebuild _ -> ", stale rebuild"
          | `Fallback _ -> ", fallback"));
  let emit () =
    if stats_json then
      print_endline (Nd_engine.Stats.to_json (Nd_engine.stats eng))
    else if stats then
      Format.printf "%a" Nd_engine.Stats.pp (Nd_engine.stats eng);
    if prometheus then print_string (Nd_trace.Prometheus.render_current ());
    (* the trace flushes on abnormal exits too: the spans recorded up to
       the failure are the post-mortem *)
    match trace with
    | Some path -> ignore (Nd_trace.save_chrome ~path)
    | None -> ()
  in
  (* The same budget that governed preprocessing governs the command
     body: if preprocessing already exhausted it, the degraded handle is
     reported (stats record and all) and the first answering probe
     aborts with exit 3. *)
  let body () =
    match budget with
    | None -> f eng
    | Some b ->
        Nd_util.Budget.with_installed b (fun () ->
            Nd_util.Budget.enter "answer";
            f eng)
  in
  match body () with
  | () -> emit ()
  | exception e ->
      (* stats first, on every abnormal exit (user error, budget, or
         internal invariant alike — the record is the post-mortem),
         then the diagnostic and exit code, via [run]. *)
      emit ();
      raise e

(* ---------------- subcommands ---------------- *)

let enumerate spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs limit =
  with_engine spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs (fun eng ->
      let quiet = stats_json || prometheus in
      let printed = ref 0 in
      let _, t =
        time (fun () ->
            Nd_engine.enumerate ?limit
              (fun sol ->
                incr printed;
                if not quiet then
                  print_endline (Nd_util.Tuple.to_string sol))
              eng)
      in
      if not quiet then
        Printf.printf "%d solutions in %.3fs\n" !printed t)

let count spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs =
  with_engine spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs (fun eng ->
      let r, t = time (fun () -> Nd_engine.count eng) in
      if not (stats_json || prometheus) then
        Printf.printf "count: %d (%.3fs, %s)\n" r.Nd_core.Count.count t
          (match r.Nd_core.Count.method_ with
          | Nd_core.Count.Exact_pseudolinear -> "pseudo-linear counting"
          | Nd_core.Count.Via_enumeration -> "via enumeration"))

let parse_tuple tuple =
  Array.of_list
    (List.map
       (fun s ->
         match int_of_string_opt (String.trim s) with
         | Some v -> v
         | None ->
             invalid_arg
               (Printf.sprintf "bad tuple %S (expected comma-separated ints)"
                  tuple))
       (String.split_on_char ',' tuple))

let test spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs tuple =
  with_engine spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs (fun eng ->
      let tup = parse_tuple tuple in
      let ans, t = time (fun () -> Nd_engine.test eng tup) in
      if not (stats_json || prometheus) then
        Printf.printf "%s ∈ q(G): %b  (%.6fs)\n"
          (Nd_util.Tuple.to_string tup) ans t)

let next spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs tuple =
  with_engine spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs (fun eng ->
      let tup = parse_tuple tuple in
      let ans, t = time (fun () -> Nd_engine.next eng tup) in
      if not (stats_json || prometheus) then
        match ans with
        | Some s ->
            Printf.printf "smallest solution ≥ %s: %s  (%.6fs)\n"
              (Nd_util.Tuple.to_string tup) (Nd_util.Tuple.to_string s) t
        | None ->
            Printf.printf "no solution ≥ %s\n" (Nd_util.Tuple.to_string tup))

(* absorb mutations one at a time (per-mutation timing and epoch), then
   enumerate over the final graph — the demonstration that answers track
   mutations without a re-prepare *)
let update spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs mut_strs limit =
  with_engine spec query colors seed stats stats_json prometheus trace
    budget_ops timeout_ms mutations jobs (fun eng ->
      let quiet = stats_json || prometheus in
      let muts = List.map Cgraph.mutation_of_string mut_strs in
      List.iter
        (fun m ->
          let (), t = time (fun () -> Nd_engine.update eng m) in
          if not quiet then
            Printf.printf "applied %s in %.6fs (epoch %d%s)\n"
              (Cgraph.mutation_to_string m)
              t (Nd_engine.epoch eng)
              (match Nd_engine.degradation eng with
              | `None -> ""
              | `Stale_rebuild _ -> ", stale rebuild"
              | `Fallback _ -> ", fallback"))
        muts;
      let printed = ref 0 in
      let _, t =
        time (fun () ->
            Nd_engine.enumerate ?limit
              (fun sol ->
                incr printed;
                if not quiet then
                  print_endline (Nd_util.Tuple.to_string sol))
              eng)
      in
      if not quiet then
        Printf.printf "%d solutions in %.3fs at epoch %d\n" !printed t
          (Nd_engine.epoch eng))

let cover spec colors seed r =
 run @@ fun () ->
  let g = load spec ~colors ~seed in
  let rep, t = time (fun () -> Nd_engine.Inspect.cover g ~r) in
  Printf.printf
    "(%d,%d)-neighborhood cover of %d vertices: %d bags, degree %d, Σ|X| = %d \
     (%.3fs)\n"
    r (2 * r) (Cgraph.n g) rep.Nd_engine.Inspect.bags
    rep.Nd_engine.Inspect.degree rep.Nd_engine.Inspect.weight t;
  match rep.Nd_engine.Inspect.verified with
  | Ok () -> print_endline "cover properties verified"
  | Error e -> Printf.printf "INVALID COVER: %s\n" e

let splitter spec colors seed r =
 run @@ fun () ->
  let g = load spec ~colors ~seed in
  Printf.printf "(λ,%d)-splitter game on %d vertices: " r (Cgraph.n g);
  match Nd_engine.Inspect.splitter_rounds ~max_rounds:64 g ~r with
  | Some l -> Printf.printf "Splitter wins in %d rounds\n" l
  | None -> print_endline "Splitter does not win within 64 rounds"

let stats spec colors seed prometheus =
 run @@ fun () ->
  if prometheus then begin
    Nd_util.Metrics.reset ();
    Nd_util.Metrics.enable ()
  end;
  let g = load spec ~colors ~seed in
  let rep = Nd_engine.Inspect.graph_stats g in
  if prometheus then print_string (Nd_trace.Prometheus.render_current ())
  else begin
    Printf.printf "vertices: %d\nedges: %d\ncolors: %d\n"
      rep.Nd_engine.Inspect.gn rep.Nd_engine.Inspect.gm
      rep.Nd_engine.Inspect.gcolors;
    if rep.Nd_engine.Inspect.gn > 0 then
      Printf.printf "degree: max %d, median %d\n"
        rep.Nd_engine.Inspect.degree_max rep.Nd_engine.Inspect.degree_median;
    List.iter
      (fun (r, p) ->
        Printf.printf "weak %d-accessibility: max %d, mean %.2f\n" r
          p.Nd_nowhere.Wcol.max p.Nd_nowhere.Wcol.mean)
      rep.Nd_engine.Inspect.wcol
  end

(* ---------------- profile ---------------- *)

let profile spec sizes query colors seed limit tolerance json =
 run @@ fun () ->
  let sizes =
    List.map
      (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some n when n > 0 -> n
        | _ -> invalid_arg (Printf.sprintf "profile: bad size %S" s))
      (String.split_on_char ',' sizes)
  in
  let r =
    Nd_profile.run ~query ~colors ~seed ?limit ~tolerance ~spec ~sizes ()
  in
  if json then print_endline (Nd_profile.to_json r) else Nd_profile.print r;
  (* a regression of the constant-delay contract is an error exit, so CI
     can gate on the command alone *)
  if not r.Nd_profile.delay_invariant then exit 1

(* ---------------- snapshot persistence ---------------- *)

let make_budget budget_ops timeout_ms =
  if budget_ops = None && timeout_ms = None then None
  else Some (Nd_util.Budget.create ?max_ops:budget_ops ?timeout_ms ())

let snapshot_save spec query colors seed budget_ops timeout_ms warm
    mutations jobs file =
 run @@ fun () ->
  let g = load spec ~colors ~seed in
  let phi = Nd_logic.Parse.formula query in
  let budget = make_budget budget_ops timeout_ms in
  let jobs = resolve_jobs jobs in
  let eng, prep =
    time (fun () -> Nd_engine.prepare ?budget ~jobs g phi)
  in
  (* mutations first, warm after: the snapshot carries the mutated
     graph's epoch and a cache consistent with it *)
  (match mutations with
  | None -> ()
  | Some path -> Nd_engine.update_batch eng (read_mutations path));
  if warm > 0 then
    Nd_trace.with_span "engine.cache_warm" (fun () ->
        Nd_engine.enumerate ~limit:warm (fun _ -> ()) eng);
  let bytes, t = time (fun () -> Nd_snapshot.save ~path:file eng) in
  Printf.printf
    "snapshot: %d bytes to %s (prepare %.3fs, save %.3fs, %d cached \
     solutions, epoch %d)\n"
    bytes file prep t
    (Nd_engine.cache_size eng)
    (Nd_engine.epoch eng)

let snapshot_load spec query colors seed strict cold mutations journal
    file =
 run @@ fun () ->
  let g = load spec ~colors ~seed in
  (* --mutations folds into the *presented* graph before verification
     (how CI provokes Stale_epoch with a mutate-and-revert pair);
     --journal replays through the loaded handle after verification *)
  let g =
    match mutations with
    | None -> g
    | Some path -> List.fold_left Cgraph.apply g (read_mutations path)
  in
  let journal =
    match journal with None -> [] | Some path -> read_mutations path
  in
  let phi = Nd_logic.Parse.formula query in
  let warm = not cold in
  let eng, t =
    if strict then
      match time (fun () -> Nd_snapshot.load_routed ~warm ~path:file g phi) with
      | Ok (eng, route), t ->
          List.iter (fun m -> Nd_engine.update eng m) journal;
          Printf.printf "loaded %s in %.3fs (%s)\n" file t
            (Nd_snapshot.describe_route route);
          (eng, t)
      | Error c, _ ->
          Nd_error.user_errorf "snapshot rejected: %s" (Nd_snapshot.describe c)
    else
      let (eng, outcome), t =
        time (fun () ->
            Nd_snapshot.load_or_rebuild ~warm ~journal ~path:file g
              phi)
      in
      (match outcome with
      | Nd_snapshot.Loaded -> Printf.printf "loaded %s in %.3fs\n" file t
      | Nd_snapshot.Rebuilt c ->
          Printf.printf "snapshot rejected (%s); rebuilt in %.3fs\n"
            (Nd_snapshot.describe c) t);
      (eng, t)
  in
  ignore t;
  Printf.printf "cache: %d solutions%s (epoch %d)\n"
    (Nd_engine.cache_size eng)
    (if Nd_engine.cache_complete eng then " (complete)" else "")
    (Nd_engine.epoch eng);
  match Nd_engine.first eng with
  | Some s -> Printf.printf "first solution: %s\n" (Nd_util.Tuple.to_string s)
  | None -> print_endline "no solutions"

let snapshot_info file =
 run @@ fun () ->
  match Nd_snapshot.info ~path:file with
  | Error c ->
      Nd_error.user_errorf "%s: %s" file (Nd_snapshot.describe c)
  | Ok i ->
      Printf.printf "format version: %d (built by OCaml %s)\n"
        i.Nd_snapshot.version i.Nd_snapshot.ocaml_version;
      Printf.printf "warm store: %s\n" (Nd_snapshot.describe_warm i);
      Printf.printf "query: %s (arity %d, hash %08x)\n" i.Nd_snapshot.query
        i.Nd_snapshot.arity i.Nd_snapshot.query_hash;
      Printf.printf "graph: %d vertices, %d edges, %d colors (fingerprint \
                     %08x)\n"
        i.Nd_snapshot.graph_n i.Nd_snapshot.graph_m i.Nd_snapshot.graph_colors
        i.Nd_snapshot.graph_fingerprint;
      Printf.printf "cached solutions: %d\n" i.Nd_snapshot.cached_solutions;
      List.iter
        (fun s ->
          Printf.printf "section %s: %d bytes at offset %d, crc %08x\n"
            s.Nd_snapshot.tag s.Nd_snapshot.len s.Nd_snapshot.off
            s.Nd_snapshot.crc)
        i.Nd_snapshot.sections

(* ---------------- serve ---------------- *)

(* One worker lifetime: prepare (or revive + replay the journal),
   serve until quit/EOF/signal, report.  Under --supervise this runs in
   a forked child; the fork happens before this function, because it
   spawns domains (--jobs) and OCaml 5 forbids forking after the first
   Domain.spawn. *)
(* black-box naming: one flight file per worker, derived from the
   socket path so shards x replicas sharing one --blackbox DIR cannot
   collide *)
let worker_name socket =
  match socket with
  | Some p -> Filename.remove_extension (Filename.basename p)
  | None -> "worker"

let ensure_dir d =
  try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let flight_path dir name = Filename.concat dir (name ^ ".flight.jsonl")

(* SIGINT/SIGTERM ask the serving loop to stop gracefully: in-flight
   replies finish, connections get [bye], then the loop returns *)
let stop_on_signals stop =
  try
    let h = Sys.Signal_handle (fun _ -> stop ()) in
    Sys.set_signal Sys.sigint h;
    Sys.set_signal Sys.sigterm h
  with Invalid_argument _ | Sys_error _ -> ()

let serve_worker spec query colors seed snapshot_file socket backlog
    request_budget_ops request_timeout_ms max_enumerate chaos event_log_file
    no_metrics trace jobs max_inflight max_conns io_timeout_ms idle_timeout_ms
    max_line_bytes retry_after_ms journal_file blackbox shard_index shard_count
    =
  (* metrics default ON in serve so the `metrics` scrape verb has
     something to report over a long session *)
  if not no_metrics then Nd_util.Metrics.enable ();
  (match trace with Some _ -> Nd_trace.enable () | None -> ());
  let g = load spec ~colors ~seed in
  let phi = Nd_logic.Parse.formula query in
  (* cluster mode: the ownership map comes from the BOOT graph — before
     journal replay or any mutation — so every worker and the router
     derive the identical partition no matter when they (re)started *)
  let ownership =
    if shard_count <= 1 then None
    else begin
      if shard_index < 0 || shard_index >= shard_count then
        Nd_error.user_errorf "serve: --shard-index %d out of range for \
                              --shard-count %d" shard_index shard_count;
      let own = Nd_cluster.Ownership.compute g ~shards:shard_count in
      Printf.eprintf "fodb serve: shard %d/%d\n%!" shard_index shard_count;
      Some (Nd_cluster.Ownership.for_shard own ~shard:shard_index)
    end
  in
  (* the recovery journal: every mutation applied in a previous worker
     lifetime, replayed before serving so a restarted (or kill -9'd)
     worker resumes at the pre-crash epoch *)
  let journal_muts =
    match journal_file with
    | Some path when Sys.file_exists path -> read_mutations path
    | _ -> []
  in
  (* diagnostics go to stderr; stdout carries only protocol replies *)
  let eng =
    match snapshot_file with
    | Some path ->
        let eng, outcome =
          Nd_snapshot.load_or_rebuild
            ?journal:(if journal_muts = [] then None else Some journal_muts)
            ~path g phi
        in
        (match outcome with
        | Nd_snapshot.Loaded ->
            Printf.eprintf "fodb serve: loaded snapshot %s\n%!" path
        | Nd_snapshot.Rebuilt c ->
            Printf.eprintf "fodb serve: snapshot rejected (%s); rebuilt\n%!"
              (Nd_snapshot.describe c));
        eng
    | None ->
        let eng = Nd_engine.prepare ~jobs:(resolve_jobs jobs) g phi in
        if journal_muts <> [] then Nd_engine.update_batch eng journal_muts;
        eng
  in
  if journal_muts <> [] then
    Printf.eprintf "fodb serve: replayed %d journal mutations (epoch %d)\n%!"
      (List.length journal_muts) (Nd_engine.epoch eng);
  let event_log_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      event_log_file
  in
  let event_log =
    Option.map
      (fun oc line ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
      event_log_oc
  in
  (* the journal is append-only and flushed per mutation: a crash right
     after an update still finds the mutation on disk at replay time *)
  let journal_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      journal_file
  in
  let journal =
    Option.map
      (fun oc line ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
      journal_oc
  in
  let flight_rec =
    Option.map
      (fun dir ->
        ensure_dir dir;
        Nd_obs.Flight.create ~path:(flight_path dir (worker_name socket)) ())
      blackbox
  in
  (* the (boot) row pins the post-replay epoch: a supervisor's
     post-mortem matches the previous incarnation's last recorded
     epoch against it *)
  Option.iter
    (fun fl ->
      Nd_obs.Flight.record fl
        (Printf.sprintf
           "{\"ts_us\":%d,\"rid\":0,\"span\":0,\"cmd\":\"(boot)\",\"status\":\"ok\",\"epoch\":%d,\"latency_us\":0,\"lines\":0}"
           (Nd_obs.now_us ()) (Nd_engine.epoch eng)))
    flight_rec;
  let config =
    {
      Nd_server.request_budget_ops;
      request_timeout_ms;
      max_enumerate;
      chaos;
      event_log;
      max_inflight;
      max_conns;
      io_timeout_ms;
      idle_timeout_ms;
      max_line_bytes;
      retry_after_ms;
      journal;
      ownership;
      owner = None;
      flight = Option.map (fun fl line -> Nd_obs.Flight.record fl line) flight_rec;
    }
  in
  let srv = Nd_server.create ~config eng in
  stop_on_signals (fun () -> Nd_server.request_stop srv);
  (match socket with
  | Some path -> Nd_server.serve_socket ~backlog srv ~path
  | None -> Nd_server.serve srv stdin stdout);
  Option.iter close_out_noerr event_log_oc;
  Option.iter close_out_noerr journal_oc;
  Option.iter Nd_obs.Flight.close flight_rec;
  (match trace with
  | Some path ->
      let n = Nd_trace.save_chrome ~path in
      Printf.eprintf "fodb serve: wrote %d spans to %s\n%!" n path
  | None -> ());
  let c = Nd_server.counts srv in
  Printf.eprintf
    "fodb serve: %d requests (%d ok, %d user, %d budget, %d internal)\n%!"
    c.Nd_server.requests c.Nd_server.ok c.Nd_server.user_errors
    c.Nd_server.budget_errors c.Nd_server.internal_errors;
  if c.Nd_server.overloaded > 0 || c.Nd_server.shutting_down > 0 then
    Printf.eprintf "fodb serve: shed %d (overloaded), refused %d \
                    (shutting-down)\n%!"
      c.Nd_server.overloaded c.Nd_server.shutting_down

let serve spec query colors seed snapshot_file socket backlog
    request_budget_ops request_timeout_ms max_enumerate chaos event_log_file
    no_metrics trace jobs max_inflight max_conns io_timeout_ms idle_timeout_ms
    max_line_bytes retry_after_ms journal_file blackbox shard_index shard_count
    supervise max_crashes restart_backoff_ms restart_window_ms =
 run @@ fun () ->
  let worker () =
    serve_worker spec query colors seed snapshot_file socket backlog
      request_budget_ops request_timeout_ms max_enumerate chaos event_log_file
      no_metrics trace jobs max_inflight max_conns io_timeout_ms
      idle_timeout_ms max_line_bytes retry_after_ms journal_file blackbox
      shard_index shard_count
  in
  if not supervise then worker ()
  else begin
    (* The supervising parent never prepares an engine (never spawns a
       domain), so forking workers stays legal for its whole lifetime.
       Each worker re-derives its state from snapshot + journal, which
       is exactly the crash-recovery path. *)
    let module Sup = Nd_server.Supervisor in
    let child = ref None in
    (* a stop signal can land during the restart backoff, when there is
       no worker to forward to; remember it and pass it to the next
       spawn, or the supervisor would restart into a fleet that is
       shutting down and wait on that worker forever *)
    let stopping = ref false in
    let forward signal =
      stopping := true;
      match !child with
      | Some pid -> ( try Unix.kill pid signal with Unix.Unix_error _ -> ())
      | None -> ()
    in
    (try
       Sys.set_signal Sys.sigint
         (Sys.Signal_handle (fun _ -> forward Sys.sigint));
       Sys.set_signal Sys.sigterm
         (Sys.Signal_handle (fun _ -> forward Sys.sigterm))
     with Invalid_argument _ | Sys_error _ -> ());
    let spawn () =
      match Unix.fork () with
      | 0 -> (
          (* the worker: run one serve lifetime, fold failures into the
             exit code the supervisor classifies *)
          try
            worker ();
            exit 0
          with e ->
            Printf.eprintf "fodb serve: worker failed: %s\n%!"
              (Printexc.to_string e);
            exit 1)
      | pid ->
          child := Some pid;
          if !stopping then (
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          Printf.eprintf "fodb serve: supervisor: worker pid=%d\n%!" pid;
          pid
    in
    let wait pid =
      let rec w () =
        match Unix.waitpid [] pid with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> w ()
        | _, Unix.WEXITED c -> Sup.Exited c
        | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Sup.Signaled s
      in
      let o = w () in
      child := None;
      o
    in
    let policy =
      {
        Sup.backoff = Nd_util.Backoff.schedule ~max_ms:5_000 restart_backoff_ms;
        max_crashes;
        window_ms = restart_window_ms;
      }
    in
    let log m = Printf.eprintf "fodb serve: supervisor: %s\n%!" m in
    (* crash harvest: between the wait and the restart sleep neither
       incarnation can touch the flight file, so reading + truncating
       it here is race-free *)
    let pm_count = ref 0 in
    let on_crash outcome d =
      Option.iter
        (fun dir ->
          let name = worker_name socket in
          let src = flight_path dir name in
          let events =
            Nd_obs.Flight.harvest ~src
              ~capacity:Nd_obs.Flight.default_capacity
          in
          incr pm_count;
          let path =
            Filename.concat dir
              (Printf.sprintf "%s.postmortem-%d.jsonl" name !pm_count)
          in
          Nd_obs.Flight.write_postmortem ~path
            ~cause:(Sup.describe_outcome outcome)
            ~decision:
              (match d with
              | Sup.Restart_after_ms ms -> Printf.sprintf "restart in %dms" ms
              | Sup.Give_up r -> "give up: " ^ r)
            ~last_epoch:(Nd_obs.Flight.last_epoch events)
            ~events;
          Nd_obs.Flight.truncate src;
          log
            (Printf.sprintf "post-mortem %s (%d events)" path
               (List.length events)))
        blackbox
    in
    match Sup.run ~policy ~log ~on_crash ~spawn ~wait () with
    | Ok () -> ()
    | Error reason ->
        Printf.eprintf "fodb serve: supervisor: circuit breaker open: %s\n%!"
          reason;
        exit 1
  end

(* ---------------- chaos-proxy ---------------- *)

(* The socket-level member of the fault-injection family: a
   deterministic adversary between a real client and a real server.
   Runs until SIGINT/SIGTERM. *)
let chaos_proxy listen upstream chunk delay_ms garbage cut_after
    cut_reply_after =
 run @@ fun () ->
  let profile =
    {
      Nd_ram.Chaos.Net.chunk = Option.value ~default:max_int chunk;
      delay_ms;
      garbage;
      cut_after;
      cut_reply_after;
    }
  in
  let proxy = Nd_ram.Chaos.Net.start profile ~listen ~upstream in
  Printf.eprintf "fodb chaos-proxy: %s -> %s\n%!" listen upstream;
  let stop = ref false in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
     Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
   with Invalid_argument _ | Sys_error _ -> ());
  while not !stop do
    (* the stop signal interrupts the nap — that is its job, not an error *)
    try ignore (Unix.select [] [] [] 0.2)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let n = Nd_ram.Chaos.Net.connections proxy in
  Nd_ram.Chaos.Net.stop proxy;
  Printf.eprintf "fodb chaos-proxy: %d connections proxied\n%!" n

(* ---------------- client ---------------- *)

(* The CI-facing counterpart of serve --socket: connect, send request
   lines (positional args, else stdin), print every reply line.  Budget
   errors retry through Nd_server.Client.call's backoff policy; a [bye]
   terminator (quit, or a server-side stop) ends the session. *)
let client socket requests =
 run @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (e, _, _) ->
     Nd_error.user_errorf "client: connect %s: %s" socket
       (Unix.error_message e));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let transport = Nd_server.Client.channel_transport ic oc in
  let send line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else
      let r = Nd_server.Client.call transport line in
      List.iter print_endline r.Nd_server.Client.reply;
      flush stdout;
      match r.Nd_server.Client.status with
      | Nd_server.Client.Closed -> raise Exit
      | _ -> ()
  in
  (try
     match requests with
     | _ :: _ -> List.iter send requests
     | [] -> (
         try
           while true do
             send (input_line stdin)
           done
         with End_of_file -> ())
   with Exit -> ());
  close_in_noerr ic

(* ---------------- router ---------------- *)

(* "S:X" — a shard id plus a payload (socket path, replica index). *)
let parse_shard_colon what s =
  match String.index_opt s ':' with
  | Some i -> (
      match int_of_string_opt (String.sub s 0 i) with
      | Some sh when sh >= 0 ->
          (sh, String.sub s (i + 1) (String.length s - i - 1))
      | _ -> Nd_error.user_errorf "%s: bad shard id in %S" what s)
  | None -> Nd_error.user_errorf "%s: expected SHARD:..., got %S" what s

let parse_replica_pair what s =
  let sh, rest = parse_shard_colon what s in
  match int_of_string_opt rest with
  | Some r when r >= 0 -> (sh, r)
  | _ -> Nd_error.user_errorf "%s: bad replica index in %S" what s

(* event-log plumbing shared by serve/router/cluster: an append-only
   JSONL sink, flushed per row *)
let event_sink file =
  let oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      file
  in
  let sink =
    Option.map
      (fun oc line ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
      oc
  in
  (sink, fun () -> Option.iter close_out_noerr oc)

let router_config ~no_fence ~probe_interval_ms ~retry_after_ms ~max_enumerate
    ~event_log =
  {
    Nd_cluster.Router.default_config with
    fence = not no_fence;
    probe_interval_ms;
    retry_after_ms;
    max_enumerate;
    event_log;
  }

let print_router_stats tag rt =
  let s = Nd_cluster.Router.stats rt in
  Printf.eprintf
    "%s: %d requests (%d ok, %d user, %d unavailable), %d failovers, %d \
     fence refusals, %d catchups, %d probes, epoch %d, %d live, %d fenced\n\
     %!"
    tag s.Nd_cluster.Router.requests s.Nd_cluster.Router.ok
    s.Nd_cluster.Router.user_errors s.Nd_cluster.Router.unavailable
    s.Nd_cluster.Router.failovers s.Nd_cluster.Router.fence_refusals
    s.Nd_cluster.Router.catchups s.Nd_cluster.Router.probes
    s.Nd_cluster.Router.fleet_epoch s.Nd_cluster.Router.live
    s.Nd_cluster.Router.fenced

(* The sidecar metrics listener: each connection receives one
   aggregated fleet scrape and is closed — curl-over-UDS semantics
   without an HTTP stack.  [fodb obs scrape] is the matching reader. *)
let metrics_listener rt ~path ~stop =
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  Thread.create
    (fun () ->
      let rec loop () =
        if !stop then ()
        else
          match Unix.select [ sock ] [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | [], _, _ -> loop ()
          | _ ->
              (match Unix.accept sock with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | fd, _ ->
                  let oc = Unix.out_channel_of_descr fd in
                  (try
                     output_string oc (Nd_cluster.Router.scrape_metrics rt);
                     flush oc
                   with Sys_error _ -> ());
                  close_out_noerr oc);
              loop ()
      in
      loop ();
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    ()

(* The router's verbs through the server's own loop: the socket
   transport returns only once every connection thread is joined *)
let serve_router rt ~socket ~backlog =
  let svc = Nd_cluster.Router.service in
  match socket with
  | Some path -> Nd_server.serve_socket_with svc ~backlog rt ~path
  | None -> Nd_server.serve_with svc rt stdin stdout

(* The fleet front-end over already-running shard workers: same line
   protocol as serve, answers reconstituted by the epoch-fenced k-way
   merge.  The ownership map is re-derived from the boot graph, which
   is why the router takes -g/-q at all. *)
let router spec query colors seed shards endpoints socket backlog
    probe_interval_ms no_fence retry_after_ms max_enumerate event_log_file
    metrics_socket trace =
 run @@ fun () ->
  if shards < 1 then Nd_error.user_errorf "router: --shards must be >= 1";
  if endpoints = [] then
    Nd_error.user_errorf "router: at least one --endpoint SHARD:PATH required";
  Nd_util.Metrics.enable ();
  (match trace with Some _ -> Nd_trace.enable () | None -> ());
  let g = load spec ~colors ~seed in
  let phi = Nd_logic.Parse.formula query in
  let arity = Nd_logic.Fo.arity phi in
  let own = Nd_cluster.Ownership.compute g ~shards in
  let eps =
    List.map
      (fun s ->
        let sh, path = parse_shard_colon "--endpoint" s in
        if sh >= shards then
          Nd_error.user_errorf "--endpoint %S: shard out of range (%d shards)"
            s shards;
        Nd_cluster.Router.socket_endpoint ~shard:sh path)
      endpoints
  in
  let event_log, close_events = event_sink event_log_file in
  let config =
    router_config ~no_fence ~probe_interval_ms ~retry_after_ms ~max_enumerate
      ~event_log
  in
  let rt = Nd_cluster.Router.create ~config ~ownership:own ~arity eps in
  stop_on_signals (fun () -> Nd_cluster.Router.request_stop rt);
  let prober = Nd_cluster.Router.start_probes rt in
  let mstop = ref false in
  let mthread =
    Option.map (fun path -> metrics_listener rt ~path ~stop:mstop)
      metrics_socket
  in
  serve_router rt ~socket ~backlog;
  Nd_cluster.Router.request_stop rt;
  Option.iter Thread.join prober;
  mstop := true;
  Option.iter Thread.join mthread;
  close_events ();
  (match trace with
  | Some path ->
      let n = Nd_trace.save_chrome ~path in
      Printf.eprintf "fodb router: wrote %d spans to %s\n%!" n path
  | None -> ());
  print_router_stats "fodb router" rt

(* ---------------- cluster ---------------- *)

(* The whole fleet in one command: snapshot the boot engine, spawn
   shards x replicas worker processes (fodb serve --shard-index ...),
   optionally interpose chaos proxies, run the router over them.  The
   parent prepares with jobs=1 — no domain is ever spawned before the
   forks, which OCaml 5 requires. *)
let cluster spec query colors seed shards replicas dir socket backlog
    supervise differential mutations kill_replica probe_interval_ms no_fence
    chaos_links chaos_chunk chaos_delay_ms chaos_garbage chaos_cut_reply_after
    event_log_file trace blackbox metrics_socket =
 run @@ fun () ->
  if trace then Nd_trace.enable ();
  if shards < 1 then Nd_error.user_errorf "cluster: --shards must be >= 1";
  if replicas < 1 then Nd_error.user_errorf "cluster: --replicas must be >= 1";
  let dir =
    let d =
      match dir with
      | Some d -> d
      | None ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "fodb-cluster-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let chaos_links =
    List.map (parse_replica_pair "--chaos-link") chaos_links
  in
  let kill_replica =
    Option.map (parse_replica_pair "--kill-replica") kill_replica
  in
  Printf.eprintf "fodb cluster: %d shards x %d replicas in %s\n%!" shards
    replicas dir;
  let g = load spec ~colors ~seed in
  let phi = Nd_logic.Parse.formula query in
  let arity = Nd_logic.Fo.arity phi in
  let own = Nd_cluster.Ownership.compute g ~shards in
  (* the boot snapshot every worker revives from (kill -9 recovery is
     exactly this snapshot plus the worker's own journal) *)
  let snap = Filename.concat dir "boot.snap" in
  let single = Nd_engine.prepare ~jobs:1 g phi in
  ignore (Nd_snapshot.save ~path:snap single);
  let sock_path s r = Filename.concat dir (Printf.sprintf "w-%d-%d.sock" s r) in
  let chaos_path s r =
    Filename.concat dir (Printf.sprintf "chaos-%d-%d.sock" s r)
  in
  let journal_path s r =
    Filename.concat dir (Printf.sprintf "w-%d-%d.journal" s r)
  in
  let log_path s r = Filename.concat dir (Printf.sprintf "w-%d-%d.log" s r) in
  let pids = ref [] in
  let proxies = ref [] in
  let spawn_worker s r =
    let log_fd =
      Unix.openfile (log_path s r)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    in
    let args =
      [
        Sys.executable_name; "serve"; "-g"; spec; "-q"; query; "--colors";
        string_of_int colors; "--seed"; string_of_int seed; "--socket"; sock_path s r;
        "--shard-index"; string_of_int s; "--shard-count";
        string_of_int shards; "--snapshot"; snap; "--journal";
        journal_path s r; "--jobs"; "1";
      ]
      @ (if supervise then [ "--supervise" ] else [])
      @ (if trace then
           [
             "--trace";
             Filename.concat dir (Printf.sprintf "w-%d-%d.trace.json" s r);
           ]
         else [])
      @ (if blackbox then [ "--blackbox"; dir ] else [])
    in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
        log_fd log_fd
    in
    Unix.close log_fd;
    pids := ((s, r), pid) :: !pids
  in
  let shutdown () =
    let signal s (_, pid) =
      try Unix.kill pid s with Unix.Unix_error _ -> ()
    in
    let reaped (_, pid) =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
      | exception Unix.Unix_error _ -> false
    in
    (* SIGTERM, then escalate: a second SIGTERM (a supervisor mid
       restart-backoff forwards nothing), finally SIGKILL *)
    List.iter (signal Sys.sigterm) !pids;
    let rec wait remaining rounds =
      let remaining = List.filter (fun p -> not (reaped p)) remaining in
      if remaining = [] then ()
      else if rounds = 100 || rounds = 200 then begin
        List.iter (signal Sys.sigterm) remaining;
        wait remaining (rounds + 1)
      end
      else if rounds >= 300 then begin
        List.iter (signal Sys.sigkill) remaining;
        List.iter
          (fun (_, pid) ->
            let rec w () =
              match Unix.waitpid [] pid with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> w ()
              | exception Unix.Unix_error _ -> ()
              | _ -> ()
            in
            w ())
          remaining
      end
      else begin
        (try ignore (Unix.select [] [] [] 0.05)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        wait remaining (rounds + 1)
      end
    in
    wait !pids 0;
    List.iter Nd_ram.Chaos.Net.stop !proxies
  in
  Fun.protect ~finally:shutdown @@ fun () ->
  for s = 0 to shards - 1 do
    for r = 0 to replicas - 1 do
      spawn_worker s r
    done
  done;
  (* workers are forked; threads (chaos pumps, probe timer) are safe
     from here on.  Wait for every worker socket before interposing
     proxies, so a proxy's lazy upstream dial cannot race a slow boot. *)
  let ready_policy =
    {
      Nd_server.Client.default_connect_policy with
      connect_retries = 600;
      connect_deadline_ms = 120_000;
    }
  in
  let wait_ready s r =
    match Nd_server.Client.connect ~policy:ready_policy (sock_path s r) with
    | Ok fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | Error m -> Nd_error.user_errorf "cluster: worker %d:%d not ready: %s" s r m
  in
  for s = 0 to shards - 1 do
    for r = 0 to replicas - 1 do
      wait_ready s r
    done
  done;
  let chaos_profile =
    {
      Nd_ram.Chaos.Net.chunk = Option.value ~default:max_int chaos_chunk;
      delay_ms = chaos_delay_ms;
      garbage = chaos_garbage;
      cut_after = None;
      cut_reply_after = chaos_cut_reply_after;
    }
  in
  List.iter
    (fun (s, r) ->
      if s >= shards || r >= replicas then
        Nd_error.user_errorf "--chaos-link %d:%d: no such replica" s r;
      proxies :=
        Nd_ram.Chaos.Net.start chaos_profile ~listen:(chaos_path s r)
          ~upstream:(sock_path s r)
        :: !proxies;
      Printf.eprintf "fodb cluster: chaos link on %d:%d\n%!" s r)
    chaos_links;
  let endpoint s r =
    let path =
      if List.mem (s, r) chaos_links then chaos_path s r else sock_path s r
    in
    let connect =
      {
        Nd_server.Client.default_connect_policy with
        connect_retries = 40;
        connect_deadline_ms = 10_000;
      }
    in
    Nd_cluster.Router.socket_endpoint ~connect ~shard:s path
  in
  let eps =
    List.concat_map
      (fun s -> List.init replicas (fun r -> endpoint s r))
      (List.init shards (fun s -> s))
  in
  let event_log, close_events = event_sink event_log_file in
  let config =
    let c =
      router_config ~no_fence ~probe_interval_ms ~retry_after_ms:100
        ~max_enumerate:(Nd_cluster.Router.default_config.max_enumerate)
        ~event_log
    in
    (* killed workers take a supervisor restart to come back: give the
       failover ladder enough passes to ride that out *)
    { c with retries = 8; backoff_ms = 100 }
  in
  let rt = Nd_cluster.Router.create ~config ~ownership:own ~arity eps in
  let prober = Nd_cluster.Router.start_probes rt in
  let mstop = ref false in
  let mthread =
    Option.map (fun path -> metrics_listener rt ~path ~stop:mstop)
      metrics_socket
  in
  let finish () =
    Nd_cluster.Router.request_stop rt;
    Option.iter Thread.join prober;
    mstop := true;
    Option.iter Thread.join mthread;
    close_events ();
    if trace then begin
      let path = Filename.concat dir "router.trace.json" in
      let n = Nd_trace.save_chrome ~path in
      Printf.eprintf "fodb cluster: wrote %d router spans to %s\n%!" n path
    end;
    print_router_stats "fodb cluster" rt
  in
  if not differential then begin
    stop_on_signals (fun () -> Nd_cluster.Router.request_stop rt);
    serve_router rt ~socket ~backlog;
    finish ()
  end
  else begin
    (* differential mode: replicate scripted mutations through the
       router, optionally kill -9 a worker after the first merged page,
       enumerate everything, and compare byte-for-byte against the
       single-node engine on the same mutated graph *)
    let n = Nd_graph.Cgraph.n g in
    let muts =
      if mutations > 0 && n < 2 then
        Nd_error.user_errorf "cluster: --mutations needs >= 2 vertices"
      else
        List.init mutations (fun i ->
            let u = 2 * i mod n in
            let v = (u + 1 + (i mod (n - 1))) mod n in
            let u, v = if u < v then (u, v) else (v, u) in
            if i mod 2 = 0 then Nd_graph.Cgraph.Add_edge (u, v)
            else Nd_graph.Cgraph.Remove_edge (u, v))
    in
    List.iter
      (fun m ->
        let wire = Nd_graph.Cgraph.mutation_to_string m in
        let reply = Nd_cluster.Router.handle rt ("update " ^ wire) in
        (match reply with
        | l :: _ when String.starts_with ~prefix:"err " l ->
            Nd_error.user_errorf "cluster: update %s refused: %s" wire l
        | _ -> ());
        Nd_engine.update single m)
      muts;
    if muts <> [] then
      Printf.eprintf "fodb cluster: replicated %d mutations (fleet epoch %d)\n%!"
        (List.length muts)
        (Nd_cluster.Router.stats rt).Nd_cluster.Router.fleet_epoch;
    let kill_worker s r =
      if s >= shards || r >= replicas then
        Nd_error.user_errorf "--kill-replica %d:%d: no such replica" s r;
      (* under --supervise the spawned pid is the supervisor; the worker
         to kill -9 announces itself in the replica's log *)
      let pid =
        if not supervise then List.assoc (s, r) !pids
        else begin
          let tag = "worker pid=" in
          let tlen = String.length tag in
          let pid_of line =
            let len = String.length line in
            let rec find i =
              if i + tlen > len then None
              else if String.sub line i tlen = tag then
                int_of_string_opt
                  (String.trim (String.sub line (i + tlen) (len - i - tlen)))
              else find (i + 1)
            in
            find 0
          in
          let last = ref None in
          let ic = open_in (log_path s r) in
          (try
             while true do
               match pid_of (input_line ic) with
               | Some p -> last := Some p
               | None -> ()
             done
           with End_of_file -> close_in ic);
          match !last with
          | Some p -> p
          | None ->
              Nd_error.user_errorf
                "cluster: no worker pid in %s (is --supervise on?)"
                (log_path s r)
        end
      in
      Printf.eprintf "fodb cluster: kill -9 replica %d:%d (pid %d)\n%!" s r
        pid;
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
    in
    (* collect every sol line through a handle, retrying unavailable
       pages (the cursor only advances on successful pages, so a retry
       can neither skip nor duplicate) *)
    let collect label handle =
      let sols = ref [] and stalls = ref 0 and pages = ref 0 in
      let rec go () =
        let reply = handle "enumerate 128" in
        let unavailable =
          List.exists (String.starts_with ~prefix:"err unavailable") reply
        in
        if unavailable then begin
          incr stalls;
          if !stalls > 200 then
            Nd_error.user_errorf "cluster: %s enumeration stalled: %s" label
              (String.concat " | " reply);
          Unix.sleepf 0.1;
          go ()
        end
        else begin
          List.iter
            (fun l ->
              if String.starts_with ~prefix:"err " l then
                Nd_error.user_errorf "cluster: %s enumeration failed: %s"
                  label l;
              if String.starts_with ~prefix:"sol " l then sols := l :: !sols)
            reply;
          incr pages;
          let complete =
            List.exists
              (fun l ->
                String.starts_with ~prefix:"end " l
                && String.length l >= 9
                && String.sub l (String.length l - 9) 9 = " complete")
              reply
          in
          if not complete then begin
            (match (kill_replica, !pages) with
            | Some (s, r), 1 when label = "router" -> kill_worker s r
            | _ -> ());
            go ()
          end
        end
      in
      go ();
      List.rev !sols
    in
    let router_sols =
      collect "router" (Nd_cluster.Router.handle rt)
    in
    let srv = Nd_server.create single in
    let single_sols =
      collect "single-node" (Nd_server.handle (Nd_server.session srv))
    in
    let same = router_sols = single_sols in
    finish ();
    Printf.printf
      "cluster differential: %s — %d solutions via %d shards x %d replicas \
       vs %d single-node%s%s%s\n"
      (if same then "OK" else "MISMATCH")
      (List.length router_sols) shards replicas (List.length single_sols)
      (if muts = [] then ""
       else Printf.sprintf ", %d mutations" (List.length muts))
      (match kill_replica with
      | Some (s, r) -> Printf.sprintf ", killed %d:%d" s r
      | None -> "")
      (if chaos_links = [] then ""
       else Printf.sprintf ", %d chaos links" (List.length chaos_links));
    if not same then begin
      let rec diverge i = function
        | a :: xs, b :: ys ->
            if a = b then diverge (i + 1) (xs, ys)
            else Printf.printf "first divergence at %d: %S vs %S\n" i a b
        | a :: _, [] -> Printf.printf "single-node ends at %d; router has %S\n" i a
        | [], b :: _ -> Printf.printf "router ends at %d; single-node has %S\n" i b
        | [], [] -> ()
      in
      diverge 0 (router_sols, single_sols);
      exit 1
    end
  end

(* ---------------- obs ---------------- *)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let obs_merge_trace out files =
 run @@ fun () ->
  if files = [] then Nd_error.user_errorf "merge-trace: no trace shards given";
  let docs =
    List.map
      (fun f ->
        try read_whole f
        with Sys_error m -> Nd_error.user_errorf "merge-trace: %s" m)
      files
  in
  match Nd_obs.Merge.merge docs with
  | Error m -> Nd_error.user_errorf "merge-trace: %s" m
  | Ok (doc, rep) ->
      let oc = open_out out in
      output_string oc doc;
      output_char oc '\n';
      close_out oc;
      Printf.printf
        "merged %d processes, %d events (%d cross-process links, %d orphans) \
         -> %s\n"
        rep.Nd_obs.Merge.r_processes rep.Nd_obs.Merge.r_events
        rep.Nd_obs.Merge.r_linked rep.Nd_obs.Merge.r_orphans out

let obs_scrape socket validate =
 run @@ fun () ->
  let fd =
    match Nd_server.Client.connect socket with
    | Ok fd -> fd
    | Error m -> Nd_error.user_errorf "scrape: %s: %s" socket m
  in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain_fd () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain_fd ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_fd ()
  in
  drain_fd ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let text = Buffer.contents buf in
  print_string text;
  if validate then
    match Nd_trace.Prometheus.validate text with
    | Ok n -> Printf.eprintf "fodb obs scrape: %d samples, valid\n%!" n
    | Error m -> Nd_error.user_errorf "scrape: invalid exposition: %s" m

(* ---------------- command wiring ---------------- *)

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~doc:"Stop after this many solutions.")

let tuple_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "tuple" ] ~docv:"T" ~doc:"Comma-separated vertex tuple.")

let query_args term =
  Term.(
    term $ graph_arg $ query_arg $ colors_arg $ seed_arg
    $ stats_arg $ stats_json_arg $ prometheus_arg $ trace_arg $ budget_ops_arg
    $ timeout_ms_arg $ mutations_arg $ jobs_arg)

let exits =
  Cmd.Exit.info 2 ~doc:"on user errors (bad graph, query or tuple)."
  :: Cmd.Exit.info 3 ~doc:"when a resource budget was exhausted."
  :: Cmd.Exit.info 4 ~doc:"on an internal invariant violation."
  :: Cmd.Exit.defaults

let cmd_enumerate =
  Cmd.v (Cmd.info "enumerate" ~exits ~doc:"Enumerate all solutions in order")
    Term.(query_args (const enumerate) $ limit_arg)

let cmd_count =
  Cmd.v (Cmd.info "count" ~exits ~doc:"Count solutions")
    (query_args Term.(const count))

let cmd_test =
  Cmd.v (Cmd.info "test" ~exits ~doc:"Test whether a tuple is a solution")
    Term.(query_args (const test) $ tuple_arg)

let cmd_next =
  Cmd.v
    (Cmd.info "next" ~exits ~doc:"Smallest solution ≥ a given tuple (Theorem 2.3)")
    Term.(query_args (const next) $ tuple_arg)

let cmd_update =
  Cmd.v
    (Cmd.info "update" ~exits
       ~doc:
         "Absorb graph mutations through the incremental update pipeline \
          (bounded maintenance, no re-prepare) and enumerate over the \
          mutated graph.  Mutations come from $(b,--mutations) and/or \
          positional arguments ($(b,\"add-edge 0 5\") …), applied in order \
          with per-mutation timing.")
    Term.(
      query_args (const update)
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"MUTATION"
              ~doc:
                "Mutations in wire syntax: $(b,add-edge U V), \
                 $(b,remove-edge U V), $(b,set-color C V on|off).")
      $ limit_arg)

let cmd_cover =
  Cmd.v (Cmd.info "cover" ~doc:"Compute and verify a neighborhood cover")
    Term.(const cover $ graph_arg $ colors_arg $ seed_arg $ radius_arg)

let cmd_splitter =
  Cmd.v (Cmd.info "splitter" ~doc:"Play the splitter game")
    Term.(const splitter $ graph_arg $ colors_arg $ seed_arg $ radius_arg)

let cmd_stats =
  Cmd.v (Cmd.info "stats" ~doc:"Graph sparsity statistics")
    Term.(const stats $ graph_arg $ colors_arg $ seed_arg $ prometheus_arg)

let cmd_profile =
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:
         "Empirically check the constant-delay contract (Corollary 2.5): \
          enumerate one zoo family at several sizes and report per-answer \
          delay percentiles in cost-model ops and wall time, with a \
          machine-checkable size-invariance verdict (non-invariant exits 1).")
    Term.(
      const profile
      $ Arg.(
          required
          & opt (some string) None
          & info [ "spec" ] ~docv:"FAMILY"
              ~doc:"Zoo family name (e.g. grid, path, random-tree).")
      $ Arg.(
          value & opt string "200,400,800"
          & info [ "sizes" ] ~docv:"N,N,..."
              ~doc:"Comma-separated instance sizes.")
      $ Arg.(
          value & opt string "dist(x,y) <= 2"
          & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"FO⁺ query to profile.")
      $ Arg.(
          value & opt int 0
          & info [ "colors" ]
              ~doc:"Random colors to add (default 0: none needed).")
      $ Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Coloring seed.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "limit" ] ~docv:"N"
              ~doc:"Answers enumerated per size (default 20000).")
      $ Arg.(
          value & opt float 1.2
          & info [ "tolerance" ] ~docv:"R"
              ~doc:
                "Verdict ratio: max ops-per-answer may vary across sizes by \
                 at most this factor.")
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Emit the nd-profile/1 JSON document only."))

let file_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Snapshot file.")

let warm_arg =
  Arg.(
    value & opt int 0
    & info [ "warm" ] ~docv:"N"
        ~doc:
          "Enumerate this many solutions into the cache before saving, so \
           the snapshot revives a warm store.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Fail (exit 2) when the snapshot is rejected instead of rebuilding \
           from scratch.")

let cmd_snapshot =
  let save =
    Cmd.v
      (Cmd.info "save" ~exits
         ~doc:"Prepare a handle and persist it to a snapshot file")
      Term.(
        const snapshot_save $ graph_arg $ query_arg $ colors_arg $ seed_arg
        $ budget_ops_arg $ timeout_ms_arg $ warm_arg
        $ mutations_arg $ jobs_arg $ file_arg)
  in
  let load =
    Cmd.v
      (Cmd.info "load" ~exits
         ~doc:
           "Verify and revive a snapshot (falling back to a rebuild on any \
            corruption unless $(b,--strict))")
      Term.(
        const snapshot_load $ graph_arg $ query_arg $ colors_arg $ seed_arg
        $ strict_arg
        $ Arg.(
            value & flag
            & info [ "cold" ]
                ~doc:
                  "Copy the snapshot's cache rows instead of memory-mapping \
                   them — same handle, portable speed.")
        $ mutations_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "journal" ] ~docv:"FILE"
                ~doc:
                  "Mutation journal recorded since the snapshot was saved: \
                   replayed through the incremental update pipeline after a \
                   successful load (or folded into the graph before a \
                   rebuild).  The $(b,--graph) presented must be the \
                   snapshotted, pre-journal one.")
        $ file_arg)
  in
  let info_cmd =
    Cmd.v
      (Cmd.info "info" ~exits
         ~doc:"Verify a snapshot's checksums and print its metadata")
      Term.(const snapshot_info $ file_arg)
  in
  Cmd.group
    (Cmd.info "snapshot" ~exits
       ~doc:"Crash-safe persistence of prepared handles")
    [ save; load; info_cmd ]

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Serve over a Unix-domain socket instead of stdin/stdout.")

let request_budget_ops_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "request-budget-ops" ] ~docv:"N"
        ~doc:
          "Cost-model operation ceiling installed around every single \
           request; exhaustion yields an $(b,err budget) reply, never a \
           dead loop.")

let request_timeout_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "request-timeout-ms" ] ~docv:"N"
        ~doc:"Per-request wall-clock deadline in milliseconds.")

let max_enumerate_arg =
  Arg.(
    value & opt int 1000
    & info [ "max-enumerate" ] ~docv:"N"
        ~doc:"Page-size cap (and default) for the enumerate command.")

let chaos_arg =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:
          "Accept the $(b,inject) fault command (test/CI use: prove the \
           loop survives internal failures).")

let backlog_arg =
  Arg.(
    value
    & opt int Nd_server.default_backlog
    & info [ "backlog" ] ~docv:"N"
        ~doc:
          "Kernel listen-queue depth for $(b,--socket) mode (default 64): \
           connection bursts up to this size are queued by the kernel \
           instead of refused.")

let cmd_serve =
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Answer next/test/enumerate requests over a line protocol with \
          per-request budgets, full request isolation, admission control \
          and connection hygiene")
    Term.(
      const serve $ graph_arg $ query_arg $ colors_arg $ seed_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "snapshot" ] ~docv:"FILE"
              ~doc:
                "Load the prepared handle from this snapshot (rebuilding on \
                 any corruption) instead of preparing from scratch.")
      $ socket_arg $ backlog_arg $ request_budget_ops_arg
      $ request_timeout_ms_arg $ max_enumerate_arg $ chaos_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "event-log" ] ~docv:"FILE"
              ~doc:
                "Append one structured JSON line per handled request \
                 (request id, span id, verb, status, latency).")
      $ Arg.(
          value & flag
          & info [ "no-metrics" ]
              ~doc:
                "Do not enable cost-model instrumentation (the `metrics` \
                 verb then reports zeros).")
      $ trace_arg $ jobs_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-inflight" ] ~docv:"N"
              ~doc:
                "Admission gate: requests past the gate at once; further \
                 requests are shed with $(b,err overloaded) instead of \
                 queueing unboundedly.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-conns" ] ~docv:"N"
              ~doc:
                "Connection gate: live connections at once; accepted \
                 connections over the limit are refused with \
                 $(b,err overloaded) + $(b,bye).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "io-timeout-ms" ] ~docv:"N"
              ~doc:
                "Hygiene: max milliseconds a started request line may take \
                 to arrive (slow-loris guard) and the write deadline per \
                 reply; violation yields $(b,err user) and the connection \
                 closes.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "idle-timeout-ms" ] ~docv:"N"
              ~doc:
                "Hygiene: max milliseconds a connection may sit idle between \
                 requests before the reaper closes it with $(b,bye).")
      $ Arg.(
          value & opt int 65536
          & info [ "max-line-bytes" ] ~docv:"N"
              ~doc:
                "Hygiene: longest accepted request line (default 65536); \
                 longer lines get $(b,err user) and the connection closes.")
      $ Arg.(
          value & opt int 100
          & info [ "retry-after-ms" ] ~docv:"N"
              ~doc:
                "Floor advertised in $(b,err overloaded) replies \
                 (default 100).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "journal" ] ~docv:"FILE"
              ~doc:
                "Recovery journal: append every applied mutation in wire \
                 syntax, and replay the file before serving — a restarted \
                 worker (see $(b,--supervise)) resumes at the pre-crash \
                 epoch.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "blackbox" ] ~docv:"DIR"
              ~doc:
                "Crash flight recorder: mirror the last 256 request events \
                 to $(docv)/NAME.flight.jsonl (NAME from the socket path); \
                 under $(b,--supervise), an abnormal worker exit is \
                 harvested into $(docv)/NAME.postmortem-K.jsonl carrying \
                 the crash cause, the restart decision and the last \
                 recorded epoch.")
      $ Arg.(
          value & opt int 0
          & info [ "shard-index" ] ~docv:"S"
              ~doc:
                "Cluster mode: serve only the solutions shard $(docv) \
                 owns under the boot graph's cover-bag partition (see \
                 $(b,fodb router)).  Requires $(b,--shard-count).")
      $ Arg.(
          value & opt int 1
          & info [ "shard-count" ] ~docv:"N"
              ~doc:
                "Cluster mode: total shards in the fleet (default 1 = \
                 serve everything).")
      $ Arg.(
          value & flag
          & info [ "supervise" ]
              ~doc:
                "Run the serve loop in a worker process under a \
                 restart-on-crash supervisor with exponential backoff and a \
                 crash-count circuit breaker.  Pair with $(b,--snapshot) \
                 and/or $(b,--journal) so restarted workers recover their \
                 epoch.")
      $ Arg.(
          value & opt int 5
          & info [ "max-crashes" ] ~docv:"N"
              ~doc:
                "Supervisor circuit breaker: give up after this many crashes \
                 within the restart window (default 5).")
      $ Arg.(
          value & opt int 100
          & info [ "restart-backoff-ms" ] ~docv:"N"
              ~doc:
                "Supervisor: backoff cap before the first restart, doubling \
                 per crash up to 5s (default 100).")
      $ Arg.(
          value & opt int 30000
          & info [ "restart-window-ms" ] ~docv:"N"
              ~doc:
                "Supervisor: sliding window for the circuit breaker \
                 (default 30000); crashes older than this are forgiven."))

let cmd_chaos_proxy =
  Cmd.v
    (Cmd.info "chaos-proxy" ~exits
       ~doc:
         "Deterministic socket-level fault injection between a client and a \
          $(b,fodb serve --socket) server: slow-loris byte trickle, partial \
          writes, injected garbage, and mid-request/mid-reply disconnects.  \
          Runs until SIGINT/SIGTERM.")
    Term.(
      const chaos_proxy
      $ Arg.(
          required
          & opt (some string) None
          & info [ "listen" ] ~docv:"PATH"
              ~doc:"Unix-domain socket to listen on (clients connect here).")
      $ Arg.(
          required
          & opt (some string) None
          & info [ "upstream" ] ~docv:"PATH"
              ~doc:"The real server's Unix-domain socket.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "chunk" ] ~docv:"N"
              ~doc:
                "Forward client bytes at most N at a time (1 = \
                 byte-at-a-time partial writes).")
      $ Arg.(
          value & opt int 0
          & info [ "delay-ms" ] ~docv:"N"
              ~doc:
                "Sleep N ms before each forwarded client chunk (with \
                 $(b,--chunk 1): slow-loris).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "garbage" ] ~docv:"BYTES"
              ~doc:
                "Inject these bytes toward the server before the client's \
                 first real byte.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "cut-after" ] ~docv:"N"
              ~doc:
                "Hard-close both directions after forwarding N \
                 client-to-server bytes (mid-request disconnect).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "cut-reply-after" ] ~docv:"N"
              ~doc:
                "Hard-close after N server-to-client bytes (mid-reply \
                 disconnect)."))

let shards_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shards in the fleet.  The partition is derived from the \
           $(i,boot) graph's neighborhood cover (home bags dealt \
           round-robin), so every process computes the same map.")

let probe_interval_arg default =
  Arg.(
    value & opt int default
    & info [ "probe-interval-ms" ] ~docv:"N"
        ~doc:
          "Background health/epoch probe period; fences lagging \
           replicas, replays them the missing journal suffix and \
           readmits them at the fleet epoch.  0 disables the timer.")

let no_fence_arg =
  Arg.(
    value & flag
    & info [ "no-fence" ]
        ~doc:
          "Disable per-request epoch fencing (the probe-overhead bench \
           arm; unsafe under mutation).")

let cmd_router =
  Cmd.v
    (Cmd.info "router" ~exits
       ~doc:
         "Serve the merged line protocol over already-running shard \
          workers: duplicate-free ascending k-way merge of the \
          per-shard streams, epoch fencing (mixed-epoch merges are \
          refused; lagging replicas are fenced, caught up by journal \
          replay and readmitted), failover with full-jitter backoff, \
          and structured $(b,err unavailable) degradation.")
    Term.(
      const router $ graph_arg $ query_arg $ colors_arg $ seed_arg
      $ shards_arg
      $ Arg.(
          value
          & opt_all string []
          & info [ "endpoint" ] ~docv:"S:PATH"
              ~doc:
                "A replica: shard id and the Unix-domain socket path of \
                 a $(b,fodb serve --shard-index S) worker.  Repeatable; \
                 every shard needs at least one.")
      $ socket_arg $ backlog_arg $ probe_interval_arg 1000 $ no_fence_arg
      $ Arg.(
          value & opt int 100
          & info [ "retry-after-ms" ] ~docv:"N"
              ~doc:
                "Floor advertised in $(b,err unavailable) replies \
                 (default 100).")
      $ max_enumerate_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "event-log" ] ~docv:"FILE"
              ~doc:
                "Append one structured JSON line per handled request \
                 plus fence/catch-up/failover/probe lifecycle rows.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "metrics-socket" ] ~docv:"PATH"
              ~doc:
                "Serve the aggregated fleet Prometheus exposition on this \
                 Unix-domain socket: each connection receives one merged \
                 scrape (router registry, fleet gauges, per-shard pull \
                 histograms, every live replica re-labelled with \
                 shard/replica) and is closed.  Read it with \
                 $(b,fodb obs scrape).")
      $ trace_arg)

let cmd_cluster =
  Cmd.v
    (Cmd.info "cluster" ~exits
       ~doc:
         "Launch a whole fleet locally — shards x replicas worker \
          processes bootstrapped from a shared snapshot with per-worker \
          journals, optional supervisors and chaos-proxied links — and \
          run the router over it; with $(b,--differential), enumerate \
          through the router (replicating mutations, optionally \
          $(b,kill -9)-ing a worker mid-enumeration) and compare \
          byte-for-byte against a single-node engine.")
    Term.(
      const cluster $ graph_arg $ query_arg $ colors_arg $ seed_arg
      $ shards_arg
      $ Arg.(
          value & opt int 1
          & info [ "replicas" ] ~docv:"R"
              ~doc:"Replicas per shard (default 1).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "dir" ] ~docv:"D"
              ~doc:
                "Working directory for sockets, snapshot, journals and \
                 worker logs (default: a fresh directory under the \
                 system temp dir, printed on stderr).")
      $ socket_arg $ backlog_arg
      $ Arg.(
          value & flag
          & info [ "supervise" ]
              ~doc:
                "Run each worker under the restart-on-crash supervisor, \
                 so a $(b,kill -9)'d worker revives from the snapshot \
                 plus its journal.")
      $ Arg.(
          value & flag
          & info [ "differential" ]
              ~doc:
                "Enumerate the whole answer set through the router, \
                 compare against a single-node engine on the same \
                 graph, print a verdict and exit 1 on mismatch.")
      $ Arg.(
          value & opt int 0
          & info [ "mutations" ] ~docv:"M"
              ~doc:
                "Differential mode: replicate this many scripted \
                 mutations through the router first; the single-node \
                 reference gets the same mutations.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "kill-replica" ] ~docv:"S:R"
              ~doc:
                "Differential mode: $(b,kill -9) this replica's worker \
                 after the first merged page; with $(b,--supervise) the \
                 restarted worker recovers via snapshot + journal and \
                 is readmitted at the fleet epoch.")
      $ probe_interval_arg 200 $ no_fence_arg
      $ Arg.(
          value
          & opt_all string []
          & info [ "chaos-link" ] ~docv:"S:R"
              ~doc:
                "Interpose a chaos proxy on this router-to-replica \
                 link (repeatable); profile from the $(b,--chaos-*) \
                 flags.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "chaos-chunk" ] ~docv:"N"
              ~doc:"Chaos links: forward at most N bytes at a time.")
      $ Arg.(
          value & opt int 0
          & info [ "chaos-delay-ms" ] ~docv:"N"
              ~doc:"Chaos links: sleep N ms before each forwarded chunk.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "chaos-garbage" ] ~docv:"BYTES"
              ~doc:
                "Chaos links: inject these bytes toward the worker \
                 before the first real byte of each connection.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "chaos-cut-reply-after" ] ~docv:"N"
              ~doc:
                "Chaos links: hard-close each connection after N \
                 worker-to-router bytes.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "event-log" ] ~docv:"FILE"
              ~doc:
                "Append the router's structured JSON event rows here.")
      $ Arg.(
          value & flag
          & info [ "trace" ]
              ~doc:
                "Enable span tracing fleet-wide: every worker writes \
                 $(b,DIR/w-S-R.trace.json) on clean shutdown and the \
                 router writes $(b,DIR/router.trace.json); stitch them \
                 with $(b,fodb obs merge-trace).")
      $ Arg.(
          value & flag
          & info [ "blackbox" ]
              ~doc:
                "Give every worker a crash flight recorder in the cluster \
                 directory (see $(b,fodb serve --blackbox)); pair with \
                 $(b,--supervise) for post-mortems.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "metrics-socket" ] ~docv:"PATH"
              ~doc:
                "Serve the aggregated fleet Prometheus exposition on this \
                 Unix-domain socket (see $(b,fodb router \
                 --metrics-socket))."))

let cmd_obs =
  let merge =
    Cmd.v
      (Cmd.info "merge-trace" ~exits
         ~doc:
           "Stitch per-process Chrome trace shards (router + workers) into \
            one cross-process timeline: span ids are remapped into a global \
            namespace and every propagated $(b,trace=) context is resolved \
            into a parent edge across its process boundary (unresolved \
            references are flagged $(b,ctx.orphan), never dropped).")
      Term.(
        const obs_merge_trace
        $ Arg.(
            required
            & opt (some string) None
            & info [ "o"; "out" ] ~docv:"FILE"
                ~doc:"Merged trace output file.")
        $ Arg.(
            value & pos_all string []
            & info [] ~docv:"SHARD" ~doc:"Per-process trace shard files."))
  in
  let scrape =
    Cmd.v
      (Cmd.info "scrape" ~exits
         ~doc:
           "Read one aggregated Prometheus exposition from a \
            $(b,--metrics-socket) listener ($(b,fodb router) or \
            $(b,fodb cluster)) and print it.")
      Term.(
        const obs_scrape
        $ Arg.(
            required
            & opt (some string) None
            & info [ "socket" ] ~docv:"PATH" ~doc:"Metrics socket path.")
        $ Arg.(
            value & flag
            & info [ "validate" ]
                ~doc:
                  "Validate the exposition format (exit 2 when invalid)."))
  in
  Cmd.group
    (Cmd.info "obs" ~exits
       ~doc:
         "Fleet observability: merged cross-process traces and aggregated \
          metrics")
    [ merge; scrape ]

let cmd_client =
  Cmd.v
    (Cmd.info "client" ~exits
       ~doc:
         "Connect to a running $(b,fodb serve --socket) server, send \
          requests and print the replies.  Requests come from the \
          positional arguments (one request line each, sent in order) or, \
          when none are given, one per line from stdin.  Transient \
          $(b,err budget) replies are retried with exponential backoff; \
          a $(b,bye) terminator ends the session.")
    Term.(
      const client
      $ Arg.(
          required
          & opt (some string) None
          & info [ "socket" ] ~docv:"PATH"
              ~doc:"Unix-domain socket path the server listens on.")
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"REQUEST"
              ~doc:
                "Request lines in the serve protocol ($(b,\"next 0,0\"), \
                 $(b,enumerate 5), $(b,epoch), $(b,quit) …)."))

let () =
  let doc = "FO query enumeration over nowhere dense graphs" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "fodb" ~doc)
          [
            cmd_enumerate; cmd_count; cmd_test; cmd_next; cmd_update;
            cmd_cover; cmd_splitter; cmd_stats; cmd_profile; cmd_snapshot;
            cmd_serve; cmd_router; cmd_cluster; cmd_client; cmd_chaos_proxy;
            cmd_obs;
          ]))
