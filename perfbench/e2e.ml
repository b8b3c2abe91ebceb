(* The four end-to-end workloads, driving the real fodb binary.

   Every run has three parts:
   - set-up, repeated (see [setup_more]; median reported as setup_s);
     the last set-up's server is the one measured;
   - the timed window: the workload's own closed-loop traffic, paused at
     even intervals for probes of the end-to-end metrics the workload's
     own mix does not produce (see README.md);
   - verification of every reply, outside any timed region. *)

open Util

type workload = Cold_start | Point_serve | Scan_update | Routed_pages

let workloads =
  [ ("cold-start", Cold_start); ("point-serve", Point_serve); ("scan-update", Scan_update);
    ("routed-pages", Routed_pages) ]

(* Graph sizes, recorded in README.md.  point-serve and routed-pages
   must stay far above the engine's 100k-solution cache and scan-update
   below it. *)
let spec = function
  | Cold_start -> "planar:100x100"
  | Point_serve | Routed_pages -> "grid:70x70"
  | Scan_update -> "grid:60x60"

let query = function Scan_update -> Inputs.join | _ -> Inputs.far_color

(* Set-up runs at least [setup_min_reps] times, and more while the
   total stays under [setup_budget_s], so a cheap set-up's median rests
   on enough samples to be steady. *)
let setup_min_reps = 3
let setup_max_reps = 15
let setup_budget_s = 2.

let setup_more a =
  let n = List.length a in
  n < setup_min_reps || (n < setup_max_reps && sum a < setup_budget_s)

let graph_file = "graph.el"
let sock = "s.sock"

type cfg = { seed : int; seconds : float }

(* Samples of one run.  Latencies: boot/restore/page/update in ms,
   next/test in us. *)
type acc = {
  mutable setup : float list;
  mutable boot : float list;
  mutable restore : float list;
  mutable next : float list;
  mutable test : float list;
  mutable page : float list;
  mutable update : float list;
  mutable page_rate : float list;  (** solutions per second of each page *)
  mutable scan_sols : int;
  mutable scan_ns : int;
  mutable reqs : int;
  mutable window_ns : int;
  mutable snapshot_mb : float;
  mutable rss_mb : float;
}

let acc () =
  { setup = []; boot = []; restore = []; next = []; test = []; page = []; update = [];
    page_rate = []; scan_sols = 0; scan_ns = 0; reqs = 0; window_ns = 0;
    snapshot_mb = 0.; rss_mb = 0. }

let prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* An enumerate reply that is a page but not the last one. *)
let more_pages reply = List.exists (fun l -> prefix "end " l && not (String.ends_with ~suffix:"complete" l)) reply

(* Fold one timed reply into the samples by its verb. *)
let observe a line reply ns =
  a.reqs <- a.reqs + 1;
  if prefix "next" line then a.next <- us_of_ns ns :: a.next
  else if prefix "test" line then a.test <- us_of_ns ns :: a.test
  else if prefix "enumerate" line then begin
    a.page <- ms_of_ns ns :: a.page;
    a.page_rate <- (float_of_int (List.length (Verify.sols_of reply)) /. (float_of_int ns /. 1e9)) :: a.page_rate
  end
  else if prefix "update" line then a.update <- ms_of_ns ns :: a.update

(* Every launch prepares on one domain ([-j 1]).  fodb's default is the
   host's core count; on a 2-core shared host its boots were bimodal
   (about 170 or 450 ms on grid:70x70, from one minute to the next) as
   the second core came and went, and the medians moved with them.
   [nd_util.pool.cpu_per_wall] still measures the default job count. *)
let jobs_args = [ "-j"; "1" ]

let serve_args w = [ "serve"; "-g"; graph_file; "-q"; query w ] @ jobs_args
let file_mb path = float_of_int (Unix.stat path).Unix.st_size /. 1048576.

(* ---- servers ---- *)

type server = { pid : int; conn : Proc.conn; cluster : bool }

(* Launch the workload's server and time launch -> reply to [first]:
   fodb cluster on routed-pages unless [~single], fodb serve otherwise.
   A probe's server, launched while the measured one runs, gets its own
   socket and fleet directory ([~name]). *)
let boot_server ?(name = "") ?(single = false) w ~first =
  let sock = name ^ sock and fleet = name ^ "fleet" in
  (try Sys.remove sock with Sys_error _ -> ());
  let cluster = w = Routed_pages && not single in
  (* a fleet directory left by an earlier boot holds its workers'
     journals, which a new fleet would replay *)
  if cluster then Bench_dirs.rm_rf fleet;
  let t0 = now_ns () in
  let pid =
    if cluster then
      Proc.spawn_logged ~log:"cluster.log"
        [ "cluster"; "-g"; graph_file; "-q"; query w; "--shards"; "2"; "--replicas"; "1";
          "--socket"; sock; "--dir"; fleet ]
    else Proc.spawn_logged ~log:"serve.log" (serve_args w @ [ "--socket"; sock ])
  in
  let conn = Proc.connect_wait ~pid sock in
  (* the router answers [err unavailable] until its shards are up *)
  let rec ask () =
    let r = Proc.request conn first in
    if List.exists (prefix "err unavailable") r then (Thread.delay 0.005; ask ()) else r
  in
  let reply = ask () in
  ({ pid; conn; cluster }, reply, now_ns () - t0)

let stop_server s =
  let rss = Proc.peak_rss_mb ~with_children:s.cluster s.pid in
  s.conn.close ();
  Proc.stop s.pid;
  rss

(* [fodb snapshot save --warm 100000]: the warm snapshot restores use. *)
let save_snapshot w path =
  let pid =
    Proc.spawn_logged ~log:"snapshot.log"
      ([ "snapshot"; "save"; "-g"; graph_file; "-q"; query w; "--warm"; "100000"; "-f"; path ] @ jobs_args)
  in
  Proc.waitpid_retry pid;
  Proc.stop pid;
  if not (Sys.file_exists path) then failwith "fodb snapshot save wrote no file"

(* One cold launch on stdin/stdout: time launch -> reply to [first].
   Returns the live process for the caller's further requests. *)
let launch_stdio w ~snapshot ~log first =
  (try Sys.remove log with Sys_error _ -> ());
  let args = serve_args w @ match snapshot with Some p -> [ "--snapshot"; p ] | None -> [] in
  let t0 = now_ns () in
  let pid, conn = Proc.spawn_stdio ~log args in
  let reply = Proc.request conn first in
  (pid, conn, reply, now_ns () - t0)

let quit_stdio pid conn =
  let rss = Proc.peak_rss_mb pid in
  ignore (try Proc.request conn "quit" with End_of_file | Sys_error _ -> []);
  conn.Proc.close ();
  Proc.stop pid;
  rss

(* ---- the in-process reference ---- *)

type reference = { g : Nd_graph.Cgraph.t; phi : Nd_logic.Fo.t; srv : Nd_server.t }

let reference w =
  let g = Inputs.load_graph graph_file in
  let phi = Nd_logic.Parse.formula (query w) in
  { g; phi; srv = Nd_server.create (Nd_engine.prepare g phi) }

let expect_session r =
  let s = Nd_server.session r.srv in
  fun line -> Nd_server.handle s line

(* The operations of one freshly launched process: its queries against
   a fresh reference session; its updates, which the reference does not
   replay (its epoch is not the process's), by their reply, whose epoch
   counts up from 1. *)
let check_fresh r ops =
  let queries, updates = List.partition (fun o -> not (prefix "update" o.Verify.line)) ops in
  Verify.against_reference queries (expect_session r);
  List.iteri
    (fun j o -> if o.Verify.reply <> [ Printf.sprintf "epoch %d applied 1" (j + 1); "ok" ] then Verify.flag o)
    updates

(* The run's request scripts, one block per connection (or launched
   process) in the order sent, and its mutations in fodb's journal
   syntax (usable as fodb --mutations FILE). *)
let write_scripts per_conn =
  Inputs.write_lines "requests.txt"
    (List.concat
       (List.mapi
          (fun i ops -> Printf.sprintf "# connection %d" i :: List.map (fun o -> o.Verify.line) ops)
          per_conn));
  Inputs.write_lines "mutations.txt"
    (List.filter_map
       (fun o -> if prefix "update " o.Verify.line then Some (String.sub o.Verify.line 7 (String.length o.Verify.line - 7)) else None)
       (List.concat per_conn))

(* ---- workload bodies ---- *)

let n_of w =
  match String.split_on_char ':' (spec w) with
  | [ _; dims ] -> (
      match String.split_on_char 'x' dims with
      | [ a; b ] -> int_of_string a * int_of_string b
      | _ -> assert false)
  | _ -> assert false

let mutation_pairs cfg = Inputs.distance2_pairs ~seed:cfg.seed ~count:80 (Inputs.load_graph graph_file)
let add_edge (u, v) = Printf.sprintf "update add-edge %d %d" u v
let remove_edge (u, v) = Printf.sprintf "update remove-edge %d %d" u v

(* The probes.  A 5 s stretch of this kind of shared host can run 1.5x
   slower than the next, while the medians of 20 s stretches stay within
   about 7% of each other; so no metric takes its samples in one burst.
   The serving workloads pause their traffic for a probe step at even
   intervals through the run (see [run_point] and [run_scan]), and each
   step takes a few samples of every metric the traffic does not
   produce. *)

(* Update probe: add/remove round trips on a live connection; each
   pair leaves the graph as it was. *)
let update_probe a conn pairs =
  List.concat_map
    (fun p ->
      List.map
        (fun line ->
          let reply, ns = time_ns (fun () -> Proc.request conn line) in
          observe a line reply ns;
          a.reqs <- a.reqs - 1;
          Verify.op line reply)
        [ add_edge p; remove_edge p ])
    pairs

(* Launch probe: save the warm snapshot [probe.snap] once, then per
   step one boot of fodb serve, timed to the reply to one [next], the
   [pairs] update round trips on that fresh server (see [check_fresh]),
   and [restores] launches of fodb serve from the snapshot, each timed
   to the reply to one random [next].
   - The boot is a single node on routed-pages too: fodb cluster waits
     for its workers through a full-jitter connect ladder, which spread
     its launches over 0.4-0.75 s.
   - The writes go to a fresh server: on one that has served pages the
     first write clips the solutions it cached (about 1.1 s for a full
     100k-solution cache on point-serve, against 10 ms without), so the
     median would hinge on how many writes were first ones. *)
let probe_snapshot w a =
  save_snapshot w "probe.snap";
  a.snapshot_mb <- file_mb "probe.snap"

type launched = { booted : Verify.op list; restored : Verify.op list }

let launch_step w st a ~pairs ~restores i =
  let booted =
    let line = "next 0,0" in
    let s, reply, ns = boot_server ~name:"probe-" ~single:true w ~first:line in
    a.boot <- ms_of_ns ns :: a.boot;
    let upd = update_probe a s.conn pairs in
    ignore (stop_server s);
    Verify.op line reply :: upd
  in
  let restored =
    List.init restores (fun j ->
        let line = "next " ^ Inputs.tuple_str (Inputs.random_pair st (n_of w)) in
        let log = Printf.sprintf "restore-%d-%d.log" i j in
        let pid, conn, reply, ns = launch_stdio w ~snapshot:(Some "probe.snap") ~log line in
        ignore (quit_stdio pid conn);
        a.restore <- ms_of_ns ns :: a.restore;
        let o = Verify.op line reply in
        if not (Proc.file_contains log "loaded snapshot") then Verify.flag o;
        o)
  in
  { booted; restored }

(* Point probe (scan-update): [count] next/test requests on the restored
   graph, tuples drawn from [st]. *)
let point_probe w st a conn ~count =
  List.init count (fun i ->
      let t = Inputs.tuple_str (Inputs.random_pair st (n_of w)) in
      let line = (if i mod 2 = 0 then "next " else "test ") ^ t in
      let reply, ns = time_ns (fun () -> Proc.request conn line) in
      observe a line reply ns;
      a.reqs <- a.reqs - 1;
      Verify.op line reply)

let setup_server w cfg a =
  let first = "next 0,0" in
  let last = ref None in
  while setup_more a.setup do
    Option.iter (fun s -> ignore (stop_server s)) !last;
    let t0 = now_ns () in
    Inputs.write_graph ~seed:cfg.seed ~spec:(spec w) graph_file;
    let s, reply, boot_ns = boot_server w ~first in
    a.setup <- (float_of_int (now_ns () - t0) /. 1e9) :: a.setup;
    if not s.cluster then a.boot <- ms_of_ns boot_ns :: a.boot;
    if Verify.is_err reply then failwith ("set-up: " ^ String.concat " | " reply);
    last := Some s
  done;
  Option.get !last

(* Closed loop: the next request goes only after the previous reply.
   After every [cursor_pages] pages an untimed [reset] rewinds the
   cursor.  A page's cost depends on where the cursor stands: on
   routed-pages the shard that does not own the current x skips the
   rest of that x's solutions one by one, so a page costs 38 ms at the
   start of a row and 5 ms at its end.  Walking one cursor, a faster run
   got further along and reported cheaper pages; with the rewind every
   run pages over the same positions. *)
let cursor_pages = 8

let point_loop a conn ~gen ~deadline =
  let ops = ref [] and pages = ref 0 in
  while now_ns () < deadline do
    let line = Inputs.line_of (gen ()) in
    let reply, ns = time_ns (fun () -> Proc.request conn line) in
    observe a line reply ns;
    ops := Verify.op line reply :: !ops;
    if prefix "enumerate" line then begin
      incr pages;
      if !pages mod cursor_pages = 0 then ops := Verify.op "reset" (Proc.request conn "reset") :: !ops
    end
  done;
  List.rev !ops

let warm_up conn ~gen ~count =
  for _ = 1 to count do
    let r = Proc.request conn (Inputs.line_of (gen ())) in
    if Verify.is_err r then failwith ("warm-up: " ^ String.concat " | " r)
  done;
  (* the timed stream starts from a fresh cursor, like the reference's *)
  ignore (Proc.request conn "reset")

let window_deadline cfg = now_ns () + int_of_float (cfg.seconds *. 1e9)

(* point-serve and routed-pages cut their window into [slices] equal
   slices of traffic; after each the traffic pauses for a launch step
   with 8 update pairs and 2 restores.  The window (req_per_s) counts the
   traffic slices only. *)
let slices = 10
let step_updates = 8
let step_restores = 2

(* point-serve (fodb serve) and routed-pages (fodb cluster): the same
   seeded request stream on one connection.  Two connections, one per
   core of a 2-core host, kept both cores busy, so every stall the host
   caused was felt twice (a request also queued behind the other
   connection's page); req_per_s then moved by up to 45% between runs
   while next_us.p50 moved by 10%. *)
let run_point w cfg tally =
  let a = acc () in
  let s = setup_server w cfg a in
  let n = n_of w in
  let gen = Inputs.point_stream ~seed:cfg.seed ~stream:0 ~n in
  probe_snapshot w a;
  let pairs = Array.of_list (mutation_pairs cfg) in
  let st = Random.State.make [| cfg.seed; 0xb007 |] in
  (* warm-up traffic comes from a separate stream, so the timed stream
     is exactly the seeded one *)
  warm_up s.conn
    ~gen:(Inputs.point_stream ~seed:cfg.seed ~stream:100 ~n)
    ~count:(if w = Routed_pages then 30 else 300);
  let sent = ref [] and steps = ref [] in
  for k = 0 to slices - 1 do
    let t0 = now_ns () in
    let deadline = t0 + int_of_float (cfg.seconds *. 1e9 /. float_of_int slices) in
    let ops = point_loop a s.conn ~gen ~deadline in
    a.window_ns <- a.window_ns + (now_ns () - t0);
    sent := List.rev_append ops !sent;
    let mine = List.init step_updates (fun j -> pairs.(((k * step_updates) + j) mod Array.length pairs)) in
    steps := launch_step w st a ~pairs:mine ~restores:step_restores k :: !steps
  done;
  a.rss_mb <- stop_server s;
  let ops = List.rev !sent and steps = List.rev !steps in
  let launched = List.concat_map (fun l -> [ l.booted; l.restored ]) steps in
  write_scripts (ops :: launched);
  (* verification, outside every timed region *)
  let r = reference w in
  Verify.against_reference ops (expect_session r);
  Verify.against_naive r.g r.phi ops;
  List.iter (fun l -> check_fresh r l.booted; check_fresh r l.restored) steps;
  List.iter (fun ops -> Verify.settle tally ops) (ops :: launched);
  a

(* cold-start: each operation launches fodb serve and times launch ->
   reply to one random next; operations alternate the prepare path
   (boot) and the snapshot path (restore).  A booted process then
   answers 400 next/test, the first requests a fresh process sees, and
   two add/remove pairs, its first writes; a restored one serves its
   first 50 pages.  Each kind of sample comes from one path only: the
   paths differ, and mixing them would make the medians bimodal.
   - The first write after a restore costs 1.2-1.8 s, 20-30x one after
     a boot; without it a run holds about twice the launches.
   - Pages right after a boot ran at about 1.8 or 1.1 ms in stretches
     of tens of pages, and the share of slow stretches moved their
     median by up to 30% between runs. *)
let first_requests = 400
let first_pages = 50

let run_cold cfg tally =
  let w = Cold_start in
  let a = acc () in
  while setup_more a.setup do
    let t0 = now_ns () in
    Inputs.write_graph ~seed:cfg.seed ~spec:(spec w) graph_file;
    save_snapshot w "cold.snap";
    a.setup <- (float_of_int (now_ns () - t0) /. 1e9) :: a.setup
  done;
  a.snapshot_mb <- file_mb "cold.snap";
  let n = n_of w in
  let st = Random.State.make [| cfg.seed; 0xc01d |] in
  let pairs = Array.of_list (mutation_pairs cfg) in
  let pt () = Inputs.tuple_str (Inputs.random_pair st n) in
  let one i ~timed =
    let restore = i mod 2 = 1 in
    let log = "op.log" in
    let first = "next " ^ pt () in
    let pid, conn, reply, ns =
      launch_stdio w ~snapshot:(if restore then Some "cold.snap" else None) ~log first
    in
    let o = Verify.op first reply in
    if restore && not (Proc.file_contains log "loaded snapshot") then Verify.flag o;
    (* boots are the even operations; each takes the next two pairs *)
    let p j = pairs.(((i / 2 * 2) + j) mod Array.length pairs) in
    let rest =
      List.map
        (fun line ->
          let reply, ns = time_ns (fun () -> Proc.request conn line) in
          if timed then observe a line reply ns;
          Verify.op line reply)
        (if restore then List.init first_pages (fun _ -> "enumerate 100")
         else
           List.init first_requests (fun j -> if j mod 2 = 0 then "next " ^ pt () else "test " ^ pt ())
           @ List.concat_map (fun j -> [ add_edge (p j); remove_edge (p j) ]) [ 0; 1 ])
    in
    let rss = quit_stdio pid conn in
    if timed then begin
      if restore then a.restore <- ms_of_ns ns :: a.restore
      else begin
        a.boot <- ms_of_ns ns :: a.boot;
        a.rss_mb <- Float.max a.rss_mb rss
      end;
      a.reqs <- a.reqs + 1
    end;
    (o, rest)
  in
  (* warm-up: one boot and one restore, untimed *)
  ignore (one 0 ~timed:false);
  ignore (one 1 ~timed:false);
  let t0 = now_ns () in
  let deadline = window_deadline cfg in
  let ops = ref [] and i = ref 0 in
  (* whole boot+restore pairs, so both paths get equal samples *)
  while now_ns () < deadline || !i mod 2 = 1 do
    ops := one !i ~timed:true :: !ops;
    incr i
  done;
  a.window_ns <- now_ns () - t0;
  write_scripts (List.rev_map (fun (first, rest) -> first :: rest) !ops);
  let r = reference w in
  List.iter
    (fun (first, rest) ->
      check_fresh r (first :: rest);
      Verify.against_naive ~limit:20 r.g r.phi (first :: rest);
      Verify.settle tally (first :: rest))
    !ops;
  a

(* scan-update: full cursor scans beside writes.  Each cycle: scan,
   add-edge u v (v at distance 2 from u), scan, remove-edge u v. *)
let cycle_points = 300

let run_scan cfg tally =
  let w = Scan_update in
  let a = acc () in
  let s = setup_server w cfg a in
  let pairs = Array.of_list (mutation_pairs cfg) in
  (* one full scan: (page ops, count, digest, ns) *)
  let scan ~timed =
    ignore (Proc.request s.conn "reset");
    let rec pages ops cnt h ns =
      let line = "enumerate 1000" in
      let reply, dt = time_ns (fun () -> Proc.request s.conn line) in
      if timed then observe a line reply dt;
      let o = Verify.op line reply in
      let sols = List.filter (prefix "sol ") o.Verify.reply in
      let cnt = cnt + List.length sols and h = Verify.digest_lines h sols and ns = ns + dt in
      if more_pages o.Verify.reply then pages (o :: ops) cnt h ns else (List.rev (o :: ops), cnt, h, ns)
    in
    let ops, cnt, h, ns = pages [] 0 Verify.digest_init 0 in
    if timed then begin
      a.scan_sols <- a.scan_sols + cnt;
      a.scan_ns <- a.scan_ns + ns
    end;
    (ops, cnt, h)
  in
  let upd line =
    let reply, ns = time_ns (fun () -> Proc.request s.conn line) in
    observe a line reply ns;
    Verify.op line reply
  in
  probe_snapshot w a;
  let st = Random.State.make [| cfg.seed; 0xb007 |] and pst = Random.State.make [| cfg.seed; 0x9e57 |] in
  ignore (scan ~timed:false);
  (* The probes of a cycle run outside the window's time: the point
     probe right after the first scan, which leaves the cache complete
     on the restored graph (so every probe meets the same state), and a
     launch step after the cycle. *)
  let t0 = now_ns () in
  let deadline = window_deadline cfg in
  let cycles = ref [] and steps = ref [] and points = ref [] and i = ref 0 and probe_ns = ref 0 in
  let probe f =
    let r, ns = time_ns f in
    probe_ns := !probe_ns + ns;
    r
  in
  while now_ns () - !probe_ns < deadline do
    let p = pairs.(!i mod Array.length pairs) in
    let base = scan ~timed:true in
    points := List.rev_append (probe (fun () -> point_probe w pst a s.conn ~count:cycle_points)) !points;
    let add = upd (add_edge p) in
    let mut = scan ~timed:true in
    let rem = upd (remove_edge p) in
    cycles := (p, base, add, mut, rem) :: !cycles;
    steps := probe (fun () -> launch_step w st a ~pairs:[] ~restores:step_restores !i) :: !steps;
    incr i
  done;
  a.window_ns <- now_ns () - t0 - !probe_ns;
  let steps = List.rev !steps and points = List.rev !points in
  a.rss_mb <- stop_server s;
  write_scripts
    (List.concat_map (fun (_, (b, _, _), add, (m, _, _), rem) -> b @ (add :: m) @ [ rem ]) (List.rev !cycles)
     :: points
     :: List.concat_map (fun l -> [ l.booted; l.restored ]) steps);
  (* verification: the restored graph against one fresh prepare, each
     mutated graph against a fresh prepare of that graph *)
  let r = reference w in
  let full g =
    (* outside every timed region, so on all cores *)
    Nd_engine.to_list (Nd_engine.prepare ~jobs:(Domain.recommended_domain_count ()) g r.phi)
    |> List.map (fun t -> "sol " ^ Inputs.tuple_str t)
    |> fun l -> (List.length l, Verify.digest_lines Verify.digest_init l)
  in
  let base_expect = full r.g in
  let epoch = ref 0 in
  let check_scan (ops, cnt, h) expect =
    if (cnt, h) <> expect || List.exists (fun o -> Verify.is_err o.Verify.reply) ops then
      Verify.flag (List.hd (List.rev ops));
    Verify.settle tally ops
  in
  let check_upd o =
    incr epoch;
    if o.Verify.reply <> [ Printf.sprintf "epoch %d applied 1" !epoch; "ok" ] then Verify.flag o;
    Verify.settle tally [ o ]
  in
  List.iter
    (fun ((u, v), base, add, mut, rem) ->
      check_scan base base_expect;
      check_upd add;
      check_scan mut (full (Nd_graph.Cgraph.apply r.g (Nd_graph.Cgraph.Add_edge (u, v))));
      check_upd rem)
    (List.rev !cycles);
  Verify.against_reference points (expect_session r);
  Verify.against_naive ~limit:60 r.g r.phi points;
  List.iter (fun l -> check_fresh r l.booted; check_fresh r l.restored) steps;
  Verify.settle tally (points @ List.concat_map (fun l -> l.booted @ l.restored) steps);
  a

let run w cfg tally =
  match w with
  | Cold_start -> run_cold cfg tally
  | Point_serve | Routed_pages -> run_point w cfg tally
  | Scan_update -> run_scan cfg tally

(* Every sample of the run, one "kind value" line each, for looking
   behind a percentile. *)
let write_samples a path =
  let oc = open_out path in
  List.iter
    (fun (kind, l) -> List.iter (fun v -> Printf.fprintf oc "%s %.3f\n" kind v) (List.rev l))
    [ ("setup_s", a.setup); ("boot_ms", a.boot); ("restore_ms", a.restore); ("next_us", a.next);
      ("test_us", a.test); ("page_ms", a.page); ("update_ms", a.update) ];
  close_out oc

(* The run's end-to-end metrics, and the p99s, which are printed but
   not bounded (see README.md). *)
let metrics w a =
  write_samples a "samples.txt";
  let p50 = median and p99 = percentile 99. in
  let window_s = float_of_int a.window_ns /. 1e9 in
  let sols_per_s =
    if w = Scan_update then float_of_int a.scan_sols /. (float_of_int a.scan_ns /. 1e9)
    else median a.page_rate
  in
  ( [
    ("setup_s", median a.setup, "s");
    ("boot_ms.p50", p50 a.boot, "ms");
    ("restore_ms.p50", p50 a.restore, "ms");
    ("snapshot_mb", a.snapshot_mb, "MB");
    ("peak_rss_mb", a.rss_mb, "MB");
    ("req_per_s", float_of_int a.reqs /. window_s, "1/s");
    ("next_us.p50", p50 a.next, "us");
    ("test_us.p50", p50 a.test, "us");
    ("page_ms.p50", p50 a.page, "ms");
    ("update_ms.p50", p50 a.update, "ms");
    ("scan_sols_per_s", sols_per_s, "sols/s");
  ],
    [
      ("next_us.p99", p99 a.next, "us");
      ("page_ms.p99", p99 a.page, "ms");
      ("update_ms.p99", p99 a.update, "ms");
    ] )
