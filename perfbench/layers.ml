(* The traced run (--trace 1): per-layer metrics.

   Every workload reports every per-layer metric, measured on that
   workload's own generated graph, query and request stream.  Each
   call into a layer's public functions is timed from this file and
   recorded as a span (Util.span); nothing inside the program is
   instrumented.  The run also times a short slice of the workload
   against the real fodb binary, in blocks with spans on and off, which
   gives trace.overhead_frac and the traced end-to-end time the layer
   waterfall is checked against. *)

open Util
open Nd_graph
open E2e

let ms ns = ms_of_ns ns
let us ns = us_of_ns ns

let p50_us l = median (List.map us l)

(* ---- A: the traced slice of the end-to-end workload ---- *)

type slice = {
  traced : float;  (** primary latency, spans on (ms for boots, us otherwise) *)
  plain : float;  (** the same, spans off *)
  epoch_rtt_us : float;  (** engine-free round trip on the workload's transport *)
}

(* Spans on for samples 0, 3, 4, 7, 8, ...: the on/off order
   alternates (ABBA), so neither side always goes first. *)
let abba i = i mod 4 = 0 || i mod 4 = 3

let epoch_rtts conn = List.init 400 (fun _ -> snd (time_ns (fun () -> Proc.request conn "epoch")))

(* cold-start: ten boots, spans on and off in ABBA order. *)
let slice_cold cfg tally =
  let st = Random.State.make [| cfg.seed; 0x511ce |] in
  let n = n_of Cold_start in
  let r = reference Cold_start in
  let boots = ref [] and rtts = ref [] in
  for i = 0 to 9 do
    tracing := abba i;
    let line = "next " ^ Inputs.tuple_str (Inputs.random_pair st n) in
    let (pid, conn, reply), ns =
      span ~rid:(i + 1) "client.boot" (fun _ ->
          let pid, conn, reply, _ = launch_stdio Cold_start ~snapshot:None ~log:"op.log" line in
          (pid, conn, reply))
    in
    let o = Verify.op line reply in
    Verify.against_reference [ o ] (expect_session r);
    Verify.settle tally [ o ];
    boots := (!tracing, ms ns) :: !boots;
    if i = 1 then rtts := epoch_rtts conn;
    ignore (quit_stdio pid conn)
  done;
  tracing := true;
  let pick b = median (List.filter_map (fun (t, v) -> if t = b then Some v else None) !boots) in
  { traced = pick true; plain = pick false; epoch_rtt_us = p50_us !rtts }

(* Serving workloads: one server, one connection, six blocks with
   spans on and off in ABBA order, each from a fresh cursor.  A block is one
   full scan (scan-update) or a fresh stream of requests; the primary
   latency is a page (scan-update) or next. *)
let slice_serving w cfg tally =
  tracing := true;
  let s, _, _ = fst (span "client.boot" (fun _ -> boot_server w ~first:"next 0,0")) in
  let rid = ref 0 and samples = ref [] and rtts = ref [] in
  (* every request is followed by an untraced epoch round trip, so the
     transport figure comes from the same moments as the primary one *)
  let send line =
    incr rid;
    let reply, ns = span ~rid:!rid "client.request" (fun _ -> Proc.request s.conn line) in
    if prefix (if w = Scan_update then "enumerate" else "next") line then
      samples := (!tracing, us ns) :: !samples;
    let epoch, ens = time_ns (fun () -> Proc.request s.conn "epoch") in
    rtts := ens :: !rtts;
    (Verify.op line reply, Verify.op "epoch" epoch)
  in
  let block b =
    ignore (Proc.request s.conn "reset");
    tracing := abba b;
    let ops =
      if w = Scan_update then
        let rec scan acc =
          let o, e = send "enumerate 1000" in
          if more_pages o.Verify.reply then scan (e :: o :: acc) else List.rev (e :: o :: acc)
        in
        scan []
      else
        let gen = Inputs.point_stream ~seed:cfg.seed ~stream:(200 + b) ~n:(n_of w) in
        List.concat
          (List.init (if w = Routed_pages then 25 else 400) (fun _ ->
               let o, e = send (Inputs.line_of (gen ())) in
               [ o; e ]))
    in
    tracing := true;
    ops
  in
  let blocks = List.init 6 block in
  ignore (stop_server s);
  let r = reference w in
  List.iter
    (fun ops ->
      Verify.against_reference ops (expect_session r);
      Verify.against_naive ~limit:40 r.g r.phi ops;
      Verify.settle tally ops)
    blocks;
  let pick t = median (List.filter_map (fun (t', v) -> if t = t' then Some v else None) !samples) in
  { traced = pick true; plain = pick false; epoch_rtt_us = p50_us !rtts }

(* ---- B: the preprocessing waterfall ---- *)

(* The projection tower Next.build prepares: phi_k = phi and
   phi_j = simplify (exists x_{j+1}. phi_{j+1}). *)
let levels phi =
  let vars = Array.of_list (Nd_logic.Fo.free_vars phi) in
  let k = Array.length vars in
  let qs = Array.make k phi in
  for j = k - 1 downto 1 do
    qs.(j - 1) <- Nd_logic.Fo.simplify (Nd_logic.Fo.Exists (vars.(j), qs.(j)))
  done;
  Array.to_list qs

(* The radii Answer.build uses for its cover and kernels
   (answer.ml: cover_radius / kernel_radius). *)
let cover_radius (c : Nd_core.Compile.compiled) =
  let k = Array.length c.vars and r = c.radius in
  max (2 * r) (max (k * r) (((k - 1) * r) + c.locality))

let needs_kernels (c : Nd_core.Compile.compiled) =
  let k = Array.length c.vars in
  k >= 2
  && List.exists
       (fun (dj : Nd_core.Compile.disjunct) -> Nd_logic.Dtype.component_of dj.tau (k - 1) = [ k - 1 ])
       c.disjuncts

type waterfall = {
  prepare_ns : int;
  build_ns : int;
  cover_ns : int;
  dist_ns : int;
  kernel_ns : int;
  first_ns : int;
  cpu_per_wall : float;
  major : int;
  minor_mwords : float;
  bags : int;
  weight : int;
  degree : int;
  eng : Nd_engine.t;
}

(* The faster of two timed runs (spans under [parent]): layer calls
   are compared with each other by difference, so they must not carry
   one-off noise. *)
let best ?(parent = 0) name f =
  let a = span ~parent name (fun _ -> f ()) and b = span ~parent name (fun _ -> f ()) in
  if snd a <= snd b then a else b

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Process CPU time over wall time across one prepare at fodb's auto job
   count (its default, the recommended domain count). *)
let pool_cpu_per_wall g phi =
  let jobs = Domain.recommended_domain_count () in
  let cpu0 = cpu_s () in
  let _, ns = span "nd_engine.prepare_auto_jobs" (fun _ -> Nd_engine.prepare ~jobs g phi) in
  (cpu_s () -. cpu0) /. (float_of_int ns /. 1e9)

(* Mirrors the benchmark's fodb serve boot: metrics on (fodb's default)
   and one domain (the launches use -j 1, see E2e.jobs_args). *)
let waterfall g phi =
  Nd_engine.reset_metrics ();
  Nd_util.Metrics.enable ();
  let gc0 = Gc.quick_stat () in
  let eng, prepare_ns = span "nd_engine.prepare" (fun _ -> Nd_engine.prepare ~jobs:1 g phi) in
  let gc1 = Gc.quick_stat () in
  let _, first_ns = span "nd_engine.first_next" (fun _ -> Nd_engine.next eng [| 0; 0 |]) in
  let build_ns = ref 0 and cover_ns = ref 0 and dist_ns = ref 0 and kernel_ns = ref 0 in
  let bags = ref 0 and weight = ref 0 and degree = ref 0 in
  List.iter
    (fun q ->
      match Nd_core.Compile.compile q with
      | Nd_core.Compile.Fallback _ -> ()
      | Nd_core.Compile.Compiled c as comp ->
          let _, b = best "nd_core.answer.build" (fun () -> Nd_core.Answer.build g comp) in
          build_ns := !build_ns + b;
          let cover, cv = best "nd_nowhere.cover.compute" (fun () -> Nd_nowhere.Cover.compute g ~r:(cover_radius c)) in
          cover_ns := !cover_ns + cv;
          bags := Nd_nowhere.Cover.bag_count cover;
          weight := Nd_nowhere.Cover.weight cover;
          degree := Nd_nowhere.Cover.degree cover;
          if Array.length c.vars >= 2 then
            dist_ns := !dist_ns + snd (best "nd_core.dist_index.build" (fun () -> Nd_core.Dist_index.build g ~r:c.radius));
          if needs_kernels c then begin
            let p = cover_radius c - c.radius in
            let kernel bag = Nd_nowhere.Kernel.compute g ~bag ~p in
            kernel_ns :=
              !kernel_ns
              + snd (best "nd_nowhere.kernel.compute" (fun () -> ignore (Array.map kernel cover.Nd_nowhere.Cover.bags)))
          end)
    (levels phi);
  Nd_util.Metrics.disable ();
  {
    prepare_ns; build_ns = !build_ns; cover_ns = !cover_ns; dist_ns = !dist_ns; kernel_ns = !kernel_ns;
    first_ns; cpu_per_wall = pool_cpu_per_wall g phi;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    minor_mwords = (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6;
    bags = !bags; weight = !weight; degree = !degree; eng;
  }

(* Process start, file parse and bind, measured on its own: launch
   fodb serve on the same graph with a sentence (no preprocessing to
   speak of) and subtract the in-process cost of that sentence. *)
let boot_other g =
  let q = "exists x. C0(x)" in
  let one () =
    (try Sys.remove "other.log" with Sys_error _ -> ());
    let args = [ "serve"; "-g"; graph_file; "-q"; q ] in
    let (pid, conn), ns =
      span "fodb.boot_sentence" (fun _ ->
          let pid, conn = Proc.spawn_stdio ~log:"other.log" args in
          ignore (Proc.request conn "next");
          (pid, conn))
    in
    ignore (quit_stdio pid conn);
    ms ns
  in
  let launch = median (List.init 3 (fun _ -> one ())) in
  let phi = Nd_logic.Parse.formula q in
  let _, inproc = span "nd_engine.sentence" (fun _ -> Nd_engine.next (Nd_engine.prepare g phi) [||]) in
  launch -. ms inproc

(* ---- C: point answering, replayed in process ---- *)

(* The engine alone doing what a session's [enumerate k] does: [k]
   solutions from [cursor], advancing it. *)
let engine_page eng cursor k =
  let n = Cgraph.n (Nd_engine.graph eng) in
  let rec go i =
    if i < k then
      match !cursor with
      | None -> ()
      | Some a -> (
          match Nd_engine.next eng a with
          | None -> cursor := None
          | Some s ->
              cursor := Nd_util.Tuple.succ ~n s;
              go (i + 1))
  in
  go 0

type point = {
  next_us : float;
  test_us : float;
  enum_us_per_sol : float;
  handle_self_us : float;
  metrics_overhead_us : float;
  scan_steps : float;
  skip_queries : float;
  dist_tests : float;
  cache_hit_frac : float;
  minor_words_per_req : float;
  epoch_handle_us : float;
}

let counter cs name = float_of_int (Option.value ~default:0 (List.assoc_opt name cs))

let point_replay cfg eng =
  let n = Cgraph.n (Nd_engine.graph eng) in
  let gen = Inputs.point_stream ~seed:cfg.seed ~stream:0 ~n in
  let reqs = List.init 3000 (fun _ -> gen ()) in
  let cursor = ref (Some [| 0; 0 |]) in
  let engine_call = function
    | Inputs.Next t -> ignore (Nd_engine.next eng t)
    | Inputs.Test t -> ignore (Nd_engine.test eng t)
    | Inputs.Page k -> engine_page eng cursor k
  in
  fst @@ span "layers.point" @@ fun parent ->
  let handle_pass name =
    let s = Nd_server.session (Nd_server.create eng) in
    List.map (fun r -> snd (span ~parent name (fun _ -> ignore (Nd_server.handle s (Inputs.line_of r))))) reqs
  in
  (* metrics on first, over the handle's fresh cache (as the server
     starts), so the counters see what the served stream sees; the
     two later passes meet a warmer cache only on pages *)
  Nd_engine.reset_metrics ();
  Nd_util.Metrics.enable ();
  let w0 = Gc.minor_words () in
  let on = handle_pass "nd_server.handle.metrics_on" in
  let words = Gc.minor_words () -. w0 in
  let cs = (Nd_engine.stats eng).Nd_engine.Stats.counters in
  Nd_util.Metrics.disable ();
  let eng_ns = List.map (fun r -> snd (span ~parent "nd_engine.call" (fun _ -> engine_call r))) reqs in
  let off = handle_pass "nd_server.handle" in
  let is_next = function Inputs.Next _ -> true | _ -> false
  and is_test = function Inputs.Test _ -> true | _ -> false
  and is_page = function Inputs.Page _ -> true | _ -> false in
  let reqs_a = Array.of_list reqs in
  let pick f l = List.filteri (fun i _ -> f reqs_a.(i)) l in
  let npages = List.length (pick is_page eng_ns) in
  let page_sols = 100 * npages in
  let lookups = List.length (pick is_next eng_ns) + List.length (pick is_test eng_ns) + page_sols in
  let nreq = float_of_int (List.length reqs) in
  let epoch_s = Nd_server.session (Nd_server.create eng) in
  let epoch_h = List.init 400 (fun _ -> snd (time_ns (fun () -> Nd_server.handle epoch_s "epoch"))) in
  {
    next_us = p50_us (pick is_next eng_ns);
    test_us = p50_us (pick is_test eng_ns);
    enum_us_per_sol = sum (List.map us (pick is_page eng_ns)) /. float_of_int (max 1 page_sols);
    handle_self_us = median (List.map2 (fun h e -> us (h - e)) off eng_ns);
    metrics_overhead_us = median (List.map2 (fun a b -> us (a - b)) on off);
    scan_steps = counter cs "answer.scan_steps" /. nreq;
    skip_queries = counter cs "answer.skip_queries" /. nreq;
    dist_tests = counter cs "dist.tests" /. nreq;
    cache_hit_frac = counter cs "engine.cache_hits" /. float_of_int (max 1 lookups);
    minor_words_per_req = words /. nreq;
    epoch_handle_us = p50_us epoch_h;
  }

(* ---- D: updates, the store and the live path ---- *)

type upd = {
  update_ms : float;
  evicted_per_update : float;
  prefix_frac : float;
  add_us : float;
  remove_us : float;
  succ_us : float;
  space_mwords : float;
  live_us_per_sol : float;
  page_self_us : float;
  engine_page_us : float;
}

let fill eng = Nd_engine.enumerate ~limit:Nd_engine.(Stats.((stats eng).cache_limit)) ignore eng

let updates cfg g phi eng =
  fst @@ span "layers.update" @@ fun parent ->
  let pairs = Inputs.distance2_pairs ~seed:cfg.seed ~count:2 g in
  fill eng;
  let evicted = ref [] and times = ref [] and prefix = ref [] in
  List.iter
    (fun (u, v) ->
      List.iter
        (fun m ->
          let before = Nd_engine.cache_size eng in
          let _, ns = span ~parent "nd_engine.update" (fun _ -> Nd_engine.update eng m) in
          let after = Nd_engine.cache_size eng in
          times := ms ns :: !times;
          evicted := float_of_int (before - after) :: !evicted;
          fill eng;
          prefix := float_of_int after /. float_of_int (max 1 (Nd_engine.cache_size eng)) :: !prefix)
        [ Cgraph.Add_edge (u, v); Cgraph.Remove_edge (u, v) ])
    pairs;
  (* the standalone Theorem 3.1 store, fed the cache's keys *)
  let keys = Array.of_list (Nd_engine.to_list ~limit:100_000 eng) in
  let nk = Array.length keys in
  let n = Cgraph.n g in
  let st = Nd_ram.Store.create ~n ~k:2 ~epsilon:0.5 in
  let _, add_ns = span ~parent "nd_ram.store.add" (fun _ -> Array.iter (fun k -> Nd_ram.Store.add st k ()) keys) in
  let space = Nd_ram.Store.space st in
  let rs = Random.State.make [| cfg.seed; 0x5cc |] in
  let probes = Array.init 20_000 (fun _ -> Inputs.random_pair rs n) in
  let _, succ_ns = span ~parent "nd_ram.store.succ_geq" (fun _ -> Array.iter (fun k -> ignore (Nd_ram.Store.succ_geq st k)) probes) in
  let ev = max 1 (min nk (int_of_float (median !evicted))) in
  let _, rm_ns =
    span ~parent "nd_ram.store.remove" (fun _ ->
        for i = nk - 1 downto nk - ev do
          Nd_ram.Store.remove st keys.(i)
        done)
  in
  (* the live pipeline, no cache *)
  let nx, _ = span ~parent "nd_core.next.build" (fun _ -> Nd_core.Next.build g phi) in
  let live = min 20_000 (max 1 nk) in
  let _, live_ns =
    span ~parent "nd_core.next.live" (fun _ ->
        let rec go i a =
          if i < live then
            match Nd_core.Next.next_solution nx a with
            | None -> ()
            | Some s -> ( match Nd_util.Tuple.succ ~n s with None -> () | Some a' -> go (i + 1) a')
        in
        go 0 [| 0; 0 |])
  in
  (* page self time: enumerate 1000 through the server vs the same
     solutions straight from the engine, both over the warm cache and
     with metrics on, as fodb serve runs *)
  fill eng;
  Nd_util.Metrics.enable ();
  let sess = Nd_server.session (Nd_server.create eng) in
  let cursor = ref (Some [| 0; 0 |]) in
  let diffs =
    List.init 20 (fun _ ->
        let _, e = span ~parent "nd_engine.page" (fun _ -> engine_page eng cursor 1000) in
        let _, h = span ~parent "nd_server.page" (fun _ -> ignore (Nd_server.handle sess "enumerate 1000")) in
        (us (h - e), us e))
  in
  Nd_util.Metrics.disable ();
  {
    update_ms = median !times;
    evicted_per_update = sum !evicted /. float_of_int (List.length !evicted);
    prefix_frac = median !prefix;
    add_us = us add_ns /. float_of_int (max 1 nk);
    remove_us = us rm_ns /. float_of_int ev;
    succ_us = us succ_ns /. float_of_int (Array.length probes);
    space_mwords = float_of_int space /. 1e6;
    live_us_per_sol = us live_ns /. float_of_int live;
    page_self_us = median (List.map fst diffs);
    engine_page_us = median (List.map snd diffs);
  }

(* ---- E: the router over in-process shards ---- *)

type router = {
  self_us : float;
  call_us : float;
  calls_per_req : float;
  next_path_us : float;  (** median over next requests of router self + shard calls *)
  merge_us : float;
}

(* fodb cluster's workers revive the parent's boot snapshot and serve
   with metrics on; the in-process shards here do the same. *)
let router_replay cfg g phi eng =
  let module R = Nd_cluster.Router in
  fst @@ span "layers.router" @@ fun parent ->
  let own = Nd_cluster.Ownership.compute g ~shards:2 in
  let revive () =
    match Nd_snapshot.load ~path:"boot.snap" g phi with
    | Ok e -> e
    | Error c -> failwith ("boot snapshot: " ^ Nd_snapshot.describe c)
  in
  let calls = ref [] and all_calls = ref [] in
  let cur = ref 0 in
  let endpoint s =
    let srv =
      Nd_server.create
        ~config:{ Nd_server.default_config with owner = Some (Nd_cluster.Ownership.owner own ~shard:s) }
        (revive ())
    in
    R.endpoint ~shard:s ~label:(Printf.sprintf "shard-%d" s) (fun () ->
        let sess = Nd_server.session srv in
        Ok
          {
            R.transport =
              (fun line ->
                let r, ns = span ~parent:!cur "nd_cluster.shard_call" (fun _ -> Nd_server.handle sess line) in
                calls := ns :: !calls;
                r);
            read_reply = (fun _ -> None);
            close = ignore;
          })
  in
  let rt = R.create ~ownership:own ~arity:2 [ endpoint 0; endpoint 1 ] in
  let n = Cgraph.n g in
  (* the request blocks the traced slice sent to fodb cluster, each
     from a fresh cursor *)
  let reqs =
    List.concat
      (List.init 6 (fun b ->
           let gen = Inputs.point_stream ~seed:cfg.seed ~stream:(200 + b) ~n in
           "reset" :: List.init 25 (fun _ -> Inputs.line_of (gen ()))))
  in
  ignore (R.handle rt "epoch");
  Nd_util.Metrics.enable ();
  (* per request: (is next, router self ns, shard calls' total ns) *)
  let measured =
    List.filter_map
      (fun line ->
        if line = "reset" then (ignore (R.handle rt line); None)
        else begin
          calls := [];
          let _, total =
            span ~parent "nd_cluster.router.handle" (fun id ->
                cur := id;
                R.handle rt line)
          in
          all_calls := !calls @ !all_calls;
          let sc = List.fold_left ( + ) 0 !calls in
          Some (String.starts_with ~prefix:"next" line, total - sc, sc, List.length !calls)
        end)
      reqs
  in
  Nd_util.Metrics.disable ();
  (* merge over an in-memory pull: two sorted streams split by owner *)
  let sols = Array.of_list (Nd_engine.to_list ~limit:20_000 eng) in
  let streams =
    Array.init 2 (fun s -> Array.of_list (List.filter (Nd_cluster.Ownership.owner own ~shard:s) (Array.to_list sols)))
  in
  let pull sh lb =
    let a = streams.(sh) in
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Nd_util.Tuple.compare a.(mid) lb < 0 then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length a then Some a.(!lo) else None
  in
  let pages = ref 0 in
  let _, merge_ns =
    span ~parent "nd_cluster.merge.merge_pull" (fun _ ->
        let rec go start =
          match start with
          | None -> ()
          | Some _ ->
              incr pages;
              let _, nxt = Nd_cluster.Merge.merge_pull ~n ~k:100 ~start ~shards:2 ~pull in
              go nxt
        in
        go (Some [| 0; 0 |]))
  in
  let nexts = List.filter (fun (is_next, _, _, _) -> is_next) measured in
  {
    self_us = p50_us (List.map (fun (_, self, _, _) -> self) measured);
    call_us = p50_us !all_calls;
    calls_per_req =
      float_of_int (List.fold_left (fun acc (_, _, _, c) -> acc + c) 0 measured)
      /. float_of_int (List.length measured);
    next_path_us = p50_us (List.map (fun (_, self, sc, _) -> self + sc) nexts);
    merge_us = us merge_ns /. float_of_int (max 1 !pages);
  }

(* ---- the snapshot layer ---- *)

let snapshot_times g phi eng =
  fill eng;
  fst @@ span "layers.snapshot" @@ fun parent ->
  let _, save_ns = best ~parent "nd_snapshot.save" (fun () -> ignore (Nd_snapshot.save ~path:"layers.snap" eng)) in
  let _, load_ns =
    best ~parent "nd_snapshot.load" (fun () ->
        match Nd_snapshot.load ~path:"layers.snap" g phi with
        | Ok _ -> ()
        | Error c -> failwith ("snapshot load: " ^ Nd_snapshot.describe c))
  in
  Sys.remove "layers.snap";
  (ms save_ns, ms load_ns)

let gap e2e parts =
  Printf.printf "blocking path: traced end-to-end %.4g, layer parts %s (sum %.4g)\n" e2e
    (String.concat " + " (List.map (Printf.sprintf "%.4g") parts))
    (sum parts);
  Float.abs (sum parts -. e2e) /. e2e

let run w cfg tally =
  tracing := true;
  Inputs.write_graph ~seed:cfg.seed ~spec:(spec w) graph_file;
  let g = Inputs.load_graph graph_file and phi = Nd_logic.Parse.formula (query w) in
  let sl = if w = Cold_start then slice_cold cfg tally else slice_serving w cfg tally in
  tracing := true;
  let wf = waterfall g phi in
  ignore (Nd_snapshot.save ~path:"boot.snap" wf.eng);
  let other_ms = boot_other g in
  let pt = point_replay cfg wf.eng in
  let save_ms, load_ms = snapshot_times g phi wf.eng in
  let up = updates cfg g phi wf.eng in
  let ro = router_replay cfg g phi wf.eng in
  Sys.remove "boot.snap";
  write_spans "spans.jsonl";
  let transport_us = sl.epoch_rtt_us -. pt.epoch_handle_us in
  let cdk = wf.cover_ns + wf.dist_ns + wf.kernel_ns in
  (* the blocking path of each workload's primary latency *)
  let gap_frac =
    match w with
    | Cold_start ->
        gap sl.traced
          [ other_ms; ms wf.cover_ns; ms wf.dist_ns; ms wf.kernel_ns; ms (wf.build_ns - cdk);
            ms (wf.prepare_ns - wf.build_ns); ms wf.first_ns ]
    | Point_serve ->
        (* fodb serve runs with metrics on by default *)
        gap sl.traced [ transport_us; pt.handle_self_us; pt.metrics_overhead_us; pt.next_us ]
    | Routed_pages -> gap sl.traced [ transport_us; ro.next_path_us ]
    | Scan_update -> gap sl.traced [ transport_us; up.page_self_us; up.engine_page_us ]
  in
  Printf.printf "self time per span (name, count, total ms, median us):\n";
  List.iter (fun (name, c, tot, med) -> Printf.printf "  %-36s %7d %12.3f %12.3f\n" name c tot med) (self_table ());
  [
    ("nd_nowhere.cover.compute_ms", ms wf.cover_ns, "ms");
    ("nd_nowhere.kernel.compute_ms", ms wf.kernel_ns, "ms");
    ("nd_core.dist_index.build_ms", ms wf.dist_ns, "ms");
    ("nd_core.answer.build_self_ms", ms (wf.build_ns - cdk), "ms");
    ("nd_engine.prepare_ms", ms wf.prepare_ns, "ms");
    ("nd_util.pool.cpu_per_wall", wf.cpu_per_wall, "ratio");
    ("fodb.boot_other_ms", other_ms, "ms");
    ("runtime.gc.major_collections", float_of_int wf.major, "count");
    ("runtime.gc.minor_mwords", wf.minor_mwords, "Mwords");
    ("nd_nowhere.cover.bags", float_of_int wf.bags, "count");
    ("nd_nowhere.cover.weight", float_of_int wf.weight, "count");
    ("nd_nowhere.cover.degree", float_of_int wf.degree, "count");
    ("nd_snapshot.load_ms", load_ms, "ms");
    ("nd_snapshot.save_ms", save_ms, "ms");
    ("nd_engine.next_us.p50", pt.next_us, "us");
    ("nd_engine.test_us.p50", pt.test_us, "us");
    ("nd_engine.enumerate_us_per_sol", pt.enum_us_per_sol, "us");
    ("nd_server.handle_self_us.p50", pt.handle_self_us, "us");
    ("nd_util.metrics.overhead_us.p50", pt.metrics_overhead_us, "us");
    ("transport.self_us.p50", transport_us, "us");
    ("nd_core.answer.scan_steps_per_req", pt.scan_steps, "count");
    ("nd_core.answer.skip_queries_per_req", pt.skip_queries, "count");
    ("nd_core.dist.tests_per_req", pt.dist_tests, "count");
    ("nd_engine.cache_hit_frac", pt.cache_hit_frac, "ratio");
    ("runtime.gc.minor_words_per_req", pt.minor_words_per_req, "words");
    ("nd_engine.update_ms.p50", up.update_ms, "ms");
    ("nd_engine.cache_evicted_per_update", up.evicted_per_update, "count");
    ("nd_ram.store.remove_us", up.remove_us, "us");
    ("nd_ram.store.add_us", up.add_us, "us");
    ("nd_ram.store.succ_geq_us", up.succ_us, "us");
    ("nd_ram.store.space_mwords", up.space_mwords, "Mwords");
    ("nd_engine.cache_prefix_frac", up.prefix_frac, "ratio");
    ("nd_core.next.live_us_per_sol", up.live_us_per_sol, "us");
    ("nd_server.page_self_us", up.page_self_us, "us");
    ("nd_cluster.router.self_us.p50", ro.self_us, "us");
    ("nd_cluster.shard_call_us.p50", ro.call_us, "us");
    ("nd_cluster.shard_calls_per_req", ro.calls_per_req, "count");
    ("nd_cluster.merge.pull_us", ro.merge_us, "us");
    ("trace.overhead_frac", (sl.traced -. sl.plain) /. sl.plain, "ratio");
    ("waterfall.gap_frac", gap_frac, "ratio");
  ]
