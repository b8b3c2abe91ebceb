(* Experiment harness: one experiment per theorem/figure of the paper
   (see DESIGN.md §3 for the index and EXPERIMENTS.md for recorded
   outcomes).  The paper is purely theoretical — no tables of its own —
   so each experiment validates the corresponding complexity claim
   empirically: flat per-operation latency, near-linear preprocessing,
   pseudo-constant cover/SC degrees, and qualitative separation from
   naive baselines and dense control families.

   Usage:
     dune exec bench/main.exe                 -- full run
     dune exec bench/main.exe -- --quick      -- smaller sizes
     dune exec bench/main.exe -- --only E5 E9 -- selected experiments
     dune exec bench/main.exe -- --micro      -- include Bechamel micro rows
     dune exec bench/main.exe -- --smoke      -- tiny EE run (BENCH_engine.json)

   Pipeline-shaped experiments (E7, E9, E11, A1, EE, micro) run through
   the Nd_engine façade; experiments benchmarking a sub-structure in
   isolation (E1/E2 store, E3 cover, E5 distance index, E6 skip) keep
   direct layer access on purpose. *)

open Nd_graph
open Nd_bench_util

let quick = ref false
let only : string list ref = ref []
let micro = ref false
let smoke = ref false

let f1 = Printf.sprintf "%.1f"
let f2 = Printf.sprintf "%.2f"
let si = string_of_int

let rng = Random.State.make [| 2022 |]

let rand_vertex n = Random.State.int rng n

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: the Storing Theorem register file.                    *)

let e1_figure1 () =
  let module S = Nd_ram.Store in
  let t = S.create ~n:27 ~k:1 ~epsilon:(1. /. 3.) in
  List.iter (fun x -> S.add t [| x |] x) [ 2; 4; 5; 19; 24; 25 ];
  let c = S.canonicalize t in
  let dump = S.dump ~pp_value:Format.pp_print_int c in
  print_string dump;
  let has s =
    List.exists (fun l -> l = s) (String.split_on_char '\n' dump)
  in
  let checks =
    [
      ("R_1: (1, 5)", "first child of the root is the node at R_5");
      ("R_2: (0, (19))", "empty subtree points at next key 19");
      ("R_8: (-1, 1)", "back-pointer to the register pointing here");
      ("R_19: (1, 5)", "leaf of key 5 holds f(5) = 5");
      ("R_0: 29 (next free register)", "29 registers in use");
    ]
  in
  print_table ~title:"E1 / Figure 1: caption register contents"
    ~header:[ "register"; "matches paper"; "meaning" ]
    (List.map
       (fun (line, why) -> [ line; (if has line then "yes" else "NO"); why ])
       checks);
  note
    "Layout uses BFS node order (the figure's); insertion allocates \
     depth-first, hence `canonicalize`.";
  note
    "The caption's prose for R_8 misattributes the register to the root; \
     contents match the formal description of Section 3.1."

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 3.1: storing-structure scaling.                         *)

let e2_storing () =
  let module S = Nd_ram.Store in
  let sizes =
    if !quick then [ 1 lsl 10; 1 lsl 12; 1 lsl 14 ]
    else [ 1 lsl 10; 1 lsl 12; 1 lsl 14; 1 lsl 16; 1 lsl 18 ]
  in
  let eps = 0.25 in
  (* warm up allocators and code paths before timing *)
  let warm = S.create ~n:1024 ~k:1 ~epsilon:eps in
  for i = 0 to 511 do
    S.add warm [| (i * 37) mod 1024 |] i
  done;
  let rows = ref [] in
  let init_pts = ref [] in
  List.iter
    (fun n ->
      let m = n / 4 in
      let keys = Array.init m (fun _ -> [| rand_vertex n |]) in
      let t = S.create ~n ~k:1 ~epsilon:eps in
      let (), t_init = time (fun () -> Array.iter (fun k -> S.add t k 1) keys) in
      let lookups = 100_000 in
      let t_find =
        time_per ~repeat:lookups (fun () ->
            ignore (S.find t [| rand_vertex n |]))
      in
      let t_succ =
        time_per ~repeat:lookups (fun () ->
            ignore (S.succ_geq t [| rand_vertex n |]))
      in
      let space_per = float_of_int (S.space t) /. float_of_int (S.cardinal t) in
      init_pts := (float_of_int m, t_init) :: !init_pts;
      rows :=
        [
          si n; si (S.cardinal t); si (S.degree t);
          ns (t_init /. float_of_int m); ns t_find; ns t_succ; f1 space_per;
        ]
        :: !rows)
    sizes;
  print_table
    ~title:
      (Printf.sprintf
         "E2 / Theorem 3.1: k=1, eps=%.2f (init O(n^eps)/key, lookup O(1), \
          space O(|Dom|*n^eps))"
         eps)
    ~header:[ "n"; "|Dom|"; "d"; "init/key"; "find"; "succ_geq"; "regs/|Dom|" ]
    (List.rev !rows);
  note
    (Printf.sprintf "init scaling exponent vs |Dom|: %.2f (1.0 = linear)"
       (fit_exponent !init_pts));
  let rows2 = ref [] in
  List.iter
    (fun n ->
      let m = n in
      let t = S.create ~n ~k:2 ~epsilon:0.5 in
      let keys = Array.init m (fun _ -> [| rand_vertex n; rand_vertex n |]) in
      let (), t_init = time (fun () -> Array.iter (fun k -> S.add t k 1) keys) in
      let t_find =
        time_per ~repeat:50_000 (fun () ->
            ignore (S.find t [| rand_vertex n; rand_vertex n |]))
      in
      rows2 :=
        [ si n; si (S.cardinal t); ns (t_init /. float_of_int m); ns t_find ]
        :: !rows2)
    (List.map (fun n -> n / 16) sizes);
  print_table ~title:"E2b / Theorem 3.1: binary keys (k=2, eps=0.5)"
    ~header:[ "n"; "|Dom|"; "init/key"; "find" ]
    (List.rev !rows2)

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 4.4: neighborhood-cover quality across the zoo.         *)

let e3_cover () =
  let target = if !quick then 1_500 else 12_000 in
  let rows = ref [] in
  List.iter
    (fun fam ->
      let g = fam.Gen.build target in
      List.iter
        (fun r ->
          let c, t = time (fun () -> Nd_nowhere.Cover.compute g ~r) in
          rows :=
            [
              fam.Gen.name;
              (if fam.Gen.nowhere_dense then "nd" else "dense");
              si (Cgraph.n g); si r;
              si (Nd_nowhere.Cover.bag_count c);
              si (Nd_nowhere.Cover.degree c);
              f2
                (float_of_int (Nd_nowhere.Cover.weight c)
                /. float_of_int (Cgraph.n g));
              ns t;
            ]
            :: !rows)
        [ 1; 2; 4 ])
    Gen.families;
  print_table
    ~title:
      "E3 / Theorem 4.4: (r,2r)-neighborhood covers (degree pseudo-constant \
       on nowhere dense families)"
    ~header:
      [ "family"; "class"; "n"; "r"; "bags"; "degree"; "sum|X|/n"; "build" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 4.6: measured splitter-game depth.                      *)

let e4_splitter () =
  let target = if !quick then 400 else 1_000 in
  let rows = ref [] in
  List.iter
    (fun fam ->
      let g = fam.Gen.build target in
      List.iter
        (fun r ->
          let res =
            Nd_nowhere.Splitter.measured_lambda g ~r ~max_rounds:40
              ~splitter:Nd_nowhere.Splitter.splitter_center
          in
          rows :=
            [
              fam.Gen.name;
              (if fam.Gen.nowhere_dense then "nd" else "dense");
              si (Cgraph.n g); si r;
              (match res with
              | Some l -> si l
              | None -> ">40 (Connector survives)");
            ]
            :: !rows)
        [ 1; 2 ])
    Gen.families;
  print_table
    ~title:
      "E4 / Theorem 4.6: rounds Splitter needs (bounded on nowhere dense \
       families, ~n on cliques)"
    ~header:[ "family"; "class"; "n"; "r"; "measured lambda" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E5 — Proposition 4.2: the distance index.                            *)

let e5_families = [ "grid"; "random-tree"; "bounded-deg-4"; "planar-grid" ]

let e5_sizes () =
  if !quick then [ 1_000; 2_000; 4_000 ]
  else [ 2_000; 4_000; 8_000; 16_000; 32_000 ]

let e5_dist_index () =
  let r = 2 in
  let queries = 20_000 in
  List.iter
    (fun fname ->
      let fam = List.find (fun f -> f.Gen.name = fname) Gen.families in
      let rows = ref [] in
      let build_pts = ref [] in
      List.iter
        (fun target ->
          let g = fam.Gen.build target in
          let n = Cgraph.n g in
          let idx, t_build = time (fun () -> Nd_core.Dist_index.build g ~r) in
          let near () =
            let a = rand_vertex n in
            let ball = Bfs.ball g a ~radius:(2 * r) in
            (a, ball.(Random.State.int rng (Array.length ball)))
          in
          let pairs =
            Array.init queries (fun i ->
                if i mod 2 = 0 then (rand_vertex n, rand_vertex n) else near ())
          in
          let i = ref 0 in
          let t_test =
            time_per ~repeat:queries (fun () ->
                let a, b = pairs.(!i) in
                incr i;
                ignore (Nd_core.Dist_index.test idx a b))
          in
          let i = ref 0 in
          let t_bfs =
            time_per ~repeat:(queries / 10) (fun () ->
                let a, b = pairs.(!i) in
                incr i;
                let d = Bfs.dist_upto g a ~radius:r in
                ignore (d.(b) >= 0))
          in
          let s = Nd_core.Dist_index.stats idx in
          build_pts := (float_of_int n, t_build) :: !build_pts;
          rows :=
            [
              si n; ns t_build; si s.Nd_core.Dist_index.levels;
              si s.Nd_core.Dist_index.base_pairs; ns t_test; ns t_bfs;
              f1 (t_bfs /. t_test);
            ]
            :: !rows)
        (e5_sizes ());
      print_table
        ~title:
          (Printf.sprintf
             "E5 / Proposition 4.2: distance index, %s, r=%d (flat test \
              latency; per-query BFS baseline grows)"
             fname r)
        ~header:
          [
            "n"; "build"; "levels"; "stored pairs"; "test"; "bfs/query";
            "speedup";
          ]
        (List.rev !rows);
      note
        (Printf.sprintf "build scaling exponent: %.2f"
           (fit_exponent !build_pts)))
    e5_families

(* ------------------------------------------------------------------ *)
(* E6 — Lemma 5.8: skip pointers.                                       *)

let e6_skip () =
  let sizes = if !quick then [ 1_024; 2_025 ] else [ 2_025; 8_100; 32_400 ] in
  let rows = ref [] in
  List.iter
    (fun target ->
      (* Grids have row-major vertex ids, so kernels are near-contiguous
         id ranges — the regime where scanning the label set must walk
         long kernel runs and SKIP jumps over them (the paper's
         Example 2 scenario). *)
      let side = int_of_float (sqrt (float_of_int target)) in
      let g = Gen.grid side side in
      let n = Cgraph.n g in
      let r = 4 in
      let cover = Nd_nowhere.Cover.compute g ~r in
      let kernels =
        Array.map
          (fun bag -> Nd_nowhere.Kernel.compute g ~bag ~p:r)
          cover.Nd_nowhere.Cover.bags
      in
      let kernels_of v =
        List.filter
          (fun x -> Nd_util.Sorted.mem kernels.(x) v)
          (Array.to_list cover.Nd_nowhere.Cover.bags_of.(v))
      in
      (* every vertex is labeled: SKIP(b,S) = next vertex outside the
         kernels of S *)
      let l = Array.init n Fun.id in
      let t, t_build =
        time (fun () -> Nd_core.Skip.build ~kernels ~kernels_of ~l ~n ~k:2)
      in
      let nbags = Array.length cover.Nd_nowhere.Cover.bags in
      let queries = 20_000 in
      let qs =
        Array.init queries (fun _ ->
            (* start inside kernels whenever possible *)
            let b = rand_vertex n in
            match kernels_of b with
            | [ x ] -> (b, [ x ])
            | x :: y :: _ -> (b, [ x; y ])
            | [] -> (b, [ Random.State.int rng nbags ]))
      in
      let i = ref 0 in
      let t_skip =
        time_per ~repeat:queries (fun () ->
            let b, bags = qs.(!i) in
            incr i;
            ignore (Nd_core.Skip.skip t ~b ~bags))
      in
      let i = ref 0 in
      let t_naive =
        time_per ~repeat:(queries / 10) (fun () ->
            let b, bags = qs.(!i) in
            incr i;
            ignore (Nd_core.Skip.skip_naive t ~b ~bags))
      in
      rows :=
        [
          si n; si nbags; si (Nd_core.Skip.max_sc t);
          f2 (float_of_int (Nd_core.Skip.table_size t) /. float_of_int n);
          ns t_build; ns t_skip; ns t_naive;
        ]
        :: !rows)
    sizes;
  print_table
    ~title:
      "E6 / Lemma 5.8: skip pointers (|SC(b)| pseudo-constant, O(1) SKIP vs \
       label-scan baseline)"
    ~header:
      [ "n"; "bags"; "max|SC|"; "table/n"; "build"; "SKIP"; "scan baseline" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E7/E8 — Theorem 2.3 + Corollary 2.4: next-solution and testing.      *)

let bench_queries =
  [
    ("close-pair", "dist(x,y) <= 2");
    ("far-color", "dist(x,y) > 2 & C1(y)");
    ("join", "exists z. E(x,z) & E(z,y)");
    ("ternary", "E(x,y) & dist(y,z) <= 2 & dist(x,z) > 2 & C0(z)");
  ]

let e7_families = [ "grid"; "bounded-deg-4" ]

let e7_next_and_test () =
  let sizes =
    if !quick then [ 500; 1_000; 2_000 ] else [ 1_000; 4_000; 16_000 ]
  in
  List.iter
    (fun fname ->
      let fam = List.find (fun f -> f.Gen.name = fname) Gen.families in
      List.iter
        (fun (qname, qtext) ->
          let phi = Nd_logic.Parse.formula qtext in
          let k = Nd_logic.Fo.arity phi in
          let rows = ref [] in
          let prep_pts = ref [] in
          List.iter
            (fun target ->
              let g =
                Gen.randomly_color ~seed:7 ~colors:2 (fam.Gen.build target)
              in
              let n = Cgraph.n g in
              (* cache off: measure the live Theorem 2.3 path itself *)
              let eng, t_prep =
                time (fun () -> Nd_engine.prepare ~cache_limit:0 g phi)
              in
              let calls = if !quick then 2_000 else 5_000 in
              let tuples =
                Array.init calls (fun _ ->
                    Array.init k (fun _ -> rand_vertex n))
              in
              let i = ref 0 in
              let t_next =
                time_per ~repeat:calls (fun () ->
                    ignore (Nd_engine.next eng tuples.(!i));
                    incr i)
              in
              let i = ref 0 in
              let t_test =
                time_per ~repeat:calls (fun () ->
                    ignore (Nd_engine.test eng tuples.(!i));
                    incr i)
              in
              prep_pts := (float_of_int n, t_prep) :: !prep_pts;
              rows := [ si n; ns t_prep; ns t_next; ns t_test ] :: !rows)
            sizes;
          print_table
            ~title:
              (Printf.sprintf
                 "E7+E8 / Thm 2.3 & Cor 2.4: %s on %s — %s (flat per-call \
                  latency)"
                 qname fname qtext)
            ~header:[ "n"; "preprocess"; "next_solution"; "test" ]
            (List.rev !rows);
          note
            (Printf.sprintf "preprocessing scaling exponent: %.2f"
               (fit_exponent !prep_pts)))
        bench_queries)
    e7_families

(* ------------------------------------------------------------------ *)
(* E9 — Corollary 2.5: enumeration delay and naive comparison.          *)

let e9_enumeration () =
  let sizes =
    if !quick then [ 500; 1_000; 2_000 ] else [ 1_000; 4_000; 16_000 ]
  in
  List.iter
    (fun (qname, qtext) ->
      let phi = Nd_logic.Parse.formula qtext in
      let rows = ref [] in
      List.iter
        (fun target ->
          let side = int_of_float (sqrt (float_of_int target)) in
          let g =
            Gen.randomly_color ~seed:9 ~colors:2 (Gen.grid side side)
          in
          let n = Cgraph.n g in
          (* metrics on (for the ops-delay histogram), cache off (wall
             delays must measure the pipeline, not store upkeep) *)
          Nd_engine.reset_metrics ();
          let eng, t_prep =
            time (fun () ->
                Nd_engine.prepare ~metrics:true ~cache_limit:0 g phi)
          in
          let cap = 50_000 in
          let delays = ref [] and count = ref 0 in
          let last = ref (Unix.gettimeofday ()) in
          let t_first = ref 0. in
          let t0 = Unix.gettimeofday () in
          Nd_engine.enumerate ~limit:cap
            (fun _ ->
              let now = Unix.gettimeofday () in
              if !count = 0 then t_first := now -. t0
              else delays := (now -. !last) :: !delays;
              last := now;
              incr count)
            eng;
          let d = Array.of_list !delays in
          let max_delay_ops =
            (Nd_engine.stats eng).Nd_engine.Stats.max_delay_ops
          in
          let naive =
            if n <= 1_100 then begin
              let ctx = Nd_eval.Naive.ctx g in
              let _, t =
                time (fun () ->
                    ignore
                      (Nd_eval.Naive.eval_all ctx
                         ~vars:(Nd_logic.Fo.free_vars phi) phi))
              in
              ns t
            end
            else "-"
          in
          rows :=
            [
              si n; ns t_prep; si !count; ns !t_first;
              ns (percentile d 50.); ns (percentile d 95.);
              ns (percentile d 99.9); si max_delay_ops; naive;
            ]
            :: !rows)
        sizes;
      print_table
        ~title:
          (Printf.sprintf
             "E9 / Corollary 2.5: enumeration of %s on grids — %s (delay \
              percentiles flat vs n; naive total explodes)"
             qname qtext)
        ~header:
          [
            "n"; "preprocess"; "solutions"; "first"; "delay p50"; "delay p95";
            "delay p99.9"; "max ops"; "naive total";
          ]
        (List.rev !rows);
      Nd_util.Metrics.disable ())
    [ ("close-pair", "dist(x,y) <= 2"); ("far-color", "dist(x,y) > 2 & C1(y)") ]

(* ------------------------------------------------------------------ *)
(* E11 — counting without enumerating (the Grohe–Schweikardt companion
   result the introduction cites: |q(G)| can be quadratic while the
   count is computable in pseudo-linear time).                          *)

let e11_counting () =
  let sizes =
    if !quick then [ 1_000; 2_000; 4_000 ] else [ 2_000; 8_000; 32_000 ]
  in
  let phi = Nd_logic.Parse.formula "dist(x,y) > 2 & C1(y)" in
  let rows = ref [] in
  let pts = ref [] in
  List.iter
    (fun target ->
      let side = int_of_float (sqrt (float_of_int target)) in
      let g = Gen.randomly_color ~seed:21 ~colors:2 (Gen.grid side side) in
      let n = Cgraph.n g in
      let eng = Nd_engine.prepare ~cache_limit:0 g phi in
      let r, t_count = time (fun () -> Nd_engine.count eng) in
      assert (r.Nd_core.Count.method_ = Nd_core.Count.Exact_pseudolinear);
      let enum_time =
        if n <= 4_100 then begin
          let c, t = time (fun () -> Nd_engine.count_enumerated eng) in
          assert (c = r.Nd_core.Count.count);
          ns t
        end
        else "-"
      in
      pts := (float_of_int n, t_count) :: !pts;
      rows :=
        [
          si n; si r.Nd_core.Count.count;
          f1 (float_of_int r.Nd_core.Count.count /. float_of_int n);
          ns t_count; enum_time;
        ]
        :: !rows)
    sizes;
  print_table
    ~title:
      "E11 / counting (GS companion result): |q(G)| ~ n^2 far pairs counted \
       in pseudo-linear time — dist(x,y) > 2 & C1(y) on grids"
    ~header:[ "n"; "count"; "count/n"; "count time"; "enumerate+count" ]
    (List.rev !rows);
  note
    (Printf.sprintf "counting scaling exponent: %.2f (output itself grows ~2.0)"
       (fit_exponent !pts))

(* ------------------------------------------------------------------ *)
(* E10 — weak r-accessibility profile (Section 2 characterization).     *)

let e10_wcol () =
  let target = if !quick then 1_000 else 8_000 in
  let rows = ref [] in
  List.iter
    (fun fam ->
      let g = fam.Gen.build target in
      List.iter
        (fun r ->
          let p, t = time (fun () -> Nd_nowhere.Wcol.profile g ~r) in
          rows :=
            [
              fam.Gen.name;
              (if fam.Gen.nowhere_dense then "nd" else "dense");
              si (Cgraph.n g); si r; si p.Nd_nowhere.Wcol.max;
              f2 p.Nd_nowhere.Wcol.mean; ns t;
            ]
            :: !rows)
        [ 1; 2 ])
    Gen.families;
  print_table
    ~title:
      "E10 / Section 2: weak r-accessibility under the degeneracy order \
       (bounded on sparse families, ~n on dense controls)"
    ~header:[ "family"; "class"; "n"; "r"; "max wreach"; "mean"; "time" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* A1 — ablation: skip pointers vs label-set scanning (Case I).         *)

let a1_ablation_skip () =
  (* A forest of stars: nowhere dense (trees!) yet with huge 2-balls.
     Asking for far solutions from a hub forces a plain label scan to
     wade through the hub's whole star, while the SKIP pointers jump
     over the kernel in O(1) — the situation of the paper's Example 2. *)
  let target = if !quick then 4_000 else 20_000 in
  let stars = 8 in
  let per = target / stars in
  let edges = ref [] in
  for s = 0 to stars - 1 do
    let base = s * per in
    for i = 1 to per - 1 do
      edges := (base, base + i) :: !edges
    done
  done;
  let g =
    Gen.randomly_color ~seed:11 ~colors:2
      (Cgraph.create ~n:(stars * per) !edges)
  in
  let n = Cgraph.n g in
  let phi = Nd_logic.Parse.formula "dist(x,y) > 2 & C1(y)" in
  (* metrics for the scan-step counts; cache off so repeated tuples
     keep exercising the live Case I machinery *)
  Nd_engine.reset_metrics ();
  let eng = Nd_engine.prepare ~metrics:true ~cache_limit:0 g phi in
  let calls = 3_000 in
  (* two regimes: queries whose answer lies beyond the prefix's kernel
     (SKIP jumps over it in O(1); a label scan must far-test its way
     through), and queries anchored at the very first star, where even
     the paper needs its λ-recursion to avoid inspecting the kernel *)
  let jump_tuples =
    Array.init calls (fun i -> [| ((i mod (stars - 1)) + 1) * per; 0 |])
  in
  let worst_tuples = Array.init calls (fun _ -> [| 0; 0 |]) in
  let run tuples =
    let i = ref 0 in
    Nd_engine.reset_metrics ();
    let t =
      time_per ~repeat:calls (fun () ->
          ignore (Nd_engine.next eng tuples.(!i mod calls));
          incr i)
    in
    let st = Nd_engine.stats eng in
    let scans =
      match List.assoc_opt "answer.scan_steps" st.Nd_engine.Stats.counters with
      | Some v -> v
      | None -> 0
    in
    (t, float_of_int scans /. float_of_int calls)
  in
  Nd_engine.use_skip eng true;
  let t_jump_skip, s_jump_skip = run jump_tuples in
  let t_worst_skip, s_worst_skip = run worst_tuples in
  Nd_engine.use_skip eng false;
  let t_jump_scan, s_jump_scan = run jump_tuples in
  let t_worst_scan, s_worst_scan = run worst_tuples in
  Nd_engine.use_skip eng true;
  Nd_util.Metrics.disable ();
  print_table
    ~title:
      "A1 / ablation: Case I with skip pointers vs linear label scan on a \
       star forest (dist(x,y) > 2 & C1(y))"
    ~header:
      [ "workload"; "variant"; "n"; "next_solution"; "scan steps / call" ]
    [
      [ "hub of a later star"; "skip pointers"; si n; ns t_jump_skip;
        f1 s_jump_skip ];
      [ "hub of a later star"; "linear scan"; si n; ns t_jump_scan;
        f1 s_jump_scan ];
      [ "hub of the first star"; "skip pointers"; si n; ns t_worst_skip;
        f1 s_worst_skip ];
      [ "hub of the first star"; "linear scan"; si n; ns t_worst_scan;
        f1 s_worst_scan ];
    ];
  note
    "Skipping pays when kernels of the prefix's bags cover a long prefix \
     of the label order; the first-star workload is the residual regime \
     where only the paper's full λ-recursion (non-elementary constants) \
     avoids a kernel-bounded scan."

(* ------------------------------------------------------------------ *)
(* A2 — ablation: index memory vs recomputation.                        *)

let a2_ablation_dist () =
  let sizes = if !quick then [ 1_000; 4_000 ] else [ 4_000; 16_000; 64_000 ] in
  let rows = ref [] in
  List.iter
    (fun target ->
      let g = Gen.bounded_degree ~seed:13 target ~max_degree:4 in
      let n = Cgraph.n g in
      let idx, t_build = time (fun () -> Nd_core.Dist_index.build g ~r:2) in
      let s = Nd_core.Dist_index.stats idx in
      let pairs = s.Nd_core.Dist_index.base_pairs in
      let probes =
        Array.init 10_000 (fun _ -> (rand_vertex n, rand_vertex n))
      in
      let i = ref 0 in
      let t_test =
        time_per ~repeat:10_000 (fun () ->
            let a, b = probes.(!i) in
            incr i;
            ignore (Nd_core.Dist_index.test idx a b))
      in
      rows :=
        [
          si n; ns t_build; si pairs;
          f1 (float_of_int pairs /. float_of_int n); ns t_test;
        ]
        :: !rows)
    sizes;
  print_table
    ~title:
      "A2 / ablation: distance-index space (stored pairs pseudo-linear in n)"
    ~header:[ "n"; "build"; "stored pairs"; "pairs/n"; "test" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* ER — robustness: budget-probe overhead on the E7/E9 hot paths.
   The budget probes are a single load-and-branch when nothing is
   installed, and ticks never advance an ops counter, so the cost-model
   delta between a plain run and a run under a generous installed
   budget must be ~0 (check_schema enforces <= 2%).  Wall-clock deltas
   are reported for context but not gated (noise dominates).            *)

type er_row = {
  er_spec : string;
  er_n : int;
  er_ops_plain : int;
  er_ops_budget : int;
  er_delta_pct : float;
  er_wall_plain : float;
  er_wall_budget : float;
}

let er_point side =
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let g = Gen.randomly_color ~seed:5 ~colors:2 (Gen.grid side side) in
  let n = Cgraph.n g in
  Nd_engine.reset_metrics ();
  let eng = Nd_engine.prepare ~metrics:true ~cache_limit:0 g phi in
  let calls = if !smoke then 500 else 2_000 in
  (* deterministic tuples: both runs must do bit-identical work *)
  let tuples =
    Array.init calls (fun i -> [| i * 17 mod n; i * 31 mod n |])
  in
  let workload () =
    for i = 0 to calls - 1 do
      ignore (Nd_engine.next eng tuples.(i));
      ignore (Nd_engine.test eng tuples.(i))
    done;
    Nd_engine.enumerate (fun _ -> ()) eng
  in
  let measure f =
    Nd_util.Metrics.reset ();
    Nd_util.Metrics.enable ();
    let o0 = Nd_util.Metrics.ops () in
    let (), t = time f in
    (Nd_util.Metrics.ops () - o0, t)
  in
  (* warm once: lazily-built index nodes make the first pass more
     expensive; the comparison needs the steady state on both sides *)
  workload ();
  let ops_plain, wall_plain = measure workload in
  let b = Nd_util.Budget.create ~max_ops:max_int ~timeout_ms:3_600_000 () in
  let ops_budget, wall_budget =
    measure (fun () -> Nd_util.Budget.with_installed b workload)
  in
  Nd_util.Metrics.disable ();
  let delta_pct =
    if ops_plain = 0 then 0.
    else
      float_of_int (ops_budget - ops_plain)
      /. float_of_int ops_plain *. 100.
  in
  {
    er_spec = Printf.sprintf "grid:%dx%d" side side;
    er_n = n;
    er_ops_plain = ops_plain;
    er_ops_budget = ops_budget;
    er_delta_pct = delta_pct;
    er_wall_plain = wall_plain;
    er_wall_budget = wall_budget;
  }

let er_json r =
  Printf.sprintf
    "{\"spec\":%S,\"n\":%d,\"ops_plain\":%d,\"ops_budget\":%d,\
     \"ops_delta_pct\":%.9g,\"wall_plain_s\":%.9g,\"wall_budget_s\":%.9g}"
    r.er_spec r.er_n r.er_ops_plain r.er_ops_budget r.er_delta_pct
    r.er_wall_plain r.er_wall_budget

let er_sides () =
  if !smoke then [ 8; 12 ] else if !quick then [ 12; 20 ] else [ 16; 32; 64 ]

let er_budget_overhead () =
  let rows =
    List.map
      (fun side ->
        let r = er_point side in
        [
          r.er_spec; si r.er_n; si r.er_ops_plain; si r.er_ops_budget;
          f2 r.er_delta_pct;
          f2
            ((r.er_wall_budget -. r.er_wall_plain)
            /. r.er_wall_plain *. 100.);
        ])
      (er_sides ())
  in
  print_table
    ~title:
      "ER / robustness: budget-probe overhead on the next/test/enumerate \
       hot paths (ops delta must be ~0; gated at 2% by check_schema)"
    ~header:
      [ "graph"; "n"; "ops plain"; "ops budgeted"; "ops delta %"; "wall delta %" ]
    rows

(* ------------------------------------------------------------------ *)
(* TR — observability: span-tracer overhead on the same deterministic
   workload as ER.  The tracer's bookkeeping (ids, clock reads, ring
   writes) never advances an ops counter, so the cost-model delta
   between a tracing-off and a tracing-on run must be ~0 (check_schema
   enforces <= 2%, mirroring the ER budget-probe gate).  Span counts
   are recorded so the gate also proves the traced arm actually
   traced.                                                              *)

type tr_row = {
  tr_spec : string;
  tr_n : int;
  tr_ops_off : int;
  tr_ops_on : int;
  tr_delta_pct : float;
  tr_wall_off : float;
  tr_wall_on : float;
  tr_spans : int;
}

let tr_point side =
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let g = Gen.randomly_color ~seed:5 ~colors:2 (Gen.grid side side) in
  let n = Cgraph.n g in
  Nd_engine.reset_metrics ();
  let eng = Nd_engine.prepare ~metrics:true ~cache_limit:0 g phi in
  let calls = if !smoke then 500 else 2_000 in
  let tuples =
    Array.init calls (fun i -> [| i * 17 mod n; i * 31 mod n |])
  in
  let workload () =
    for i = 0 to calls - 1 do
      ignore (Nd_engine.next eng tuples.(i));
      ignore (Nd_engine.test eng tuples.(i))
    done;
    Nd_engine.enumerate (fun _ -> ()) eng
  in
  let measure f =
    Nd_util.Metrics.reset ();
    Nd_util.Metrics.enable ();
    let o0 = Nd_util.Metrics.ops () in
    let (), t = time f in
    (Nd_util.Metrics.ops () - o0, t)
  in
  workload ();
  Nd_trace.disable ();
  let ops_off, wall_off = measure workload in
  Nd_trace.enable ();
  Nd_trace.clear ();
  let ops_on, wall_on = measure workload in
  let spans = List.length (Nd_trace.spans ()) + Nd_trace.dropped () in
  Nd_trace.disable ();
  Nd_trace.clear ();
  Nd_util.Metrics.disable ();
  let delta_pct =
    if ops_off = 0 then 0.
    else float_of_int (ops_on - ops_off) /. float_of_int ops_off *. 100.
  in
  {
    tr_spec = Printf.sprintf "grid:%dx%d" side side;
    tr_n = n;
    tr_ops_off = ops_off;
    tr_ops_on = ops_on;
    tr_delta_pct = delta_pct;
    tr_wall_off = wall_off;
    tr_wall_on = wall_on;
    tr_spans = spans;
  }

let tr_json r =
  Printf.sprintf
    "{\"spec\":%S,\"n\":%d,\"ops_off\":%d,\"ops_on\":%d,\
     \"ops_delta_pct\":%.9g,\"wall_off_s\":%.9g,\"wall_on_s\":%.9g,\
     \"spans\":%d}"
    r.tr_spec r.tr_n r.tr_ops_off r.tr_ops_on r.tr_delta_pct r.tr_wall_off
    r.tr_wall_on r.tr_spans

let tr_trace_overhead () =
  let rows =
    List.map
      (fun side ->
        let r = tr_point side in
        [
          r.tr_spec; si r.tr_n; si r.tr_ops_off; si r.tr_ops_on;
          f2 r.tr_delta_pct;
          f2 ((r.tr_wall_on -. r.tr_wall_off) /. r.tr_wall_off *. 100.);
          si r.tr_spans;
        ])
      (er_sides ())
  in
  print_table
    ~title:
      "TR / observability: span-tracer overhead on the next/test/enumerate \
       hot paths (ops delta must be ~0; gated at 2% by check_schema)"
    ~header:
      [ "graph"; "n"; "ops off"; "ops on"; "ops delta %"; "wall delta %";
        "spans" ]
    rows

let micro_rows () =
  let open Bechamel in
  let open Toolkit in
  let n = 4_096 in
  let store = Nd_ram.Store.create ~n ~k:1 ~epsilon:0.25 in
  for _ = 1 to n / 4 do
    Nd_ram.Store.add store [| rand_vertex n |] 1
  done;
  let g = Gen.randomly_color ~seed:3 ~colors:2 (Gen.grid 64 64) in
  let gn = Cgraph.n g in
  let idx = Nd_core.Dist_index.build g ~r:2 in
  let phi = Nd_logic.Parse.formula "dist(x,y) > 2 & C1(y)" in
  let eng = Nd_engine.prepare ~cache_limit:0 g phi in
  let tests =
    Test.make_grouped ~name:"micro" ~fmt:"%s %s"
      [
        Test.make ~name:"store.find (Thm 3.1)"
          (Staged.stage (fun () ->
               ignore (Nd_ram.Store.find store [| rand_vertex n |])));
        Test.make ~name:"dist.test (Prop 4.2)"
          (Staged.stage (fun () ->
               ignore
                 (Nd_core.Dist_index.test idx (rand_vertex gn)
                    (rand_vertex gn))));
        Test.make ~name:"next_solution (Thm 2.3)"
          (Staged.stage (fun () ->
               ignore
                 (Nd_engine.next eng [| rand_vertex gn; rand_vertex gn |])));
        Test.make ~name:"test tuple (Cor 2.4)"
          (Staged.stage (fun () ->
               ignore
                 (Nd_engine.test eng [| rand_vertex gn; rand_vertex gn |])));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> rows := [ name; Printf.sprintf "%.0f ns" est ] :: !rows
      | _ -> ())
    results;
  print_table ~title:"Bechamel micro-benchmarks (per-operation cost)"
    ~header:[ "operation"; "time/run" ]
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* PAR — domain-parallel prepare and the concurrent serve loop
   (DESIGN S14).  Two trajectories, both riding along into
   BENCH_engine.json in every mode:

   - prepare wall time at jobs ∈ {1,2,4} on the mode's largest zoo
     grid, with speedup vs jobs=1.  The prepared structure is
     bit-identical for every job count (the test suite's differential
     gate), so this is a pure wall-clock comparison.
   - serve throughput (requests/s) at 1/4/16 concurrent socket
     clients against one jobs=4 handle.

   Every row records [host_domains] (Domain.recommended_domain_count):
   on a single-core host the speedup and scaling gates are vacuous —
   worker domains just time-share — so check_schema only enforces
   them when host_domains >= 4. *)

let host_domains = Domain.recommended_domain_count ()

let par_prepare_spec () =
  if !smoke then "grid:20x20" else if !quick then "grid:30x30"
  else "grid:56x56"

let par_prepare_points () =
  let spec = par_prepare_spec () in
  let g = Gen.randomly_color ~seed:5 ~colors:2 (Gen.of_spec ~seed:5 spec) in
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let measure jobs =
    let _, s = time (fun () -> Nd_engine.prepare ~jobs g phi) in
    s
  in
  (* one warm-up build keeps allocator/code warm-up out of the jobs=1
     baseline *)
  ignore (measure 1);
  let base = measure 1 in
  List.map
    (fun jobs ->
      let s = if jobs = 1 then base else measure jobs in
      let speedup = base /. Float.max s 1e-9 in
      Printf.printf "  %s  jobs=%d  prepare=%s  speedup=%.2fx\n%!" spec jobs
        (ns s) speedup;
      Printf.sprintf
        "{\"spec\":%S,\"jobs\":%d,\"host_domains\":%d,\"prepare_s\":%.9g,\
         \"speedup\":%.9g}"
        spec jobs host_domains s speedup)
    [ 1; 2; 4 ]

(* Throughput of the thread-per-connection socket loop: [clients]
   concurrent connections each firing [per_client] point requests.
   Request processing is serialized by the shared engine lock, so the
   scaling under test is the connection I/O overlap. *)
let par_serve_point ~clients eng =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nd_bench_par_%d_%d.sock" (Unix.getpid ()) clients)
  in
  (try Sys.remove path with Sys_error _ -> ());
  let srv = Nd_server.create eng in
  let th =
    Thread.create
      (fun () -> try Nd_server.serve_socket srv ~path with _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Nd_server.request_stop srv;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let rec wait tries =
    if Sys.file_exists path then ()
    else if tries = 0 then failwith "bench: server socket never appeared"
    else begin
      Unix.sleepf 0.02;
      wait (tries - 1)
    end
  in
  wait 250;
  let per_client = if !smoke then 50 else 300 in
  let client () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX path);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let transport = Nd_server.Client.channel_transport ic oc in
    for _ = 1 to per_client do
      ignore (transport "test 0,1")
    done;
    ignore (transport "quit")
  in
  let (), elapsed =
    time (fun () ->
        let ths = List.init clients (fun _ -> Thread.create client ()) in
        List.iter Thread.join ths)
  in
  let requests = clients * per_client in
  let rps = float requests /. Float.max elapsed 1e-9 in
  Printf.printf "  clients=%-2d  %d requests in %s  (%.0f req/s)\n%!" clients
    requests (ns elapsed) rps;
  Printf.sprintf
    "{\"clients\":%d,\"jobs\":%d,\"host_domains\":%d,\"requests\":%d,\
     \"elapsed_s\":%.9g,\"rps\":%.9g}"
    clients (Nd_engine.jobs eng) host_domains requests elapsed rps

let par_serve_points () =
  let g =
    Gen.randomly_color ~seed:5 ~colors:2
      (Gen.of_spec ~seed:5 (if !smoke then "grid:12x12" else "grid:20x20"))
  in
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let eng = Nd_engine.prepare ~jobs:4 g phi in
  List.map (fun clients -> par_serve_point ~clients eng) [ 1; 4; 16 ]

let par_json () =
  let prepare = String.concat "," (par_prepare_points ()) in
  let serve = String.concat "," (par_serve_points ()) in
  Printf.sprintf "{\"host_domains\":%d,\"prepare\":[%s],\"serve\":[%s]}"
    host_domains prepare serve

let par_rows = ref None

(* memoized: the PAR experiment and the EE document share one run *)
let par_rows_json () =
  match !par_rows with
  | Some j -> j
  | None ->
      let j = par_json () in
      par_rows := Some j;
      j

let par_parallel () =
  Printf.printf "  host domains detected: %d\n%!" host_domains;
  ignore (par_rows_json ())

(* ------------------------------------------------------------------ *)
(* RB — overload-safe serving (DESIGN S15).  Three arms, all riding
   into BENCH_engine.json in every mode:

   - gated: 8 concurrent clients against max_inflight=2 — a 2x-plus
     overload by construction.  Point requests are microseconds, so an
     overlap-dependent stampede would be scheduler luck; instead each
     request is the chaos verb `inject sleep 2`, a deterministic 2ms
     heavy-query surrogate that holds the engine lock exactly like an
     expensive enumerate.  While one request sleeps under the lock and
     one waits, the other six clients' requests must be shed — so
     shed > 0 is structural, on any host.  Records goodput (ok
     replies/s against the 500/s service ceiling) and the
     client-observed p99 of the shed replies: shedding must stay cheap
     precisely when the server is saturated, because the shed path
     never touches the engine lock.
   - nogate: the same stampede with admission control off.  Everything
     is eventually served at the same 500/s ceiling, but every request
     waits its turn in the lock queue — the ok p99 comparison against
     the gated arm is the case for shedding.
   - hygiene: the unloaded PAR serve row (1 client, sequential
     requests) with every hygiene gate off vs armed at non-triggering
     thresholds.  The gates live in the transport layer and must
     never advance a cost-model counter, so the ops delta is gated at
     2% exactly like the ER budget-probe and TR tracer gates. *)

let rb_clients = 8
let rb_sleep_ms = 2

let rb_per_client () = if !smoke then 25 else 100

let rb_graph () =
  Gen.randomly_color ~seed:5 ~colors:2
    (Gen.of_spec ~seed:5 (if !smoke then "grid:12x12" else "grid:20x20"))

let rb_percentile_us lat p =
  let a = Array.copy lat in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1))

let rb_with_server ~config eng f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nd_bench_rb_%d_%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let srv = Nd_server.create ~config eng in
  let th =
    Thread.create
      (fun () -> try Nd_server.serve_socket srv ~path with _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Nd_server.request_stop srv;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let rec wait tries =
    if Sys.file_exists path then ()
    else if tries = 0 then failwith "bench: rb server socket never appeared"
    else begin
      Unix.sleepf 0.02;
      wait (tries - 1)
    end
  in
  wait 250;
  f srv path

(* One stampede: [rb_clients] plain transports (no retry policy — the
   raw shed replies are the measurement) each firing [per_client]
   2ms heavy-query surrogates.  Returns per-request latencies split by
   outcome. *)
let rb_stampede ~config eng =
  rb_with_server ~config eng @@ fun srv path ->
  let per_client = rb_per_client () in
  let ok_lat = Array.make (rb_clients * per_client) 0. in
  let shed_lat = Array.make (rb_clients * per_client) 0. in
  let ok = ref 0 and shed = ref 0 and other = ref 0 in
  let m = Mutex.create () in
  let client () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX path);
    let transport =
      Nd_server.Client.channel_transport
        (Unix.in_channel_of_descr fd)
        (Unix.out_channel_of_descr fd)
    in
    let request = Printf.sprintf "inject sleep %d" rb_sleep_ms in
    for _ = 1 to per_client do
      let reply, s = time (fun () -> transport request) in
      let us = s *. 1e6 in
      Mutex.lock m;
      (match Nd_server.Client.status_of_reply reply with
      | Nd_server.Client.Ok_reply ->
          ok_lat.(!ok) <- us;
          incr ok
      | Nd_server.Client.Err_reply ("overloaded", _) ->
          shed_lat.(!shed) <- us;
          incr shed
      | _ -> incr other);
      Mutex.unlock m
    done;
    ignore (transport "quit")
  in
  let (), elapsed =
    time (fun () ->
        let ths = List.init rb_clients (fun _ -> Thread.create client ()) in
        List.iter Thread.join ths)
  in
  let server_shed = (Nd_server.counts srv).Nd_server.overloaded in
  ( Array.sub ok_lat 0 !ok,
    Array.sub shed_lat 0 !shed,
    !other,
    elapsed,
    server_shed )

let rb_overload_json eng =
  let retry_after_ms = 25 in
  (* chaos unlocks the `inject sleep` heavy-query surrogate *)
  let base = { Nd_server.default_config with Nd_server.chaos = true } in
  let gated_cfg =
    { base with Nd_server.max_inflight = Some 2; retry_after_ms }
  in
  let ok_lat, shed_lat, other, elapsed, server_shed =
    rb_stampede ~config:gated_cfg eng
  in
  let requests = rb_clients * rb_per_client () in
  let ok = Array.length ok_lat and shed = Array.length shed_lat in
  let goodput = float ok /. Float.max elapsed 1e-9 in
  let shed_p99 = rb_percentile_us shed_lat 99. in
  Printf.printf
    "  gated(max_inflight=2)  clients=%d  %d requests: %d ok, %d shed  \
     goodput=%.0f ok/s  shed p99=%.0fus\n%!"
    rb_clients requests ok shed goodput shed_p99;
  let gated =
    Printf.sprintf
      "{\"clients\":%d,\"requests\":%d,\"sleep_ms\":%d,\"ok\":%d,\
       \"shed\":%d,\"server_shed\":%d,\"other\":%d,\"elapsed_s\":%.9g,\
       \"goodput_rps\":%.9g,\"ok_p99_us\":%.9g,\"shed_p99_us\":%.9g,\
       \"retry_after_ms\":%d}"
      rb_clients requests rb_sleep_ms ok shed server_shed other elapsed
      goodput
      (rb_percentile_us ok_lat 99.)
      shed_p99 retry_after_ms
  in
  let ok_lat, shed_lat, other, elapsed, _ = rb_stampede ~config:base eng in
  let ok = Array.length ok_lat in
  let rps = float ok /. Float.max elapsed 1e-9 in
  Printf.printf
    "  nogate                 clients=%d  %d requests: %d ok  %.0f req/s  \
     ok p99=%.0fus\n%!"
    rb_clients requests ok rps
    (rb_percentile_us ok_lat 99.);
  let nogate =
    Printf.sprintf
      "{\"clients\":%d,\"requests\":%d,\"sleep_ms\":%d,\"ok\":%d,\
       \"shed\":%d,\"other\":%d,\"elapsed_s\":%.9g,\"rps\":%.9g,\
       \"ok_p99_us\":%.9g}"
      rb_clients requests rb_sleep_ms ok (Array.length shed_lat) other
      elapsed rps
      (rb_percentile_us ok_lat 99.)
  in
  (gated, nogate)

(* The hygiene arm: one sequential client (the unloaded PAR serve
   row), gates off vs gates armed at thresholds this workload can
   never trip.  Cost-model ops must be bit-identical. *)
let rb_hygiene_json eng =
  let requests = if !smoke then 200 else 800 in
  let run config =
    rb_with_server ~config eng @@ fun _srv path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX path);
    let transport =
      Nd_server.Client.channel_transport
        (Unix.in_channel_of_descr fd)
        (Unix.out_channel_of_descr fd)
    in
    Nd_util.Metrics.reset ();
    Nd_util.Metrics.enable ();
    let o0 = Nd_util.Metrics.ops () in
    let (), s =
      time (fun () ->
          for _ = 1 to requests do
            ignore (transport "test 0,1")
          done)
    in
    ignore (transport "quit");
    Nd_util.Metrics.disable ();
    (Nd_util.Metrics.ops () - o0, s)
  in
  let armed =
    {
      Nd_server.default_config with
      Nd_server.max_inflight = Some 1_000;
      max_conns = Some 64;
      io_timeout_ms = Some 30_000;
      idle_timeout_ms = Some 30_000;
    }
  in
  (* warm once so lazily-built index nodes don't skew the off arm *)
  ignore (run Nd_server.default_config);
  let ops_off, wall_off = run Nd_server.default_config in
  let ops_on, wall_on = run armed in
  let delta_pct =
    if ops_off = 0 then 0.
    else float_of_int (ops_on - ops_off) /. float_of_int ops_off *. 100.
  in
  Printf.printf
    "  hygiene overhead       %d sequential requests: ops off=%d on=%d  \
     delta=%.2f%%  wall %s -> %s\n%!"
    requests ops_off ops_on delta_pct (ns wall_off) (ns wall_on);
  Printf.sprintf
    "{\"requests\":%d,\"ops_off\":%d,\"ops_on\":%d,\"ops_delta_pct\":%.9g,\
     \"wall_off_s\":%.9g,\"wall_on_s\":%.9g,\"rps_off\":%.9g,\
     \"rps_on\":%.9g}"
    requests ops_off ops_on delta_pct wall_off wall_on
    (float requests /. Float.max wall_off 1e-9)
    (float requests /. Float.max wall_on 1e-9)

let rb_json () =
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let g = rb_graph () in
  (* cache_limit:0 keeps the two hygiene arms bit-identical in ops;
     metrics stay disabled for the stampede arms (wall-clock only) *)
  let eng = Nd_engine.prepare ~metrics:true ~cache_limit:0 g phi in
  Nd_util.Metrics.disable ();
  let gated, nogate = rb_overload_json eng in
  let hygiene = rb_hygiene_json eng in
  Printf.sprintf
    "{\"host_domains\":%d,\"gated\":%s,\"nogate\":%s,\"hygiene\":%s}"
    host_domains gated nogate hygiene

let rb_rows = ref None

(* memoized: the RB experiment and the EE document share one run *)
let rb_rows_json () =
  match !rb_rows with
  | Some j -> j
  | None ->
      let j = rb_json () in
      rb_rows := Some j;
      j

let rb_overload () = ignore (rb_rows_json ())

(* ------------------------------------------------------------------ *)
(* CB — cluster serving (DESIGN S16).  An in-process 3-shard fleet:
   shard servers behind the epoch-fencing router, driven over local
   endpoints so the rows measure the router itself, not the socket
   stack (the socket path is what the RB rows already price).  Four
   arms, riding into BENCH_engine.json in every mode:

   - merge: the duplicate-free k-way enumeration through the router vs
     the same query on one single-node server.  The solution streams
     must be byte-identical; the merged and single-node rates go on
     record.
   - failover: the preferred replica of one shard dies mid-run
     (transport EOF); every request must still be answered — the blip
     is one failover dial, priced as the all-requests p99.
   - catchup: a replica misses a journal suffix of length L and is
     fenced; one probe round replays the suffix over batch-update and
     readmits it at the fleet epoch.  Records catch-up wall time per
     journal length.
   - probe_overhead: epoch fencing checks each replica once per
     request serial.  On the deterministic ops cost model this must be
     free — the epoch verb reads a counter, it never touches the
     index — so ops_delta_pct is gated at 2% exactly like the ER, TR
     and RB hygiene gates. *)

module CRouter = Nd_cluster.Router
module COwn = Nd_cluster.Ownership

let cb_shards = 3
let cb_requests () = if !smoke then 200 else 800

let cb_config ?(fence = true) () =
  {
    CRouter.fence;
    probe_interval_ms = 0;
    retries = 1;
    backoff_ms = 1;
    jitter = Nd_util.Backoff.none;
    sleep_ms = ignore;
    retry_after_ms = 25;
    max_enumerate = 512;
    event_log = None;
  }

let cb_shard_server ~metrics own g phi ~shard =
  let eng =
    if metrics then Nd_engine.prepare ~metrics:true ~cache_limit:0 g phi
    else Nd_engine.prepare g phi
  in
  let config =
    {
      Nd_server.default_config with
      Nd_server.ownership = Some (COwn.for_shard own ~shard);
    }
  in
  Nd_server.create ~config eng

(* drain a full enumeration through a router; returns the sol lines *)
let cb_drive rt =
  let sols = ref [] and finished = ref false in
  while not !finished do
    List.iter
      (fun l ->
        if String.length l > 4 && String.sub l 0 4 = "sol " then
          sols := l :: !sols
        else if String.length l >= 4 && String.sub l 0 4 = "err " then
          failwith ("bench: cluster enumerate: " ^ l)
        else if
          String.length l > 9
          && String.sub l 0 4 = "end "
          && String.sub l (String.length l - 8) 8 = "complete"
        then finished := true)
      (CRouter.handle rt "enumerate 128")
  done;
  List.rev !sols

let cb_merge_json g phi =
  let own = COwn.compute g ~shards:cb_shards in
  let eps =
    List.init cb_shards (fun s ->
        CRouter.local_endpoint ~shard:s
          ~label:(Printf.sprintf "s%d" s)
          (cb_shard_server ~metrics:false own g phi ~shard:s))
  in
  let rt =
    CRouter.create ~config:(cb_config ()) ~ownership:own ~arity:2 eps
  in
  let merged, router_s = time (fun () -> cb_drive rt) in
  (* the single-node baseline: same protocol, one unsharded server *)
  let single =
    Nd_server.session (Nd_server.create (Nd_engine.prepare g phi))
  in
  let single_sols = ref [] and finished = ref false in
  let (), single_s =
    time (fun () ->
        while not !finished do
          List.iter
            (fun l ->
              if String.length l > 4 && String.sub l 0 4 = "sol " then
                single_sols := l :: !single_sols
              else if
                String.length l > 9
                && String.sub l 0 4 = "end "
                && String.sub l (String.length l - 8) 8 = "complete"
              then finished := true)
            (Nd_server.handle single "enumerate 128")
        done)
  in
  let single_sols = List.rev !single_sols in
  let mismatches = if merged = single_sols then 0 else 1 in
  let sols = List.length merged in
  Printf.printf
    "  merge                  %d shards: %d solutions  router=%s  \
     single=%s  identical=%b\n%!"
    cb_shards sols (ns router_s) (ns single_s) (mismatches = 0);
  Printf.sprintf
    "{\"shards\":%d,\"solutions\":%d,\"mismatches\":%d,\
     \"router_s\":%.9g,\"single_s\":%.9g,\"router_sps\":%.9g,\
     \"single_sps\":%.9g}"
    cb_shards sols mismatches router_s single_s
    (float sols /. Float.max router_s 1e-9)
    (float sols /. Float.max single_s 1e-9)

let cb_failover_json g phi =
  let own = COwn.compute g ~shards:cb_shards in
  let dead = ref false in
  let eps =
    List.concat
      (List.init cb_shards (fun s ->
           let primary =
             if s = 0 then
               (* shard 0's preferred replica dies when [dead] flips *)
               let srv = cb_shard_server ~metrics:false own g phi ~shard:0 in
               CRouter.endpoint ~shard:0 ~label:"s0/mortal" (fun () ->
                   let session = Nd_server.session srv in
                   Ok
                     {
                       CRouter.transport =
                         (fun line ->
                           if !dead then raise End_of_file
                           else Nd_server.handle session line);
                       read_reply = (fun _ -> None);
                       close = ignore;
                     })
             else
               CRouter.local_endpoint ~shard:s
                 ~label:(Printf.sprintf "s%d/a" s)
                 (cb_shard_server ~metrics:false own g phi ~shard:s)
           in
           [
             primary;
             CRouter.local_endpoint ~shard:s
               ~label:(Printf.sprintf "s%d/b" s)
               (cb_shard_server ~metrics:false own g phi ~shard:s);
           ]))
  in
  let rt =
    CRouter.create ~config:(cb_config ()) ~ownership:own ~arity:2 eps
  in
  let requests = cb_requests () in
  let n = Cgraph.n g in
  let lat = Array.make requests 0. in
  let ok = ref 0 in
  for i = 0 to requests - 1 do
    if i = requests / 2 then dead := true;
    let req = Printf.sprintf "test %d,%d" (i mod n) ((i + 1) mod n) in
    let reply, s = time (fun () -> CRouter.handle rt req) in
    lat.(i) <- s *. 1e6;
    match List.rev reply with "ok" :: _ -> incr ok | _ -> ()
  done;
  let st = CRouter.stats rt in
  let p99 = rb_percentile_us lat 99. in
  Printf.printf
    "  failover               %d requests, replica killed at %d: %d ok  \
     failovers=%d  p99=%.0fus\n%!"
    requests (requests / 2) !ok st.CRouter.failovers p99;
  Printf.sprintf
    "{\"requests\":%d,\"ok\":%d,\"blip_p99_us\":%.9g,\"failovers\":%d}"
    requests !ok p99 st.CRouter.failovers

let cb_catchup_json g phi journal_len =
  (* one shard, two replicas; the laggard misses every update fan-out
     but hears the batch-update replay *)
  let own = COwn.compute g ~shards:1 in
  let leader = cb_shard_server ~metrics:false own g phi ~shard:0 in
  let laggard = cb_shard_server ~metrics:false own g phi ~shard:0 in
  let dropping =
    CRouter.endpoint ~shard:0 ~label:"laggard" (fun () ->
        let session = Nd_server.session laggard in
        Ok
          {
            CRouter.transport =
              (fun line ->
                if
                  String.length line >= 7 && String.sub line 0 7 = "update "
                then raise End_of_file
                else Nd_server.handle session line);
            read_reply = (fun _ -> None);
            close = ignore;
          })
  in
  let rt =
    CRouter.create ~config:(cb_config ()) ~ownership:own ~arity:2
      [ CRouter.local_endpoint ~shard:0 ~label:"leader" leader; dropping ]
  in
  for i = 0 to journal_len - 1 do
    (* fresh diagonal edges: never grid-adjacent, pairwise distinct *)
    let wire = Printf.sprintf "update add-edge %d %d" (2 * i) ((2 * i) + 5) in
    match List.rev (CRouter.handle rt wire) with
    | "ok" :: _ -> ()
    | r -> failwith ("bench: cluster update: " ^ String.concat "|" r)
  done;
  let before = CRouter.stats rt in
  let (), catchup_s = time (fun () -> CRouter.probe rt) in
  let after = CRouter.stats rt in
  let readmitted =
    if after.CRouter.fenced = 0 && after.CRouter.catchups > before.CRouter.catchups
    then 1
    else 0
  in
  Printf.printf
    "  catchup                journal len %d: replay=%.2fms  readmitted=%b\n%!"
    journal_len (catchup_s *. 1e3) (readmitted = 1);
  Printf.sprintf
    "{\"journal_len\":%d,\"catchup_ms\":%.9g,\"readmitted\":%d}" journal_len
    (catchup_s *. 1e3) readmitted

let cb_probe_overhead_json g phi =
  let requests = cb_requests () in
  let n = Cgraph.n g in
  let run fence =
    let own = COwn.compute g ~shards:cb_shards in
    let eps =
      List.init cb_shards (fun s ->
          CRouter.local_endpoint ~shard:s
            ~label:(Printf.sprintf "s%d" s)
            (cb_shard_server ~metrics:true own g phi ~shard:s))
    in
    let rt =
      CRouter.create ~config:(cb_config ~fence ()) ~ownership:own ~arity:2 eps
    in
    (* warm lazily-built index nodes out of the measurement *)
    ignore (CRouter.handle rt "test 0,1");
    Nd_util.Metrics.reset ();
    Nd_util.Metrics.enable ();
    let o0 = Nd_util.Metrics.ops () in
    let (), s =
      time (fun () ->
          for i = 1 to requests do
            ignore
              (CRouter.handle rt
                 (Printf.sprintf "test %d,%d" (i mod n) ((i + 1) mod n)))
          done)
    in
    Nd_util.Metrics.disable ();
    (Nd_util.Metrics.ops () - o0, s)
  in
  let ops_off, wall_off = run false in
  let ops_on, wall_on = run true in
  let delta_pct =
    if ops_off = 0 then 0.
    else float_of_int (ops_on - ops_off) /. float_of_int ops_off *. 100.
  in
  Printf.printf
    "  probe/fence overhead   %d requests: ops off=%d on=%d  delta=%.2f%%  \
     wall %s -> %s\n%!"
    requests ops_off ops_on delta_pct (ns wall_off) (ns wall_on);
  Printf.sprintf
    "{\"requests\":%d,\"ops_off\":%d,\"ops_on\":%d,\"ops_delta_pct\":%.9g,\
     \"wall_off_s\":%.9g,\"wall_on_s\":%.9g}"
    requests ops_off ops_on delta_pct wall_off wall_on

let cb_json () =
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let g = rb_graph () in
  Nd_util.Metrics.disable ();
  let merge = cb_merge_json g phi in
  let failover = cb_failover_json g phi in
  let catchup =
    List.map (cb_catchup_json g phi) (if !smoke then [ 4 ] else [ 4; 16 ])
  in
  let probe = cb_probe_overhead_json g phi in
  Printf.sprintf
    "{\"shards\":%d,\"merge\":%s,\"failover\":%s,\"catchup\":[%s],\
     \"probe_overhead\":%s}"
    cb_shards merge failover
    (String.concat "," catchup)
    probe

let cb_rows = ref None

(* memoized: the CB experiment and the EE document share one run *)
let cb_rows_json () =
  match !cb_rows with
  | Some j -> j
  | None ->
      let j = cb_json () in
      cb_rows := Some j;
      j

let cb_cluster () = ignore (cb_rows_json ())

(* ------------------------------------------------------------------ *)
(* OB — fleet observability overhead: the same in-process 3-shard
   fleet as CB, driven with the full observability stack armed (span
   tracing, trace-context propagation on every request, router + worker
   event logs, and the per-worker flight ring) versus everything off.
   The deterministic cost model must not notice: span bookkeeping,
   context stamping and ring appends never advance an engine counter,
   so check_schema gates the ops delta at <= 2%. *)

let ob_json () =
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let g = rb_graph () in
  let requests = cb_requests () in
  let n = Cgraph.n g in
  let run armed =
    let own = COwn.compute g ~shards:cb_shards in
    let rings = ref [] in
    let shard_server shard =
      let eng = Nd_engine.prepare ~metrics:true ~cache_limit:0 g phi in
      let flight =
        if not armed then None
        else begin
          let fl = Nd_obs.Flight.create ~capacity:256 () in
          rings := fl :: !rings;
          Some (fun line -> Nd_obs.Flight.record fl line)
        end
      in
      let config =
        {
          Nd_server.default_config with
          Nd_server.ownership = Some (COwn.for_shard own ~shard);
          event_log = (if armed then Some ignore else None);
          flight;
        }
      in
      Nd_server.create ~config eng
    in
    let eps =
      List.init cb_shards (fun s ->
          CRouter.local_endpoint ~shard:s
            ~label:(Printf.sprintf "s%d" s)
            (shard_server s))
    in
    let config =
      {
        (cb_config ()) with
        CRouter.event_log = (if armed then Some ignore else None);
      }
    in
    let rt = CRouter.create ~config ~ownership:own ~arity:2 eps in
    if armed then begin
      Nd_trace.enable ();
      Nd_trace.clear ()
    end;
    (* warm lazily-built index nodes out of the measurement *)
    ignore (CRouter.handle rt "test 0,1");
    Nd_util.Metrics.reset ();
    Nd_util.Metrics.enable ();
    let o0 = Nd_util.Metrics.ops () in
    let (), s =
      time (fun () ->
          for i = 1 to requests do
            let req =
              Printf.sprintf "test %d,%d" (i mod n) ((i + 1) mod n)
            in
            ignore
              (CRouter.handle rt
                 (if armed then Printf.sprintf "%s trace=bench:%d" req i
                  else req))
          done)
    in
    Nd_util.Metrics.disable ();
    let spans = if armed then List.length (Nd_trace.spans ()) else 0 in
    if armed then begin
      Nd_trace.disable ();
      Nd_trace.clear ()
    end;
    let ring_events =
      List.fold_left
        (fun acc fl -> acc + List.length (Nd_obs.Flight.events fl))
        0 !rings
    in
    List.iter Nd_obs.Flight.close !rings;
    (Nd_util.Metrics.ops () - o0, s, spans, ring_events)
  in
  let ops_off, wall_off, _, _ = run false in
  let ops_on, wall_on, spans, ring_events = run true in
  let delta_pct =
    if ops_off = 0 then 0.
    else float_of_int (ops_on - ops_off) /. float_of_int ops_off *. 100.
  in
  Printf.printf
    "  obs overhead           %d requests: ops off=%d on=%d  delta=%.2f%%  \
     spans=%d ring=%d  wall %s -> %s\n%!"
    requests ops_off ops_on delta_pct spans ring_events (ns wall_off)
    (ns wall_on);
  Printf.sprintf
    "{\"requests\":%d,\"ops_off\":%d,\"ops_on\":%d,\"ops_delta_pct\":%.9g,\
     \"spans\":%d,\"ring_events\":%d,\"wall_off_s\":%.9g,\"wall_on_s\":%.9g}"
    requests ops_off ops_on delta_pct spans ring_events wall_off wall_on

let ob_rows = ref None

let ob_rows_json () =
  match !ob_rows with
  | Some j -> j
  | None ->
      let j = ob_json () in
      ob_rows := Some j;
      j

let ob_fleet_obs () = ignore (ob_rows_json ())

(* ------------------------------------------------------------------ *)
(* EE — engine trajectories: run the whole pipeline through the
   Nd_engine façade with metrics on, and serialize the cost-model
   numbers (delay/op-count trajectories, store register-touch
   histograms across n) to BENCH_engine.json.  `make bench-smoke`
   gates CI on this file's schema. *)

let json_hist (h : Nd_util.Metrics.hist_stats) =
  Printf.sprintf
    "{\"count\":%d,\"max\":%d,\"mean\":%.9g,\"p50\":%d,\"p95\":%d,\"p99\":%d}"
    h.Nd_util.Metrics.count h.Nd_util.Metrics.max h.Nd_util.Metrics.mean
    h.Nd_util.Metrics.p50 h.Nd_util.Metrics.p95 h.Nd_util.Metrics.p99

(* One storing-structure point of the Theorem 3.1 trajectory: random
   inserts then random lookups, with the per-call register-touch
   histograms the property test (test_metrics.ml) asserts about —
   lookup touches flat in n, update touches O(n^ε). *)
let ee_store_point n =
  let module S = Nd_ram.Store in
  Nd_util.Metrics.reset ();
  Nd_util.Metrics.enable ();
  let eps = 0.5 in
  let t = S.create ~n ~k:2 ~epsilon:eps in
  let inserts = min n 4_096 in
  for _ = 1 to inserts do
    S.add t [| rand_vertex n; rand_vertex n |] 1
  done;
  for _ = 1 to 2_000 do
    ignore (S.find t [| rand_vertex n; rand_vertex n |])
  done;
  let hs = Nd_util.Metrics.hists () in
  let h name =
    match List.assoc_opt name hs with
    | Some h -> json_hist h
    | None -> "null"
  in
  Printf.sprintf
    "{\"n\":%d,\"k\":2,\"epsilon\":%.9g,\"degree\":%d,\"keys\":%d,\
     \"lookup_touches\":%s,\"update_touches\":%s}"
    n eps (S.degree t) (S.cardinal t)
    (h "store.lookup_touches")
    (h "store.update_touches")

(* One SN row: cold prepare vs snapshot save + load on the same
   instance.  The load side skips the whole Theorem 2.3 preprocessing,
   so the speedup is the case for persisting it; check_schema gates
   speedup > 1. *)
let ee_snapshot_point spec =
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let g = Gen.randomly_color ~seed:5 ~colors:2 (Gen.of_spec ~seed:5 spec) in
  let eng, prepare_s = time (fun () -> Nd_engine.prepare g phi) in
  let path = Filename.temp_file "nd_bench" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let bytes, save_s = time (fun () -> Nd_snapshot.save ~path eng) in
  let loaded, load_s =
    time (fun () ->
        match Nd_snapshot.load ~path g phi with
        | Ok e -> e
        | Error c -> failwith ("snapshot rejected: " ^ Nd_snapshot.describe c))
  in
  ignore loaded;
  let speedup = prepare_s /. Float.max load_s 1e-9 in
  Printf.printf "  %s  prepare=%s  save=%s  load=%s  speedup=%.1fx  %d bytes\n%!"
    spec (ns prepare_s) (ns save_s) (ns load_s) speedup bytes;
  Printf.sprintf
    "{\"spec\":%S,\"prepare_s\":%.9g,\"save_s\":%.9g,\"load_s\":%.9g,\
     \"bytes\":%d,\"speedup\":%.9g}"
    spec prepare_s save_s load_s bytes speedup

let ee_snapshot_specs () =
  if !smoke then [ "grid:20x20" ]
  else if !quick then [ "grid:30x30" ]
  else [ "grid:30x30"; "grid:56x56" ]

(* ------------------------------------------------------------------ *)
(* ST — the storage refactor's two wall-clock claims (DESIGN S18),
   measured with metrics OFF so the clock sees the data layout alone:

   - flat vs boxed: one deterministic op script replayed on
     Nd_ram.Store (flat banks) and on Nd_ram.Boxed_store (the boxed
     implementation it replaced, kept in-tree as the oracle).  The
     register-for-register probe differential is machine-checked in
     test_flat.ml; this row is the payoff — the flat layout must also
     be faster, or the refactor bought nothing.
   - warm vs replay load: one filled cache saved twice, as a v4 file
     (ROWS, adopted by mmap where the host allows) and as a v2 file
     (the CACH key list, unmarshalled and packed back into rows).
     Both loads unmarshal ENGN, check the graph and vet every row; the
     gated speedup times only the [snapshot.cache] span, the revival
     step where the two differ, best of many single loads.  Whole-load
     walls are recorded beside it.

   check_schema gates both speedups > 1. *)

let st_flat_json () =
  let n = 4_096 and k = 2 and epsilon = 0.5 in
  let nops = if !smoke then 200_000 else 1_000_000 in
  let st = Random.State.make [| 97; nops; n; k |] in
  let keys =
    Array.init nops (fun _ ->
        [| Random.State.int st n; Random.State.int st n |])
  in
  let verbs = Array.init nops (fun _ -> Random.State.int st 4) in
  Nd_util.Metrics.disable ();
  let module S = Nd_ram.Store in
  let module B = Nd_ram.Boxed_store in
  let run_flat () =
    let t = S.create ~n ~k ~epsilon in
    for i = 0 to nops - 1 do
      match verbs.(i) with
      | 0 | 1 -> S.add t keys.(i) i
      | 2 -> ignore (S.find t keys.(i))
      | _ -> ignore (S.succ_geq t keys.(i))
    done;
    S.cardinal t
  in
  let run_boxed () =
    let t = B.create ~n ~k ~epsilon in
    for i = 0 to nops - 1 do
      match verbs.(i) with
      | 0 | 1 -> B.add t keys.(i) i
      | 2 -> ignore (B.find t keys.(i))
      | _ -> ignore (B.succ_geq t keys.(i))
    done;
    B.cardinal t
  in
  let best f =
    let m = ref infinity in
    for _ = 1 to 3 do
      Gc.compact ();
      let _, s = time f in
      if s < !m then m := s
    done;
    !m
  in
  let card = run_flat () in
  let card_b = run_boxed () in
  assert (card = card_b);
  let wall_flat = best run_flat in
  let wall_boxed = best run_boxed in
  let speedup = wall_boxed /. Float.max wall_flat 1e-9 in
  Printf.printf
    "  flat vs boxed          %d ops (n=%d, k=%d): flat=%s boxed=%s  \
     speedup=%.2fx  keys=%d\n%!"
    nops n k (ns wall_flat) (ns wall_boxed) speedup card;
  Printf.sprintf
    "{\"n\":%d,\"k\":%d,\"epsilon\":%.9g,\"ops\":%d,\"keys\":%d,\
     \"wall_flat_s\":%.9g,\"wall_boxed_s\":%.9g,\"speedup_flat\":%.9g}"
    n k epsilon nops card wall_flat wall_boxed speedup

let st_warm_json () =
  let spec = if !smoke then "grid:24x24" else "grid:44x44" in
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let g = Gen.randomly_color ~seed:5 ~colors:2 (Gen.of_spec ~seed:5 spec) in
  let eng = Nd_engine.prepare g phi in
  (* fill the solution cache so the CACH rung has real work to redo *)
  let sols = Nd_engine.count_enumerated eng in
  let path = Filename.temp_file "nd_bench" ".snap" in
  let path_v2 = Filename.temp_file "nd_bench" ".v2.snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path_v2 ])
  @@ fun () ->
  let bytes = Nd_snapshot.save ~path eng in
  ignore (Nd_snapshot.save ~format:2 ~path:path_v2 eng);
  let traced = Nd_trace.enabled () in
  Nd_trace.enable ();
  Fun.protect ~finally:(fun () -> if not traced then Nd_trace.disable (); Nd_trace.clear ())
  @@ fun () ->
  (* one load: its route, whole wall, and the revival span's wall *)
  let load p =
    Nd_trace.clear ();
    match time (fun () -> Nd_snapshot.load_routed ~path:p g phi) with
    | Ok (_, r), wall ->
        let revive =
          List.fold_left
            (fun acc sp ->
              if sp.Nd_trace.name = "snapshot.cache" then
                acc +. (float sp.Nd_trace.dur_us *. 1e-6)
              else acc)
            0. (Nd_trace.spans ())
        in
        (r, wall, revive)
    | Error c, _ -> failwith ("snapshot rejected: " ^ Nd_snapshot.describe c)
  in
  let route, _, _ = load path in
  (match load path_v2 with
  | Nd_snapshot.Replayed, _, _ -> ()
  | Nd_snapshot.Warm _, _, _ -> failwith "the v2 file took the warm route");
  (* best of [reps] single loads, Gc compacted before each *)
  let reps = 15 in
  let best p =
    let w = ref infinity and v = ref infinity in
    for _ = 1 to reps do
      Gc.compact ();
      let _, wall, revive = load p in
      w := Float.min !w wall;
      v := Float.min !v revive
    done;
    (!w, !v)
  in
  let wall_warm, revive_warm = best path in
  let wall_replay, revive_replay = best path_v2 in
  let mapped =
    match route with
    | Nd_snapshot.Warm { mapped } -> mapped
    | Nd_snapshot.Replayed -> false
  in
  let warm_engaged =
    match route with Nd_snapshot.Warm _ -> true | _ -> false
  in
  (* span walls have microsecond resolution *)
  let speedup = revive_replay /. Float.max revive_warm 1e-6 in
  Printf.printf
    "  warm vs replay load    %s  %d cached solutions, %d bytes: revival \
     warm=%s (%s) replay=%s  speedup=%.2fx  (whole load %s vs %s)\n%!"
    spec sols bytes (ns revive_warm)
    (Nd_snapshot.describe_route route)
    (ns revive_replay) speedup (ns wall_warm) (ns wall_replay);
  Printf.sprintf
    "{\"spec\":%S,\"solutions\":%d,\"bytes\":%d,\"warm\":%b,\"mapped\":%b,\
     \"route\":%S,\"wall_warm_s\":%.9g,\"wall_replay_s\":%.9g,\
     \"revive_warm_s\":%.9g,\"revive_replay_s\":%.9g,\
     \"speedup_warm\":%.9g}"
    spec sols bytes warm_engaged mapped
    (Nd_snapshot.describe_route route)
    wall_warm wall_replay revive_warm revive_replay speedup

let st_rows = ref None

let st_rows_json () =
  match !st_rows with
  | Some j -> j
  | None ->
      let j =
        Printf.sprintf "{\"flat\":%s,\"warm\":%s}" (st_flat_json ())
          (st_warm_json ())
      in
      st_rows := Some j;
      j

let st_storage () = ignore (st_rows_json ())

(* One UP row: cost of absorbing one mutation through Nd_engine.update
   (bounded maintenance — stale_threshold 1.0 pins the maintenance
   path) vs the from-scratch prepare, in cost-model ops.  The dirty
   region is O(1) in n while prepare is pseudo-linear, so the ratio
   must fall as n grows; check_schema gates monotone decrease and a
   final ratio < 0.2. *)
let ee_update_point phi side =
  Nd_engine.reset_metrics ();
  let g = Gen.randomly_color ~seed:5 ~colors:2 (Gen.grid side side) in
  let n = Cgraph.n g in
  let eng, prepare_s =
    time (fun () -> Nd_engine.prepare ~metrics:true g phi)
  in
  let prepare_ops = Nd_util.Metrics.ops () in
  (* add/remove pairs at scattered sites: diagonal chords a grid lacks,
     each absorbed then reverted so every update sees the same shape *)
  let muts =
    List.concat_map
      (fun i ->
        let v = i * n / 7 in
        let w = v + side + 1 in
        if w < n && v <> w then
          [ Cgraph.Add_edge (v, w); Cgraph.Remove_edge (v, w) ]
        else [])
      [ 1; 2; 3 ]
  in
  let ops0 = Nd_util.Metrics.ops () in
  let (), update_total_s =
    time (fun () ->
        List.iter (fun m -> Nd_engine.update ~stale_threshold:1.0 eng m) muts)
  in
  let k = List.length muts in
  let update_ops = (Nd_util.Metrics.ops () - ops0) / k in
  let update_s = update_total_s /. float k in
  let ratio = float update_ops /. float (max prepare_ops 1) in
  Printf.printf
    "  grid:%dx%d  n=%d  prepare=%d ops  update=%d ops/mutation  ratio=%.4f\n%!"
    side side n prepare_ops update_ops ratio;
  Printf.sprintf
    "{\"spec\":\"grid:%dx%d\",\"n\":%d,\"prepare_s\":%.9g,\"prepare_ops\":%d,\
     \"update_s\":%.9g,\"update_ops\":%d,\"mutations\":%d,\"ratio\":%.9g}"
    side side n prepare_s prepare_ops update_s update_ops k ratio

let up_sides () =
  if !smoke then [ 12; 32 ] else if !quick then [ 12; 20; 40 ]
  else [ 12; 20; 40; 64 ]

let ee_engine_json () =
  let qtext = "dist(x,y) <= 2" in
  let phi = Nd_logic.Parse.formula qtext in
  let sides =
    if !smoke then [ 8; 12 ]
    else if !quick then [ 10; 18; 32 ]
    else [ 10; 18; 32; 56; 100 ]
  in
  let engine_points =
    List.map
      (fun side ->
        Nd_engine.reset_metrics ();
        let g = Gen.randomly_color ~seed:5 ~colors:2 (Gen.grid side side) in
        let eng, prep =
          time (fun () -> Nd_engine.prepare ~metrics:true g phi)
        in
        let all = Nd_engine.to_list eng in
        let sols = List.length all in
        (* re-test every solution.  A sequential enumeration never
           consults the cache (each call lands past the frontier), so
           this pass is what records cache probes on the row, and it
           adds its hits and ops to the row's counters: check_schema
           requires both the inserts and the probes *)
        List.iter
          (fun s ->
            if not (Nd_engine.test eng s) then
              failwith "EE: an enumerated solution failed its test")
          all;
        let st = Nd_engine.stats eng in
        Printf.printf
          "  grid:%dx%d  n=%d  solutions=%d  max delay=%d ops  prep=%s\n%!"
          side side (Cgraph.n g) sols st.Nd_engine.Stats.max_delay_ops
          (ns prep);
        Printf.sprintf
          "{\"spec\":\"grid:%dx%d\",\"prepare_s\":%.9g,\"solutions\":%d,\
           \"stats\":%s}"
          side side prep sols
          (Nd_engine.Stats.to_json st))
      sides
  in
  (* the full n ∈ {10^2..10^5} store trajectory is cheap; keep it in
     every mode so the property-test numbers are always on record *)
  let store_points =
    List.map ee_store_point [ 100; 1_000; 10_000; 100_000 ]
  in
  (* ER rows ride along in every mode: the robustness gate needs them
     on record even in CI's smoke run *)
  let budget_points = List.map (fun s -> er_json (er_point s)) (er_sides ()) in
  (* TR rows ride along for the same reason: the tracing-off overhead
     gate must be on record in every mode *)
  let trace_points = List.map (fun s -> tr_json (tr_point s)) (er_sides ()) in
  (* UP rows: the incremental-maintenance ratio trajectory *)
  let update_points = List.map (ee_update_point phi) (up_sides ()) in
  Nd_util.Metrics.disable ();
  (* SN rows: snapshot persistence, measured without instrumentation so
     the prepare-vs-load comparison is what production sees *)
  let snapshot_points = List.map ee_snapshot_point (ee_snapshot_specs ()) in
  (* ST rows ride along in every mode: the flat-bank wall-clock gate and
     the warm (mmap) vs replay load gate, checked by check_schema *)
  let storage_doc = st_rows_json () in
  (* PAR rows ride along in every mode: parallel prepare speedup and
     concurrent-serve throughput, gated host-aware by check_schema *)
  let parallel_doc = par_rows_json () in
  (* RB rows ride along in every mode: overload shedding under a 2x
     stampede and the hygiene-gate ops overhead, gated by check_schema *)
  let overload_doc = rb_rows_json () in
  (* CB rows ride along in every mode: the cluster router's merge
     differential, failover blip, catch-up replay and probe-overhead
     gate, all checked by check_schema *)
  let cluster_doc = cb_rows_json () in
  (* OB rows ride along in every mode: the fleet observability stack
     (tracing + propagation + event ring) armed vs off, gated <= 2%
     ops delta by check_schema *)
  let obs_doc = ob_rows_json () in
  let mode = if !smoke then "smoke" else if !quick then "quick" else "full" in
  let doc =
    Printf.sprintf
      "{\"schema\":\"nd-engine-bench/1\",\"mode\":\"%s\",\"query\":\"%s\",\
       \"engine\":[%s],\"store\":[%s],\"budget_overhead\":[%s],\
       \"trace_overhead\":[%s],\"snapshot\":[%s],\"storage\":%s,\
       \"update\":[%s],\"parallel\":%s,\"overload\":%s,\"cluster\":%s,\
       \"observability\":%s}"
      mode qtext
      (String.concat "," engine_points)
      (String.concat "," store_points)
      (String.concat "," budget_points)
      (String.concat "," trace_points)
      (String.concat "," snapshot_points)
      storage_doc
      (String.concat "," update_points)
      parallel_doc overload_doc cluster_doc obs_doc
  in
  let path = "BENCH_engine.json" in
  let oc = open_out path in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  note (Printf.sprintf "wrote %s (%d bytes)" path (String.length doc))

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", "Figure 1 register file", e1_figure1);
    ("E2", "Theorem 3.1 storing structure", e2_storing);
    ("E3", "Theorem 4.4 neighborhood covers", e3_cover);
    ("E4", "Theorem 4.6 splitter game", e4_splitter);
    ("E5", "Proposition 4.2 distance index", e5_dist_index);
    ("E6", "Lemma 5.8 skip pointers", e6_skip);
    ("E7", "Theorem 2.3 / Corollary 2.4", e7_next_and_test);
    ("E9", "Corollary 2.5 enumeration", e9_enumeration);
    ("E10", "weak accessibility profile", e10_wcol);
    ("E11", "pseudo-linear counting", e11_counting);
    ("A1", "ablation: skip pointers", a1_ablation_skip);
    ("A2", "ablation: index space", a2_ablation_dist);
    ("ER", "robustness: budget-probe overhead", er_budget_overhead);
    ("TR", "observability: span-tracer overhead", tr_trace_overhead);
    ("PAR", "parallel prepare + concurrent serve", par_parallel);
    ("RB", "robustness: overload shedding + hygiene overhead", rb_overload);
    ("CB", "cluster router: merge, failover, catch-up", cb_cluster);
    ("OB", "fleet observability: armed-vs-off overhead", ob_fleet_obs);
    ("ST", "storage: flat banks vs boxed, warm vs replay load", st_storage);
    ("EE", "engine cost-model trajectories", ee_engine_json);
  ]

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--micro" :: rest ->
        micro := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--only" :: rest -> only := rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke && !only = [] then only := [ "EE" ];
  let selected =
    if !only = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id !only) experiments
  in
  Printf.printf
    "nowhere-enum experiment harness (%s mode, %d host domains) — see \
     DESIGN.md section 3 and EXPERIMENTS.md\n"
    (if !smoke then "smoke" else if !quick then "quick" else "full")
    host_domains;
  List.iter
    (fun (id, descr, fn) ->
      Printf.printf "\n########## %s — %s ##########\n%!" id descr;
      let (), t = time fn in
      Printf.printf "   [%s completed in %.1fs]\n%!" id t)
    selected;
  if !micro then micro_rows ()
