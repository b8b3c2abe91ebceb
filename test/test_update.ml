(* The incremental update pipeline: mutation sequences absorbed through
   Nd_engine.update must be indistinguishable — on next/test/seq — from
   a from-scratch prepare on the mutated graph, and from the naive
   evaluator.  Covers cache/frontier invalidation edge cases, the
   stale-rebuild rung, degraded handles, sentences, and the Cgraph
   mutation layer itself. *)

open Nd_graph
open Nd_logic

let naive_solutions g phi =
  Nd_eval.Naive.eval_all (Nd_eval.Naive.ctx g) ~vars:(Fo.free_vars phi) phi

let tuple_list_equal a b =
  List.length a = List.length b && List.for_all2 (fun x y -> x = y) a b

let show_tuples ts =
  String.concat " "
    (List.map
       (fun t ->
         "("
         ^ String.concat "," (List.map string_of_int (Array.to_list t))
         ^ ")")
       ts)

(* random mutation stream over a (possibly mutated) graph *)
let random_mutation rng g =
  let n = Cgraph.n g in
  let v () = Random.State.int rng n in
  let rec edge () =
    let u = v () and w = v () in
    if u = w then edge () else (u, w)
  in
  match Random.State.int rng 4 with
  | 0 ->
      let u, w = edge () in
      Cgraph.Add_edge (u, w)
  | 1 ->
      (* bias removals toward existing edges, keeping some no-op removes *)
      let u = v () in
      let nbrs = Cgraph.neighbors g u in
      if Array.length nbrs > 0 && Random.State.bool rng then
        Cgraph.Remove_edge (u, nbrs.(Random.State.int rng (Array.length nbrs)))
      else
        let u, w = edge () in
        Cgraph.Remove_edge (u, w)
  | 2 ->
      Cgraph.Set_color
        {
          color = Random.State.int rng (max 1 (Cgraph.color_count g));
          vertex = v ();
          present = Random.State.bool rng;
        }
  | _ ->
      let u, w = edge () in
      if Cgraph.has_edge g u w then Cgraph.Remove_edge (u, w)
      else Cgraph.Add_edge (u, w)

(* ---------------------------------------------------------------- *)
(* Cgraph mutation layer *)

let test_apply_is_persistent () =
  let g = Gen.grid 4 4 in
  let g' = Cgraph.apply g (Cgraph.Add_edge (0, 15)) in
  Alcotest.(check bool) "old view lacks the edge" false (Cgraph.has_edge g 0 15);
  Alcotest.(check bool) "new view has the edge" true (Cgraph.has_edge g' 0 15);
  Alcotest.(check int) "old m" (Cgraph.m g) (Cgraph.m g' - 1);
  Alcotest.(check int) "epoch 0" 0 (Cgraph.epoch g);
  Alcotest.(check int) "epoch 1" 1 (Cgraph.epoch g');
  let g'' = Cgraph.apply g' (Cgraph.Remove_edge (0, 15)) in
  Alcotest.(check bool) "removed again" false (Cgraph.has_edge g'' 0 15);
  Alcotest.(check int) "epoch 2" 2 (Cgraph.epoch g'');
  (* ABA: structurally equal to the original, epoch differs *)
  Alcotest.(check bool) "ABA structural equality" true (Cgraph.equal g g'');
  let gi = Cgraph.apply g'' (Cgraph.Add_edge (0, 1)) in
  Alcotest.(check int) "idempotent add still bumps epoch" 3 (Cgraph.epoch gi);
  Alcotest.(check int) "idempotent add keeps m" (Cgraph.m g'') (Cgraph.m gi)

let test_apply_validates () =
  let g = Gen.grid 3 3 in
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Cgraph.apply: self-loop") (fun () ->
      ignore (Cgraph.apply g (Cgraph.Add_edge (2, 2))));
  (match Cgraph.apply g (Cgraph.Add_edge (0, 99)) with
  | _ -> Alcotest.fail "out-of-range accepted"
  | exception Invalid_argument _ -> ());
  match
    Cgraph.apply g (Cgraph.Set_color { color = 0; vertex = 0; present = true })
  with
  | _ -> Alcotest.fail "color out of range accepted"
  | exception Invalid_argument _ -> ()

let test_mutation_strings () =
  let muts =
    [
      Cgraph.Add_edge (3, 4);
      Cgraph.Remove_edge (0, 12);
      Cgraph.Set_color { color = 1; vertex = 7; present = true };
      Cgraph.Set_color { color = 0; vertex = 2; present = false };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "roundtrip" true
        (Cgraph.mutation_of_string (Cgraph.mutation_to_string m) = m))
    muts;
  (match Cgraph.mutation_of_string "  add-edge   5  6 " with
  | Cgraph.Add_edge (5, 6) -> ()
  | _ -> Alcotest.fail "whitespace-tolerant parse");
  match Cgraph.mutation_of_string "frobnicate 1 2" with
  | _ -> Alcotest.fail "garbage accepted"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* Zoo-wide differential fuzz *)

let fuzz_specs =
  [
    ("grid 6x6", fun () -> Gen.randomly_color ~seed:11 ~colors:2 (Gen.planar_grid ~seed:4 6 6));
    ("random tree", fun () -> Gen.randomly_color ~seed:5 ~colors:2 (Gen.random_tree ~seed:9 40));
    ("bounded degree", fun () -> Gen.randomly_color ~seed:3 ~colors:2 (Gen.bounded_degree ~seed:7 40 ~max_degree:3));
    ("caterpillar", fun () -> Gen.randomly_color ~seed:2 ~colors:2 (Gen.caterpillar ~seed:1 30));
  ]

let fuzz_queries =
  [ "dist(x,y) <= 2"; "E(x,y) & C0(y)"; "dist(x,y) > 2 & C1(y)"; "C0(x)" ]

let check_engine_matches ~ctxt eng g phi =
  let got = Nd_engine.to_list eng in
  let fresh = Nd_engine.to_list (Nd_engine.prepare g phi) in
  if not (tuple_list_equal got fresh) then
    Alcotest.failf "%s: update-maintained ≠ fresh prepare\n  upd:   %s\n  fresh: %s"
      ctxt (show_tuples got) (show_tuples fresh);
  let naive = naive_solutions g phi in
  if not (tuple_list_equal got naive) then
    Alcotest.failf "%s: update-maintained ≠ naive" ctxt

let test_fuzz_differential () =
  List.iter
    (fun (sname, mk) ->
      List.iter
        (fun qs ->
          let phi = Parse.formula qs in
          let rng = Random.State.make [| Hashtbl.hash (sname, qs); 77 |] in
          let g = ref (mk ()) in
          let eng = Nd_engine.prepare !g phi in
          (* warm the cache partially so invalidation has work to do *)
          ignore (Nd_engine.to_list ~limit:9 eng);
          for step = 1 to 6 do
            let mut = random_mutation rng !g in
            Nd_engine.update eng mut;
            g := Cgraph.apply !g mut;
            Alcotest.(check int)
              (Printf.sprintf "%s/%s epoch at step %d" sname qs step)
              step (Nd_engine.epoch eng);
            check_engine_matches
              ~ctxt:(Printf.sprintf "%s / %s / step %d (%s)" sname qs step
                       (Cgraph.mutation_to_string mut))
              eng !g phi;
            (* random next/test probes straddling the frontier *)
            let k = Nd_engine.arity eng in
            let n = Cgraph.n !g in
            let fresh = Nd_engine.prepare !g phi in
            for _ = 1 to 5 do
              let a = Array.init k (fun _ -> Random.State.int rng n) in
              let e1 = Nd_engine.next eng a and e2 = Nd_engine.next fresh a in
              if e1 <> e2 then
                Alcotest.failf "%s/%s: next %s diverges" sname qs
                  (Nd_util.Tuple.to_string a);
              if Nd_engine.test eng a <> Nd_engine.test fresh a then
                Alcotest.failf "%s/%s: test %s diverges" sname qs
                  (Nd_util.Tuple.to_string a)
            done
          done)
        fuzz_queries)
    fuzz_specs

(* cache fully complete, then mutate: the frontier boundary edge case *)
let test_complete_cache_invalidation () =
  let g0 = Gen.randomly_color ~seed:11 ~colors:2 (Gen.planar_grid ~seed:4 5 5) in
  let phi = Parse.formula "E(x,y) & C0(y)" in
  let eng = Nd_engine.prepare g0 phi in
  ignore (Nd_engine.to_list eng);
  (* cache now complete *)
  Alcotest.(check bool) "cache complete" true (Nd_engine.cache_complete eng);
  let mut = Cgraph.Add_edge (0, 24) in
  Nd_engine.update eng mut;
  let g1 = Cgraph.apply g0 mut in
  Alcotest.(check bool) "no longer complete" false (Nd_engine.cache_complete eng);
  check_engine_matches ~ctxt:"complete-cache mutate" eng g1 phi;
  (* enumerate again: cache re-completes over the mutated graph *)
  ignore (Nd_engine.to_list eng);
  Alcotest.(check bool) "re-completed" true (Nd_engine.cache_complete eng);
  check_engine_matches ~ctxt:"re-completed" eng g1 phi

(* a mutation at high vertex ids: cached low-region keys must survive *)
let test_partial_invalidation_keeps_clean_prefix () =
  let g0 = Gen.randomly_color ~seed:11 ~colors:2 (Gen.planar_grid ~seed:4 6 6) in
  let phi = Parse.formula "E(x,y) & C0(y)" in
  let eng = Nd_engine.prepare g0 phi in
  ignore (Nd_engine.to_list eng);
  let size_before = Nd_engine.cache_size eng in
  let n = Cgraph.n g0 in
  let mut = Cgraph.Add_edge (n - 1, n - 7) in
  Nd_engine.update eng mut;
  let g1 = Cgraph.apply g0 mut in
  let size_after = Nd_engine.cache_size eng in
  Alcotest.(check bool)
    (Printf.sprintf "clean-prefix keys survive (%d -> %d)" size_before
       size_after)
    true
    (size_after > 0 && size_after <= size_before);
  check_engine_matches ~ctxt:"partial invalidation" eng g1 phi

let test_stale_rebuild_threshold () =
  let g0 = Gen.randomly_color ~seed:11 ~colors:2 (Gen.planar_grid ~seed:4 5 5) in
  let phi = Parse.formula "dist(x,y) <= 2" in
  let eng = Nd_engine.prepare g0 phi in
  (* threshold 0: any mutation trips the stale-rebuild rung *)
  let mut = Cgraph.Add_edge (0, 24) in
  Nd_engine.update ~stale_threshold:0.0 eng mut;
  let g1 = Cgraph.apply g0 mut in
  (match Nd_engine.degradation eng with
  | `Stale_rebuild reason ->
      Alcotest.(check bool) "reason mentions threshold" true
        (String.length reason > 0)
  | `None | `Fallback _ -> Alcotest.fail "expected `Stale_rebuild");
  Alcotest.(check bool) "stale rebuild is not degraded" false
    (Nd_engine.degraded eng);
  Alcotest.(check bool) "still compiled" true (Nd_engine.compiled eng);
  check_engine_matches ~ctxt:"stale rebuild" eng g1 phi

let test_degraded_handle_update () =
  let g0 = Gen.randomly_color ~seed:17 ~colors:2 (Gen.bounded_degree ~seed:17 40 ~max_degree:3) in
  let phi = Parse.formula "dist(x,y) <= 2" in
  let b = Nd_util.Budget.create ~max_ops:1 () in
  let eng = Nd_engine.prepare ~budget:b g0 phi in
  Alcotest.(check bool) "degraded" true (Nd_engine.degraded eng);
  let mut = Cgraph.Remove_edge (0, (Cgraph.neighbors g0 0).(0)) in
  Nd_engine.update eng mut;
  let g1 = Cgraph.apply g0 mut in
  Alcotest.(check bool) "still degraded" true (Nd_engine.degraded eng);
  let got = Nd_engine.to_list eng in
  Alcotest.(check bool) "degraded update ≡ naive" true
    (tuple_list_equal got (naive_solutions g1 phi))

let test_sentence_update () =
  let g0 = Gen.randomly_color ~seed:11 ~colors:2 (Gen.path 8) in
  let phi = Parse.formula "exists x. exists y. E(x,y) & C0(x) & C0(y)" in
  let eng = Nd_engine.prepare g0 phi in
  let before = Nd_engine.holds eng in
  (* flip every C0 off: the sentence must become false *)
  let g = ref g0 in
  for v = 0 to Cgraph.n g0 - 1 do
    let mut = Cgraph.Set_color { color = 0; vertex = v; present = false } in
    Nd_engine.update eng mut;
    g := Cgraph.apply !g mut
  done;
  Alcotest.(check bool) "was satisfiable or not, consistently" before
    (Nd_engine.holds (Nd_engine.prepare g0 phi));
  Alcotest.(check bool) "sentence now false" false (Nd_engine.holds eng)

let test_update_validates () =
  let g = Gen.grid 3 3 in
  let eng = Nd_engine.prepare g (Parse.formula "E(x,y)") in
  (match Nd_engine.update eng (Cgraph.Add_edge (0, 0)) with
  | () -> Alcotest.fail "self-loop accepted"
  | exception Nd_error.User_error _ -> ());
  (match Nd_engine.update eng (Cgraph.Add_edge (0, 99)) with
  | () -> Alcotest.fail "out-of-range accepted"
  | exception Nd_error.User_error _ -> ());
  match
    Nd_engine.update eng
      (Cgraph.Set_color { color = 5; vertex = 0; present = true })
  with
  | () -> Alcotest.fail "bad color accepted"
  | exception Nd_error.User_error _ -> ()

let test_update_batch_journal () =
  let g0 = Gen.randomly_color ~seed:11 ~colors:2 (Gen.planar_grid ~seed:4 5 5) in
  let phi = Parse.formula "E(x,y) & C0(y)" in
  let eng = Nd_engine.prepare g0 phi in
  let journal =
    [
      Cgraph.Add_edge (0, 24);
      Cgraph.Set_color { color = 0; vertex = 3; present = true };
      Cgraph.Remove_edge (0, 24);
      Cgraph.Add_edge (2, 17);
    ]
  in
  Nd_engine.update_batch eng journal;
  let g1 = List.fold_left Cgraph.apply g0 journal in
  Alcotest.(check int) "epoch counts the journal" (List.length journal)
    (Nd_engine.epoch eng);
  check_engine_matches ~ctxt:"batch journal" eng g1 phi

(* ---------------------------------------------------------------- *)
(* Clip and cache differential: a cached handle driven through random
   interleavings of next / test / pages / updates answers exactly like
   a cache-less one, an update's eviction count is exactly the rows it
   drops, and its clip costs one binary search. *)

module Metrics = Nd_util.Metrics

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.counters ()))

let ceil_log2 x =
  let rec go b = if 1 lsl b >= x then b else go (b + 1) in
  go 0

(* ⌈log₂(len+1)⌉ comparisons for the lower bound, plus one of slack *)
let probe_bound len = ceil_log2 (len + 1) + 1

let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was then Metrics.disable ()) f

(* one update on [eng], checking the eviction count and the probe bound *)
let checked_update ~ctxt eng mut =
  let len = Nd_engine.cache_size eng in
  let ev0 = counter "engine.cache_evicted" and pr0 = counter "engine.cache_probes" in
  Nd_engine.update eng mut;
  let evicted = counter "engine.cache_evicted" - ev0 in
  let probes = counter "engine.cache_probes" - pr0 in
  if evicted <> len - Nd_engine.cache_size eng then
    Alcotest.failf "%s: cache_evicted +%d, but the cache went %d -> %d" ctxt
      evicted len (Nd_engine.cache_size eng);
  if probes > probe_bound len then
    Alcotest.failf "%s: update over %d rows made %d probes (bound %d)" ctxt len
      probes (probe_bound len)

let clip_specs =
  [|
    "grid:5x5"; "planar:4x4"; "tree:30"; "path:20"; "cycle:20"; "star:12";
    "bdeg:30:3"; "ktree:20:2"; "subdiv:3"; "gnp:25:0.1";
  |]

let clip_queries =
  [| "dist(x,y) <= 2"; "E(x,y) & C0(y)"; "dist(x,y) > 2 & C1(y)"; "C0(x)" |]

let clip_limits = [| 1; 2; 17; 100_000 |]

let clip_case (si, qi, li, seed) =
  let spec = clip_specs.(si) and qs = clip_queries.(qi) and limit = clip_limits.(li) in
  let ctxt = Printf.sprintf "%s / %s / limit %d / seed %d" spec qs limit seed in
  let rng = Random.State.make [| seed |] in
  let g = Gen.randomly_color ~seed ~colors:2 (Gen.of_spec ~seed spec) in
  let phi = Parse.formula qs in
  let eng = Nd_engine.prepare ~cache_limit:limit g phi in
  let live = Nd_engine.prepare ~cache_limit:0 g phi in
  let k = Nd_engine.arity eng in
  let n = Cgraph.n g in
  let tuple () = Array.init k (fun _ -> Random.State.int rng n) in
  let agree what a b =
    if a <> b then Alcotest.failf "%s: %s diverges from the cache-less handle" ctxt what
  in
  let page h a len =
    let rec go a i acc =
      if i = len then List.rev acc
      else
        match Nd_engine.next h a with
        | None -> List.rev acc
        | Some s -> (
            match Nd_util.Tuple.succ ~n s with
            | None -> List.rev (s :: acc)
            | Some a' -> go a' (i + 1) (s :: acc))
    in
    go a 0 []
  in
  let g = ref g in
  for step = 1 to 30 do
    match Random.State.int rng 10 with
    | 0 | 1 | 2 ->
        let a = tuple () in
        agree "next" (Nd_engine.next eng a) (Nd_engine.next live a)
    | 3 | 4 ->
        let a = tuple () in
        agree "test" (Nd_engine.test eng a) (Nd_engine.test live a)
    | 5 ->
        let len = 1 + Random.State.int rng 40 in
        agree "first page"
          (Nd_engine.to_list ~limit:len eng)
          (Nd_engine.to_list ~limit:len live)
    | 6 | 7 ->
        let a = tuple () and len = 1 + Random.State.int rng 20 in
        agree "page" (page eng a len) (page live a len)
    | _ ->
        let mut = random_mutation rng !g in
        checked_update
          ~ctxt:(Printf.sprintf "%s step %d (%s)" ctxt step (Cgraph.mutation_to_string mut))
          eng mut;
        Nd_engine.update live mut;
        g := Cgraph.apply !g mut
  done;
  agree "full enumeration" (Nd_engine.to_list eng) (Nd_engine.to_list live);
  true

let prop_clip_differential =
  QCheck.Test.make ~count:80 ~name:"clip and cache differential (zoo x cache limits)"
    QCheck.(
      quad
        (int_bound (Array.length clip_specs - 1))
        (int_bound (Array.length clip_queries - 1))
        (int_bound (Array.length clip_limits - 1))
        (int_bound 1_000_000))
    (fun case -> with_metrics (fun () -> clip_case case))

(* The first write after a warm restore of a complete cache clips the
   adopted (memory-mapped, where the host allows) bank: one search,
   and the handle then answers like a fresh prepare. *)
let test_first_write_after_warm_restore () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nd_update_test_%d.snap" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let g0 = Gen.randomly_color ~seed:11 ~colors:2 (Gen.planar_grid ~seed:4 16 16) in
  let phi = Parse.formula "dist(x,y) <= 2" in
  let eng = Nd_engine.prepare g0 phi in
  ignore (Nd_engine.to_list eng);
  Alcotest.(check bool) "cache complete" true (Nd_engine.cache_complete eng);
  let size = Nd_engine.cache_size eng in
  ignore (Nd_snapshot.save ~path eng);
  let loaded =
    match Nd_snapshot.load_routed ~path g0 phi with
    | Ok (e, Nd_snapshot.Warm _) -> e
    | Ok (_, Nd_snapshot.Replayed) -> Alcotest.fail "restore took the replay rung"
    | Error c -> Alcotest.failf "restore: %s" (Nd_snapshot.describe c)
  in
  Alcotest.(check bool) "restored complete" true (Nd_engine.cache_complete loaded);
  (* a write far from vertex 0: the clip keeps a clean prefix *)
  let mut = Cgraph.Add_edge (200, 230) in
  with_metrics (fun () -> checked_update ~ctxt:"first write after restore" loaded mut);
  let g1 = Cgraph.apply g0 mut in
  Alcotest.(check bool) "no longer complete" false (Nd_engine.cache_complete loaded);
  Alcotest.(check bool)
    (Printf.sprintf "clipped, not dropped (%d -> %d rows)" size
       (Nd_engine.cache_size loaded))
    true
    (Nd_engine.cache_size loaded > 0 && Nd_engine.cache_size loaded < size);
  check_engine_matches ~ctxt:"first write after restore" loaded g1 phi;
  let fresh = Nd_engine.prepare g1 phi in
  let n = Cgraph.n g1 in
  for a = 0 to n - 1 do
    let t = [| a; (a * 7) mod n |] in
    if Nd_engine.next loaded t <> Nd_engine.next fresh t
       || Nd_engine.test loaded t <> Nd_engine.test fresh t
    then Alcotest.failf "restored handle diverges at %s" (Nd_util.Tuple.to_string t)
  done

let suite =
  [
    Alcotest.test_case "apply is persistent + epoch" `Quick test_apply_is_persistent;
    Alcotest.test_case "apply validates input" `Quick test_apply_validates;
    Alcotest.test_case "mutation wire syntax roundtrip" `Quick test_mutation_strings;
    Alcotest.test_case "zoo fuzz: update ≡ fresh prepare ≡ naive" `Slow test_fuzz_differential;
    Alcotest.test_case "complete cache invalidation" `Quick test_complete_cache_invalidation;
    Alcotest.test_case "partial invalidation keeps clean prefix" `Quick test_partial_invalidation_keeps_clean_prefix;
    Alcotest.test_case "stale-rebuild threshold rung" `Quick test_stale_rebuild_threshold;
    Alcotest.test_case "degraded handle absorbs updates" `Quick test_degraded_handle_update;
    Alcotest.test_case "sentence handle re-checks" `Quick test_sentence_update;
    Alcotest.test_case "update validates mutations" `Quick test_update_validates;
    Alcotest.test_case "batch journal replay" `Quick test_update_batch_journal;
    QCheck_alcotest.to_alcotest prop_clip_differential;
    Alcotest.test_case "first write after a warm restore" `Quick
      test_first_write_after_warm_restore;
  ]
