module Metrics = Nd_util.Metrics
module Gen = Nd_graph.Gen
module B = Nd_bench_util

type point = {
  n_target : int;
  n_actual : int;
  answers : int;
  prepare_s : float;
  ops_p50 : int;
  ops_p95 : int;
  ops_p99 : int;
  ops_max : int;
  wall_us_p50 : float;
  wall_us_p95 : float;
  wall_us_p99 : float;
  wall_us_max : float;
}

type report = {
  spec : string;
  query : string;
  tolerance : float;
  points : point list;
  delay_invariant : bool;
}

let delay_invariant ~tolerance maxes =
  match maxes with
  | [] -> false
  | m :: ms ->
      let lo = List.fold_left min m ms and hi = List.fold_left max m ms in
      float_of_int hi <= (tolerance *. float_of_int lo) +. 0.5

let family spec =
  match List.find_opt (fun (f : Gen.family) -> f.name = spec) Gen.families with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Nd_profile.run: unknown family %S (known: %s)" spec
           (String.concat ", "
              (List.map (fun (f : Gen.family) -> f.name) Gen.families)))

let point ~fam ~phi ~colors ~seed ~limit n_target =
  let g = fam.Gen.build n_target in
  let g =
    if colors > 0 then Gen.randomly_color ~seed ~colors g else g
  in
  Metrics.reset ();
  let eng, prepare_s =
    B.time (fun () -> Nd_engine.prepare ~metrics:true ~cache_limit:0 g phi)
  in
  let deltas = ref [] in
  let answers = ref 0 in
  let t_prev = ref (Unix.gettimeofday ()) in
  Nd_engine.enumerate ~limit
    (fun _ ->
      let now = Unix.gettimeofday () in
      deltas := (now -. !t_prev) *. 1e6 :: !deltas;
      t_prev := now;
      incr answers)
    eng;
  let walls = Array.of_list (List.rev !deltas) in
  let wp p = if Array.length walls = 0 then 0. else B.percentile walls p in
  let ops =
    match List.assoc_opt "enum.delay_ops" (Metrics.hists ()) with
    | Some (s : Metrics.hist_stats) -> s
    | None -> { Metrics.count = 0; max = 0; mean = 0.; p50 = 0; p95 = 0; p99 = 0 }
  in
  {
    n_target;
    n_actual = Nd_graph.Cgraph.n g;
    answers = !answers;
    prepare_s;
    ops_p50 = ops.Metrics.p50;
    ops_p95 = ops.Metrics.p95;
    ops_p99 = ops.Metrics.p99;
    ops_max = ops.Metrics.max;
    wall_us_p50 = wp 50.;
    wall_us_p95 = wp 95.;
    wall_us_p99 = wp 99.;
    wall_us_max = wp 100.;
  }

let run ?(query = "dist(x,y) <= 2") ?(colors = 0) ?(seed = 7) ?(limit = 20000)
    ?(tolerance = 1.2) ~spec ~sizes () =
  if sizes = [] then invalid_arg "Nd_profile.run: empty sizes";
  if tolerance < 1. then invalid_arg "Nd_profile.run: tolerance must be >= 1";
  let fam = family spec in
  let phi = Nd_logic.Parse.formula query in
  let was_enabled = Metrics.enabled () in
  let sizes = List.sort_uniq compare sizes in
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      if not was_enabled then Metrics.disable ())
    (fun () ->
      let points =
        List.map (fun n -> point ~fam ~phi ~colors ~seed ~limit n) sizes
      in
      let maxes =
        List.filter_map
          (fun p -> if p.answers > 0 then Some p.ops_max else None)
          points
      in
      {
        spec;
        query;
        tolerance;
        points;
        delay_invariant = delay_invariant ~tolerance maxes;
      })

(* ---------------- output ---------------- *)

let to_json r =
  let point_json p =
    Printf.sprintf
      "{\"n_target\":%d,\"n_actual\":%d,\"answers\":%d,\"prepare_s\":%.6f,\"ops\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"max\":%d},\"wall_us\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,\"max\":%.3f}}"
      p.n_target p.n_actual p.answers p.prepare_s p.ops_p50 p.ops_p95 p.ops_p99
      p.ops_max p.wall_us_p50 p.wall_us_p95 p.wall_us_p99 p.wall_us_max
  in
  Printf.sprintf
    "{\"schema\":\"nd-profile/1\",\"spec\":\"%s\",\"query\":\"%s\",\"tolerance\":%.3f,\"points\":[%s],\"delay_invariant\":%b}"
    (Nd_trace.Json.escape r.spec) (Nd_trace.Json.escape r.query) r.tolerance
    (String.concat "," (List.map point_json r.points))
    r.delay_invariant

let print r =
  Printf.printf "delay profile: %s  query %S  (ops = cost-model operations)\n"
    r.spec r.query;
  B.print_table
    ~title:"per-answer delay vs instance size"
    ~header:
      [ "n"; "answers"; "prep"; "ops p50"; "p95"; "p99"; "max"; "wall p50";
        "max" ]
    (List.map
       (fun p ->
         [
           string_of_int p.n_actual;
           string_of_int p.answers;
           B.ns p.prepare_s;
           string_of_int p.ops_p50;
           string_of_int p.ops_p95;
           string_of_int p.ops_p99;
           string_of_int p.ops_max;
           B.ns (p.wall_us_p50 *. 1e-6);
           B.ns (p.wall_us_max *. 1e-6);
         ])
       r.points);
  B.note
    (Printf.sprintf
       "verdict: max ops-per-answer within %.2fx across sizes = Corollary \
        2.5 observed"
       r.tolerance);
  Printf.printf "delay-invariant: %b\n" r.delay_invariant
