(* Seeded inputs: the graph as an edge-list file (the only form fodb
   receives), the request streams and the mutation pairs.  Everything
   is a function of the workload seed. *)

open Nd_graph

let far_color = "dist(x,y) > 2 & C1(y)"
let join = "exists z. E(x,z) & E(z,y)"
let colors = 3

(* Generate [spec] with 3 random colours and write it in fodb's
   edge-list format ("u v" lines, "c COLOR VERTEX" lines).  The shape
   of a random family (planar's diagonals) comes from a fixed seed, so
   every workload seed runs the same shape; colours, requests and
   mutations come from the workload seed.  A new shape per seed moved
   prepare time by about 10% between seeds. *)
let shape_seed = 1

let write_graph ~seed ~spec path =
  let g = Gen.randomly_color ~seed ~colors (Gen.of_spec ~seed:shape_seed spec) in
  let oc = open_out path in
  Cgraph.fold_edges (fun u v () -> Printf.fprintf oc "%d %d\n" u v) g ();
  for c = 0 to colors - 1 do
    Array.iter (fun v -> Printf.fprintf oc "c %d %d\n" c v) (Cgraph.color_members g ~color:c)
  done;
  close_out oc

(* Read the file back exactly the way fodb does, so the in-process
   reference sees the graph the served process sees. *)
let load_graph path =
  let ic = open_in path in
  let edges = ref [] and cols = ref [] and maxv = ref (-1) in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ "c"; c; v ] ->
           let v = int_of_string v in
           maxv := max !maxv v;
           cols := (int_of_string c, v) :: !cols
       | [ u; v ] ->
           let u = int_of_string u and v = int_of_string v in
           maxv := max !maxv (max u v);
           edges := (u, v) :: !edges
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  let n = !maxv + 1 in
  let nc = List.fold_left (fun a (c, _) -> max a (c + 1)) 0 !cols in
  let sets = Array.init nc (fun _ -> Nd_util.Bitset.create n) in
  List.iter (fun (c, v) -> Nd_util.Bitset.add sets.(c) v) !cols;
  Cgraph.create ~n ~colors:sets !edges

let tuple_str t = String.concat "," (Array.to_list (Array.map string_of_int t))

(* The point-serving mix: 60% next T, 35% test T, 5% enumerate 100 on
   the connection's cursor.  Request i of stream [stream] is a pure
   function of (seed, stream, i).

   T = (x, y) is uniform over the vertex pairs: y is drawn uniformly,
   and x follows a golden-ratio additive recurrence from a uniform
   random start, so each x is uniform yet a run's x values cover the
   vertex range evenly.  A request's cost depends mostly on x (on
   routed-pages, on how far x is from the next vertex a shard owns),
   and with independent draws the median of a 10 s run moved by about
   20% between seeds. *)
type req = Next of int array | Test of int array | Page of int

let line_of = function
  | Next t -> "next " ^ tuple_str t
  | Test t -> "test " ^ tuple_str t
  | Page k -> "enumerate " ^ string_of_int k

let golden = 0.6180339887498949

let point_stream ~seed ~stream ~n =
  let st = Random.State.make [| seed; stream; 0x5eed |] in
  let u = ref (Random.State.float st 1.) in
  fun () ->
    let r = Random.State.int st 100 in
    let t () =
      u := Float.rem (!u +. golden) 1.;
      [| min (n - 1) (int_of_float (!u *. float_of_int n)); Random.State.int st n |]
    in
    if r < 60 then Next (t ()) else if r < 95 then Test (t ()) else Page 100

let random_pair st n = [| Random.State.int st n; Random.State.int st n |]

(* [count] mutation pairs (u, v): v at distance exactly 2 from u (so
   u-v is not an edge and adding it is a real change).  u is uniform
   within one of [strata] equal vertex ranges, and each block of
   [strata] consecutive pairs visits every range once, in a seeded
   order.  An update's cost grows with the cached solutions it evicts,
   which depends on where u falls; stratifying keeps that spread the
   same for every seed, so a run's median does not hinge on a few
   lucky draws. *)
let strata = 4

let distance2_pairs ~seed ~count g =
  let st = Random.State.make [| seed; 0xed9e |] in
  let n = Cgraph.n g in
  let order = Array.init strata Fun.id in
  let rec pick i =
    if i mod strata = 0 then
      for j = strata - 1 downto 1 do
        let k = Random.State.int st (j + 1) in
        let t = order.(j) in
        order.(j) <- order.(k);
        order.(k) <- t
      done;
    let lo = order.(i mod strata) * n / strata and hi = (order.(i mod strata) + 1) * n / strata in
    let u = lo + Random.State.int st (hi - lo) in
    let d = Bfs.dist_upto g u ~radius:2 in
    let cands = ref [] in
    Array.iteri (fun v dv -> if dv = 2 then cands := v :: !cands) d;
    match !cands with
    | [] -> pick i
    | l ->
        let a = Array.of_list (List.rev l) in
        (u, a.(Random.State.int st (Array.length a)))
  in
  List.init count pick

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc
