(* Clock, order statistics and the in-memory span recorder. *)

(* Monotonic nanoseconds: every duration in the benchmark is taken on
   this clock, never on gettimeofday. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Nearest-rank percentile of an unsorted sample; nan on no samples. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let median xs = percentile 50. xs
let sum xs = List.fold_left ( +. ) 0. xs

(* ---- spans ----

   One span per call across a layer boundary, recorded from the
   benchmark's own code: name, start, end, parent span and request id.
   Spans stay in memory and are written out once, at the end.  The
   parent is passed explicitly, so client threads can record
   concurrently. *)
type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = root *)
  rid : int;  (** request id; 0 outside requests *)
  t0 : int;
  t1 : int;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let span_lock = Mutex.create ()

(* [span ~parent ~rid name f] runs [f id] and records its span (when
   tracing); returns [f]'s result and the duration in ns either way. *)
let span ?(parent = 0) ?(rid = 0) name f =
  if not !tracing then time_ns (fun () -> f 0)
  else begin
    Mutex.lock span_lock;
    incr next_id;
    let id = !next_id in
    Mutex.unlock span_lock;
    let t0 = now_ns () in
    let r = f id in
    let t1 = now_ns () in
    Mutex.lock span_lock;
    spans := { id; name; parent; rid; t0; t1 } :: !spans;
    Mutex.unlock span_lock;
    (r, t1 - t0)
  end

(* Self time per span: its duration minus the part of it its children
   cover (children of one span never overlap here, so a sum suffices). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 - s.t0) + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      (s.name, (s.t1 - s.t0) - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    !spans

(* Per span name: count, total self ms, median self us. *)
let self_table () =
  let by = Hashtbl.create 64 in
  List.iter
    (fun (name, ns) ->
      Hashtbl.replace by name (ns :: Option.value ~default:[] (Hashtbl.find_opt by name)))
    (self_times ());
  Hashtbl.fold
    (fun name l acc ->
      let us = List.map us_of_ns l in
      (name, List.length l, sum us /. 1e3, median us) :: acc)
    by []
  |> List.sort compare

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"rid\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.parent s.rid s.t0 s.t1)
    (List.rev !spans);
  close_out oc
