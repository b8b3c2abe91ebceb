(* perfbench: the repository's end-to-end benchmark.

     bench --fodb PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
     bench --fodb PATH --work DIR --self-test

   run.sh builds fodb and this program from source and calls it; see
   README.md for the workloads, metrics and layer map.  The last line
   of stdout is one JSON object: correct, attempted, failed, metrics. *)

let usage () =
  prerr_endline
    "usage: bench --fodb PATH --work DIR (--workload NAME --seed N --seconds S --trace 0|1 | --self-test)";
  exit 2

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let s = try String.trim (input_line ic) with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      s

(* Host fingerprint, printed with every result.  fodb's auto job count
   is Domain.recommended_domain_count (its --jobs 0). *)
let fingerprint () =
  Printf.sprintf
    "host: nproc=%s ocaml=%s word_size=%d recommended_domains=%d fodb_auto_jobs=%d"
    (nproc ()) Sys.ocaml_version Sys.word_size
    (Domain.recommended_domain_count ())
    (Domain.recommended_domain_count ())

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_metric (name, v, unit) = Printf.printf "%-44s %14.6g %s\n" name v unit

let print_result ~correct (t : Verify.tally) metrics =
  List.iter print_metric metrics;
  Printf.printf "failed_frac %.6g (%d failed of %d attempted)\n"
    (float_of_int t.failed /. float_of_int (max 1 t.attempted)) t.failed t.attempted;
  List.iter (fun n -> Printf.printf "failed: %s\n" n) (List.rev t.notes);
  let ms =
    List.map (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit) metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    t.attempted t.failed (String.concat ", " ms)

let () =
  let fodb = ref "" and work = ref "" and workload = ref "" and seed = ref (-1)
  and seconds = ref 0. and trace = ref (-1) and self_test = ref false in
  let rec parse = function
    | "--fodb" :: v :: r -> fodb := v; parse r
    | "--work" :: v :: r -> work := v; parse r
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--self-test" :: r -> self_test := true; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !fodb = "" || !work = "" then usage ();
  Proc.fodb := if Filename.is_relative !fodb then Filename.concat (Sys.getcwd ()) !fodb else !fodb;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a large minor heap keeps the load generator's own collections
     (it keeps every reply for verification) out of the latencies *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 lsl 20; space_overhead = 200 };
  if !self_test then exit (Selftest.run ~work:!work);
  let w =
    match List.assoc_opt !workload E2e.workloads with Some w -> w | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  (* one directory per workload and mode, replaced by the next run *)
  let dir = Filename.concat !work (Printf.sprintf "%s-trace%d" !workload !trace) in
  Bench_dirs.fresh dir;
  Sys.chdir dir;
  print_endline (fingerprint ());
  Printf.printf "workload: %s (%s, %s), seed %d, %gs window\n%!" !workload (E2e.spec w) (E2e.query w) !seed
    !seconds;
  let cfg = { E2e.seed = !seed; seconds = !seconds } in
  let tally = Verify.tally () in
  let metrics =
    if !trace = 0 then begin
      let bounded, unbounded = E2e.metrics w (E2e.run w cfg tally) in
      print_endline "printed only, not bounded (see README.md):";
      List.iter print_metric unbounded;
      bounded
    end
    else Layers.run w cfg tally
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ "cold.snap"; "probe.snap" ];
  Proc.stop_all ();
  let correct = tally.failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  print_result ~correct tally metrics;
  exit (if correct then 0 else 1)
