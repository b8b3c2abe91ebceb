(* The span tracer: nesting discipline, ring-buffer overflow, ops
   sampling, and the Chrome trace-event export round-trip. *)

open Nd_util

let setup ?capacity () =
  Metrics.reset ();
  Metrics.disable ();
  Nd_trace.enable ?capacity ();
  Nd_trace.clear ()

let teardown () =
  Nd_trace.disable ();
  Nd_trace.clear ();
  Metrics.reset ();
  Metrics.disable ()

let names () = List.map (fun s -> s.Nd_trace.name) (Nd_trace.spans ())

(* --- nesting ------------------------------------------------------- *)

let test_lifo_nesting () =
  setup ();
  let r =
    Nd_trace.with_span "outer" (fun () ->
        Nd_trace.with_span "inner1" (fun () -> ());
        Nd_trace.with_span "inner2" (fun () -> ());
        17)
  in
  Alcotest.(check int) "result passes through" 17 r;
  (* spans complete in LIFO order: children before the parent *)
  Alcotest.(check (list string))
    "LIFO close order" [ "inner1"; "inner2"; "outer" ] (names ());
  let by_name n =
    List.find (fun s -> s.Nd_trace.name = n) (Nd_trace.spans ())
  in
  let outer = by_name "outer"
  and i1 = by_name "inner1"
  and i2 = by_name "inner2" in
  Alcotest.(check int) "outer is a root" 0 outer.Nd_trace.parent;
  Alcotest.(check int) "inner1 parent" outer.Nd_trace.sid i1.Nd_trace.parent;
  Alcotest.(check int) "inner2 parent" outer.Nd_trace.sid i2.Nd_trace.parent;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Nd_trace.name ^ " duration non-negative")
        true
        (s.Nd_trace.dur_us >= 0))
    (Nd_trace.spans ());
  (* containment: child interval inside the parent interval *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Nd_trace.name ^ " starts after parent")
        true
        (c.Nd_trace.ts_us >= outer.Nd_trace.ts_us);
      Alcotest.(check bool)
        (c.Nd_trace.name ^ " ends before parent")
        true
        (c.Nd_trace.ts_us + c.Nd_trace.dur_us
        <= outer.Nd_trace.ts_us + outer.Nd_trace.dur_us))
    [ i1; i2 ];
  teardown ()

let test_exception_safety () =
  setup ();
  (try
     Nd_trace.with_span "dies" (fun () ->
         Nd_trace.with_span "child" (fun () -> ());
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (list string))
    "span recorded despite the raise" [ "child"; "dies" ] (names ());
  Alcotest.(check int) "stack unwound" 0 (Nd_trace.current_span_id ());
  teardown ()

let test_disabled_is_passthrough () =
  teardown ();
  let r = Nd_trace.with_span "ghost" (fun () -> 5) in
  Alcotest.(check int) "result passes through when disabled" 5 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Nd_trace.spans ()));
  Alcotest.(check int) "no current span" 0 (Nd_trace.current_span_id ())

let test_current_span_id () =
  setup ();
  Alcotest.(check int) "0 outside spans" 0 (Nd_trace.current_span_id ());
  Nd_trace.with_span "a" (fun () ->
      let outer = Nd_trace.current_span_id () in
      Alcotest.(check bool) "nonzero inside" true (outer > 0);
      Nd_trace.with_span "b" (fun () ->
          Alcotest.(check bool)
            "inner differs" true
            (Nd_trace.current_span_id () <> outer)));
  Alcotest.(check int) "0 after closing" 0 (Nd_trace.current_span_id ());
  teardown ()

(* --- ring overflow ------------------------------------------------- *)

let test_ring_overflow_drops_oldest () =
  Metrics.reset ();
  Metrics.enable ();
  (* metrics on: the drop counter must mirror into the registry *)
  Nd_trace.enable ~capacity:4 ();
  Nd_trace.clear ();
  for i = 1 to 10 do
    Nd_trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check (list string))
    "newest 4 survive, oldest dropped first" [ "s7"; "s8"; "s9"; "s10" ]
    (names ());
  Alcotest.(check int) "dropped count" 6 (Nd_trace.dropped ());
  Alcotest.(check int) "trace.dropped mirror counter" 6
    (Metrics.value (Metrics.counter "trace.dropped"));
  Nd_trace.clear ();
  Alcotest.(check int) "clear resets dropped" 0 (Nd_trace.dropped ());
  Alcotest.(check int) "clear drops spans" 0 (List.length (Nd_trace.spans ()));
  teardown ()

(* --- ops sampling -------------------------------------------------- *)

let test_ops_sampling () =
  Metrics.reset ();
  Metrics.enable ();
  Nd_trace.enable ();
  Nd_trace.clear ();
  let work = Metrics.counter ~ops:true "trace_test.work" in
  Nd_trace.with_span "metered" (fun () -> Metrics.add work 7);
  (match Nd_trace.spans () with
  | [ s ] -> Alcotest.(check int) "span ops delta" 7 s.Nd_trace.ops
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  teardown ()

(* --- the phase helper ---------------------------------------------- *)

let test_phase_records_both () =
  Metrics.reset ();
  Metrics.enable ();
  Nd_trace.enable ();
  Nd_trace.clear ();
  let r = Nd_trace.phase "t.both" (fun () -> 9) in
  Alcotest.(check int) "result" 9 r;
  Alcotest.(check (list string)) "span recorded" [ "t.both" ] (names ());
  Alcotest.(check bool) "phase timer recorded" true
    (List.mem_assoc "t.both" (Metrics.phases ()));
  teardown ()

(* --- Chrome export ------------------------------------------------- *)

let test_chrome_roundtrip () =
  setup ();
  Nd_trace.with_span "outer" ~attrs:[ ("k", "v\"quoted\"") ] (fun () ->
      Nd_trace.with_span "inner" (fun () -> ()));
  let doc = Nd_trace.export_chrome () in
  (match Nd_trace.validate_chrome doc with
  | Ok n -> Alcotest.(check int) "event count" 2 n
  | Error e -> Alcotest.failf "export did not validate: %s" e);
  (* parse back and inspect the structure directly *)
  (match Nd_trace.Json.parse doc with
  | Error e -> Alcotest.failf "export is not JSON: %s" e
  | Ok j -> (
      match Nd_trace.Json.member "traceEvents" j with
      | Some (Nd_trace.Json.Arr evs) ->
          Alcotest.(check int) "two events" 2 (List.length evs);
          List.iter
            (fun ev ->
              match Nd_trace.Json.member "ph" ev with
              | Some (Nd_trace.Json.Str "X") -> ()
              | _ -> Alcotest.fail "not a complete event")
            evs
      | _ -> Alcotest.fail "missing traceEvents"));
  (* save goes through the same serializer *)
  let path = Filename.temp_file "nd_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let n = Nd_trace.save_chrome ~path in
      Alcotest.(check int) "saved span count" 2 n;
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Nd_trace.validate_chrome s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "saved file invalid: %s" e);
  teardown ()

let test_validate_rejects_garbage () =
  let bad s =
    match Nd_trace.validate_chrome s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "not json";
  bad "{}";
  bad "{\"traceEvents\":[]}";
  bad "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":0,\"dur\":0}]}";
  bad "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":-1,\"dur\":0}]}";
  (* a child escaping its parent's interval *)
  bad
    "{\"traceEvents\":[{\"name\":\"p\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\
     \"args\":{\"sid\":1,\"parent\":0}},{\"name\":\"c\",\"ph\":\"X\",\
     \"ts\":5,\"dur\":100,\"args\":{\"sid\":2,\"parent\":1}}]}"

(* The one JSON string escaper against the one reader, over every byte:
   control bytes, quotes, backslashes and bytes >= 0x80 all come back
   unchanged. *)
let prop_json_escape_roundtrip =
  QCheck.Test.make ~name:"Json.parse reads Json.escape back, any bytes"
    ~count:500
    QCheck.(string_gen Gen.(map Char.chr (int_bound 255)))
    (fun s ->
      Nd_trace.Json.parse ("\"" ^ Nd_trace.Json.escape s ^ "\"")
      = Ok (Nd_trace.Json.Str s))

(* --- instrumented layers actually emit spans ----------------------- *)

let test_engine_emits_spans () =
  setup ();
  let g =
    Nd_graph.Gen.randomly_color ~seed:3 ~colors:2 (Nd_graph.Gen.grid 6 6)
  in
  let phi = Nd_logic.Parse.formula "dist(x,y) <= 2" in
  let eng = Nd_engine.prepare g phi in
  Nd_engine.enumerate ~limit:5 (fun _ -> ()) eng;
  let ns = names () in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (expected ^ " span present")
        true (List.mem expected ns))
    [ "engine.prepare"; "cover.compute"; "engine.next" ];
  (match Nd_trace.validate_chrome (Nd_trace.export_chrome ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engine trace invalid: %s" e);
  teardown ()

let suite =
  [
    Alcotest.test_case "LIFO nesting + containment" `Quick test_lifo_nesting;
    Alcotest.test_case "exception safety" `Quick test_exception_safety;
    Alcotest.test_case "disabled = passthrough" `Quick
      test_disabled_is_passthrough;
    Alcotest.test_case "current_span_id" `Quick test_current_span_id;
    Alcotest.test_case "ring overflow drops oldest" `Quick
      test_ring_overflow_drops_oldest;
    Alcotest.test_case "per-span ops deltas" `Quick test_ops_sampling;
    Alcotest.test_case "phase = timer + span" `Quick test_phase_records_both;
    Alcotest.test_case "Chrome export round-trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "validator rejects malformed traces" `Quick
      test_validate_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_json_escape_roundtrip;
    Alcotest.test_case "engine layers emit spans" `Quick
      test_engine_emits_spans;
  ]
