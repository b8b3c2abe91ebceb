(* Fleet observability (DESIGN S17): the trace= request attribute and
   its propagation, the cross-process trace merge, aggregated
   Prometheus, and the crash flight recorder.  Cross-process linking is
   exercised over synthesized shards (forking here is illegal — other
   suites have already spawned domains); the genuine 3-process run
   lives in CI's fleet-observability job. *)

open Nd_graph
module Server = Nd_server
module Router = Nd_cluster.Router
module Ownership = Nd_cluster.Ownership
module Ctx = Nd_obs.Ctx
module Merge = Nd_obs.Merge
module Prom = Nd_obs.Prom
module Lhist = Nd_obs.Lhist
module Flight = Nd_obs.Flight

let graph () = Gen.randomly_color ~seed:5 ~colors:3 (Gen.grid 5 5)
let query = "dist(x,y) <= 2"

let make ?config () =
  let g = graph () in
  let phi = Nd_logic.Parse.formula query in
  let eng = Nd_engine.prepare g phi in
  (Server.create ?config eng, eng)

let terminator reply =
  match List.rev reply with
  | last :: _ -> last
  | [] -> Alcotest.fail "empty reply"

let check_ok what reply = Alcotest.(check string) what "ok" (terminator reply)

let with_tracing f =
  Nd_trace.enable ();
  Nd_trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Nd_trace.disable ();
      Nd_trace.clear ())
    f

let tmp_file name =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nd_obs_%s_%d" name (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  path

(* ---------------- trace-context attribute ---------------- *)

let ctx_gen =
  let open QCheck.Gen in
  let id_char =
    oneof
      [
        char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9';
        oneofl [ '.'; '_'; '-' ];
      ]
  in
  let id = map (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 1 24) id_char)
  in
  map2 (fun trace_id span -> { Ctx.trace_id; span }) id (int_bound 1_000_000)

let prop_ctx_roundtrip =
  QCheck.Test.make ~name:"ctx encode/parse round-trip" ~count:200
    (QCheck.make ctx_gen) (fun c ->
      (match Ctx.parse (Ctx.encode c) with
      | Ok c' when c' = c -> ()
      | Ok c' ->
          QCheck.Test.fail_reportf "parse(encode %s:%d) = %s:%d"
            c.Ctx.trace_id c.Ctx.span c'.Ctx.trace_id c'.Ctx.span
      | Error m -> QCheck.Test.fail_reportf "parse(encode) failed: %s" m);
      (* stamping a request line and splitting it back is lossless *)
      let base = "enumerate 64" in
      match Ctx.split_line (Ctx.stamp base c) with
      | b, Some (Ok c') -> b = base && c' = c
      | _, _ -> false)

let test_ctx_parse_rejections () =
  let reject tok reason_frag =
    match Ctx.parse tok with
    | Ok _ -> Alcotest.failf "%S parsed" tok
    | Error m ->
        if
          not
            (String.length m >= String.length reason_frag
            && String.lowercase_ascii m |> fun lm ->
               let f = String.lowercase_ascii reason_frag in
               let rec go i =
                 i + String.length f <= String.length lm
                 && (String.sub lm i (String.length f) = f || go (i + 1))
               in
               go 0)
        then Alcotest.failf "%S: reason %S lacks %S" tok m reason_frag
  in
  reject "ctx=a:1" "trace=";
  reject "trace=a1" "want trace=";
  reject "trace=:1" "non-empty";
  reject "trace=a b:1" "non-empty";
  reject "trace=a:" "non-negative";
  reject "trace=a:-3" "non-negative";
  reject "trace=a:x" "non-negative";
  (* no attribute at all: split reports None, the line is untouched *)
  (match Ctx.split_line "enumerate 64" with
  | "enumerate 64", None -> ()
  | _ -> Alcotest.fail "plain line was split");
  (* only the LAST token is an attribute position *)
  match Ctx.split_line "trace=a:1 enumerate" with
  | "trace=a:1 enumerate", None -> ()
  | _ -> Alcotest.fail "non-final trace= token treated as attribute"

let test_server_ctx_strip_and_malformed () =
  let srv, _ = make () in
  (* a valid attribute is stripped before dispatch *)
  Alcotest.(check (list string))
    "stamped test" [ "true"; "ok" ]
    (Server.handle srv "test 0,1 trace=cli:7");
  check_ok "stamped enumerate" (Server.handle srv "enumerate 3 trace=cli:9");
  (* malformed: a structured user error naming the attribute... *)
  (match Server.handle srv "next 0,0 trace=:" with
  | [ only ] ->
      Alcotest.(check bool) "err user" true
        (String.starts_with ~prefix:"err user " only);
      let has frag =
        let fl = String.length frag and l = String.length only in
        let rec go i =
          i + fl <= l && (String.sub only i fl = frag || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the attribute" true
        (has "bad trace= attribute")
  | r -> Alcotest.failf "malformed trace reply: %s" (String.concat "|" r));
  (* ...and never a desync: the next request answers normally *)
  Alcotest.(check (list string))
    "protocol still in sync" [ "sol 0,0"; "ok" ]
    (Server.handle srv "next 0,0")

let test_server_span_carries_ctx_attrs () =
  with_tracing @@ fun () ->
  let srv, _ = make () in
  check_ok "traced request" (Server.handle srv "test 0,1 trace=upstream-7:42");
  let doc = Nd_trace.export_chrome () in
  let has frag =
    let fl = String.length frag and l = String.length doc in
    let rec go i = i + fl <= l && (String.sub doc i fl = frag || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ctx.trace attr recorded" true
    (has "\"ctx.trace\":\"upstream-7\"");
  Alcotest.(check bool) "ctx.span attr recorded" true (has "\"ctx.span\":\"42\"");
  Alcotest.(check bool) "process identity exported" true
    (has "\"process\":{\"trace_id\":\"")

(* ---------------- event-log timestamps (the ts bugfix) ------------- *)

let test_event_rows_use_ts_us () =
  let rows = ref [] and flight = ref [] in
  let config =
    {
      Server.default_config with
      Server.event_log = Some (fun l -> rows := l :: !rows);
      flight = Some (fun l -> flight := l :: !flight);
    }
  in
  let srv, _ = make ~config () in
  let before = Nd_obs.now_us () in
  check_ok "one request" (Server.handle srv "test 0,1");
  ignore (Server.handle srv "frobnicate");
  let after = Nd_obs.now_us () in
  let check_row l =
    match Nd_trace.Json.parse l with
    | Error e -> Alcotest.failf "row not JSON (%s): %s" e l
    | Ok j -> (
        (match Nd_trace.Json.member "ts" j with
        | None -> ()
        | Some _ -> Alcotest.failf "row still carries legacy ts: %s" l);
        match Nd_trace.Json.member "ts_us" j with
        | Some (Nd_trace.Json.Num v) ->
            Alcotest.(check bool) "ts_us is an integer microsecond count" true
              (Float.is_integer v
              && v >= float_of_int before -. 1.
              && v <= float_of_int after +. 1.)
        | _ -> Alcotest.failf "row lacks ts_us: %s" l)
  in
  Alcotest.(check int) "two event rows" 2 (List.length !rows);
  List.iter check_row !rows;
  (* the flight mirror gets the same rows, epoch-stamped *)
  Alcotest.(check int) "two flight rows" 2 (List.length !flight);
  List.iter
    (fun l ->
      check_row l;
      match Nd_trace.Json.(parse l) with
      | Ok j -> (
          match Nd_trace.Json.member "epoch" j with
          | Some (Nd_trace.Json.Num _) -> ()
          | _ -> Alcotest.failf "flight row lacks epoch: %s" l)
      | Error _ -> ())
    !flight

(* ---------------- cross-process merge ---------------- *)

(* Hand-built Chrome shards with correctly interleaved wall-clock
   timestamps: a router process whose router.call spans parent two
   worker-side server.request spans via propagated contexts. *)
let router_shard =
  {|{"process":{"trace_id":"router","pid":100},"traceEvents":[
     {"name":"router.request","cat":"fodb","ph":"X","pid":100,"tid":1,
      "ts":1000,"dur":900,"args":{"sid":1,"parent":0,"ops":0,"rid":"1","cmd":"enumerate"}},
     {"name":"router.call","cat":"fodb","ph":"X","pid":100,"tid":1,
      "ts":1100,"dur":300,"args":{"sid":2,"parent":1,"ops":0,"shard":"0"}},
     {"name":"router.call","cat":"fodb","ph":"X","pid":100,"tid":1,
      "ts":1500,"dur":300,"args":{"sid":3,"parent":1,"ops":0,"shard":"1"}}]}|}

let worker_shard ~trace_id ~parent_span ~ts =
  Printf.sprintf
    {|{"process":{"trace_id":"%s","pid":200},"traceEvents":[
       {"name":"server.request","cat":"fodb","ph":"X","pid":200,"tid":1,
        "ts":%d,"dur":100,"args":{"sid":1,"parent":0,"ops":0,
        "ctx.trace":"router","ctx.span":"%d"}}]}|}
    trace_id ts parent_span

let test_merge_links_across_processes () =
  let docs =
    [
      router_shard;
      worker_shard ~trace_id:"w0" ~parent_span:2 ~ts:1150;
      worker_shard ~trace_id:"w1" ~parent_span:3 ~ts:1550;
    ]
  in
  match Merge.merge docs with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok (doc, rep) ->
      Alcotest.(check int) "processes" 3 rep.Merge.r_processes;
      Alcotest.(check int) "events" 5 rep.Merge.r_events;
      Alcotest.(check int) "cross-process links" 2 rep.Merge.r_linked;
      Alcotest.(check int) "orphans" 0 rep.Merge.r_orphans;
      (match Merge.validate doc with
      | Error e -> Alcotest.failf "merged doc invalid: %s" e
      | Ok v ->
          Alcotest.(check int) "propagated server.requests" 2
            v.Merge.v_server_requests;
          Alcotest.(check int) "all router-contained" 2 v.Merge.v_contained;
          Alcotest.(check int) "no orphans" 0 v.Merge.v_orphans);
      (* duplicate trace ids must be rejected, not silently fused *)
      match Merge.merge [ router_shard; router_shard ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "duplicate trace ids merged"

let test_merge_flags_orphans () =
  (* worker references span 99, which no shard recorded (evicted) *)
  let docs =
    [ router_shard; worker_shard ~trace_id:"w0" ~parent_span:99 ~ts:1150 ]
  in
  match Merge.merge docs with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok (doc, rep) ->
      Alcotest.(check int) "orphans flagged" 1 rep.Merge.r_orphans;
      Alcotest.(check int) "nothing linked" 0 rep.Merge.r_linked;
      Alcotest.(check int) "nothing dropped" 4 rep.Merge.r_events;
      let has frag =
        let fl = String.length frag and l = String.length doc in
        let rec go i =
          i + fl <= l && (String.sub doc i fl = frag || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "orphan marker in doc" true
        (has "\"ctx.orphan\":\"unresolved\"");
      (* an orphan cannot witness containment either way: it is
         tolerated, counted, and excluded from the resolved tally *)
      (match Merge.validate doc with
      | Error e -> Alcotest.failf "orphan broke validation: %s" e
      | Ok v ->
          Alcotest.(check int) "orphan counted" 1 v.Merge.v_orphans;
          Alcotest.(check int) "not in the resolved tally" 0
            v.Merge.v_server_requests);
      (* a RESOLVED server.request that climbs to a non-router root is
         structurally broken propagation — that one fails loudly *)
      let rogue_router =
        {|{"process":{"trace_id":"router","pid":100},"traceEvents":[
           {"name":"bg.tick","cat":"fodb","ph":"X","pid":100,"tid":1,
            "ts":1000,"dur":900,"args":{"sid":7,"parent":0,"ops":0}}]}|}
      in
      let docs =
        [ rogue_router; worker_shard ~trace_id:"w0" ~parent_span:7 ~ts:1150 ]
      in
      match Merge.merge docs with
      | Error e -> Alcotest.failf "rogue merge failed: %s" e
      | Ok (doc, _) -> (
          match Merge.validate doc with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.fail
                "server.request rooted outside the router passed validation")

let test_router_trace_in_process () =
  with_tracing @@ fun () ->
  let own = Ownership.compute (graph ()) ~shards:2 in
  let shard_server shard =
    let eng = Nd_engine.prepare (graph ()) (Nd_logic.Parse.formula query) in
    let config =
      {
        Server.default_config with
        Server.ownership = Some (Ownership.for_shard own ~shard);
      }
    in
    Server.create ~config eng
  in
  let eps =
    List.init 2 (fun s ->
        Router.local_endpoint ~shard:s
          ~label:(Printf.sprintf "s%d" s)
          (shard_server s))
  in
  let rt = Router.create ~ownership:own ~arity:2 eps in
  check_ok "traced enumerate" (Router.handle rt "enumerate 5 trace=cli:3");
  (* malformed at the router: structured user error, protocol intact *)
  (match Router.handle rt "next 0,0 trace=nope" with
  | [ only ] ->
      Alcotest.(check bool) "router err user" true
        (String.starts_with ~prefix:"err user " only)
  | r -> Alcotest.failf "router malformed reply: %s" (String.concat "|" r));
  check_ok "router still in sync" (Router.handle rt "next 0,0");
  let doc = Nd_trace.export_chrome () in
  (match Nd_trace.validate_chrome doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "router trace invalid: %s" e);
  (* in-process fan-out nests naturally; the merged-single-shard view
     must already satisfy the acceptance rule *)
  match Merge.merge [ doc ] with
  | Error e -> Alcotest.failf "single-shard merge failed: %s" e
  | Ok (merged, _) -> (
      match Merge.validate merged with
      | Error e -> Alcotest.failf "in-process containment failed: %s" e
      | Ok v ->
          Alcotest.(check bool) "saw traced server.request spans" true
            (v.Merge.v_server_requests >= 1);
          Alcotest.(check int) "all contained" v.Merge.v_server_requests
            v.Merge.v_contained)

(* ---------------- aggregated Prometheus ---------------- *)

let test_prom_relabel_merge_validate () =
  let worker =
    "# HELP nd_ops_total Cost-model operations.\n\
     # TYPE nd_ops_total counter\n\
     nd_ops_total 41\n\
     # HELP nd_latency_us Request latency.\n\
     # TYPE nd_latency_us histogram\n\
     nd_latency_us_bucket{le=\"1\"} 2\n\
     nd_latency_us_bucket{le=\"+Inf\"} 3\n\
     nd_latency_us_sum 7\n\
     nd_latency_us_count 3\n"
  in
  let r0 = Prom.relabel ~labels:[ ("shard", "0"); ("replica", "0") ] worker in
  let r1 = Prom.relabel ~labels:[ ("shard", "1"); ("replica", "0") ] worker in
  let hist = Lhist.create ~name:"nd_router_pull_us" ~help:"pull" ~label:"shard" () in
  Lhist.observe hist ~label:"0" 3;
  Lhist.observe hist ~label:"0" 70_000_000;
  Lhist.observe hist ~label:"1" 9;
  let merged =
    Prom.merge
      [
        Prom.gauge ~name:"nd_fleet_epoch" ~help:"Fleet epoch." 4;
        r0; r1; Lhist.render hist;
      ]
  in
  (match Nd_trace.Prometheus.validate merged with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "aggregate invalid: %s" e);
  let count frag =
    let fl = String.length frag and l = String.length merged in
    let rec go acc i =
      if i + fl > l then acc
      else go (if String.sub merged i fl = frag then acc + 1 else acc) (i + 1)
    in
    go 0 0
  in
  Alcotest.(check int) "one TYPE line per family after merge" 1
    (count "# TYPE nd_ops_total ");
  Alcotest.(check int) "both shards sampled" 1
    (count "nd_ops_total{shard=\"0\",replica=\"0\"} 41");
  Alcotest.(check bool) "relabel reaches labelled samples" true
    (count "nd_latency_us_bucket{shard=\"1\",replica=\"0\",le=\"1\"} 2" = 1);
  Alcotest.(check bool) "pull histogram present per shard" true
    (count "nd_router_pull_us_count{shard=\"0\"} 2" = 1
    && count "nd_router_pull_us_count{shard=\"1\"} 1" = 1);
  Alcotest.(check int) "fleet gauge present" 1 (count "nd_fleet_epoch 4")

let test_router_scrape_aggregates_fleet () =
  let own = Ownership.compute (graph ()) ~shards:2 in
  let shard_server shard =
    let eng = Nd_engine.prepare (graph ()) (Nd_logic.Parse.formula query) in
    let config =
      {
        Server.default_config with
        Server.ownership = Some (Ownership.for_shard own ~shard);
      }
    in
    Server.create ~config eng
  in
  let eps =
    List.concat_map
      (fun s ->
        List.init 2 (fun r ->
            Router.local_endpoint ~shard:s
              ~label:(Printf.sprintf "s%d/r%d" s r)
              (shard_server s)))
      [ 0; 1 ]
  in
  let rt = Router.create ~ownership:own ~arity:2 eps in
  check_ok "page" (Router.handle rt "enumerate 8");
  let doc = Router.scrape_metrics rt in
  (match Nd_trace.Prometheus.validate doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fleet scrape invalid: %s" e);
  let has frag =
    let fl = String.length frag and l = String.length doc in
    let rec go i = i + fl <= l && (String.sub doc i fl = frag || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "fleet epoch gauge" true (has "nd_fleet_epoch ");
  Alcotest.(check bool) "live replica gauge" true
    (has "nd_fleet_live_replicas 4");
  Alcotest.(check bool) "per-shard relabelling" true
    (has "{shard=\"0\",replica=\"0\"" && has "{shard=\"1\",replica=\"1\"");
  Alcotest.(check bool) "pull latency histogram" true
    (has "nd_router_pull_us_bucket{shard=\"0\"" );
  (* the protocol verb serves the same aggregate *)
  match Router.handle rt "metrics" with
  | lines ->
      Alcotest.(check string) "metrics verb ok" "ok" (terminator lines);
      Alcotest.(check bool) "verb carries fleet gauges" true
        (List.exists (String.starts_with ~prefix:"nd_fleet_epoch ") lines)

(* ---------------- crash flight recorder ---------------- *)

let test_flight_ring_evicts_oldest () =
  let fl = Flight.create ~capacity:4 () in
  for i = 1 to 10 do
    Flight.record fl (Printf.sprintf "{\"rid\":%d}" i)
  done;
  Alcotest.(check (list string))
    "last 4, oldest first"
    [ "{\"rid\":7}"; "{\"rid\":8}"; "{\"rid\":9}"; "{\"rid\":10}" ]
    (Flight.events fl);
  Flight.close fl

let test_flight_file_postmortem_cycle () =
  let path = tmp_file "flight" in
  let pm = tmp_file "postmortem" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; pm ])
  @@ fun () ->
  let fl = Flight.create ~capacity:4 ~path () in
  Flight.record fl
    "{\"ts_us\":1,\"rid\":0,\"cmd\":\"(boot)\",\"status\":\"ok\",\"epoch\":2}";
  for i = 1 to 6 do
    Flight.record fl
      (Printf.sprintf "{\"ts_us\":%d,\"rid\":%d,\"epoch\":%d}" (i + 1) i (2 + i))
  done;
  Flight.close fl;
  (* kill -9 semantics: only the file survives; harvest its tail *)
  let events = Flight.harvest ~src:path ~capacity:4 in
  Alcotest.(check int) "harvest keeps the last capacity rows" 4
    (List.length events);
  Alcotest.(check (option int)) "last epoch is the newest" (Some 8)
    (Flight.last_epoch events);
  Flight.write_postmortem ~path:pm ~cause:"signaled 9 (SIGKILL)"
    ~decision:"restart in 100ms" ~last_epoch:(Flight.last_epoch events) ~events;
  (match Flight.harvest ~src:pm ~capacity:100 with
  | header :: rows ->
      Alcotest.(check int) "post-mortem carries the harvest" 4
        (List.length rows);
      (match Nd_trace.Json.parse header with
      | Error e -> Alcotest.failf "header not JSON: %s" e
      | Ok j ->
          let str k =
            match Nd_trace.Json.member k j with
            | Some (Nd_trace.Json.Str s) -> s
            | _ -> Alcotest.failf "header lacks %s" k
          in
          Alcotest.(check string) "kind" "postmortem" (str "kind");
          Alcotest.(check string) "cause" "signaled 9 (SIGKILL)" (str "cause");
          (match Nd_trace.Json.member "last_epoch" j with
          | Some (Nd_trace.Json.Num e) ->
              Alcotest.(check int) "last_epoch" 8 (int_of_float e)
          | _ -> Alcotest.fail "header lacks numeric last_epoch"))
  | [] -> Alcotest.fail "empty post-mortem");
  (* the supervisor then truncates: the next incarnation starts fresh *)
  Flight.truncate path;
  Alcotest.(check (list string)) "flight file emptied" []
    (Flight.harvest ~src:path ~capacity:100);
  Alcotest.(check (list string)) "missing file harvests empty" []
    (Flight.harvest ~src:(path ^ ".nope") ~capacity:4)

let test_flight_file_stays_bounded () =
  let path = tmp_file "flightcap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let fl = Flight.create ~capacity:4 ~path () in
  for i = 1 to 200 do
    Flight.record fl (Printf.sprintf "{\"rid\":%d}" i)
  done;
  Flight.close fl;
  let lines = Flight.harvest ~src:path ~capacity:10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "mirror compacted (%d lines <= 8x capacity)"
       (List.length lines))
    true
    (List.length lines <= 32);
  (* the tail survives compaction verbatim *)
  match List.rev lines with
  | newest :: _ -> Alcotest.(check string) "newest row intact" "{\"rid\":200}" newest
  | [] -> Alcotest.fail "mirror empty"

(* ---------------- supervisor harvest hook ---------------- *)

let test_supervisor_on_crash_hook () =
  let module Sup = Server.Supervisor in
  let clock = ref 0 in
  let spawns = ref 0 in
  let crashes = ref [] in
  let spawn () =
    incr spawns;
    !spawns
  in
  let wait n = if n <= 2 then Sup.Signaled 9 else Sup.Exited 0 in
  let r =
    Sup.run
      ~policy:
        {
          Sup.backoff = Nd_util.Backoff.schedule ~max_ms:100 10;
          max_crashes = 5;
          window_ms = 10_000;
        }
      ~jitter:Nd_util.Backoff.none
      ~sleep_ms:(fun ms -> clock := !clock + ms)
      ~now_ms:(fun () -> !clock)
      ~on_crash:(fun outcome d -> crashes := (outcome, d) :: !crashes)
      ~spawn ~wait ()
  in
  Alcotest.(check bool) "recovered" true (r = Ok ());
  Alcotest.(check int) "three lifetimes" 3 !spawns;
  (match List.rev !crashes with
  | [ (Sup.Signaled 9, Sup.Restart_after_ms _); (Sup.Signaled 9, Sup.Restart_after_ms _) ]
    ->
      ()
  | l -> Alcotest.failf "unexpected crash hook sequence (%d entries)" (List.length l));
  (* a clean exit must not fire the hook *)
  crashes := [];
  let r2 = Sup.run ~spawn:(fun () -> ()) ~wait:(fun () -> Sup.Exited 0)
      ~on_crash:(fun o d -> crashes := (o, d) :: !crashes) ()
  in
  Alcotest.(check bool) "clean run ok" true (r2 = Ok ());
  Alcotest.(check int) "hook silent on clean exit" 0 (List.length !crashes)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ctx_roundtrip;
    Alcotest.test_case "ctx parse rejections" `Quick test_ctx_parse_rejections;
    Alcotest.test_case "server strips ctx, errs on malformed" `Quick
      test_server_ctx_strip_and_malformed;
    Alcotest.test_case "server.request span carries ctx attrs" `Quick
      test_server_span_carries_ctx_attrs;
    Alcotest.test_case "event rows use integer ts_us" `Quick
      test_event_rows_use_ts_us;
    Alcotest.test_case "merge links across processes" `Quick
      test_merge_links_across_processes;
    Alcotest.test_case "merge flags orphans, never drops" `Quick
      test_merge_flags_orphans;
    Alcotest.test_case "router trace propagation (in-process)" `Quick
      test_router_trace_in_process;
    Alcotest.test_case "prom relabel + merge validate" `Quick
      test_prom_relabel_merge_validate;
    Alcotest.test_case "router scrape aggregates the fleet" `Quick
      test_router_scrape_aggregates_fleet;
    Alcotest.test_case "flight ring evicts oldest" `Quick
      test_flight_ring_evicts_oldest;
    Alcotest.test_case "flight file post-mortem cycle" `Quick
      test_flight_file_postmortem_cycle;
    Alcotest.test_case "flight mirror stays bounded" `Quick
      test_flight_file_stays_bounded;
    Alcotest.test_case "supervisor on_crash hook" `Quick
      test_supervisor_on_crash_hook;
  ]
