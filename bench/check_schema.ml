(* Validate BENCH_engine.json against the nd-engine-bench/1 schema.

   Used by `make bench-smoke` and CI.  The file is read with the
   repo's own JSON reader, Nd_trace.Json.

   Usage:  check_schema.exe [BENCH_engine.json]
   Exits 0 when the file parses and satisfies the schema, 1 otherwise. *)

open Nd_trace.Json

(* ---------------- schema checks ---------------- *)

let errors = ref []
let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let field path obj name =
  match obj with
  | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> Some v
      | None ->
          err "%s: missing field %S" path name;
          None)
  | _ ->
      err "%s: expected an object" path;
      None

let get_num path obj name =
  match field path obj name with
  | Some (Num f) -> Some f
  | Some _ ->
      err "%s.%s: expected a number" path name;
      None
  | None -> None

let get_str path obj name =
  match field path obj name with
  | Some (Str s) -> Some s
  | Some _ ->
      err "%s.%s: expected a string" path name;
      None
  | None -> None

let check_hist path h =
  List.iter
    (fun f -> ignore (get_num path h f))
    [ "count"; "max"; "mean"; "p50"; "p95"; "p99" ];
  match get_num path h "count" with
  | Some c when c <= 0. -> err "%s: empty histogram" path
  | _ -> ()

let check_engine_point i p =
  let path = Printf.sprintf "engine[%d]" i in
  ignore (get_str path p "spec");
  ignore (get_num path p "prepare_s");
  ignore (get_num path p "solutions");
  match field path p "stats" with
  | Some stats -> (
      (match get_str path stats "schema" with
      | Some "nd-engine-stats/1" -> ()
      | Some other -> err "%s.stats: unexpected schema %S" path other
      | None -> ());
      (match field path stats "graph" with
      | Some g -> ignore (get_num (path ^ ".stats.graph") g "n")
      | None -> ());
      ignore (get_num path stats "ops");
      (match field path stats "enumeration" with
      | Some e ->
          ignore (get_num (path ^ ".stats.enumeration") e "solutions_emitted");
          ignore (get_num (path ^ ".stats.enumeration") e "max_delay_ops")
      | None -> ());
      (match field path stats "hists" with
      | Some hists -> (
          match field (path ^ ".stats.hists") hists "enum.delay_ops" with
          | Some h -> check_hist (path ^ ".stats.hists.enum.delay_ops") h
          | None -> ())
      | None -> ());
      (match field path stats "degradation" with
      | Some d -> (
          match get_str (path ^ ".stats.degradation") d "mode" with
          | Some ("none" | "fallback" | "stale_rebuild") -> ()
          | Some other ->
              err "%s.stats.degradation.mode: unexpected %S" path other
          | None -> ())
      | None -> ());
      (match field path stats "paranoid" with
      | Some p -> (
          match field (path ^ ".stats.paranoid") p "enabled" with
          | Some (Bool _) -> ()
          | Some _ -> err "%s.stats.paranoid.enabled: expected a bool" path
          | None -> ())
      | None -> ());
      (match field path stats "budget" with
      | Some b -> (
          match field (path ^ ".stats.budget") b "exhausted" with
          | Some (Bool _) -> ()
          | Some _ -> err "%s.stats.budget.exhausted: expected a bool" path
          | None -> ())
      | None -> ());
      match field path stats "counters" with
      | Some (Obj kvs) ->
          let touched name =
            match List.assoc_opt name kvs with
            | Some (Num f) -> f > 0.
            | _ -> false
          in
          (* inserts come from the enumeration, probes from the re-test
             pass over its solutions that bench/main.ml runs on each row *)
          if not (touched "engine.cache_inserts" && touched "engine.cache_probes")
          then err "%s: the run did not both fill and consult the cache" path
      | Some _ -> err "%s.stats.counters: expected an object" path
      | None -> ())
  | None -> ()

(* the robustness gate: budget probes on the hot paths must be free on
   the deterministic ops cost model (ticks never advance a counter) *)
let check_budget_point i p =
  let path = Printf.sprintf "budget_overhead[%d]" i in
  ignore (get_str path p "spec");
  ignore (get_num path p "n");
  (match get_num path p "ops_plain" with
  | Some f when f <= 0. -> err "%s.ops_plain: workload recorded no ops" path
  | _ -> ());
  ignore (get_num path p "ops_budget");
  ignore (get_num path p "wall_plain_s");
  ignore (get_num path p "wall_budget_s");
  match get_num path p "ops_delta_pct" with
  | Some d when Float.abs d > 2.0 ->
      err "%s.ops_delta_pct: |%g| exceeds the 2%% probe-overhead budget" path d
  | _ -> ()

(* the observability gate: span tracing on the hot paths must be free
   on the deterministic ops cost model (span bookkeeping never advances
   a counter), and the traced arm must have actually recorded spans *)
let check_trace_point i p =
  let path = Printf.sprintf "trace_overhead[%d]" i in
  ignore (get_str path p "spec");
  ignore (get_num path p "n");
  (match get_num path p "ops_off" with
  | Some f when f <= 0. -> err "%s.ops_off: workload recorded no ops" path
  | _ -> ());
  ignore (get_num path p "ops_on");
  ignore (get_num path p "wall_off_s");
  ignore (get_num path p "wall_on_s");
  (match get_num path p "spans" with
  | Some s when s < 1. -> err "%s.spans: traced arm recorded no spans" path
  | _ -> ());
  match get_num path p "ops_delta_pct" with
  | Some d when Float.abs d > 2.0 ->
      err "%s.ops_delta_pct: |%g| exceeds the 2%% tracer-overhead budget" path d
  | _ -> ()

(* the persistence gate: reviving a snapshot must beat redoing the
   Theorem 2.3 preprocessing, or the subsystem has no reason to exist *)
let check_snapshot_point i p =
  let path = Printf.sprintf "snapshot[%d]" i in
  ignore (get_str path p "spec");
  (match get_num path p "prepare_s" with
  | Some f when f <= 0. -> err "%s.prepare_s: non-positive" path
  | _ -> ());
  ignore (get_num path p "save_s");
  (match get_num path p "load_s" with
  | Some f when f <= 0. -> err "%s.load_s: non-positive" path
  | _ -> ());
  (match get_num path p "bytes" with
  | Some f when f <= 0. -> err "%s.bytes: empty snapshot" path
  | _ -> ());
  match get_num path p "speedup" with
  | Some s when s <= 1.0 ->
      err "%s.speedup: %g — snapshot load is not faster than cold prepare"
        path s
  | _ -> ()

(* the incremental-maintenance gate: absorbing one mutation through
   Nd_engine.update must get relatively cheaper as n grows (the dirty
   region is O(1) while prepare is pseudo-linear) — the ratio must fall
   monotonically and end below 0.2, or updates are just re-prepares *)
let check_update_points pts =
  let ratios =
    List.mapi
      (fun i p ->
        let path = Printf.sprintf "update[%d]" i in
        ignore (get_str path p "spec");
        (match get_num path p "n" with
        | Some n when n <= 0. -> err "%s.n: non-positive" path
        | _ -> ());
        (match get_num path p "prepare_ops" with
        | Some f when f <= 0. -> err "%s.prepare_ops: non-positive" path
        | _ -> ());
        (match get_num path p "update_ops" with
        | Some f when f <= 0. -> err "%s.update_ops: non-positive" path
        | _ -> ());
        (match get_num path p "mutations" with
        | Some f when f <= 0. -> err "%s.mutations: no mutations measured" path
        | _ -> ());
        match get_num path p "ratio" with
        | Some r when r <= 0. ->
            err "%s.ratio: non-positive" path;
            None
        | Some r -> Some r
        | None -> None)
      pts
  in
  match List.filter_map Fun.id ratios with
  | [] -> err "$.update: no usable ratio values"
  | rs ->
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            (* 5% slack absorbs timing-free but allocation-dependent
               op-count jitter between runs *)
            if b > a *. 1.05 then
              err
                "$.update: ratio is not decreasing with n (%g then %g) — \
                 bounded maintenance is not bounded"
                a b
            else monotone rest
        | _ -> ()
      in
      monotone rs;
      let final = List.nth rs (List.length rs - 1) in
      if final >= 0.2 then
        err
          "$.update: final update/prepare ratio %g >= 0.2 — absorbing a \
           mutation costs too close to a re-prepare"
          final

(* the parallelism gate (DESIGN S14): field presence is enforced
   everywhere, but the scaling assertions — prepare speedup >= 1.3 at
   jobs=4, and 4-client serve throughput above 1-client — only bind
   when the recording host actually had >= 4 domains to scale over.
   On a 1-core host the worker domains merely time-share, so those
   numbers carry no signal and the gate is vacuous by design. *)
let check_parallel par =
  let host =
    match get_num "$.parallel" par "host_domains" with
    | Some h when h >= 1. -> h
    | Some h ->
        err "$.parallel.host_domains: %g is not a positive count" h;
        1.
    | None -> 1.
  in
  let gate = host >= 4. in
  (match field "$.parallel" par "prepare" with
  | Some (Arr pts) ->
      if List.length pts < 3 then
        err "$.parallel.prepare: expected rows for jobs in {1,2,4}";
      let speedups =
        List.filter_map
          (fun p ->
            let path = "$.parallel.prepare[]" in
            ignore (get_str path p "spec");
            ignore (get_num path p "host_domains");
            (match get_num path p "prepare_s" with
            | Some f when f <= 0. -> err "%s.prepare_s: non-positive" path
            | _ -> ());
            match (get_num path p "jobs", get_num path p "speedup") with
            | Some j, Some s -> Some (j, s)
            | _ -> None)
          pts
      in
      (match List.assoc_opt 1. speedups with
      | Some s when Float.abs (s -. 1.) > 1e-6 ->
          err "$.parallel.prepare: jobs=1 speedup must be 1.0, got %g" s
      | None -> err "$.parallel.prepare: missing the jobs=1 baseline row"
      | Some _ -> ());
      (match List.assoc_opt 4. speedups with
      | Some s when gate && s < 1.3 ->
          err
            "$.parallel.prepare: jobs=4 speedup %g < 1.3 on a %g-domain \
             host — the bag-job fan-out is not scaling"
            s host
      | None -> err "$.parallel.prepare: missing the jobs=4 row"
      | Some _ -> ())
  | Some _ -> err "$.parallel.prepare: expected an array"
  | None -> ());
  match field "$.parallel" par "serve" with
  | Some (Arr pts) ->
      if List.length pts < 3 then
        err "$.parallel.serve: expected rows for 1/4/16 clients";
      let rps =
        List.filter_map
          (fun p ->
            let path = "$.parallel.serve[]" in
            ignore (get_num path p "jobs");
            ignore (get_num path p "host_domains");
            (match get_num path p "requests" with
            | Some r when r <= 0. -> err "%s.requests: no requests served" path
            | _ -> ());
            (match get_num path p "elapsed_s" with
            | Some f when f <= 0. -> err "%s.elapsed_s: non-positive" path
            | _ -> ());
            match (get_num path p "clients", get_num path p "rps") with
            | Some c, Some r ->
                if r <= 0. then err "%s.rps: non-positive" path;
                Some (c, r)
            | _ -> None)
          pts
      in
      (match (List.assoc_opt 1. rps, List.assoc_opt 4. rps) with
      | Some r1, Some r4 when gate && r4 <= r1 ->
          err
            "$.parallel.serve: 4-client throughput %g req/s does not beat \
             1-client %g req/s on a %g-domain host"
            r4 r1 host
      | None, _ -> err "$.parallel.serve: missing the 1-client row"
      | _, None -> err "$.parallel.serve: missing the 4-client row"
      | Some _, Some _ -> ())
  | Some _ -> err "$.parallel.serve: expected an array"
  | None -> ()

(* the overload gate (DESIGN S15): under the 8-client stampede against
   max_inflight=2 the gated arm must have actually shed (the stampede
   really was an overload) while still doing useful work (shedding is
   load shedding, not an outage); and arming every hygiene gate at
   non-triggering thresholds on the unloaded serve row must be free on
   the deterministic ops cost model — the gates live in the transport
   layer and may never advance an engine counter (<= 2%, mirroring the
   ER and TR overhead gates) *)
let check_overload ov =
  ignore (get_num "$.overload" ov "host_domains");
  (match field "$.overload" ov "gated" with
  | Some g ->
      let path = "$.overload.gated" in
      (match get_num path g "requests" with
      | Some r when r <= 0. -> err "%s.requests: no requests fired" path
      | _ -> ());
      (match get_num path g "ok" with
      | Some k when k <= 0. ->
          err "%s.ok: the gated server did no useful work under overload" path
      | _ -> ());
      (match get_num path g "shed" with
      | Some s when s <= 0. ->
          err
            "%s.shed: the stampede shed nothing — admission control never \
             engaged"
            path
      | _ -> ());
      (match (get_num path g "shed", get_num path g "server_shed") with
      | Some c, Some s when c > s ->
          err
            "%s: clients observed %g shed replies but the server counted \
             only %g"
            path c s
      | _ -> ());
      (match get_num path g "goodput_rps" with
      | Some r when r <= 0. -> err "%s.goodput_rps: non-positive" path
      | _ -> ());
      (match get_num path g "shed_p99_us" with
      | Some p when p <= 0. -> err "%s.shed_p99_us: non-positive" path
      | _ -> ());
      ignore (get_num path g "elapsed_s");
      ignore (get_num path g "retry_after_ms")
  | None -> ());
  (match field "$.overload" ov "nogate" with
  | Some ng ->
      let path = "$.overload.nogate" in
      (match get_num path ng "ok" with
      | Some k when k <= 0. -> err "%s.ok: no-gate arm served nothing" path
      | _ -> ());
      (match get_num path ng "rps" with
      | Some r when r <= 0. -> err "%s.rps: non-positive" path
      | _ -> ())
  | None -> ());
  match field "$.overload" ov "hygiene" with
  | Some h -> (
      let path = "$.overload.hygiene" in
      (match get_num path h "ops_off" with
      | Some f when f <= 0. -> err "%s.ops_off: workload recorded no ops" path
      | _ -> ());
      ignore (get_num path h "ops_on");
      ignore (get_num path h "rps_off");
      ignore (get_num path h "rps_on");
      match get_num path h "ops_delta_pct" with
      | Some d when Float.abs d > 2.0 ->
          err
            "%s.ops_delta_pct: |%g| exceeds the 2%% hygiene-overhead budget"
            path d
      | _ -> ())
  | None -> ()

(* the cluster gates (DESIGN S16): the router's k-way merge must be
   byte-identical to single-node enumeration; the failover arm must
   have answered every request (a dead replica is a blip, not an
   outage) and actually failed over; every catch-up row must have
   readmitted its laggard; and epoch fencing must be free on the
   deterministic ops cost model (<= 2%, mirroring the ER/TR/RB
   gates) *)
let check_cluster cl =
  (match get_num "$.cluster" cl "shards" with
  | Some s when s < 2. ->
      err "$.cluster.shards: %g is not a cluster — need >= 2 shards" s
  | _ -> ());
  (match field "$.cluster" cl "merge" with
  | Some m ->
      let path = "$.cluster.merge" in
      (match get_num path m "solutions" with
      | Some s when s <= 0. -> err "%s.solutions: merged nothing" path
      | _ -> ());
      (match get_num path m "mismatches" with
      | Some d when d <> 0. ->
          err
            "%s.mismatches: the merged stream diverged from single-node \
             enumeration"
            path
      | _ -> ());
      (match get_num path m "router_sps" with
      | Some r when r <= 0. -> err "%s.router_sps: non-positive" path
      | _ -> ());
      ignore (get_num path m "single_sps")
  | None -> err "$.cluster.merge: missing");
  (match field "$.cluster" cl "failover" with
  | Some f ->
      let path = "$.cluster.failover" in
      (match (get_num path f "requests", get_num path f "ok") with
      | Some r, _ when r <= 0. -> err "%s.requests: none fired" path
      | Some r, Some k when k < r ->
          err
            "%s: only %g of %g requests answered — a replica death must \
             be a blip, not an outage"
            path k r
      | _ -> ());
      (match get_num path f "failovers" with
      | Some v when v < 1. ->
          err "%s.failovers: the dead replica never triggered a failover"
            path
      | _ -> ());
      (match get_num path f "blip_p99_us" with
      | Some p when p <= 0. -> err "%s.blip_p99_us: non-positive" path
      | _ -> ())
  | None -> err "$.cluster.failover: missing");
  (match field "$.cluster" cl "catchup" with
  | Some (Arr []) -> err "$.cluster.catchup: empty"
  | Some (Arr pts) ->
      List.iteri
        (fun i p ->
          let path = Printf.sprintf "$.cluster.catchup[%d]" i in
          (match get_num path p "journal_len" with
          | Some l when l <= 0. -> err "%s.journal_len: non-positive" path
          | _ -> ());
          (match get_num path p "catchup_ms" with
          | Some m when m < 0. -> err "%s.catchup_ms: negative" path
          | _ -> ());
          match get_num path p "readmitted" with
          | Some 1. -> ()
          | Some _ ->
              err "%s.readmitted: the laggard was never readmitted" path
          | None -> err "%s.readmitted: missing" path)
        pts
  | Some _ -> err "$.cluster.catchup: expected an array"
  | None -> err "$.cluster.catchup: missing");
  match field "$.cluster" cl "probe_overhead" with
  | Some p -> (
      let path = "$.cluster.probe_overhead" in
      (match get_num path p "ops_off" with
      | Some f when f <= 0. -> err "%s.ops_off: workload recorded no ops" path
      | _ -> ());
      ignore (get_num path p "ops_on");
      match get_num path p "ops_delta_pct" with
      | Some d when Float.abs d > 2.0 ->
          err
            "%s.ops_delta_pct: |%g| exceeds the 2%% probe/fence-overhead \
             budget"
            path d
      | _ -> ())
  | None -> err "$.cluster.probe_overhead: missing"

(* the fleet-observability gate (DESIGN S17): arming the whole stack —
   span tracing, trace-context propagation, event logs and the flight
   ring — over the in-process fleet must be free on the deterministic
   ops cost model (<= 2%), and the armed arm must have actually
   recorded spans and ring events (no vacuous pass) *)
let check_observability ob =
  let path = "$.observability" in
  (match get_num path ob "requests" with
  | Some r when r <= 0. -> err "%s.requests: none fired" path
  | _ -> ());
  (match get_num path ob "ops_off" with
  | Some f when f <= 0. -> err "%s.ops_off: workload recorded no ops" path
  | _ -> ());
  ignore (get_num path ob "ops_on");
  ignore (get_num path ob "wall_off_s");
  ignore (get_num path ob "wall_on_s");
  (match get_num path ob "spans" with
  | Some s when s < 1. -> err "%s.spans: armed arm recorded no spans" path
  | _ -> ());
  (match get_num path ob "ring_events" with
  | Some s when s < 1. ->
      err "%s.ring_events: armed arm recorded no flight-ring events" path
  | _ -> ());
  match get_num path ob "ops_delta_pct" with
  | Some d when Float.abs d > 2.0 ->
      err
        "%s.ops_delta_pct: |%g| exceeds the 2%% fleet-observability \
         overhead budget"
        path d
  | _ -> ()

(* the storage gates (DESIGN S18): the flat-bank store must beat the
   boxed implementation it replaced on the same op script, and adopting
   a v4 file's ROWS words must beat rebuilding the cache rows from a v2
   file's CACH key list — both wall-clock, both strictly > 1, or the
   layout buys nothing.  The second times the [snapshot.cache] span
   alone, since both loads share the ENGN unmarshal and the vetting *)
let check_storage st =
  (match field "$.storage" st "flat" with
  | Some f -> (
      let path = "$.storage.flat" in
      (match get_num path f "ops" with
      | Some o when o <= 0. -> err "%s.ops: the script replayed nothing" path
      | _ -> ());
      (match get_num path f "keys" with
      | Some k when k <= 0. -> err "%s.keys: the store ended empty" path
      | _ -> ());
      (match get_num path f "wall_flat_s" with
      | Some w when w <= 0. -> err "%s.wall_flat_s: non-positive" path
      | _ -> ());
      (match get_num path f "wall_boxed_s" with
      | Some w when w <= 0. -> err "%s.wall_boxed_s: non-positive" path
      | _ -> ());
      match get_num path f "speedup_flat" with
      | Some s when s <= 1.0 ->
          err
            "%s.speedup_flat: %g — the flat banks are not faster than the \
             boxed cells they replaced"
            path s
      | _ -> ())
  | None -> err "$.storage.flat: missing");
  match field "$.storage" st "warm" with
  | Some w -> (
      let path = "$.storage.warm" in
      ignore (get_str path w "spec");
      (match get_num path w "solutions" with
      | Some s when s <= 0. ->
          err "%s.solutions: nothing cached, the replay arm is vacuous" path
      | _ -> ());
      (match get_num path w "bytes" with
      | Some b when b <= 0. -> err "%s.bytes: empty snapshot" path
      | _ -> ());
      (match field path w "warm" with
      | Some (Bool true) -> ()
      | Some (Bool false) ->
          err "%s.warm: the default load never took the warm route" path
      | Some _ -> err "%s.warm: expected a bool" path
      | None -> err "%s.warm: missing" path);
      (match field path w "mapped" with
      | Some (Bool _) -> ()
      | Some _ -> err "%s.mapped: expected a bool" path
      | None -> err "%s.mapped: missing" path);
      (match get_num path w "wall_warm_s" with
      | Some f when f <= 0. -> err "%s.wall_warm_s: non-positive" path
      | _ -> ());
      (match get_num path w "wall_replay_s" with
      | Some f when f <= 0. -> err "%s.wall_replay_s: non-positive" path
      | _ -> ());
      ignore (get_num path w "revive_warm_s");
      (match get_num path w "revive_replay_s" with
      | Some f when f <= 0. -> err "%s.revive_replay_s: non-positive" path
      | _ -> ());
      match get_num path w "speedup_warm" with
      | Some s when s <= 1.0 ->
          err
            "%s.speedup_warm: %g — adopting the ROWS words is not faster \
             than rebuilding the rows from the key list"
            path s
      | _ -> ())
  | None -> err "$.storage.warm: missing"

let check_store_point i p =
  let path = Printf.sprintf "store[%d]" i in
  ignore (get_num path p "n");
  ignore (get_num path p "epsilon");
  ignore (get_num path p "keys");
  (match field path p "lookup_touches" with
  | Some h -> check_hist (path ^ ".lookup_touches") h
  | None -> ());
  match field path p "update_touches" with
  | Some h -> check_hist (path ^ ".update_touches") h
  | None -> ()

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_engine.json" in
  let doc =
    try
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error e ->
      Printf.eprintf "cannot read %s: %s\n" file e;
      exit 1
  in
  let j =
    match parse doc with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "%s: JSON parse error: %s\n" file e;
        exit 1
  in
  (match get_str "$" j "schema" with
  | Some "nd-engine-bench/1" -> ()
  | Some other -> err "$.schema: expected \"nd-engine-bench/1\", got %S" other
  | None -> ());
  ignore (get_str "$" j "mode");
  ignore (get_str "$" j "query");
  (match field "$" j "engine" with
  | Some (Arr []) -> err "$.engine: empty"
  | Some (Arr pts) -> List.iteri check_engine_point pts
  | Some _ -> err "$.engine: expected an array"
  | None -> ());
  (match field "$" j "store" with
  | Some (Arr []) -> err "$.store: empty"
  | Some (Arr pts) ->
      List.iteri check_store_point pts;
      if List.length pts < 4 then
        err "$.store: expected the n in {10^2..10^5} trajectory (4 points)"
  | Some _ -> err "$.store: expected an array"
  | None -> ());
  (match field "$" j "budget_overhead" with
  | Some (Arr []) -> err "$.budget_overhead: empty"
  | Some (Arr pts) -> List.iteri check_budget_point pts
  | Some _ -> err "$.budget_overhead: expected an array"
  | None -> ());
  (match field "$" j "trace_overhead" with
  | Some (Arr []) -> err "$.trace_overhead: empty"
  | Some (Arr pts) -> List.iteri check_trace_point pts
  | Some _ -> err "$.trace_overhead: expected an array"
  | None -> ());
  (match field "$" j "snapshot" with
  | Some (Arr []) -> err "$.snapshot: empty"
  | Some (Arr pts) -> List.iteri check_snapshot_point pts
  | Some _ -> err "$.snapshot: expected an array"
  | None -> ());
  (match field "$" j "storage" with
  | Some (Obj _ as st) -> check_storage st
  | Some _ -> err "$.storage: expected an object"
  | None -> err "$.storage: missing (the flat-bank + warm-load rows)");
  (match field "$" j "update" with
  | Some (Arr []) -> err "$.update: empty"
  | Some (Arr pts) ->
      if List.length pts < 2 then
        err "$.update: need at least two sizes to gate the ratio trend";
      check_update_points pts
  | Some _ -> err "$.update: expected an array"
  | None -> err "$.update: missing (the incremental-maintenance rows)");
  (match field "$" j "parallel" with
  | Some (Obj _ as par) -> check_parallel par
  | Some _ -> err "$.parallel: expected an object"
  | None -> err "$.parallel: missing (the parallelism rows)");
  (match field "$" j "overload" with
  | Some (Obj _ as ov) -> check_overload ov
  | Some _ -> err "$.overload: expected an object"
  | None -> err "$.overload: missing (the overload-shedding rows)");
  (match field "$" j "cluster" with
  | Some (Obj _ as cl) -> check_cluster cl
  | Some _ -> err "$.cluster: expected an object"
  | None -> err "$.cluster: missing (the cluster-router rows)");
  (match field "$" j "observability" with
  | Some (Obj _ as ob) -> check_observability ob
  | Some _ -> err "$.observability: expected an object"
  | None -> err "$.observability: missing (the fleet-observability rows)");
  match !errors with
  | [] ->
      Printf.printf "%s: schema nd-engine-bench/1 OK\n" file;
      exit 0
  | es ->
      List.iter (fun e -> Printf.eprintf "SCHEMA ERROR: %s\n" e) (List.rev es);
      exit 1
