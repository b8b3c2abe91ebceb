open Nd_util

(* Mirror counters for the Metrics registry (observable via `stats`);
   the authoritative per-session counts live on [t] so `health` works
   with instrumentation off. *)
let m_requests = Metrics.counter "server.requests"
let m_ok = Metrics.counter "server.replies_ok"
let m_err_user = Metrics.counter "server.errors.user"
let m_err_budget = Metrics.counter "server.errors.budget"
let m_err_internal = Metrics.counter "server.errors.internal"

(* overload-safety counters: requests shed at the admission gate,
   requests refused because the server is draining, whole connections
   refused at the connection cap, and hygiene enforcement events *)
let m_err_overloaded = Metrics.counter "server.errors.overloaded"
let m_err_shutting_down = Metrics.counter "server.errors.shutting_down"
let m_conns_rejected = Metrics.counter "server.conns_rejected"
let m_io_timeouts = Metrics.counter "server.io_timeouts"
let m_oversized_lines = Metrics.counter "server.oversized_lines"
let m_idle_reaped = Metrics.counter "server.idle_reaped"
let m_backlog_drained = Metrics.counter "server.backlog_drained"
let m_updates = Metrics.counter "server.updates"
let h_latency = Metrics.hist "server.request_us"

type ownership = { next_owned : int -> int option; owns_empty : bool }

(* [next.(v)]: the smallest owned vertex >= v, [n] when there is none —
   filled by one right-to-left pass *)
let ownership_of_vertices ~n ~owns_empty owned =
  let next = Array.make (n + 1) n in
  for v = n - 1 downto 0 do
    next.(v) <- (if owned v then v else next.(v + 1))
  done;
  let next_owned v =
    if v >= n then None
    else
      let w = next.(max v 0) in
      if w < n then Some w else None
  in
  { next_owned; owns_empty }

type config = {
  request_budget_ops : int option;
  request_timeout_ms : int option;
  max_enumerate : int;
  chaos : bool;
  event_log : (string -> unit) option;
  max_inflight : int option;
  max_conns : int option;
  io_timeout_ms : int option;
  idle_timeout_ms : int option;
  max_line_bytes : int;
  retry_after_ms : int;
  journal : (string -> unit) option;
  ownership : ownership option;
  owner : (int array -> bool) option;
  flight : (string -> unit) option;
}

let default_config =
  {
    request_budget_ops = None;
    request_timeout_ms = None;
    max_enumerate = 1000;
    chaos = false;
    event_log = None;
    max_inflight = None;
    max_conns = None;
    io_timeout_ms = None;
    idle_timeout_ms = None;
    max_line_bytes = 65536;
    retry_after_ms = 100;
    journal = None;
    ownership = None;
    owner = None;
    flight = None;
  }

type cursor = Unstarted | At of int array | Exhausted

type counts = {
  requests : int;
  ok : int;
  user_errors : int;
  budget_errors : int;
  internal_errors : int;
  overloaded : int;
  shutting_down : int;
}

(* State shared by every session over one engine handle.  Two locks
   with distinct jobs: [lock] serializes request *processing* (one
   prepared handle, many connections — answering mutates the solution
   cache, so requests are dispatched one at a time while connection I/O
   overlaps freely); [adm] protects only the admission state (counters
   and the in-flight gauge) so an overloaded request can be shed in
   O(1) without ever waiting on the engine.  [adm] is never taken while
   holding [lock]'s critical work — its sections are a few loads and
   stores. *)
type shared = {
  lock : Mutex.t;
  adm : Mutex.t;
  stop : bool ref;
  mutable inflight : int;
  mutable c_requests : int;
  mutable c_ok : int;
  mutable c_user : int;
  mutable c_budget : int;
  mutable c_internal : int;
  mutable c_overloaded : int;
  mutable c_shutting_down : int;
}

type t = {
  eng : Nd_engine.t;
  config : config;
  own : ownership option;
  sh : shared;
  mutable cursor : cursor;
  mutable quit : bool;
}

let create ?(config = default_config) eng =
  if config.max_enumerate <= 0 then
    invalid_arg "Nd_server.create: max_enumerate must be positive";
  if config.max_line_bytes <= 0 then
    invalid_arg "Nd_server.create: max_line_bytes must be positive";
  if config.retry_after_ms < 0 then
    invalid_arg "Nd_server.create: retry_after_ms must be >= 0";
  let pos_opt name = function
    | Some v when v <= 0 ->
        invalid_arg (Printf.sprintf "Nd_server.create: %s must be positive" name)
    | _ -> ()
  in
  pos_opt "max_inflight" config.max_inflight;
  pos_opt "max_conns" config.max_conns;
  pos_opt "io_timeout_ms" config.io_timeout_ms;
  pos_opt "idle_timeout_ms" config.idle_timeout_ms;
  let own =
    match (config.ownership, config.owner) with
    | Some _, Some _ ->
        invalid_arg "Nd_server.create: set ownership or owner, not both"
    | own, None -> own
    | None, Some p ->
        (* the predicate is asked about (v,0,…,0) once per vertex *)
        let arity = Nd_engine.arity eng in
        let probe v =
          let a = Array.make arity 0 in
          a.(0) <- v;
          a
        in
        Some
          (ownership_of_vertices
             ~n:(Nd_graph.Cgraph.n (Nd_engine.graph eng))
             ~owns_empty:(p [||])
             (fun v -> arity > 0 && p (probe v)))
  in
  {
    eng;
    config;
    own;
    sh =
      {
        lock = Mutex.create ();
        adm = Mutex.create ();
        stop = ref false;
        inflight = 0;
        c_requests = 0;
        c_ok = 0;
        c_user = 0;
        c_budget = 0;
        c_internal = 0;
        c_overloaded = 0;
        c_shutting_down = 0;
      };
    cursor = Unstarted;
    quit = false;
  }

(* A per-connection session: own enumeration cursor and quit flag,
   everything else (engine, config, locks, stop, counters) shared with
   the parent. *)
let session t = { t with cursor = Unstarted; quit = false }

let counts t =
  {
    requests = t.sh.c_requests;
    ok = t.sh.c_ok;
    user_errors = t.sh.c_user;
    budget_errors = t.sh.c_budget;
    internal_errors = t.sh.c_internal;
    overloaded = t.sh.c_overloaded;
    shutting_down = t.sh.c_shutting_down;
  }

let quitting t = t.quit

let request_stop t = t.sh.stop := true

(* ---------------- request parsing / formatting ---------------- *)

let fmt_tuple a =
  String.concat "," (Array.to_list (Array.map string_of_int a))

let parse_tuple s =
  if String.trim s = "" then [||]
  else
    Array.of_list
      (List.map
         (fun field ->
           match int_of_string_opt (String.trim field) with
           | Some v -> v
           | None ->
               Nd_error.user_errorf
                 "bad tuple %S (expected comma-separated integers)" s)
         (String.split_on_char ',' s))

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

(* ---------------- per-request resource governance ---------------- *)

let with_request_budget t f =
  match (t.config.request_budget_ops, t.config.request_timeout_ms) with
  | None, None -> f ()
  | ops, tmo -> (
      let b = Budget.create ?max_ops:ops ?timeout_ms:tmo () in
      match
        Budget.with_budget b (fun () ->
            Budget.enter "serve";
            f ())
      with
      | Ok v -> v
      | Error info -> raise (Nd_error.Budget_exceeded info))

(* ---------------- commands ---------------- *)

(* Shard-mode answering: with an ownership set, only solutions whose
   first coordinate the shard owns are reported, so each shard's stream
   is the owned sub-stream of the global one — strictly ascending and
   duplicate-free by construction, which is what lets the router's
   k-way merge reconstitute the exact single-node order.  Mutations are
   unaffected: every shard absorbs the full journal and tracks the
   whole graph; ownership only filters answering. *)
let owns own sol =
  if Array.length sol = 0 then own.owns_empty
  else
    match own.next_owned sol.(0) with Some v -> v = sol.(0) | None -> false

let owns_tuple t sol =
  match t.own with None -> true | Some own -> owns own sol

(* A foreign solution [sol] rules out its whole first coordinate, so
   the walk resumes at [(next_owned (sol.(0)+1), 0, …, 0)]: one engine
   call per owned vertex without solutions, never one per foreign
   solution.  A valid start tuple with a foreign first coordinate jumps
   before the first call; an invalid one goes to the engine as is, so
   its error is the single-node one. *)
let owned_next t a =
  match t.own with
  | None -> Nd_engine.next t.eng a
  | Some own ->
      let arity = Nd_engine.arity t.eng in
      let n = Nd_graph.Cgraph.n (Nd_engine.graph t.eng) in
      let rec from v =
        match own.next_owned v with
        | None -> None
        | Some w ->
            let a = Array.make arity 0 in
            a.(0) <- w;
            go a
      and go a =
        match Nd_engine.next t.eng a with
        | Some sol when not (owns own sol) ->
            if arity = 0 then None else from (sol.(0) + 1)
        | r -> r
      in
      let valid =
        arity > 0
        && Array.length a = arity
        && Array.for_all (fun x -> x >= 0 && x < n) a
      in
      if valid && not (owns own a) then from a.(0) else go a

(* The enumeration cursor: each page continues from where the last one
   ended, but the cursor is only advanced once the whole page has been
   produced — a page that dies on a budget error can be retried
   verbatim with no solution lost or duplicated. *)
let page t k =
  let eng = t.eng in
  let arity = Nd_engine.arity eng in
  if arity = 0 then (
    match t.cursor with
    | Exhausted -> ([], true)
    | Unstarted | At _ ->
        let sols =
          if Nd_engine.holds eng && owns_tuple t [||] then [ [||] ] else []
        in
        t.cursor <- Exhausted;
        (sols, true))
  else
    let n = Nd_graph.Cgraph.n (Nd_engine.graph eng) in
    let start =
      match t.cursor with
      | Unstarted -> if n = 0 then None else Some (Tuple.min arity)
      | At a -> Some a
      | Exhausted -> None
    in
    let acc = ref [] in
    let count = ref 0 in
    let rec go start =
      match start with
      | None -> (Exhausted, true)
      | Some a when !count >= k -> (At a, false)
      | Some a -> (
          match owned_next t a with
          | None -> (Exhausted, true)
          | Some sol ->
              acc := sol :: !acc;
              incr count;
              go (Tuple.succ ~n sol))
    in
    let final, exhausted = go start in
    t.cursor <- final;
    (List.rev !acc, exhausted)

let cmd_enumerate t arg =
  let k =
    if arg = "" then t.config.max_enumerate
    else
      match int_of_string_opt arg with
      | Some k when k > 0 -> min k t.config.max_enumerate
      | _ -> Nd_error.user_errorf "enumerate: bad page size %S" arg
  in
  let sols, exhausted = with_request_budget t (fun () -> page t k) in
  List.map (fun s -> "sol " ^ fmt_tuple s) sols
  @ [
      Printf.sprintf "end %d%s" (List.length sols)
        (if exhausted then " complete" else "");
    ]

(* Mutations invalidate the enumeration cursor: the solution order over
   the new graph need not extend the old page sequence, so a stale
   cursor could skip or duplicate answers.  Every successful update
   therefore resets it; clients re-enumerate from the top.

   Journaling is per-mutation, after the engine has applied it: a batch
   that dies on a budget error mid-list journals exactly the applied
   prefix, so replay reconstructs the true epoch. *)
let absorb t muts =
  with_request_budget t (fun () ->
      List.iter
        (fun m ->
          Nd_engine.update t.eng m;
          match t.config.journal with
          | None -> ()
          | Some sink -> sink (Nd_graph.Cgraph.mutation_to_string m))
        muts);
  t.cursor <- Unstarted;
  Metrics.add m_updates (List.length muts);
  [
    Printf.sprintf "epoch %d applied %d%s"
      (Nd_engine.epoch t.eng) (List.length muts)
      (match Nd_engine.degradation t.eng with
      | `None -> ""
      | `Stale_rebuild _ -> " stale_rebuild"
      | `Fallback _ -> " fallback");
  ]

let cmd_update t arg =
  if arg = "" then Nd_error.user_errorf "update: missing mutation"
  else absorb t [ Nd_graph.Cgraph.mutation_of_string arg ]

let cmd_batch_update t arg =
  let muts =
    List.filter_map
      (fun s ->
        let s = String.trim s in
        if s = "" then None else Some (Nd_graph.Cgraph.mutation_of_string s))
      (String.split_on_char ';' arg)
  in
  if muts = [] then Nd_error.user_errorf "batch-update: no mutations given"
  else absorb t muts

let mode_word t =
  match Nd_engine.degradation t.eng with
  | `None -> "none"
  | `Stale_rebuild _ -> "stale_rebuild"
  | `Fallback _ -> "fallback"

(* epoch + mode ride on the health line so a router's lag/degradation
   probe is one round-trip, not two *)
let cmd_health t =
  let c = counts t in
  [
    Printf.sprintf
      "health ok requests=%d ok=%d user=%d budget=%d internal=%d shed=%d \
       degraded=%b cache=%d epoch=%d mode=%s"
      c.requests c.ok c.user_errors c.budget_errors c.internal_errors
      c.overloaded
      (Nd_engine.degraded t.eng)
      (Nd_engine.cache_size t.eng)
      (Nd_engine.epoch t.eng) (mode_word t);
  ]

let dispatch t line =
  let cmd, arg = split_command line in
  match cmd with
  | "quit" ->
      t.quit <- true;
      `Bye
  | "next" ->
      let tup = parse_tuple arg in
      let r = with_request_budget t (fun () -> owned_next t tup) in
      `Ok
        [
          (match r with Some sol -> "sol " ^ fmt_tuple sol | None -> "none");
        ]
  | "test" ->
      let tup = parse_tuple arg in
      (* engine validation first, ownership second: a malformed tuple is
         [err user] on every shard, never a silent [false] *)
      let r =
        with_request_budget t (fun () ->
            Nd_engine.test t.eng tup && owns_tuple t tup)
      in
      `Ok [ string_of_bool r ]
  | "enumerate" -> `Ok (cmd_enumerate t arg)
  | "update" -> `Ok (cmd_update t arg)
  | "batch-update" -> `Ok (cmd_batch_update t arg)
  | "epoch" -> `Ok [ Printf.sprintf "epoch %d" (Nd_engine.epoch t.eng) ]
  | "reset" ->
      t.cursor <- Unstarted;
      `Ok []
  | "stats" -> `Ok [ Nd_engine.Stats.to_json (Nd_engine.stats t.eng) ]
  | "metrics" ->
      (* Prometheus text exposition of the whole registry; rendered from
         an atomic snapshot, so a concurrent reset cannot tear it.  No
         exposition line can collide with a terminator (they all start
         with '#' or "nd_"). *)
      `Ok
        (List.filter
           (fun l -> l <> "")
           (String.split_on_char '\n' (Nd_trace.Prometheus.render_current ())))
  | "health" -> `Ok (cmd_health t)
  | "inject" when t.config.chaos -> (
      (* deliberate fault injection, for proving request isolation:
         the raise happens *inside* the handler, exactly where a real
         bug would fire *)
      match arg with
      | "internal" -> Nd_error.invariantf "injected internal fault (chaos)"
      | "user" -> Nd_error.user_errorf "injected user fault (chaos)"
      | "crash" -> raise Not_found (* an untyped failure, for the catch-all *)
      | other -> (
          match split_command other with
          | "sleep", ms_s -> (
              (* hold the engine lock for a while: the deterministic way
                 to pin the server so overload tests can fill the
                 in-flight gate without timing races *)
              match int_of_string_opt ms_s with
              | Some ms when ms >= 0 ->
                  (try ignore (Unix.select [] [] [] (float_of_int ms /. 1000.))
                   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                  `Ok [ Printf.sprintf "slept %d" ms ]
              | _ -> Nd_error.user_errorf "inject sleep: bad duration %S" ms_s)
          | _ -> Nd_error.user_errorf "inject: unknown fault class %S" other))
  | _ ->
      Nd_error.user_errorf "unknown command %S (try next/test/enumerate/update/batch-update/epoch/reset/stats/metrics/health/quit)"
        cmd

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One JSONL row per handled request: the event log gets the plain row,
   the flight recorder (when armed) the same row extended with the
   engine epoch — the join key a post-mortem needs against the
   restarted worker's journal-replayed boot epoch.  ts_us is integer
   wall-clock microseconds: whole seconds were too coarse to order
   events across fleet processes. *)
let log_event t ~t0 ~rid ~span ~cmd ~status ~latency_us ~lines =
  let row ?epoch () =
    Printf.sprintf
      "{\"ts_us\":%d,\"rid\":%d,\"span\":%d,\"cmd\":\"%s\",\"status\":\"%s\"%s,\"latency_us\":%d,\"lines\":%d}"
      (int_of_float (t0 *. 1e6))
      rid span (json_escape cmd) status
      (match epoch with
      | None -> ""
      | Some e -> Printf.sprintf ",\"epoch\":%d" e)
      latency_us lines
  in
  (match t.config.event_log with None -> () | Some sink -> sink (row ()));
  match t.config.flight with
  | None -> ()
  | Some sink -> sink (row ~epoch:(Nd_engine.epoch t.eng) ())

(* Admission: decided under [adm] only, never the engine lock — a shed
   verdict must stay O(1) even while the engine is pinned by a slow
   request.  The in-flight gauge counts requests admitted past the gate
   (processing or queued on the engine lock); it is released in the
   [Fun.protect] finalizer of {!handle}. *)
let admit t =
  Mutex.protect t.sh.adm @@ fun () ->
  t.sh.c_requests <- t.sh.c_requests + 1;
  Metrics.incr m_requests;
  let rid = t.sh.c_requests in
  if !(t.sh.stop) then begin
    t.sh.c_shutting_down <- t.sh.c_shutting_down + 1;
    Metrics.incr m_err_shutting_down;
    `Reject (rid, "shutting-down", "server is draining")
  end
  else
    match t.config.max_inflight with
    | Some m when t.sh.inflight >= m ->
        t.sh.c_overloaded <- t.sh.c_overloaded + 1;
        Metrics.incr m_err_overloaded;
        `Reject
          ( rid,
            "overloaded",
            Printf.sprintf "retry-after-ms=%d in-flight limit %d reached"
              t.config.retry_after_ms m )
    | _ ->
        t.sh.inflight <- t.sh.inflight + 1;
        `Admit rid

let tally t f = Mutex.protect t.sh.adm f

let handle t line =
  let line = String.trim line in
  if line = "" then []
  else begin
    let cmd, _ = split_command line in
    let t0 = Unix.gettimeofday () in
    match admit t with
    | `Reject (rid, cls, msg) ->
        let reply = [ Printf.sprintf "err %s rid=%d span=0 %s" cls rid msg ] in
        let latency_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
        Metrics.observe h_latency latency_us;
        log_event t ~t0 ~rid ~span:0 ~cmd ~status:cls ~latency_us ~lines:1;
        reply
    | `Admit rid ->
        Fun.protect
          ~finally:(fun () -> tally t (fun () -> t.sh.inflight <- t.sh.inflight - 1))
        @@ fun () ->
        (* the engine lock spans parsing through reply construction: the
           engine handle, the global budget slot and the tracer's span
           stack are all single-writer under it; only the connection I/O
           and the admission gate run outside *)
        Mutex.protect t.sh.lock @@ fun () ->
        (* span = the tracer's id for this request (0 with tracing off);
           stamped with rid into every error terminator and event-log line
           so a failing request joins to its trace. *)
        let span = ref 0 in
        let status = ref "ok" in
        let err cls m =
          status := cls;
          Printf.sprintf "err %s rid=%d span=%d %s" cls rid !span m
        in
        (* the optional trailing trace=<id>:<span> request attribute:
           stripped before dispatch; a valid context re-parents this
           request's span across the process boundary (the merge
           resolves the ctx.* attrs), a malformed one is a structured
           user error naming the attribute — never a protocol desync *)
        let base, ctx = Nd_obs.Ctx.split_line line in
        let ctx_attrs =
          match ctx with Some (Ok c) -> Nd_obs.Ctx.attrs c | _ -> []
        in
        let reply =
          Nd_trace.with_span "server.request"
            ~attrs:(("rid", string_of_int rid) :: ("cmd", cmd) :: ctx_attrs)
          @@ fun () ->
          span := Nd_trace.current_span_id ();
          (* Request isolation: every failure class an answering call can
             produce becomes a structured terminator line.  The final
             catch-all exists because an unexpected exception must degrade
             to an error reply, never to a dead loop. *)
          match
            (match ctx with
            | Some (Error m) ->
                Nd_error.user_errorf "bad trace= attribute: %s" m
            | _ -> ());
            dispatch t base
          with
          | `Ok lines ->
              tally t (fun () -> t.sh.c_ok <- t.sh.c_ok + 1);
              Metrics.incr m_ok;
              lines @ [ "ok" ]
          | `Bye ->
              status := "bye";
              [ "bye" ]
          | exception (Nd_error.User_error m | Invalid_argument m | Failure m) ->
              tally t (fun () -> t.sh.c_user <- t.sh.c_user + 1);
              Metrics.incr m_err_user;
              [ err "user" m ]
          | exception Nd_error.Budget_exceeded info ->
              tally t (fun () -> t.sh.c_budget <- t.sh.c_budget + 1);
              Metrics.incr m_err_budget;
              [ err "budget" (Nd_error.describe_budget info) ]
          | exception Nd_error.Internal_invariant m ->
              tally t (fun () -> t.sh.c_internal <- t.sh.c_internal + 1);
              Metrics.incr m_err_internal;
              [ err "internal" m ]
          | exception Stack_overflow ->
              tally t (fun () -> t.sh.c_internal <- t.sh.c_internal + 1);
              Metrics.incr m_err_internal;
              [ err "internal" "stack overflow in request handler" ]
          | exception e ->
              tally t (fun () -> t.sh.c_internal <- t.sh.c_internal + 1);
              Metrics.incr m_err_internal;
              [ err "internal" ("uncaught exception: " ^ Printexc.to_string e) ]
        in
        let latency_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
        Metrics.observe h_latency latency_us;
        log_event t ~t0 ~rid ~span:!span ~cmd ~status:!status ~latency_us
          ~lines:(List.length reply);
        reply
  end

(* ---------------- the loop ---------------- *)

let serve t ic oc =
  let emit lines =
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      lines;
    flush oc
  in
  let rec loop () =
    if !(t.sh.stop) then emit [ "bye" ]
    else
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
          (* the reply is written and flushed in full before the stop
             flag is consulted: that is the drain guarantee (a request
             racing the flag itself gets [err shutting-down] from the
             admission gate rather than a dropped line) *)
          emit (handle t line);
          if t.quit then ()
          else if !(t.sh.stop) then emit [ "bye" ]
          else loop ()
  in
  loop ()

let default_backlog = 64

(* ---------------- hygiene-bounded socket I/O ---------------- *)

(* Bounded write: select-gated so a peer that stops reading cannot
   wedge the connection thread past [deadline]. *)
let send_all ?deadline fd s =
  let len = String.length s in
  let rec go off =
    if off >= len then `Sent
    else
      let now = Unix.gettimeofday () in
      match deadline with
      | Some dl when now >= dl -> `Timeout
      | _ -> (
          let wait =
            match deadline with
            | None -> 0.5
            | Some dl -> Float.min 0.5 (Float.max 0.0 (dl -. now))
          in
          match Unix.select [] [ fd ] [] wait with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> `Closed
          | _, [], _ -> go off
          | _ -> (
              match Unix.write_substring fd s off (len - off) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
              | exception Unix.Unix_error _ -> `Closed
              | n -> go (off + n)))
  in
  go 0

let emit_lines ?deadline fd lines =
  if lines = [] then `Sent
  else send_all ?deadline fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))

(* First complete line out of the receive buffer ('\n'-terminated,
   optional '\r' stripped); the remainder stays buffered for pipelined
   requests. *)
let take_line buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
      let last = if i > 0 && s.[i - 1] = '\r' then i - 1 else i in
      Some (String.sub s 0 last)

(* The bounded request-line reader — every connection-hygiene deadline
   lives here.  Select ticks at most 0.2s so the stop flag is honored
   promptly; [io_timeout_ms] bounds how long a *started* line may
   trickle in (slow-loris), [idle_timeout_ms] bounds the quiet gap
   between requests (the idle reaper), [max_line_bytes] bounds the
   line buffer (memory hygiene).  A complete buffered line is returned
   even when the stop flag is already up: the admission gate turns it
   into [err shutting-down] instead of dropping it silently. *)
let recv_request t fd buf =
  let chunk = Bytes.create 4096 in
  let start = Unix.gettimeofday () in
  let first_byte = ref (if Buffer.length buf > 0 then Some start else None) in
  let to_s ms = float_of_int ms /. 1000. in
  let rec loop () =
    match take_line buf with
    | Some line ->
        if String.length line > t.config.max_line_bytes then `Too_long
        else `Line line
    | None ->
        if Buffer.length buf > t.config.max_line_bytes then `Too_long
        else if !(t.sh.stop) then `Stopped
        else begin
          let now = Unix.gettimeofday () in
          let deadline =
            match !first_byte with
            | Some tb ->
                Option.map (fun ms -> tb +. to_s ms) t.config.io_timeout_ms
            | None ->
                Option.map (fun ms -> start +. to_s ms) t.config.idle_timeout_ms
          in
          match deadline with
          | Some dl when now >= dl ->
              if !first_byte = None then `Idle else `Timeout
          | _ -> (
              let wait =
                match deadline with
                | None -> 0.2
                | Some dl -> Float.min 0.2 (Float.max 0.0 (dl -. now))
              in
              match Unix.select [ fd ] [] [] wait with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
              | exception Unix.Unix_error (Unix.EBADF, _, _) -> `Eof
              | [], _, _ -> loop ()
              | _ -> (
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
                  | exception Unix.Unix_error _ -> `Eof
                  | 0 ->
                      (* EOF with a trailing unterminated line: serve it,
                         like [input_line] would; the next read sees a
                         clean EOF *)
                      if Buffer.length buf > 0 then begin
                        let line = Buffer.contents buf in
                        Buffer.clear buf;
                        if String.length line > t.config.max_line_bytes then
                          `Too_long
                        else `Line line
                      end
                      else `Eof
                  | n ->
                      if !first_byte = None then
                        first_byte := Some (Unix.gettimeofday ());
                      Buffer.add_subbytes buf chunk 0 n;
                      loop ()))
        end
  in
  loop ()

(* A transport-hygiene violation becomes a synthesized request: it gets
   a real rid, lands in the user-error counters and the event log, and
   is answered with a structured [err user] line before the connection
   closes. *)
let hygiene_error t ~cmd msg =
  let t0 = Unix.gettimeofday () in
  let rid =
    Mutex.protect t.sh.adm (fun () ->
        t.sh.c_requests <- t.sh.c_requests + 1;
        Metrics.incr m_requests;
        t.sh.c_user <- t.sh.c_user + 1;
        Metrics.incr m_err_user;
        t.sh.c_requests)
  in
  log_event t ~t0 ~rid ~span:0 ~cmd ~status:"user" ~latency_us:0 ~lines:1;
  Printf.sprintf "err user rid=%d span=0 %s" rid msg

(* Drain connections parked in the kernel accept backlog at stop time:
   each completed-but-unaccepted connection gets a structured refusal
   and a clean close instead of the silent reset it would see when the
   listen socket is unlinked.  Non-blocking; returns the number
   drained. *)
let drain_backlog sock =
  let refusal = "err shutting-down rid=0 span=0 server is draining\nbye\n" in
  let rec go n =
    match Unix.select [ sock ] [] [] 0.0 with
    | exception Unix.Unix_error _ -> n
    | [], _, _ -> n
    | _ -> (
        match Unix.accept sock with
        | exception Unix.Unix_error _ -> n
        | fd, _ ->
            Metrics.incr m_backlog_drained;
            ignore
              (send_all
                 ~deadline:(Unix.gettimeofday () +. 1.0)
                 fd refusal);
            (try Unix.close fd with Unix.Unix_error _ -> ());
            go (n + 1))
  in
  go 0

(* Thread-per-connection accept loop.  Sys-threads (one domain) are the
   right tool here: requests serialize on the engine lock anyway, so
   the concurrency win is connection I/O overlap, and the select-based
   reader keeps every blocking point deadline-bounded.  [quit] is
   connection-scoped in socket mode (it closes that client's session);
   {!request_stop} is what ends the server. *)
let serve_socket ?(backlog = default_backlog) t ~path =
  if backlog < 1 then invalid_arg "Nd_server.serve_socket: backlog must be >= 1";
  (* a peer closing mid-write must surface as EPIPE on the write, never
     as a process-killing signal *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock backlog;
  (* live_fds: connections still open, so a stopping server can unblock
     their readers; threads: every connection thread ever spawned,
     joined before returning (joining a finished thread is free).  Both
     under [reg_m]; a connection thread removes its own fd before
     closing it, so the shutdown sweep never touches a recycled
     descriptor. *)
  let reg_m = Mutex.create () in
  let live_fds = ref [] in
  let threads = ref [] in
  let io_deadline () =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      t.config.io_timeout_ms
  in
  let conn fd =
    let s = session t in
    let buf = Buffer.create 256 in
    let emit lines = emit_lines ?deadline:(io_deadline ()) fd lines in
    let rec loop () =
      match recv_request s fd buf with
      | `Eof -> ()
      | `Stopped -> ignore (emit [ "bye" ])
      | `Idle ->
          (* the idle reaper: a polite bye, then the connection closes *)
          Metrics.incr m_idle_reaped;
          ignore (emit [ "bye" ])
      | `Timeout ->
          Metrics.incr m_io_timeouts;
          ignore
            (emit
               [
                 hygiene_error s ~cmd:"(transport)"
                   (Printf.sprintf
                      "request line stalled past io-timeout-ms=%d"
                      (Option.value ~default:0 t.config.io_timeout_ms));
               ])
      | `Too_long ->
          Metrics.incr m_oversized_lines;
          ignore
            (emit
               [
                 hygiene_error s ~cmd:"(transport)"
                   (Printf.sprintf "request line exceeds max-line-bytes=%d"
                      t.config.max_line_bytes);
               ])
      | `Line line -> (
          match emit (handle s line) with
          | `Timeout | `Closed -> ()
          | `Sent ->
              if s.quit then ()
              else if !(s.sh.stop) then ignore (emit [ "bye" ])
              else loop ())
    in
    (try loop () with Sys_error _ -> ());
    Mutex.protect reg_m (fun () ->
        live_fds := List.filter (fun fd' -> fd' != fd) !live_fds);
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    if !(t.sh.stop) then ()
    else
      (* wake periodically so request_stop is honored even while no
         client is connecting *)
      match Unix.select [ sock ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ ->
          (match Unix.accept sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | fd, _ -> (
              let over =
                match t.config.max_conns with
                | Some m ->
                    Mutex.protect reg_m (fun () -> List.length !live_fds) >= m
                | None -> false
              in
              if over then begin
                (* connection-level shedding: a structured refusal, then
                   close — never an unbounded accept queue *)
                Metrics.incr m_conns_rejected;
                ignore
                  (send_all
                     ~deadline:(Unix.gettimeofday () +. 1.0)
                     fd
                     (Printf.sprintf
                        "err overloaded rid=0 span=0 retry-after-ms=%d \
                         connection limit %d reached\nbye\n"
                        t.config.retry_after_ms
                        (Option.value ~default:0 t.config.max_conns)));
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
              else begin
                Mutex.protect reg_m (fun () -> live_fds := fd :: !live_fds);
                threads := Thread.create conn fd :: !threads
              end));
          accept_loop ()
  in
  accept_loop ();
  (* drain, in dependency order: first the connections parked in the
     kernel backlog (refused with [err shutting-down]), then the live
     readers are unblocked (their loops emit a final [bye]), then every
     connection thread is joined *)
  ignore (drain_backlog sock);
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    (Mutex.protect reg_m (fun () -> !live_fds));
  List.iter Thread.join !threads

(* ---------------- supervisor ---------------- *)

module Supervisor = struct
  type policy = {
    backoff : Backoff.schedule;
    max_crashes : int;
    window_ms : int;
  }

  let default_policy =
    {
      backoff = Backoff.schedule ~max_ms:5_000 100;
      max_crashes = 5;
      window_ms = 30_000;
    }

  type outcome = Exited of int | Signaled of int

  let describe_outcome = function
    | Exited c -> Printf.sprintf "exit %d" c
    | Signaled s -> Printf.sprintf "signal %d" s

  type decision = Restart_after_ms of int | Give_up of string

  type state = { mutable crash_times : int list (* newest first, ms *) }

  let init () = { crash_times = [] }

  let crashes_in_window p st ~now_ms =
    st.crash_times <-
      List.filter (fun ts -> now_ms - ts < p.window_ms) st.crash_times;
    List.length st.crash_times

  (* The circuit breaker: crashes outside the sliding window are
     forgiven (the worker was healthy long enough to reset the
     breaker); [max_crashes] within it trips Give_up.  The backoff
     attempt number is the crash count inside the window, so a worker
     that recovers for a while restarts fast again. *)
  let decide ?(jitter = Backoff.none) p st ~now_ms outcome =
    if p.max_crashes < 1 then invalid_arg "Supervisor.decide: max_crashes < 1";
    ignore (crashes_in_window p st ~now_ms);
    st.crash_times <- now_ms :: st.crash_times;
    let n = List.length st.crash_times in
    if n >= p.max_crashes then
      Give_up
        (Printf.sprintf "%d crashes within %dms (last: %s)" n p.window_ms
           (describe_outcome outcome))
    else Restart_after_ms (Backoff.delay_ms ~jitter p.backoff ~attempt:n)

  let run ?(policy = default_policy) ?(jitter = Backoff.none)
      ?(sleep_ms =
        fun ms ->
          try ignore (Unix.select [] [] [] (float_of_int ms /. 1000.))
          with Unix.Unix_error (Unix.EINTR, _, _) -> ())
      ?(now_ms = fun () -> int_of_float (Unix.gettimeofday () *. 1000.))
      ?(log = fun (_ : string) -> ())
      ?(on_crash = fun (_ : outcome) (_ : decision) -> ()) ~spawn ~wait () =
    let st = init () in
    let rec loop () =
      let w = spawn () in
      match wait w with
      | Exited 0 ->
          log "worker exited cleanly";
          Ok ()
      | outcome -> (
          log (Printf.sprintf "worker died (%s)" (describe_outcome outcome));
          let d = decide ~jitter policy st ~now_ms:(now_ms ()) outcome in
          (* the black-box hook: the worker is dead and its replacement
             not yet spawned, so a harvester reads the flight file
             without racing either incarnation *)
          on_crash outcome d;
          match d with
          | Give_up reason ->
              log ("giving up: " ^ reason);
              Error reason
          | Restart_after_ms d ->
              log (Printf.sprintf "restarting in %dms" d);
              sleep_ms d;
              loop ())
    in
    loop ()
end

(* ---------------- client ---------------- *)

module Client = struct
  type transport = string -> string list

  type policy = {
    retries : int;
    backoff_ms : int;
    multiplier : float;
    jitter : int -> int;
    sleep_ms : int -> unit;
  }

  let default_policy =
    {
      retries = 3;
      backoff_ms = 50;
      multiplier = 2.0;
      jitter = Backoff.full_jitter ();
      sleep_ms =
        (fun ms ->
          try ignore (Unix.select [] [] [] (float ms /. 1000.))
          with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    }

  type status =
    | Ok_reply
    | Err_reply of string * string
    | Transport_error of string
    | Closed

  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let status_of_reply reply =
    match List.rev reply with
    | [] -> Closed
    | last :: _ ->
        if last = "ok" then Ok_reply
        else if last = "bye" then Closed
        else if starts_with "err " last then
          let rest = String.sub last 4 (String.length last - 4) in
          match String.index_opt rest ' ' with
          | None -> Err_reply (rest, "")
          | Some i ->
              Err_reply
                ( String.sub rest 0 i,
                  String.sub rest (i + 1) (String.length rest - i - 1) )
        else
          (* lines arrived but no terminator: the connection died
             mid-reply — a transport failure, not a protocol verdict *)
          Transport_error ("unterminated reply: " ^ last)

  (* The server's shed reply names its own floor: retry-after-ms=N
     inside the err message.  Absent or malformed → 0. *)
  let retry_after_of_msg msg =
    List.fold_left
      (fun acc tok ->
        match acc with
        | Some _ -> acc
        | None ->
            if starts_with "retry-after-ms=" tok then
              int_of_string_opt
                (String.sub tok 15 (String.length tok - 15))
            else None)
      None
      (String.split_on_char ' ' msg)
    |> Option.value ~default:0

  type result = { reply : string list; attempts : int; status : status }

  let call ?(policy = default_policy) transport req =
    let sched =
      Backoff.schedule ~multiplier:policy.multiplier policy.backoff_ms
    in
    let rec go attempt =
      let reply =
        (* transport failures below the protocol (reset, broken pipe,
           refused/missing socket during a supervisor restart) are
           transient by classification *)
        match transport req with
        | reply -> `Reply reply
        | exception End_of_file -> `Transport "eof"
        | exception Sys_error m -> `Transport m
        | exception
            Unix.Unix_error
              ( ( Unix.ECONNRESET | Unix.EPIPE | Unix.ECONNREFUSED
                | Unix.ECONNABORTED | Unix.ENOENT ),
                fn,
                _ ) ->
            `Transport ("unix error in " ^ fn)
      in
      let reply, status =
        match reply with
        | `Reply r -> (r, status_of_reply r)
        | `Transport m -> ([], Transport_error m)
      in
      let retry ~floor_ms =
        let d =
          Backoff.delay_after_ms ~jitter:policy.jitter ~at_least_ms:floor_ms
            sched ~attempt
        in
        policy.sleep_ms d;
        go (attempt + 1)
      in
      match status with
      (* transient: the budget may pass on a quieter machine (wall
         deadlines) or after the client simplifies; bounded
         exponential backoff, then give up with the last reply *)
      | Err_reply ("budget", _) when attempt <= policy.retries ->
          retry ~floor_ms:0
      (* shed at the admission gate, or a router bag group with no live
         replica: honor the server's floor, with full jitter on top so
         a shed cohort does not return in lockstep *)
      | Err_reply (("overloaded" | "unavailable"), msg)
        when attempt <= policy.retries ->
          retry ~floor_ms:(retry_after_of_msg msg)
      | Transport_error _ when attempt <= policy.retries -> retry ~floor_ms:0
      | status -> { reply; attempts = attempt; status }
    in
    go 1

  let channel_transport ic oc req =
    output_string oc req;
    output_char oc '\n';
    flush oc;
    let rec read acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | l ->
          let acc = l :: acc in
          if l = "ok" || l = "bye" || starts_with "err " l then List.rev acc
          else read acc
    in
    read []

  type connect_policy = {
    connect_retries : int;
    connect_backoff_ms : int;
    connect_deadline_ms : int;
    connect_jitter : int -> int;
    connect_sleep_ms : int -> unit;
    connect_now_ms : unit -> int;
  }

  let default_connect_policy =
    {
      connect_retries = 8;
      connect_backoff_ms = 20;
      connect_deadline_ms = 2_000;
      connect_jitter = Backoff.full_jitter ();
      connect_sleep_ms =
        (fun ms ->
          try ignore (Unix.select [] [] [] (float ms /. 1000.))
          with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      connect_now_ms = (fun () -> int_of_float (Unix.gettimeofday () *. 1000.));
    }

  (* Bounded connect: a shard mid-restart (supervisor backoff window)
     leaves its socket missing or refusing for a little while; retrying
     with backoff under a hard deadline turns that into either a live
     connection or an [Error] the caller classifies as
     {!Transport_error} — never an indefinite block in connect(2). *)
  let connect ?(policy = default_connect_policy) path =
    let sched = Backoff.schedule ~max_ms:1_000 policy.connect_backoff_ms in
    let t0 = policy.connect_now_ms () in
    let rec go attempt =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          let elapsed = policy.connect_now_ms () - t0 in
          if
            attempt > policy.connect_retries
            || elapsed >= policy.connect_deadline_ms
          then
            Error
              (Printf.sprintf "connect %s: %s after %d attempts in %dms" path
                 (Unix.error_message e) attempt elapsed)
          else begin
            policy.connect_sleep_ms
              (Backoff.delay_ms ~jitter:policy.connect_jitter sched ~attempt);
            go (attempt + 1)
          end
    in
    go 1
end
