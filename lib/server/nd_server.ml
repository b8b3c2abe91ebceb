open Nd_util

let m_updates = Metrics.counter "server.updates"

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

(* ---------------- wire syntax ---------------- *)

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

let mutations verb arg =
  match verb with
  | "update" ->
      if arg = "" then Nd_error.user_errorf "update: missing mutation"
      else [ Nd_graph.Cgraph.mutation_of_string arg ]
  | _ ->
      let muts =
        List.filter_map
          (fun s ->
            let s = String.trim s in
            if s = "" then None else Some (Nd_graph.Cgraph.mutation_of_string s))
          (String.split_on_char ';' arg)
      in
      if muts = [] then Nd_error.user_errorf "%s: no mutations given" verb
      else muts

let enumerate_reply ~max_enumerate arg page =
  let k =
    if arg = "" then max_enumerate
    else
      match int_of_string_opt arg with
      | Some k when k > 0 -> min k max_enumerate
      | _ -> Nd_error.user_errorf "enumerate: bad page size %S" arg
  in
  let sols, exhausted = page k in
  List.map (fun s -> "sol " ^ fmt_tuple s) sols
  @ [
      Printf.sprintf "end %d%s" (List.length sols)
        (if exhausted then " complete" else "");
    ]

(* ---------------- the request envelope ---------------- *)

type reply_error = { cls : string; msg : string; shard : int option }

exception Reply_error of reply_error

(* One service's registry entries, all under its name: "server" or
   "router".  Error counters are found-or-created per class; the
   classes either service can answer are registered up front so they
   appear in every scrape. *)
type meters = {
  name : string;
  request_span : string;
  m_requests : Metrics.counter;
  m_ok : Metrics.counter;
  h_latency : Metrics.hist;
  m_conns_rejected : Metrics.counter;
  m_io_timeouts : Metrics.counter;
  m_oversized_lines : Metrics.counter;
  m_idle_reaped : Metrics.counter;
  m_backlog_drained : Metrics.counter;
}

let err_counter name cls =
  Metrics.counter
    (name ^ ".errors." ^ String.map (function '-' -> '_' | c -> c) cls)

let meters name =
  List.iter
    (fun cls -> ignore (err_counter name cls))
    [ "user"; "budget"; "internal"; "overloaded"; "shutting-down"; "unavailable" ];
  let c s = Metrics.counter (name ^ "." ^ s) in
  {
    name;
    request_span = name ^ ".request";
    m_requests = c "requests";
    m_ok = c "replies_ok";
    h_latency = Metrics.hist (name ^ ".request_us");
    m_conns_rejected = c "conns_rejected";
    m_io_timeouts = c "io_timeouts";
    m_oversized_lines = c "oversized_lines";
    m_idle_reaped = c "idle_reaped";
    m_backlog_drained = c "backlog_drained";
  }

let server_meters = meters "server"

(* State shared by every session of one service.  Two locks with
   distinct jobs: [lock] serializes request *processing* (one prepared
   handle or one fleet view, many connections — answering mutates
   shared state, so requests are dispatched one at a time while
   connection I/O overlaps freely); [adm] protects only the admission
   state (tallies and the in-flight gauge) so an overloaded request can
   be shed in O(1) without ever waiting on [lock].  [adm] is never held
   across [lock]'s critical work — its sections are a few loads and
   stores. *)
type gate = {
  meters : meters;
  config : config;
  epoch : unit -> int;
  lock : Mutex.t;
  adm : Mutex.t;
  mutable stopped : bool;
  mutable inflight : int;
  mutable requests : int;
  replies : (string, int) Hashtbl.t;  (* by event-row status *)
}

let gate meters ~epoch config =
  {
    meters;
    config;
    epoch;
    lock = Mutex.create ();
    adm = Mutex.create ();
    stopped = false;
    inflight = 0;
    requests = 0;
    replies = Hashtbl.create 8;
  }

let with_gate_lock g f = Mutex.protect g.lock f
let stop g = g.stopped <- true
let stopping g = g.stopped
let requests g = Mutex.protect g.adm (fun () -> g.requests)

let replies g status =
  Mutex.protect g.adm (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt g.replies status))

(* under [adm] *)
let count_request g =
  g.requests <- g.requests + 1;
  Metrics.incr g.meters.m_requests;
  g.requests

(* under [adm] *)
let count_reply g status =
  Hashtbl.replace g.replies status
    (1 + Option.value ~default:0 (Hashtbl.find_opt g.replies status));
  if status = "ok" then Metrics.incr g.meters.m_ok
  else if status <> "bye" then Metrics.incr (err_counter g.meters.name status)

(* ts_us is integer wall-clock microseconds: whole seconds were too
   coarse to order events across fleet processes. *)
let event_row ~ts_us ~rid ~span ~cmd ~status ?epoch ~latency_us ~lines ?shard
    () =
  Printf.sprintf
    "{\"ts_us\":%d,\"rid\":%d,\"span\":%d,\"cmd\":\"%s\",\"status\":\"%s\"%s,\"latency_us\":%d,\"lines\":%d%s}"
    ts_us rid span (Nd_trace.Json.escape cmd) status
    (match epoch with None -> "" | Some e -> Printf.sprintf ",\"epoch\":%d" e)
    latency_us lines
    (match shard with None -> "" | Some s -> Printf.sprintf ",\"shard\":%d" s)

(* One row per handled request, stamped with its start [t0]: the event
   log gets the plain row, the flight recorder (when armed) the same
   row extended with the epoch — the join key a post-mortem needs
   against the restarted worker's journal-replayed boot epoch. *)
let log_event g ~t0 ~rid ~span ~cmd ~status ~latency_us ~lines ?shard () =
  let row ?epoch () =
    event_row
      ~ts_us:(int_of_float (t0 *. 1e6))
      ~rid ~span ~cmd ~status ?epoch ~latency_us ~lines ?shard ()
  in
  Option.iter (fun sink -> sink (row ())) g.config.event_log;
  Option.iter (fun sink -> sink (row ~epoch:(g.epoch ()) ())) g.config.flight

(* Admission: decided under [adm] only, never [lock] — a shed verdict
   must stay O(1) even while a slow request holds the lock.  The
   in-flight gauge counts requests admitted past the gate (processing
   or queued on [lock]); it is released in the [Fun.protect] finalizer
   of {!handle_with}. *)
let admit g =
  Mutex.protect g.adm @@ fun () ->
  let rid = count_request g in
  let reject cls msg =
    count_reply g cls;
    `Reject (rid, cls, msg)
  in
  if g.stopped then reject "shutting-down" (g.meters.name ^ " is draining")
  else
    match g.config.max_inflight with
    | Some m when g.inflight >= m ->
        reject "overloaded"
          (Printf.sprintf "retry-after-ms=%d in-flight limit %d reached"
             g.config.retry_after_ms m)
    | _ ->
        g.inflight <- g.inflight + 1;
        `Admit rid

type 's service = {
  gate : 's -> gate;
  session : 's -> 's;
  dispatch : 's -> string -> [ `Ok of string list | `Bye ];
  quitting : 's -> bool;
}

let handle_with svc s line =
  let g = svc.gate s in
  let line = String.trim line in
  if line = "" then []
  else begin
    let cmd, _ = split_command line in
    let t0 = Unix.gettimeofday () in
    let finish ~rid ~span ?shard status reply =
      let latency_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      Metrics.observe g.meters.h_latency latency_us;
      log_event g ~t0 ~rid ~span ~cmd ~status ~latency_us
        ~lines:(List.length reply) ?shard ();
      reply
    in
    match admit g with
    | `Reject (rid, cls, msg) ->
        finish ~rid ~span:0 cls
          [ Printf.sprintf "err %s rid=%d span=0 %s" cls rid msg ]
    | `Admit rid ->
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect g.adm (fun () -> g.inflight <- g.inflight - 1))
        @@ fun () ->
        (* the lock spans parsing through reply construction: the
           service state, the global budget slot and the tracer's span
           stack are all single-writer under it; only the connection I/O
           and the admission gate run outside *)
        Mutex.protect g.lock @@ fun () ->
        (* span = the tracer's id for this request (0 with tracing off);
           stamped with rid into every error terminator and event-log line
           so a failing request joins to its trace. *)
        let span = ref 0 in
        (* the optional trailing trace=<id>:<span> request attribute:
           stripped before dispatch; a valid context re-parents this
           request's span across the process boundary (the merge
           resolves the ctx.* attrs), a malformed one is a structured
           user error naming the attribute — never a protocol desync *)
        let base, ctx = Nd_obs.Ctx.split_line line in
        let ctx_attrs =
          match ctx with Some (Ok c) -> Nd_obs.Ctx.attrs c | _ -> []
        in
        let status, shard, reply =
          Nd_trace.with_span g.meters.request_span
            ~attrs:(("rid", string_of_int rid) :: ("cmd", cmd) :: ctx_attrs)
          @@ fun () ->
          span := Nd_trace.current_span_id ();
          let err ?shard cls m =
            ( cls,
              shard,
              [ Printf.sprintf "err %s rid=%d span=%d %s" cls rid !span m ] )
          in
          (* Request isolation: every failure class a dispatcher can
             produce becomes a structured terminator line.  The final
             catch-all exists because an unexpected exception must
             degrade to an error reply, never to a dead loop. *)
          match
            (match ctx with
            | Some (Error m) ->
                Nd_error.user_errorf "bad trace= attribute: %s" m
            | _ -> ());
            svc.dispatch s base
          with
          | `Ok lines -> ("ok", None, lines @ [ "ok" ])
          | `Bye -> ("bye", None, [ "bye" ])
          | exception Reply_error e -> err ?shard:e.shard e.cls e.msg
          | exception (Nd_error.User_error m | Invalid_argument m | Failure m) ->
              err "user" m
          | exception Nd_error.Budget_exceeded info ->
              err "budget" (Nd_error.describe_budget info)
          | exception Nd_error.Internal_invariant m -> err "internal" m
          | exception Stack_overflow ->
              err "internal" "stack overflow in request handler"
          | exception e ->
              err "internal" ("uncaught exception: " ^ Printexc.to_string e)
        in
        Mutex.protect g.adm (fun () -> count_reply g status);
        finish ~rid ~span:!span ?shard status reply
  end

(* ---------------- the stdio loop ---------------- *)

let serve_with svc s ic oc =
  let g = svc.gate s in
  let emit lines =
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      lines;
    flush oc
  in
  let rec loop () =
    if g.stopped then emit [ "bye" ]
    else
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
          (* the reply is written and flushed in full before the stop
             flag is consulted: that is the drain guarantee (a request
             racing the flag itself gets [err shutting-down] from the
             admission gate rather than a dropped line) *)
          emit (handle_with svc s line);
          if svc.quitting s then ()
          else if g.stopped then emit [ "bye" ]
          else loop ()
  in
  loop ()

let default_backlog = 64

(* ---------------- hygiene-bounded socket I/O ---------------- *)

(* Bounded write on a non-blocking [fd]: the write is tried first and
   select only waits out a full socket buffer, so a peer that stops
   reading cannot wedge the connection thread past [deadline]. *)
let send_all ?deadline fd s =
  let len = String.length s in
  let rec go off =
    if off >= len then `Sent
    else
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          wait off
      | exception Unix.Unix_error _ -> `Closed
  and wait off =
    let now = Unix.gettimeofday () in
    match deadline with
    | Some dl when now >= dl -> `Timeout
    | _ -> (
        let w =
          match deadline with
          | None -> 0.5
          | Some dl -> Float.min 0.5 (Float.max 0.0 (dl -. now))
        in
        match Unix.select [] [ fd ] [] w with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait off
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> `Closed
        | _, [], _ -> wait off
        | _ -> go off)
  in
  go 0

(* every accepted connection is non-blocking, as [send_all] requires *)
let accept_nonblock sock =
  let fd, _ = Unix.accept sock in
  Unix.set_nonblock fd;
  fd

let emit_lines ?deadline fd lines =
  if lines = [] then `Sent
  else send_all ?deadline fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))

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
let recv_request g fd buf chunk =
  let cfg = g.config in
  let start = Unix.gettimeofday () in
  let first_byte = ref (if Buffer.length buf > 0 then Some start else None) in
  let to_s ms = float_of_int ms /. 1000. in
  let rec loop () =
    match take_line buf with
    | Some line ->
        if String.length line > cfg.max_line_bytes then `Too_long
        else `Line line
    | None ->
        if Buffer.length buf > cfg.max_line_bytes then `Too_long
        else if g.stopped then `Stopped
        else begin
          let now = Unix.gettimeofday () in
          let deadline =
            match !first_byte with
            | Some tb -> Option.map (fun ms -> tb +. to_s ms) cfg.io_timeout_ms
            | None ->
                Option.map (fun ms -> start +. to_s ms) cfg.idle_timeout_ms
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
                  | exception
                      Unix.Unix_error
                        ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                      loop ()
                  | exception Unix.Unix_error _ -> `Eof
                  | 0 ->
                      (* EOF with a trailing unterminated line: serve it,
                         like [input_line] would; the next read sees a
                         clean EOF *)
                      if Buffer.length buf > 0 then begin
                        let line = Buffer.contents buf in
                        Buffer.clear buf;
                        if String.length line > cfg.max_line_bytes then
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
let hygiene_error g msg =
  let t0 = Unix.gettimeofday () in
  let rid =
    Mutex.protect g.adm (fun () ->
        let rid = count_request g in
        count_reply g "user";
        rid)
  in
  log_event g ~t0 ~rid ~span:0 ~cmd:"(transport)" ~status:"user" ~latency_us:0
    ~lines:1 ();
  Printf.sprintf "err user rid=%d span=0 %s" rid msg

(* Drain connections parked in the kernel accept backlog at stop time:
   each completed-but-unaccepted connection gets a structured refusal
   and a clean close instead of the silent reset it would see when the
   listen socket is unlinked.  Non-blocking; returns the number
   drained. *)
let drain_parked meters sock =
  let refusal =
    Printf.sprintf "err shutting-down rid=0 span=0 %s is draining\nbye\n"
      meters.name
  in
  let rec go n =
    match Unix.select [ sock ] [] [] 0.0 with
    | exception Unix.Unix_error _ -> n
    | [], _, _ -> n
    | _ -> (
        match accept_nonblock sock with
        | exception Unix.Unix_error _ -> n
        | fd ->
            Metrics.incr meters.m_backlog_drained;
            ignore
              (send_all
                 ~deadline:(Unix.gettimeofday () +. 1.0)
                 fd refusal);
            (try Unix.close fd with Unix.Unix_error _ -> ());
            go (n + 1))
  in
  go 0

let drain_backlog sock = drain_parked server_meters sock

(* Thread-per-connection accept loop.  Sys-threads (one domain) are the
   right tool here: requests serialize on the gate lock anyway, so the
   concurrency win is connection I/O overlap, and the select-based
   reader keeps every blocking point deadline-bounded.  [quit] is
   connection-scoped in socket mode (it closes that client's session);
   {!stop} is what ends the service. *)
let serve_socket_with svc ?(backlog = default_backlog) t ~path =
  if backlog < 1 then invalid_arg "Nd_server.serve_socket: backlog must be >= 1";
  let g = svc.gate t in
  let cfg = g.config in
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
  (* live_fds: connections still open, so a stopping service can unblock
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
      cfg.io_timeout_ms
  in
  let conn fd =
    let s = svc.session t in
    let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
    let emit lines = emit_lines ?deadline:(io_deadline ()) fd lines in
    let rec loop () =
      match recv_request g fd buf chunk with
      | `Eof -> ()
      | `Stopped -> ignore (emit [ "bye" ])
      | `Idle ->
          (* the idle reaper: a polite bye, then the connection closes *)
          Metrics.incr g.meters.m_idle_reaped;
          ignore (emit [ "bye" ])
      | `Timeout ->
          Metrics.incr g.meters.m_io_timeouts;
          ignore
            (emit
               [
                 hygiene_error g
                   (Printf.sprintf
                      "request line stalled past io-timeout-ms=%d"
                      (Option.value ~default:0 cfg.io_timeout_ms));
               ])
      | `Too_long ->
          Metrics.incr g.meters.m_oversized_lines;
          ignore
            (emit
               [
                 hygiene_error g
                   (Printf.sprintf "request line exceeds max-line-bytes=%d"
                      cfg.max_line_bytes);
               ])
      | `Line line -> (
          match emit (handle_with svc s line) with
          | `Timeout | `Closed -> ()
          | `Sent ->
              if svc.quitting s then ()
              else if g.stopped then ignore (emit [ "bye" ])
              else loop ())
    in
    (try loop () with Sys_error _ -> ());
    Mutex.protect reg_m (fun () ->
        live_fds := List.filter (fun fd' -> fd' != fd) !live_fds);
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    if g.stopped then ()
    else
      (* wake periodically so a stop is honored even while no client is
         connecting *)
      match Unix.select [ sock ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ when g.stopped ->
          (* a connection that arrived after the stop stays parked: the
             backlog drain below refuses it *)
          ()
      | _ ->
          (match accept_nonblock sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | fd -> (
              let over =
                match cfg.max_conns with
                | Some m ->
                    Mutex.protect reg_m (fun () -> List.length !live_fds) >= m
                | None -> false
              in
              if over then begin
                (* connection-level shedding: a structured refusal, then
                   close — never an unbounded accept queue *)
                Metrics.incr g.meters.m_conns_rejected;
                ignore
                  (send_all
                     ~deadline:(Unix.gettimeofday () +. 1.0)
                     fd
                     (Printf.sprintf
                        "err overloaded rid=0 span=0 retry-after-ms=%d \
                         connection limit %d reached\nbye\n"
                        cfg.retry_after_ms
                        (Option.value ~default:0 cfg.max_conns)));
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
  ignore (drain_parked g.meters sock);
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    (Mutex.protect reg_m (fun () -> !live_fds));
  List.iter Thread.join !threads

(* ---------------- the engine service ---------------- *)

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

type t = {
  eng : Nd_engine.t;
  own : ownership option;
  gate : gate;
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
    own;
    gate = gate server_meters ~epoch:(fun () -> Nd_engine.epoch eng) config;
    cursor = Unstarted;
    quit = false;
  }

(* A per-connection session: own enumeration cursor and quit flag,
   everything else (engine, gate: config, locks, stop, counters) shared
   with the parent. *)
let session t = { t with cursor = Unstarted; quit = false }

let counts t =
  let r = replies t.gate in
  {
    requests = requests t.gate;
    ok = r "ok";
    user_errors = r "user";
    budget_errors = r "budget";
    internal_errors = r "internal";
    overloaded = r "overloaded";
    shutting_down = r "shutting-down";
  }

let quitting t = t.quit

let request_stop t = stop t.gate

(* ---------------- per-request resource governance ---------------- *)

let with_request_budget t f =
  match (t.gate.config.request_budget_ops, t.gate.config.request_timeout_ms) with
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
          match t.gate.config.journal with
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
  | "enumerate" ->
      `Ok
        (enumerate_reply ~max_enumerate:t.gate.config.max_enumerate arg
           (fun k -> with_request_budget t (fun () -> page t k)))
  | "update" | "batch-update" -> `Ok (absorb t (mutations cmd arg))
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
  | "inject" when t.gate.config.chaos -> (
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

let service = { gate = (fun t -> t.gate); session; dispatch; quitting }
let handle t line = handle_with service t line
let serve t ic oc = serve_with service t ic oc
let serve_socket ?backlog t ~path = serve_socket_with service ?backlog t ~path

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

  let is_terminator l = l = "ok" || l = "bye" || starts_with "err " l

  let channel_transport ic oc req =
    output_string oc req;
    output_char oc '\n';
    flush oc;
    let rec read acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | l ->
          let acc = l :: acc in
          if is_terminator l then List.rev acc else read acc
    in
    read []

  type conn = {
    transport : transport;
    read_reply : float -> string list option;
    close : unit -> unit;
  }

  (* Channels would hide buffered bytes from select, which a resync
     probe needs; this reader owns its buffer. *)
  let fd_conn fd =
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    (* `Line / `Timeout / raises on EOF and hard errors so the caller's
       transport classification fires *)
    let recv_line ~deadline =
      let rec loop () =
        match take_line buf with
        | Some l -> `Line l
        | None -> (
            let now = Unix.gettimeofday () in
            if now >= deadline then `Timeout
            else
              match Unix.select [ fd ] [] [] (Float.min 0.5 (deadline -. now)) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
              | [], _, _ -> loop ()
              | _ -> (
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
                  | 0 -> raise End_of_file
                  | n ->
                      Buffer.add_subbytes buf chunk 0 n;
                      loop ()))
      in
      loop ()
    in
    let read_rest first =
      (* the rest of a started reply gets a generous fixed deadline *)
      let deadline = Unix.gettimeofday () +. 600. in
      let rec go acc =
        let l =
          match recv_line ~deadline with
          | `Line l -> l
          | `Timeout -> raise (Sys_error "reply stalled")
        in
        let acc = l :: acc in
        if is_terminator l then List.rev acc else go acc
      in
      if is_terminator first then [ first ] else go [ first ]
    in
    let send_line s =
      let msg = s ^ "\n" in
      let len = String.length msg in
      let rec go off =
        if off < len then
          match Unix.write_substring fd msg off (len - off) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | n -> go (off + n)
      in
      go 0
    in
    {
      transport =
        (fun req ->
          send_line req;
          match recv_line ~deadline:(Unix.gettimeofday () +. 600.) with
          | `Line l -> read_rest l
          | `Timeout -> raise (Sys_error "reply stalled"));
      read_reply =
        (fun wait ->
          match recv_line ~deadline:(Unix.gettimeofday () +. wait) with
          | `Line l -> Some (read_rest l)
          | `Timeout -> None);
      close = (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
    }


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
