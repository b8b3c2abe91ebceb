(** Fault-isolated request loop over a prepared engine handle.

    The ROADMAP's production posture demands that one prepared handle
    answer many requests from untrusted clients without a malformed
    request, a pathological workload, or an internal bug taking the
    process down.  [Nd_server] wraps an {!Nd_engine.t} in a line
    protocol with {e per-request} budgets and deadlines and {e total}
    request isolation: every failure an answering call can produce is
    mapped through the {!Nd_error} taxonomy to a structured error
    reply, and the loop carries on.

    The request envelope and the transport below are not the engine's
    alone: the cluster router ({!Nd_cluster.Router}) runs the same
    code with its own verbs (see {!section-loop}), so everything this
    page says about rids, error classes, event rows, hygiene and drain
    holds for a router socket too, with [router] in place of [server]
    in span and metric names.

    {2 Protocol}

    One request per line; every reply is zero or more data lines
    followed by exactly one terminator line — [ok], [err <class>
    rid=<n> span=<n> <message>], or [bye] — so clients always know
    where a reply ends.

    {v
    next [T]          -> sol T' | none                 then ok
    test [T]          -> true | false                  then ok
    enumerate [k]     -> sol T (xk) , end N [complete] then ok
    update M          -> epoch N applied 1 [mode]      then ok
    batch-update M;M… -> epoch N applied k [mode]      then ok
    epoch             -> epoch N                       then ok
    reset             -> (rewind the enumeration cursor) ok
    stats             -> the nd-engine-stats/1 JSON line, then ok
    metrics           -> Prometheus text exposition lines, then ok
    health            -> health ok requests=N ok=N user=N budget=N
                         internal=N shed=N degraded=B cache=N
                         epoch=N mode=none|stale_rebuild|fallback
                                                       then ok
    inject <class>    -> (chaos builds only) raise inside the handler
    inject sleep MS   -> (chaos builds only) hold the engine lock MS ms
    quit              -> bye
    v}

    [T] is a comma-separated vertex tuple ([next 3,0]); omitted for
    sentences.  [enumerate] is a {e cursor}: each call returns the next
    [k] solutions (default and cap from {!config}), [end N complete]
    marks exhaustion, and [reset] rewinds.  The cursor only advances
    when a page is fully produced, so a client whose page died on a
    budget error can retry it verbatim without losing solutions.

    [M] is a mutation in the {!Nd_graph.Cgraph.mutation_of_string} wire
    syntax — [add-edge U V], [remove-edge U V], [set-color C V on|off];
    [batch-update] takes several separated by [;].  Both verbs absorb
    the mutation(s) through {!Nd_engine.update} (bounded maintenance,
    falling back to a budgeted full re-prepare past the staleness
    threshold), run under the same per-request budget as answering
    verbs, and {e reset the enumeration cursor} — the solution order
    over the mutated graph need not extend the old page sequence.  The
    reply reports the new graph epoch, the number of mutations applied,
    and, when the handle is no longer the bounded-maintenance one, a
    trailing mode word ([stale_rebuild] — full quality, rebuilt; or
    [fallback] — degraded).  [epoch] reads the current epoch without
    mutating.  When {!config.journal} is set, every {e applied} mutation
    is also appended to the sink in wire syntax — the write-ahead record
    a supervisor-restarted worker replays to recover its epoch.

    [health] ends with [epoch=<N> mode=<word>] — the graph epoch and
    the degradation mode ([none], [stale_rebuild] or [fallback]) — so a
    router detects replica lag {e and} degradation with one probe.

    {2 Inline request attributes}

    Any request line may carry one optional trailing attribute token:

    {v
    <request> [trace=<trace_id>:<parent_span>]
    v}

    [trace_id] is a non-empty string over [A-Za-z0-9._-] naming the
    originating process (see {!Nd_trace.trace_id}); [parent_span] is a
    non-negative decimal span id in that process.  The token is
    stripped before dispatch; when tracing is enabled the request's
    [server.request] span records the context as [ctx.trace]/
    [ctx.span] attrs, which [fodb obs merge-trace] resolves into a
    cross-process parent edge ({!Nd_obs.Merge}).  The router stamps
    this attribute on every fan-out it makes.

    A {e malformed} token (bad id charset, missing [:], negative or
    non-numeric span) answers [err user bad trace= attribute: …] —
    a structured reply naming the attribute, after which the session
    continues in sync; it never desyncs the line protocol.

    {2 Error classes}

    Error classes mirror the taxonomy, extended with the two
    overload-safety classes:

    - [err user …] — malformed request, bad tuple, or a transport-
      hygiene violation (oversized or stalled request line); fix and
      resend.
    - [err budget …] — the per-request budget tripped; transient, retry
      or simplify.
    - [err internal …] — the engine caught itself lying; never retry.
    - [err overloaded … retry-after-ms=R …] — shed at the admission
      gate ({!config.max_inflight} or [max_conns]); the request was
      {e never started}.  Transient by construction: retry after at
      least [R] ms (jittered — see {!Client}).
    - [err shutting-down …] — the request raced {!request_stop}; the
      server is draining and the connection will close.  Reconnect
      elsewhere; retrying this connection cannot succeed.

    Attribute-parse failures (the [trace=] grammar above) are [user]
    errors: [err user … bad trace= attribute: <reason>].

    The session survives [user]/[budget]/[internal]; [overloaded] and
    [shutting-down] are emitted without touching the engine at all.

    {2 Error-reply grammar and the event log}

    Error terminators carry two join keys between the class and the
    message:

    {v
    err <class> rid=<RID> span=<SPAN> <message>
    v}

    [RID] is the request's 1-based sequence number in this session;
    [SPAN] is the id of its [server.request] span in {!Nd_trace} ([0]
    when tracing is off, and for shed/hygiene replies, which never
    enter the traced handler).  {!Client.status_of_reply} still parses
    the class as the first word after [err ], so existing clients keep
    working — the keys simply prefix the human message.  The two
    connection-level refusals written outside any session (accept-time
    connection shedding and backlog draining) use [rid=0].

    When {!config.event_log} is set, every handled request additionally
    appends one JSON line to the sink (the structured event log):

    {v
    {"ts_us":<epoch microseconds>,"rid":N,"span":N,"cmd":"<verb>",
     "status":"ok|bye|user|budget|internal|overloaded|shutting-down",
     "latency_us":N,"lines":N}
    v}

    [ts_us] is integer wall-clock microseconds (whole seconds were too
    coarse to order events across fleet processes).  Transport-hygiene
    violations log with [cmd:"(transport)"] and status [user].

    {!config.flight} receives the same row per request, extended with
    an integer ["epoch"] field (the engine's graph epoch at the time) —
    the crash flight recorder's feed; see {!Nd_obs.Flight} for the ring
    + post-mortem lifecycle behind [fodb serve --blackbox].

    [metrics] replies with the whole {!Nd_util.Metrics} registry in the
    Prometheus text format (rendered from an atomic
    {!Nd_util.Metrics.snapshot}, so a concurrent reset can never tear
    the scrape); exposition lines all start with [#] or [nd_] and so
    can never collide with a terminator.  The overload-safety counters
    (shed requests, rejected connections, io timeouts, oversized lines,
    idle reaps, drained backlog connections) are part of the registry
    and so appear in every scrape.

    {2 Overload model}

    Admission control is decided under its own lock, never the engine
    lock: when {!config.max_inflight} requests are already past the
    gate (processing, or queued on the engine lock), further requests
    are {e shed} in O(1) with [err overloaded] — the server's latency
    for saying "no" stays flat no matter how slow the engine is.
    [max_conns] bounds whole connections the same way at accept time,
    and the kernel [backlog] bounds the unaccepted queue below that.
    Under overload the server therefore degrades by shedding loudly,
    never by queueing silently. *)

type ownership = {
  next_owned : int -> int option;
      (** [next_owned v]: the smallest owned vertex [>= v], or [None]
          when every owned vertex is below [v] *)
  owns_empty : bool;  (** whether the arity-0 solution [[||]] is owned *)
}
(** A shard's slice of the solution space, by first coordinate: a
    non-empty tuple is owned iff [next_owned tup.(0) = Some tup.(0)].
    Only the first coordinate can matter, which is what makes skipping
    a foreign first coordinate wholesale sound. *)

val ownership_of_vertices :
  n:int -> owns_empty:bool -> (int -> bool) -> ownership
(** [ownership_of_vertices ~n ~owns_empty owned] owns the vertices
    [v < n] with [owned v], precomputed by one right-to-left pass over
    an [(n+1)]-int array. *)

val owns : ownership -> int array -> bool
(** [owns o tup]: [o.owns_empty] for [[||]], else whether [tup.(0)] is
    an owned vertex ([false] when it is out of range). *)

type config = {
  request_budget_ops : int option;
      (** ops ceiling installed around every single request *)
  request_timeout_ms : int option;  (** per-request deadline *)
  max_enumerate : int;
      (** page-size cap (and default) for [enumerate] (default 1000) *)
  chaos : bool;
      (** accept the [inject] fault command — test/CI builds only *)
  event_log : (string -> unit) option;
      (** sink for the per-request JSONL event log (one line per handled
          request, see the grammar above); [None] disables it *)
  max_inflight : int option;
      (** admission gate: requests past the gate at once; over it,
          [err overloaded].  [None] (default) disables shedding. *)
  max_conns : int option;
      (** connection gate: live connections at once; over it, accepted
          connections are refused with [err overloaded] + [bye].
          [None] (default) disables it. *)
  io_timeout_ms : int option;
      (** hygiene: max ms a {e started} request line may take to
          arrive (slow-loris guard), and the write deadline for each
          reply.  [None] (default) disables it. *)
  idle_timeout_ms : int option;
      (** hygiene: max ms a connection may sit idle between requests
          before the reaper closes it with [bye].  [None] (default)
          disables it. *)
  max_line_bytes : int;
      (** hygiene: longest accepted request line (default 65536);
          longer lines get [err user] and the connection closes *)
  retry_after_ms : int;
      (** the floor advertised in [err overloaded] replies
          (default 100) *)
  journal : (string -> unit) option;
      (** sink appended one wire-syntax mutation per {e applied}
          mutation — the recovery journal; [None] disables it *)
  ownership : ownership option;
      (** shard mode: when set, [next]/[enumerate] report only the
          solutions whose first coordinate the shard owns, and [test]
          answers [false] for a valid tuple this shard does not own.
          The owned stream stays strictly ascending and duplicate-free.
          A foreign solution rules out its whole first coordinate, so
          [next] resumes at the next owned vertex rather than at the
          solution's successor: one engine call per owned vertex
          without solutions.  Mutations and the journal are unaffected —
          every shard tracks the whole graph.  [None] (default): serve
          everything.  See {!Nd_cluster.Ownership.for_shard} for the
          partition this hosts. *)
  owner : (int array -> bool) option;
      (** the older form of [ownership], kept for callers that still
          pass a predicate: {!create} asks it about [(v,0,…,0)] once per
          vertex [v] and about [[||]], and serves exactly as if that
          answer table were the [ownership].  A predicate that looks at
          later coordinates is therefore read as its first-coordinate
          restriction.  Setting both fields is an error. *)
  flight : (string -> unit) option;
      (** the crash flight recorder's sink: one event-log row per
          handled request, extended with the engine epoch (grammar
          above).  Wired to {!Nd_obs.Flight.record} by [fodb serve
          --blackbox]; [None] (default) disables it. *)
}

val default_config : config

type t
(** A serving session: engine handle + config + shared counters +
    per-session enumeration cursor.  Sessions over the same engine
    (see {!session}) share one request lock: request processing is
    serialized against the (single, immutable-prepared) handle, while
    each connection's I/O proceeds concurrently. *)

val create : ?config:config -> Nd_engine.t -> t
(** @raise Invalid_argument on a non-positive [max_enumerate],
    [max_line_bytes], [max_inflight], [max_conns], [io_timeout_ms] or
    [idle_timeout_ms], a negative [retry_after_ms], or both
    [ownership] and [owner] set. *)

val session : t -> t
(** A new session sharing [t]'s engine, config, locks, stop flag
    and counters, with a fresh enumeration cursor and quit state —
    one per client connection ({!serve_socket} makes these itself). *)

val handle : t -> string -> string list
(** Process one request line; never raises.  Empty/blank lines yield
    [[]] (no reply).  The terminator of a non-empty reply is always
    [ok], [err …] or [bye].  The admission gate runs here: a request
    over {!config.max_inflight} returns [err overloaded] without
    touching the engine, and a request racing {!request_stop} returns
    [err shutting-down]. *)

type counts = {
  requests : int;
  ok : int;
  user_errors : int;
  budget_errors : int;
  internal_errors : int;
  overloaded : int;  (** requests shed at the admission gate *)
  shutting_down : int;  (** requests refused while draining *)
}

val counts : t -> counts
(** Served-request accounting, aggregated over every session sharing
    this engine (independent of {!Nd_util.Metrics}, which mirrors these
    as counters plus a latency histogram when enabled). *)

val quitting : t -> bool
(** A [quit] was served (the loop should end after its reply). *)

val request_stop : t -> unit
(** Ask every loop sharing this engine to stop gracefully: in-flight
    requests finish and their replies are fully written (the drain
    guarantee), requests racing the flag get [err shutting-down], then
    each loop closes with [bye] instead of reading further requests.
    Safe to call from a signal handler. *)

val serve : t -> in_channel -> out_channel -> unit
(** Run the loop until [quit], EOF, or {!request_stop}.  Replies are
    flushed after every request. *)

val default_backlog : int
(** Default [backlog] for {!serve_socket} (64). *)

val drain_backlog : Unix.file_descr -> int
(** Accept every connection already parked in [sock]'s kernel backlog
    (non-blocking) and refuse each with
    [err shutting-down rid=0 span=0 …] + [bye] before closing it —
    a structured refusal instead of the silent reset those clients
    would otherwise see when the listen socket is unlinked.  Returns
    the number drained.  {!serve_socket} calls this on the way out;
    exposed for deterministic tests. *)

val serve_socket : ?backlog:int -> t -> path:string -> unit
(** Serve over a Unix-domain socket, {e one thread per connection}:
    every accepted client gets its own {!session} (own enumeration
    cursor), and all sessions answer through the shared request lock
    against the one prepared handle, so concurrent clients are safe and
    their connection I/O overlaps.  [backlog] (default
    {!default_backlog}) is the kernel listen queue — connection bursts
    up to that size are queued instead of refused.

    Connection hygiene (all select-based; no [Thread.kill] anywhere):
    request lines are read through a bounded reader that enforces
    {!config.max_line_bytes} ([err user], close) and
    {!config.io_timeout_ms} against slow-loris trickle ([err user],
    close); {!config.idle_timeout_ms} reaps quiet connections with
    [bye]; reply writes respect the same io deadline so a peer that
    stops reading cannot wedge its connection thread.  SIGPIPE is
    ignored (best-effort) so a peer closing mid-write surfaces as a
    write error on that connection only.

    In socket mode [quit] is {e connection-scoped}: it closes that
    client's session and leaves the server (and other clients) running.
    {!request_stop} ends the server: it stops accepting, refuses the
    connections parked in the accept backlog ({!drain_backlog}),
    drains every live connection, joins their threads, and removes the
    socket file on the way out.
    @raise Invalid_argument when [backlog < 1]. *)

(** {1:loop The shared request loop}

    [fodb serve] and the cluster router ({!Nd_cluster.Router}) answer
    through the same code: one {e envelope} around every request and
    one {e transport} around every connection, parameterized by the
    verb dispatcher ({!service}) and the service's registry name
    ({!meters}: ["server"] or ["router"]).

    - Envelope ({!handle_with}): admission and rid, the
      [<name>.request] span with its [trace=] context, the mapping of
      every failure to [err <class> rid=… span=… <message>], the
      [<name>.request_us] latency histogram, and the event-log and
      flight rows.
    - Transport ({!serve_with}, {!serve_socket_with}): the stdio loop,
      the hygiene-bounded socket reader and writer, the accept loop,
      the backlog drain and stop-then-join — all as documented for
      {!serve} and {!serve_socket}, whose limits come from the gate's
      {!config}. *)

type reply_error = {
  cls : string;  (** the error class, the word after [err] *)
  msg : string;
  shard : int option;  (** logged as the event row's ["shard"] field *)
}

exception Reply_error of reply_error
(** Raised by a dispatcher to answer [err <cls> rid=… span=… <msg>];
    the envelope counts it under [cls] like any other error class.
    The router's [err unavailable] and its relayed shard verdicts are
    this error. *)

type meters
(** A service's registry entries, every one named under the service:
    [<name>.requests], [<name>.replies_ok], [<name>.errors.<class>]
    (user, budget, internal, overloaded, shutting_down, unavailable;
    any other class is registered on first use),
    [<name>.request_us], and the transport's [<name>.conns_rejected],
    [io_timeouts], [oversized_lines], [idle_reaped] and
    [backlog_drained]. *)

val meters : string -> meters
(** Find-or-create the entries for a service name; the name is also
    the span prefix ([<name>.request]) and the subject of the drain
    refusal ([<name> is draining]). *)

type gate
(** The state every session of one service shares: config, the
    request lock, the admission lock and in-flight gauge, the stop
    flag, and the request and reply tallies. *)

val gate : meters -> epoch:(unit -> int) -> config -> gate
(** [epoch] is read for each flight row ({!config.flight}). *)

val with_gate_lock : gate -> (unit -> 'a) -> 'a
(** Run under the request lock — the lock every dispatch runs under. *)

val stop : gate -> unit
(** Stop every loop over this gate, as {!request_stop} does. *)

val stopping : gate -> bool

val requests : gate -> int
(** Requests admitted or refused so far (the last rid issued). *)

val replies : gate -> string -> int
(** Replies so far with this event-row status: ["ok"], ["bye"] or an
    error class. *)

val event_row :
  ts_us:int ->
  rid:int ->
  span:int ->
  cmd:string ->
  status:string ->
  ?epoch:int ->
  latency_us:int ->
  lines:int ->
  ?shard:int ->
  unit ->
  string
(** One JSON event-log row, in the grammar above; [epoch] and [shard]
    add their fields when given.  The router writes its lifecycle rows
    ([cmd] ["(fence)"], ["(catchup)"], …) with it. *)

type 's service = {
  gate : 's -> gate;
  session : 's -> 's;  (** a fresh per-connection session *)
  dispatch : 's -> string -> [ `Ok of string list | `Bye ];
      (** answer one request line (attribute already stripped) with its
          data lines, or end the session; runs under the request lock
          and may raise — the envelope maps every exception *)
  quitting : 's -> bool;  (** the session served [quit] *)
}

val handle_with : 's service -> 's -> string -> string list
(** The envelope: {!handle} for any service. *)

val serve_with : 's service -> 's -> in_channel -> out_channel -> unit
(** The stdio loop: {!serve} for any service. *)

val serve_socket_with :
  's service -> ?backlog:int -> 's -> path:string -> unit
(** The socket transport: {!serve_socket} for any service. *)

val take_line : Buffer.t -> string option
(** Remove and return the first complete line of a receive buffer
    (['\n']-terminated, one trailing ['\r'] stripped); [None] when no
    line is complete.  The socket reader and the router's shard links
    both split lines with it. *)

(** {2 Wire syntax shared with the router} *)

val fmt_tuple : int array -> string
(** [3,0] *)

val parse_tuple : string -> int array
(** The inverse of {!fmt_tuple}; [""] is the empty tuple.
    @raise Nd_error.User_error on a non-integer field. *)

val split_command : string -> string * string
(** The verb and the trimmed rest of a request line. *)

val mutations : string -> string -> Nd_graph.Cgraph.mutation list
(** [mutations verb arg]: the one mutation of [update], or the
    [;]-separated mutations of [batch-update].
    @raise Nd_error.User_error when none is given or one is malformed. *)

val enumerate_reply :
  max_enumerate:int ->
  string ->
  (int -> int array list * bool) ->
  string list
(** [enumerate_reply ~max_enumerate arg page]: the page size [arg]
    asks for (default and cap [max_enumerate]), then the [sol] lines
    and the [end N [complete]] line of [page k]'s solutions.
    @raise Nd_error.User_error on a bad page size. *)

(** {1 Crash-recovery supervisor}

    Restart-on-crash with exponential backoff and a crash-count
    circuit breaker — the state machine behind [fodb serve
    --supervise]:

    {v
              spawn
    RUNNING ────────► wait
       │ Exited 0                    ▲
       ▼                             │ sleep(backoff)
     DONE     crash ──► decide ──► RESTARTING
                          │
                          │ ≥ max_crashes within window_ms
                          ▼
                       GIVEN-UP
    v}

    Crashes older than [window_ms] are forgiven (the worker was healthy
    long enough to reset the breaker); the backoff attempt number is
    the crash count inside the window, so a worker that recovers for a
    while restarts fast again.  Everything time- and process-shaped is
    injectable ([spawn]/[wait]/[sleep_ms]/[now_ms]/[jitter]), so the
    full machine is testable without forking — the real fork/waitpid
    pair lives in [fodb]. *)
module Supervisor : sig
  type policy = {
    backoff : Nd_util.Backoff.schedule;  (** restart pacing *)
    max_crashes : int;  (** breaker threshold (>= 1) *)
    window_ms : int;  (** sliding breaker window *)
  }

  val default_policy : policy
  (** 100ms base doubling to a 5s cap; breaker at 5 crashes in 30s. *)

  type outcome = Exited of int | Signaled of int

  val describe_outcome : outcome -> string

  type decision = Restart_after_ms of int | Give_up of string

  type state
  (** The breaker's crash-timestamp window. *)

  val init : unit -> state

  val crashes_in_window : policy -> state -> now_ms:int -> int
  (** Prune timestamps older than the window, return how many remain. *)

  val decide :
    ?jitter:(int -> int) -> policy -> state -> now_ms:int -> outcome -> decision
  (** Record a crash at [now_ms] and decide: [Give_up] when the breaker
      trips, else [Restart_after_ms] with the (jittered) backoff delay
      for this attempt.
      @raise Invalid_argument when [policy.max_crashes < 1]. *)

  val run :
    ?policy:policy ->
    ?jitter:(int -> int) ->
    ?sleep_ms:(int -> unit) ->
    ?now_ms:(unit -> int) ->
    ?log:(string -> unit) ->
    ?on_crash:(outcome -> decision -> unit) ->
    spawn:(unit -> 'worker) ->
    wait:('worker -> outcome) ->
    unit ->
    (unit, string) Stdlib.result
  (** The supervision loop: spawn, wait, and on a crash consult
      {!decide} — sleeping then respawning, or giving up with the
      breaker's reason.  [Exited 0] is a clean shutdown ([Ok ()]).
      [log] receives one human line per transition.  [on_crash] fires
      after each {!decide}, before the backoff sleep (or the give-up
      return) — the window where the dead worker's flight file can be
      harvested into a post-mortem without racing either incarnation
      ([fodb serve --blackbox] does exactly that; see
      {!Nd_obs.Flight}). *)
end

(** {1 Client harness}

    The retrying client used by the integration tests and CI: a
    {!Client.transport} abstracts {e how} a request line reaches a
    server (direct {!handle} call in-process, channels over a pipe /
    socket, or the buffered {!Client.fd_conn} the router's shard links
    use), and {!Client.call} layers bounded retries with full-jitter
    exponential backoff on top.

    {2 Retry policy}

    Retried (transient), up to [policy.retries] extra attempts:
    - [err budget] — the per-request budget may pass on a quieter
      machine or after backoff;
    - [err overloaded] — shed before any work started; the delay is
      floored at the server's advertised [retry-after-ms] and jittered
      above it, so a shed cohort does not return in lockstep;
    - [err unavailable] — a router bag group with no live replica
      ({!Nd_cluster}); same floored-and-jittered treatment, since the
      router is probing the group back to life in the background;
    - transport failures — EOF / reset / broken pipe mid-reply, a
      refused or missing socket (a supervisor mid-restart), or an
      unterminated reply: the request may not have executed, and the
      verbs' retry story covers the ambiguity (queries are pure;
      [update] replay is visible in the epoch).

    Never retried (fail fast):
    - [err user] — resending the same malformed line cannot succeed;
    - [err internal] — the engine's own invariants failed; retrying
      hides bugs;
    - [err shutting-down] — this connection is draining; reconnecting
      is a caller decision, not a transport retry;
    - [bye] / empty reply ([Closed]) — the server ended the session on
      purpose. *)
module Client : sig
  type transport = string -> string list
  (** Send one request line, return the full reply (data lines +
      terminator). *)

  type policy = {
    retries : int;  (** extra attempts after the first *)
    backoff_ms : int;  (** backoff cap before the first retry *)
    multiplier : float;  (** backoff growth per retry *)
    jitter : int -> int;
        (** maps each attempt's cap to the actual delay —
            {!Nd_util.Backoff.full_jitter} in production,
            {!Nd_util.Backoff.none} for deterministic tests *)
    sleep_ms : int -> unit;  (** injectable for tests *)
  }

  val default_policy : policy
  (** 3 retries, 50ms initial cap, doubling, full jitter, real sleep. *)

  type status =
    | Ok_reply
    | Err_reply of string * string  (** class, message *)
    | Transport_error of string
        (** the connection failed below the protocol: EOF/reset/broken
            pipe mid-reply, refused or missing socket, or an
            unterminated reply *)
    | Closed  (** terminator was [bye] (or the reply was empty) *)

  val status_of_reply : string list -> status

  val retry_after_of_msg : string -> int
  (** The [retry-after-ms=R] floor inside an [err overloaded] message
      (0 when absent or malformed). *)

  type result = {
    reply : string list;  (** the final attempt's reply *)
    attempts : int;
    status : status;
  }

  val call : ?policy:policy -> transport -> string -> result
  (** Run one request through the retry policy above.  On a transport
      exception the attempt's [reply] is [[]] and the status is
      {!Transport_error}. *)

  val channel_transport : in_channel -> out_channel -> transport
  (** Write the request, read lines until a terminator.  EOF before any
      line yields [[]] (status [Closed]); EOF mid-reply yields the
      partial reply (status {!Transport_error}, hence retried by
      {!call} on a fresh transport). *)

  type conn = {
    transport : transport;
    read_reply : float -> string list option;
        (** read one already-queued reply, waiting at most the given
            seconds for its first line ([None] when nothing arrives) —
            the resync primitive the router's connect handshake uses to
            absorb a garbage-injected extra reply (see DESIGN S16);
            connections that cannot be desynced may return [None]
            unconditionally *)
    close : unit -> unit;
  }

  val fd_conn : Unix.file_descr -> conn
  (** A buffered connection over a connected socket (see {!connect}):
      [transport] writes the request line and reads lines until a
      terminator, giving a reply at most 600 s.  EOF raises
      [End_of_file] and a stalled reply [Sys_error], which callers
      classify as transport failures.  It owns its read buffer, so
      [read_reply] sees bytes a channel would have hidden from
      select. *)

  type connect_policy = {
    connect_retries : int;  (** extra connect attempts after the first *)
    connect_backoff_ms : int;  (** backoff cap before the first retry *)
    connect_deadline_ms : int;  (** hard wall-clock bound on the whole dance *)
    connect_jitter : int -> int;
        (** {!Nd_util.Backoff.full_jitter} in production,
            {!Nd_util.Backoff.none} for deterministic tests *)
    connect_sleep_ms : int -> unit;  (** injectable for tests *)
    connect_now_ms : unit -> int;  (** injectable clock for tests *)
  }

  val default_connect_policy : connect_policy
  (** 8 retries, 20ms initial cap doubling to 1s, full jitter, 2s
      deadline, real sleep/clock. *)

  val connect :
    ?policy:connect_policy ->
    string ->
    (Unix.file_descr, string) Stdlib.result
  (** Connect to a Unix-domain server socket with bounded,
      backoff-scheduled retries under a deadline: a shard mid-restart
      (missing or refusing socket during a supervisor backoff window)
      is retried instead of failed instantly — and a shard that never
      comes up yields [Error] once the retry budget {e or} the deadline
      is exhausted, never an indefinite block.  Callers classify the
      [Error] as {!Transport_error} (the router does exactly that and
      moves on to the next replica). *)
end
