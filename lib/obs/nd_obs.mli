(** Fleet-wide observability: cross-process trace propagation, the
    merged timeline, aggregated Prometheus, and the crash flight
    recorder.

    PR 4 gave one process spans, a Chrome export and a Prometheus
    scrape; PRs 6–8 turned the system into a fleet where each process's
    telemetry is an island.  This module is the glue that makes the
    fleet observable as one system, in three pillars (DESIGN S17):

    - {e trace-context propagation} ({!Ctx}): the line protocol's
      optional trailing [trace=<trace_id>:<parent_span>] request
      attribute.  The router stamps every fan-out with its own span id;
      a worker opens its [server.request] span as a child of the
      propagated parent (recorded as [ctx.trace]/[ctx.span] span
      attrs); {!Merge} resolves the references across process
      boundaries.
    - {e fleet metrics aggregation} ({!Prom}, {!Lhist}): re-label each
      replica's exposition with [shard]/[replica], merge family blocks
      (one HELP/TYPE per family), and add fleet-level derived gauges
      and per-shard histograms.
    - {e crash flight recorder} ({!Flight}): a bounded ring of a
      worker's last N request events, mirrored to an append-only file
      so an abnormal exit ([kill -9] included) leaves the recent past
      on disk for the supervisor to harvest into a post-mortem.

    The module is deliberately engine-free (depends only on
    {!Nd_util} and {!Nd_trace}); {!Nd_server} and {!Nd_cluster} thread
    it through the serving tier. *)

val now_us : unit -> int
(** Wall-clock microseconds ([gettimeofday] scaled) — the timestamp
    base of event-log rows and post-mortems. *)

(** The [trace=<trace_id>:<parent_span>] request attribute.

    Grammar: the {e last} whitespace-separated token of a request line,
    [trace=] followed by a non-empty trace id over [A-Za-z0-9._-] and a
    [:]-separated non-negative decimal span id.  A malformed token is a
    structured [err user] naming the attribute — never a protocol
    desync (the line is still consumed, the reply still terminated). *)
module Ctx : sig
  type t = { trace_id : string; span : int }

  val encode : t -> string
  (** [trace=<id>:<span>]. *)

  val parse : string -> (t, string) result
  (** Parse one [trace=…] token; [Error] is the human reason embedded
      in the [err user] reply. *)

  val attrs : t -> (string * string) list
  (** The span attributes ([ctx.trace], [ctx.span]) a server attaches
      to its [server.request] span so {!Merge} can re-parent it. *)

  val split_line : string -> string * (t, string) result option
  (** Split a request line into the base request and, when its last
      token starts with [trace=], that token's parse.  [None]: no
      trace attribute present. *)

  val stamp : string -> t -> string
  (** Append an encoded context to an outgoing request line. *)
end

(** Stitching per-process Chrome trace shards into one cross-process
    timeline.

    Every process exports its own shard ({!Nd_trace.save_chrome}) whose
    top-level [process] member names its trace id.  [merge] remaps each
    shard's span ids into one global namespace (pid = shard index + 1,
    tids preserved as in-process lanes), then resolves every root
    span's [ctx.trace]/[ctx.span] attrs against the other shards:
    a resolved reference re-parents the span across the process
    boundary; an unresolved one (evicted parent, missing shard) is
    {e flagged} with a [ctx.orphan] arg, never dropped. *)
module Merge : sig
  type report = {
    r_processes : int;
    r_events : int;
    r_linked : int;  (** cross-process parent references resolved *)
    r_orphans : int;  (** references flagged [ctx.orphan] *)
  }

  val merge : string list -> (string * report, string) result
  (** [merge docs] is the merged Chrome document plus the link report.
      Shards must carry distinct trace ids. *)

  type verdict = {
    v_processes : int;
    v_events : int;
    v_server_requests : int;
        (** [server.request] spans whose propagated context resolved *)
    v_contained : int;
        (** of those, spans whose parent chain reaches a
            [router.request] span; the rest must reach another
            router-side root ([router.probe], [router.catchup]) or
            [validate] errors *)
    v_orphans : int;  (** events flagged [ctx.orphan] *)
  }

  val default_slack_us : float
  (** Containment slack across process boundaries (500us): processes
      share a wall clock but clamp it monotonically per domain. *)

  val validate : ?slack_us:float -> string -> (verdict, string) result
  (** Validate a merged document: complete events only, containment on
      every resolved parent edge within [slack_us], and the fleet
      acceptance rule — every resolved propagated [server.request]
      span must reach a router-side ancestor ([router.request] for
      query traffic, counted in [v_contained]; [router.probe] /
      [router.catchup] for the router's own timers).  Orphan-flagged
      events (parent evicted from a bounded ring upstream) are
      tolerated and counted, never dropped. *)
end

(** Aggregating Prometheus text expositions across the fleet. *)
module Prom : sig
  val relabel : labels:(string * string) list -> string -> string
  (** Insert [labels] at the front of every sample line's label list
      (creating one on unlabelled samples); HELP/TYPE lines pass
      through.  This is how a replica's scrape gains its
      [shard]/[replica] identity. *)

  val merge : string list -> string
  (** Merge expositions: one HELP/TYPE block per family (first seen
      wins — required, since per-family TYPE must be unique), with
      every source's samples grouped under it, in first-seen family
      order. *)

  val gauge : name:string -> help:string -> int -> string
  (** A one-sample gauge family block (fleet-derived values like
      [nd_fleet_epoch]). *)
end

(** Caller-synchronized labelled histograms — the per-shard merge-pull
    latency families the router adds to the aggregated exposition.
    Buckets are {!Nd_trace.Prometheus.bucket_bounds}, the ladder every
    histogram renders with (0, 1, 2, … up to
    {!Nd_util.Metrics.hist_clamp}); observations saturate into the top
    bucket.  Not internally locked: the router observes and renders
    under its own request lock. *)
module Lhist : sig
  type t

  val create : name:string -> help:string -> label:string -> unit -> t
  (** [label] is the key each series is distinguished by (["shard"]). *)

  val observe : t -> label:string -> int -> unit
  val render : t -> string
  (** The full family block; [""] when no series has been observed. *)
end

(** The crash flight recorder: a bounded ring of JSONL event lines,
    mirrored to an append-only file so the last N events survive
    [kill -9].  The file is compacted (rewritten to the ring contents
    via tmp + rename) when it grows past 8x capacity, so it stays
    bounded too.

    Lifecycle under [fodb serve --blackbox DIR --supervise]: the worker
    records a [(boot)] row (with its post-replay epoch) and then one
    row per handled request; on an abnormal exit the supervisor
    {!harvest}s the file, writes a post-mortem (crash cause, restart
    decision, last recorded epoch, the harvested rows) and
    {!truncate}s the flight file so the restarted worker's [(boot)]
    row starts a fresh recording. *)
module Flight : sig
  type t

  val default_capacity : int
  (** 256 events. *)

  val create : ?capacity:int -> ?path:string -> unit -> t
  (** [path]: mirror every event to this append-only file (opened in
      append mode — an existing recording is continued, not clobbered).
      Without it the ring is memory-only (tests).
      @raise Invalid_argument on a non-positive capacity. *)

  val record : t -> string -> unit
  (** Append one event line (a complete JSON object, no newline).
      Evicts the oldest ring entry past capacity; flushes the mirror
      file per event so a [kill -9] loses at most the in-flight
      line. *)

  val events : t -> string list
  (** Ring contents, oldest first. *)

  val close : t -> unit

  val harvest : src:string -> capacity:int -> string list
  (** The last [capacity] lines of a (dead) worker's flight file;
      [[]] when the file is missing. *)

  val last_epoch : string list -> int option
  (** The ["epoch"] field of the last harvested row that carries one —
      the epoch the worker died at, which must equal the restarted
      worker's boot epoch once the journal replays. *)

  val write_postmortem :
    path:string ->
    cause:string ->
    decision:string ->
    last_epoch:int option ->
    events:string list ->
    unit
  (** Write the post-mortem JSONL (tmp + rename): a header row
      [{"kind":"postmortem","ts_us":…,"cause":…,"decision":…,
      "last_epoch":…,"events":N}] followed by the harvested rows
      verbatim. *)

  val truncate : string -> unit
  (** Empty a flight file (the supervisor, after harvesting). *)
end
