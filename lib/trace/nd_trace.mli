(** Low-overhead span tracing and metrics exposition.

    The paper's headline claims are {e shape} claims — pseudo-linear
    preprocessing (Theorem 2.3) and constant delay between answers
    (Corollary 2.5) — and {!Nd_util.Metrics} only aggregates them into
    after-the-fact totals.  This module makes the shape observable {e
    per event}:

    - {e spans}: [with_span name f] records a nested, wall-clocked,
      ops-metered interval.  The hot layers (prepare phases, [next]
      calls, store updates, snapshot sections, server requests) are
      pre-threaded with spans; with tracing disabled every probe is a
      single load-and-branch, and the cost-model ops clock is never
      advanced by the tracer itself (the [TR] bench row gates this at a
      2% ops delta, like the [ER] budget-probe row).
    - {e Chrome trace export}: the recorded spans serialize to the
      Chrome trace-event JSON format, loadable in Perfetto / [chrome://
      tracing], so "where does preprocessing time go" is a flame chart,
      not a guess.
    - {e Prometheus exposition} ({!Prometheus}): the whole
      {!Nd_util.Metrics} registry rendered in the Prometheus text
      format, with explicit bucket boundaries for the delay histograms
      — the scrape face of the constant-delay contract.

    Completed spans live in a bounded ring buffer: overflow drops the
    {e oldest} spans first and counts the loss (visible as
    [trace.dropped] in the metrics registry and via {!dropped}), so a
    long session keeps the recent past at a fixed memory ceiling.

    Timestamps are microseconds on a clock forced to be monotonically
    non-decreasing within each domain (wall readings that step
    backwards are clamped), which is what the trace viewers require.

    The tracer is domain-safe: open-span stacks are per domain (nesting
    follows each domain's own dynamic call structure — a parallel
    bag-job's spans parent onto each other, never across domains), span
    ids come from one process-wide atomic, and the completed-span ring
    is lock-protected.  Each span records the domain it ran on, which
    becomes its timeline lane ([tid]) in the Chrome export. *)

(** {1 The tracer} *)

type span = {
  sid : int;  (** unique within the process, 1-based *)
  parent : int;  (** enclosing span id, [0] for roots *)
  name : string;
  attrs : (string * string) list;
  ts_us : int;  (** start, monotonic microseconds *)
  dur_us : int;  (** always [>= 0] *)
  ops : int;
      (** {!Nd_util.Metrics.ops} advance during the span — the span's
          cost in the machine model (0 when metrics are disabled) *)
  dom : int;  (** id of the domain the span ran on (0 = main) *)
}

val enable : ?capacity:int -> unit -> unit
(** Switch tracing on.  [capacity] bounds the completed-span ring
    buffer (default {!default_capacity}; at least 1); re-enabling with a
    different capacity clears recorded spans.
    @raise Invalid_argument on a non-positive capacity. *)

val disable : unit -> unit
(** Switch tracing off.  Recorded spans are kept (export still works);
    spans open at disable time complete as no-ops. *)

val enabled : unit -> bool

val default_capacity : int

val clear : unit -> unit
(** Drop all recorded spans and the dropped-count, keep the enabled
    state and capacity. *)

val with_span : string -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a new span.  Nesting follows the
    dynamic call structure: spans close in LIFO order, and a span's
    parent is whatever span was open at its start.  Exception-safe (the
    span is recorded even when [f] raises).  When tracing is disabled
    this is exactly one branch plus the call to [f]. *)

val phase : string -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
(** [with_span] {e and} {!Nd_util.Metrics.phase} under the same name —
    the instrumentation the preprocessing phases use, so each phase
    shows up both as a cumulative timer and as individual spans. *)

val current_span_id : unit -> int
(** Id of the innermost open span, [0] when none is open or tracing is
    disabled.  Servers put this in error replies and event logs so a
    failing request can be joined to its trace. *)

val dropped : unit -> int
(** Spans evicted from the ring since the last {!clear}/{!enable}.
    Mirrored into the metrics registry as the [trace.dropped] counter
    (when metrics are enabled). *)

val spans : unit -> span list
(** Completed spans still in the ring, oldest first. *)

(** {1 Process trace identity}

    Cross-process correlation needs a stable name for "the span ids of
    this process": every exported shard carries the process's {e trace
    id}, and every propagated [trace=<id>:<span>] request attribute
    (see {!Nd_server}) names the originating process by it, so
    [fodb obs merge-trace] can resolve a remote parent reference back
    to the shard that owns the span. *)

val trace_id : unit -> string
(** This process's trace id.  Defaults to a pid+start-time derived
    string on first use; stable for the life of the process. *)

val set_trace_id : string -> unit
(** Override the trace id (harnesses give fleet members readable names
    like [router] or [w-0-1]).
    @raise Invalid_argument unless the id is non-empty [A-Za-z0-9._-]+
    (the charset the [trace=] request attribute admits). *)

(** {1 Chrome trace-event export} *)

val export_chrome : unit -> string
(** The recorded spans as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}], complete ["X"] events carrying [sid],
    [parent], [ops] and the user attrs in [args]).  The top level also
    carries a [process] member ([{"trace_id": ..., "pid": ...}]) naming
    the exporting process — the join key [fodb obs merge-trace] uses to
    stitch per-process shards; viewers and {!validate_chrome} ignore
    it.  Loadable in Perfetto. *)

val save_chrome : path:string -> int
(** Write {!export_chrome} to [path] (atomically via temp + rename);
    returns the number of exported spans. *)

val validate_chrome : string -> (int, string) result
(** Structural validator used by tests and CI: the string must parse as
    JSON, carry a non-empty [traceEvents] array of complete events with
    non-negative [ts]/[dur], and every child span still in the export
    must be contained in its parent's interval.  Returns the event
    count. *)

(** {1 Minimal JSON reader and string escaper}

    Just enough JSON to parse back what this repo emits (trace exports,
    stats records, profile reports, JSONL event logs, bench results) in
    tests and validators, and the one string escaper every emitter
    uses; not a general-purpose parser. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** Whole-string parse; [Error] carries a byte position. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj], [None] otherwise. *)

  val escape : string -> string
  (** The body of a JSON string literal for [s] (quotes not included):
      ['"'], ['\\'], newline, CR and tab get their short escapes, the
      other control bytes [\u00XX], every other byte passes through.
      The repo's one JSON string writer; {!parse} reads every result
      back to [s]. *)
end

(** {1 Prometheus text exposition} *)
module Prometheus : sig
  val render : Nd_util.Metrics.snapshot -> string
  (** The registry snapshot in the Prometheus text format (version
      0.0.4): every counter as [nd_<name>] (dots become underscores)
      with [# HELP]/[# TYPE] lines, phase timers as the
      [nd_phase_seconds_total{phase="..."}] family, histograms as
      native Prometheus histograms with explicit power-of-two bucket
      boundaries ending at {!Nd_util.Metrics.hist_clamp}, and the ops
      clock as [nd_ops_total].  Zero-valued registrations are rendered
      too, so scrapes stay monotonic across {!Nd_util.Metrics.reset}. *)

  val render_current : unit -> string
  (** [render (Nd_util.Metrics.snapshot ())]. *)

  val escape_label : string -> string
  (** A label value's escaped form (['"'], ['\\'] and newline). *)

  val bucket_bounds : int array
  (** The [le] upper bounds every histogram renders: [0] and the powers
      of two up to {!Nd_util.Metrics.hist_clamp}. *)

  val validate : string -> (int, string) result
  (** Line-format validator used by tests and CI: HELP/TYPE lines
      precede their samples, metric names are well-formed, label lists
      parse as [k="v",…] (escapes included), histogram buckets are
      cumulative (monotone non-decreasing), end in a [+Inf] bucket
      equal to [_count], and every histogram carries [_sum] and
      [_count] — all checked {e per series} (one (family, labels minus
      [le]) combination), so the fleet-aggregated exposition with its
      [shard]/[replica] labels (see {!Nd_obs}) validates under the same
      rules as a single process's scrape.  Returns the number of metric
      families. *)
end
