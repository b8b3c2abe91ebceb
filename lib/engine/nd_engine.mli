(** The query-engine façade: one handle owning the full paper pipeline.

    [prepare] runs the preprocessing of Theorem 2.3 — compilation into
    distance types, sentence evaluation, neighborhood cover and kernels,
    distance index, skip pointers — and returns a handle answering the
    paper's three query modes:

    - {!next}: smallest solution [≥ ā] (Theorem 2.3);
    - {!test}: membership of a tuple in [q(G)] (Corollary 2.4);
    - {!seq} / {!enumerate}: constant-delay enumeration in
      lexicographic order (Corollary 2.5).

    The handle also owns a solution cache: solutions discovered by
    sequential enumeration (and by [next] calls contiguous with the
    cached region) are appended to a packed bank of sorted rows, and
    later [next] / [test] calls that fall inside the cached region are
    served from it by binary search — [O(k·log c)] for [c] cached
    rows, charged to the [engine.cache_probes] ops counter — instead of
    re-running the live pipeline.  The cache maintains a lexicographic
    {e frontier}: every solution [≤ frontier] is cached, so answers
    inside the frontier are exact, and every insert lands past the
    last row, so the bank is only appended to and truncated.
    [cache_limit] caps the row count.  The cache is an engine add-on
    outside Theorem 2.3's constant-delay argument; the library's
    Theorem 3.1 store is reproduced on its own (DESIGN S9).

    With [~metrics:true], {!Nd_util.Metrics} is enabled and the
    pipeline's cost-model probes (register touches, scan steps,
    distance tests, phase timers, delay histograms) become observable
    through {!stats}. *)

type t

type degradation = [ `None | `Fallback of string | `Stale_rebuild of string ]
(** How the handle was built: [`None] means the full Theorem 2.3
    pipeline ran to completion; [`Fallback reason] means preprocessing
    exhausted its resource budget and the handle answers through the
    naive evaluator — {e still exact}, but without the constant-delay
    guarantee.  [`Stale_rebuild reason] means a mutation's dirty region
    exceeded the stale threshold and {!update} fell back to a full
    (budgeted) re-prepare — the handle is a first-class compiled handle
    ({!degraded} stays [false]); the rung records why the incremental
    path was abandoned. *)

val prepare :
  ?metrics:bool ->
  ?cache_limit:int ->
  ?budget:Nd_util.Budget.t ->
  ?paranoid:bool ->
  ?jobs:int ->
  Nd_graph.Cgraph.t ->
  Nd_logic.Fo.t ->
  t
(** [prepare g phi] preprocesses [g] for [phi] (any arity; sentences
    are handled by model checking, as in Theorem 5.3).

    [jobs] (default 1) fans the preprocessing's independent per-bag
    jobs out over that many domains ({!Nd_util.Pool}); the prepared
    structure, every answer it gives, and the deterministic ops
    counters are identical for every job count (DESIGN S14).  The
    worker domains live only for the duration of the build; later
    {!update} calls re-spawn them for their dirty set.
    @raise Invalid_argument when [jobs < 1].

    [metrics] (default false) enables the global {!Nd_util.Metrics}
    registry before preprocessing (it is never disabled here; the
    registry is shared and cumulative — call {!reset_metrics} first
    for a clean slate).  [cache_limit] (default 100_000) bounds the
    number of cached solutions; [0] disables the cache.

    [budget] governs {e preprocessing only}: it is installed as the
    ambient {!Nd_util.Budget} for the duration of the build, and if any
    ceiling trips, [prepare] does {e not} fail — it degrades to an
    exact fallback handle (see {!degradation}) whose construction is
    O(1).  The budget object records the exhausted phase
    ({!Nd_util.Budget.exhausted}), which {!stats} surfaces.  To bound
    the {e answering} phases as well, install a budget around the query
    calls ({!Nd_util.Budget.with_installed}); exhaustion there raises
    {!Nd_error.Budget_exceeded}.

    [paranoid] (default false) differentially re-checks a sample of
    emitted solutions (the first few, then every power-of-two-th)
    against the naive evaluator, raising
    {!Nd_error.Internal_invariant} on any disagreement.  The checks run
    outside any installed budget. *)

val degradation : t -> degradation

val degraded : t -> bool

(** {1 Handle accessors} *)

val graph : t -> Nd_graph.Cgraph.t
val query : t -> Nd_logic.Fo.t
val arity : t -> int

val jobs : t -> int
(** The job count the handle was prepared with (1 for loaded
    snapshots); {!update} reuses it for its dirty-set bag-jobs. *)

val compiled : t -> bool
(** Whether the top-level query lies in the compiled (guarded-local)
    fragment.  [false] for sentences and fallback queries — answers
    are still exact, via direct evaluation. *)

val compiled_levels : t -> bool array
(** Per arity level [1..k] of the projection tower (empty for
    sentences). *)

(** {1 Query modes} *)

val next : t -> int array -> int array option
(** [next t ā]: the smallest solution [≥ ā] (Theorem 2.3).  For a
    sentence pass [[||]].
    @raise Nd_error.User_error on arity mismatch or out-of-range
    vertex — uniformly, whatever the handle's kind (sentence, compiled,
    fallback, degraded). *)

val test : t -> int array -> bool
(** Corollary 2.4: is [ā ∈ q(G)]? *)

val first : t -> int array option

val holds : t -> bool
(** [q(G) ≠ ∅]; for a sentence, its truth value. *)

val seq : t -> int array Seq.t
(** Corollary 2.5: all solutions, lazily, in lexicographic order,
    without repetition.  A sentence yields [ [||] ] once iff it
    holds. *)

val enumerate : ?limit:int -> (int array -> unit) -> t -> unit

val to_list : ?limit:int -> t -> int array list

val count : t -> Nd_core.Count.result
(** [|q(G)|] without materializing solutions when the query's shape
    allows pseudo-linear counting (see {!Nd_core.Count}). *)

val count_enumerated : t -> int
(** [|q(G)|] by full enumeration (warms the solution cache). *)

(** {1 Incremental updates}

    The Theorem 3.1 store budgets [O(n^ε)] per update; these entry
    points extend that spirit to the whole pipeline.  A mutation is
    absorbed by {e bounded-scope maintenance}: only the structures
    rooted in the mutation's reach (its cover-radius neighborhood) are
    rebuilt — dist-index overrides, re-housed cover bags, dirty-bag
    kernels and label sets, bag-local tables — and only the cached
    solutions at or beyond the lex-least dirty tuple are evicted: one
    binary search and a truncation of the row bank (the frontier is
    pulled back just below it).  Every row an update drops is added to
    the [engine.cache_evicted] counter.  When the dirty fraction
    exceeds [stale_threshold], updating degenerates to a budgeted full
    re-prepare recorded as [`Stale_rebuild] (see {!degradation}). *)

val update : ?stale_threshold:float -> t -> Nd_graph.Cgraph.mutation -> unit
(** [update t mut] applies [mut] to the handle's graph
    ({!Nd_graph.Cgraph.apply} — existing readers of the old view stay
    valid) and maintains every layer so subsequent {!next}/{!test}/
    {!seq} answers are identical to a from-scratch [prepare] on the
    mutated graph.  [stale_threshold] (default 0.3) is the dirty
    fraction beyond which a full re-prepare is cheaper than patching.

    Sentence handles re-check the sentence; handles whose query carries
    sentence literals keep bounded structure maintenance but reset the
    whole solution cache (sentence truth has global reach); fallback
    (degraded) handles swap their evaluation context and reset the
    cache.

    @raise Nd_error.User_error on out-of-range vertices/colors or a
    self-loop. *)

val update_batch : ?stale_threshold:float -> t -> Nd_graph.Cgraph.mutation list -> unit
(** Absorb a journal of mutations in order (left to right). *)

val epoch : t -> int
(** The handle's graph epoch ({!Nd_graph.Cgraph.epoch}): number of
    mutations absorbed since the graph was built. *)

val default_stale_threshold : float

val use_skip : t -> bool -> unit
(** Ablation hook: with [false], Case I answering falls back to linear
    label-set scans instead of SKIP pointers.  No-op for sentences and
    fallback queries. *)

(** {1 Solution cache} *)

val cache_size : t -> int
(** Number of solutions currently held by the cache (its row count). *)

val cache_complete : t -> bool
(** The cache holds {e every} solution (a full enumeration finished
    within [cache_limit]); all further queries are served from it. *)

(** {1 Instrumentation} *)

val reset_metrics : unit -> unit
(** Zero the global {!Nd_util.Metrics} registry (counters, phase
    timers, histograms).  Affects all handles. *)

module Stats : sig
  type t = {
    n : int;
    m : int;
    colors : int;
    epoch : int;  (** mutations absorbed by the handle's graph *)
    updates : int;  (** [engine.updates] counter at snapshot time *)
    query : string;
    arity : int;
    compiled : bool;
    compiled_levels : bool list;
    metrics_enabled : bool;
    phases : (string * float) list;  (** cumulative seconds per phase *)
    counters : (string * int) list;
    ops : int;  (** the cost-model operation total, {!Nd_util.Metrics.ops} *)
    hists : (string * Nd_util.Metrics.hist_stats) list;
    solutions_emitted : int;
    max_delay_ops : int;
        (** largest observed ops-delta between consecutive outputs —
            the quantity Corollary 2.5 bounds (0 when metrics are
            off or nothing was enumerated) *)
    cache_size : int;
    cache_limit : int;
    cache_complete : bool;
    degraded : bool;
    degradation_mode : string;
        (** ["none"], ["fallback"] or ["stale_rebuild"] *)
    degradation_reason : string option;
    paranoid : bool;
    paranoid_checks : int;  (** differential re-checks performed so far *)
    budget_exhausted : Nd_error.budget_info option;
        (** the first ceiling the handle's budget crossed, naming the
            phase — [None] when no budget was given or it never
            tripped *)
  }

  val to_json : t -> string
  (** Single-line JSON object, schema ["nd-engine-stats/1"].
      Hand-rolled (no JSON dependency); strings are escaped. *)

  val pp : Format.formatter -> t -> unit
end

val stats : t -> Stats.t
(** Snapshot of the handle plus the {e global} metrics registry.
    Counter/phase/histogram sections reflect everything since the last
    {!reset_metrics}, and are empty when metrics were never enabled. *)

(** {1 Structure inspection}

    Read-only reports over the sub-structures the engine is built
    from, for the CLI's [cover] / [splitter] / [stats] commands and
    diagnostics.  These run independently of any {!t} handle. *)

module Inspect : sig
  type cover_report = {
    r : int;
    bags : int;
    degree : int;  (** max bags meeting at one vertex *)
    weight : int;  (** [Σ|X|] *)
    verified : (unit, string) result;
  }

  val cover : Nd_graph.Cgraph.t -> r:int -> cover_report
  (** Compute and certify an (r,2r)-neighborhood cover
      (Theorem 4.4). *)

  val splitter_rounds :
    ?max_rounds:int -> Nd_graph.Cgraph.t -> r:int -> int option
  (** Measured λ of the (λ,r)-splitter game (Definition 4.5) with the
      center strategy against the greedy adversary; [None] if Splitter
      does not win within [max_rounds] (default 64). *)

  type graph_report = {
    gn : int;
    gm : int;
    gcolors : int;
    degree_max : int;
    degree_median : int;
    wcol : (int * Nd_nowhere.Wcol.profile) list;
        (** weak r-accessibility profiles per radius *)
  }

  val graph_stats :
    ?wcol_radii:int list -> Nd_graph.Cgraph.t -> graph_report
  (** Sparsity statistics ([wcol_radii] defaults to [[1; 2]]). *)

  val unsafe_inject_stale_view : t -> Nd_graph.Cgraph.mutation -> unit
  (** Fault injection for the {!Nd_ram.Chaos.Stale_view} class
      (test/CI use only): mutate the handle's graph {e without} running
      any of {!update}'s maintenance, leaving the answering structures
      serving a stale view.  The handle is now {e lying}; the point is
      to prove detection — a [~paranoid:true] handle must raise
      [Nd_error.Internal_invariant] when an emitted tuple fails the
      differential re-check against the current graph.  Never call this
      outside a fault-injection harness. *)
end

(** {1 Persistence boundary}

    The seam between the engine and the on-disk snapshot codec
    ([Nd_snapshot]): {!Persist.export} detaches the preprocessing
    product of Theorem 2.3 from a live handle as an opaque, closure-free
    value the codec can marshal, {!Persist.export_image} exposes the
    solution cache's packed row bank for the codec to write as raw
    words, and {!Persist.import} reattaches both — after
    cross-checking the payload against the graph and query the caller
    expects and vetting every row, so a payload transplanted from a
    different snapshot (or presented with the wrong inputs) is rejected
    instead of silently answering for the wrong instance.  The engine
    knows nothing of files, versions or checksums; the codec knows
    nothing of the engine's internals. *)

module Persist : sig
  type payload
  (** The preprocessing product: the Next/Tester pipeline (carrying the
      graph once, by sharing) plus the query and the cache limit.
      Pure data — marshal-safe by construction. *)

  val export : t -> payload
  (** @raise Nd_error.User_error on a degraded handle: it holds no
      preprocessing product, only the naive fallback, so persisting it
      would snapshot nothing of value. *)

  type legacy_payload
  (** The payload as format 2 and 3 snapshots marshal it: the same
      fields plus the epsilon that sized the Theorem 3.1 store the
      cache used to live in.  Marshal reads records by field position,
      so those files must decode as this type. *)

  val of_legacy : legacy_payload -> payload
  (** Drops the epsilon. *)

  val to_legacy : epsilon:float -> payload -> legacy_payload

  (** {2 Row images}

      The cache's packed row bank, which a snapshot codec can write as
      raw words and later adopt — memory-mapped or copied — without
      rebuilding it key by key. *)

  type rows = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type row_image = {
    ri_k : int;  (** row width: the query's arity *)
    ri_len : int;  (** row count; row [i] is words [i·k, (i+1)·k) *)
    ri_rows : rows;  (** at least [ri_len · ri_k] words *)
    ri_frontier : Nd_util.Tuple.t option;
    ri_full : bool;
    ri_complete : bool;
    ri_limit : int;
  }

  val export_image : t -> row_image option
  (** The live cache state.  [None] for sentences, cache-disabled
      handles, or handles whose cache was never created.  The bank in
      the image is the handle's live bank — read-only use only. *)

  val import :
    graph:Nd_graph.Cgraph.t ->
    query:Nd_logic.Fo.t ->
    payload ->
    row_image option ->
    (t, string) result
  (** Rebuild a live handle, adopting the image's bank wholesale (later
      inserts write into it, or into a copy once it must grow).
      [Error] (never an exception) when the payload is internally
      inconsistent or does not belong to [graph]/[query], or when a row
      image is given and: its arity or cache limit differs from the
      payload's, the row count exceeds the limit, the full flag
      disagrees with the row count, a vertex lies outside the graph,
      the rows are not strictly increasing, the frontier is missing
      while rows exist or lies below the last row, the complete flag is
      set while the pipeline finds a solution past the frontier (one
      live [next] call), or the payload is a sentence.  The result has
      no budget and paranoid mode off; install either around
      subsequent calls as usual. *)

  (** {2 Key lists}

      Format 2 and 3 snapshots carry the cache as a marshalled key
      list; it is packed into a row image and then revived through
      {!import} like any other. *)

  type cache_payload

  val export_keys : t -> cache_payload option

  val image_of_keys : payload -> cache_payload -> (row_image option, string) result
  (** [Ok None] when the payload has caching disabled: its keys are
      dropped.  [Error] when a key has the wrong arity. *)
end
