(** Fault-tolerant shard-per-bag cluster serving: ownership, the k-way
    merge, and the epoch-fencing router.

    The paper's [(r,2r)]-neighborhood cover is a natural sharding key:
    every vertex has a {e home bag} containing its whole r-ball, so the
    solution space of a query partitions by the home bag of a tuple's
    first coordinate.  A fleet of shard workers — each an ordinary
    {!Nd_server} over its own prepared handle, answering only the
    solutions it owns (see {!Nd_server.config.ownership}) — therefore emits
    disjoint, strictly-ascending sub-streams of the single-node
    lexicographic solution order, and a router reconstitutes the exact
    single-node answer stream with a duplicate-free ascending k-way
    merge.  The constant-delay enumeration contract survives sharding
    because the merge is the same discipline the solution cache already
    uses.

    Fault tolerance is the point of the tier.  Replication rides on
    machinery earlier PRs built: snapshots are the replica bootstrap,
    the mutation journal is the replication log, graph {e epochs} are
    the consistency token.  The router fences on epochs — it never
    merges streams observed at different epochs — and degrades loudly
    ([err unavailable]) rather than silently returning partial answers.

    {2 Modules}

    - {!Ownership} — the deterministic vertex → shard map derived from
      the cover of the boot graph.
    - {!Merge} — the pure, pull-driven, duplicate-free ascending k-way
      merge (property-tested on its own).
    - {!Router} — the fleet front-end: same line protocol as
      {!Nd_server}, plus fencing, failover and replica lifecycle.

    {2 CLI grammar}

    The [fodb] entry points this library backs:

    {v
    fodb router -g SPEC -q QUERY --shards N --endpoint S:PATH ...
         [--socket PATH]
         [--probe-interval-ms N] [--no-fence] [--retry-after-ms N]
         [--max-enumerate K] [--event-log FILE]
    v}

    connects to already-running shard workers ([--endpoint S:PATH], one
    per replica, repeated; [S] is the shard id) and serves the merged
    line protocol on [--socket] (or stdio).  [SPEC]/[QUERY] must match
    the fleet's: the router re-derives the same {!Ownership} map from
    the same boot graph.

    {v
    fodb cluster -g SPEC -q QUERY --shards N [--replicas R] [--dir D]
         [--socket PATH] [--supervise] [--differential]
         [--mutations M] [--kill-replica S:R]
         [--probe-interval-ms N] [--no-fence]
         [--chaos-link S:R] [--chaos-garbage BYTES] [--chaos-chunk N]
         [--chaos-delay-ms N] [--chaos-cut-reply-after N]
         [--colors K] [--seed S] [--event-log FILE]
    v}

    launches the whole fleet locally: [N×R] shard worker processes
    (each [fodb serve --shard-index s --shard-count N], bootstrapped
    from a snapshot saved by the harness with a per-worker journal,
    optionally under [--supervise]), threads selected router↔shard
    links through an in-process {!Nd_ram.Chaos.Net} proxy
    ([--chaos-link S:R], profile from the [--chaos-*] flags), and runs
    the router over them.
    With [--differential] it instead enumerates the whole answer set
    through the router — after replicating [--mutations M] scripted
    mutations through it, and [kill -9]-ing the worker of replica
    [--kill-replica S:R] after the first merged page so the supervisor's
    bootstrap-from-snapshot + journal-replay path is on the answer path
    — compares byte-for-byte against a single-node engine on the same
    mutated graph, prints a verdict and exits non-zero on mismatch.

    {2 DESIGN}

    S16 in DESIGN.md walks the router state machine, the epoch-fence
    protocol, the failover ladder and the replica lifecycle
    (bootstrap → catch-up → in-rotation → fenced) in full. *)

(** The deterministic vertex → shard partition.

    Home bags of the [(r,2r)]-cover are dealt round-robin to shards
    ([bag mod shards]); a tuple is owned by the shard of its first
    coordinate's home bag, and the (unique) arity-0 solution by shard
    0.  Every process of the fleet — each worker and the router —
    computes the map independently from the {e boot} graph (the graph
    as loaded, before any journal replay or mutation), so the partition
    is identical fleet-wide and stable across restarts: mutations
    change answers, never ownership.  Totality and disjointness do not
    depend on cover quality, so the partition stays exact even as
    mutations degrade the cover's locality.

    Because ownership is by first coordinate only, both sides of a
    fan-out can skip: a shard that meets a foreign solution jumps to
    its next owned vertex ({!for_shard}), and the router asks the owner
    of a request's first coordinate before anyone else. *)
module Ownership : sig
  type t

  val compute : ?r:int -> Nd_graph.Cgraph.t -> shards:int -> t
  (** Cover the boot graph at radius [r] (default 1), deal home bags
      to [shards] round-robin, and precompute each shard's
      {!Nd_server.ownership} (one [(n+1)]-int array per shard).
      @raise Invalid_argument when [shards < 1] or [r < 1]. *)

  val shards : t -> int
  val n : t -> int  (** vertices of the boot graph *)

  val shard_of_vertex : t -> int -> int
  (** @raise Invalid_argument when the vertex is out of range. *)

  val shard_of_tuple : t -> int array -> int
  (** The owning shard: [shard_of_vertex] of the first coordinate; [0]
      for the empty tuple and for a first coordinate out of range (a
      tuple no engine accepts, so shard 0's engine rejects it). *)

  val for_shard : t -> shard:int -> Nd_server.ownership
  (** Shard [shard]'s slice, to install as
      {!Nd_server.config.ownership}: [next_owned v] is the smallest
      vertex [>= v] the shard owns, and [owns_empty] holds for shard 0
      only.
      @raise Invalid_argument when [shard] is out of range. *)

  val owner : t -> shard:int -> int array -> bool
  (** Membership in shard [shard]'s slice: [Nd_server.owns (for_shard t
      ~shard)]. *)
end

(** The duplicate-free ascending lexicographic k-way merge, pull-driven
    so the router can resume any stream after a failover.

    A {e stream} is addressed by [pull sh lb] — the smallest element of
    stream [sh] that is [>= lb], or [None] — which is exactly the
    shards' [next] verb.  Because [pull] is memoryless given the lower
    bound, the merge needs no per-stream state that could be lost in a
    failover: re-asking a different replica of the same shard with the
    same bound resumes the stream with no gap and no duplicate. *)
module Merge : sig
  val merge_pull :
    n:int ->
    k:int ->
    start:int array option ->
    shards:int ->
    pull:(int -> int array -> int array option) ->
    int array list * int array option
  (** [merge_pull ~n ~k ~start ~shards ~pull] is [(page, next)]: up to
      [k] elements of the merged stream from lower bound [start]
      ([None] = already exhausted), in strictly ascending lexicographic
      order with cross-stream duplicates emitted once, and the lower
      bound the next page resumes from ([None] = exhausted).  [n] is
      the vertex count (for {!Nd_util.Tuple.succ}).  Exceptions from
      [pull] propagate — the router uses that for its unavailable
      rung. *)
end

(** The router: the fleet's front-end, speaking the same one-line
    request / terminator-line reply protocol as {!Nd_server}.

    {2 Protocol}

    [next]/[test]/[enumerate]/[update]/[batch-update]/[epoch]/[reset]/
    [stats]/[metrics]/[health]/[quit], with single-node reply shapes —
    a client cannot tell a router from a shard except through [health]
    and [stats].  Two differences:

    - [err unavailable rid=<n> span=<s> shard=<id> retry-after-ms=<n> …]
      is the degradation rung: the request needed shard [<id>] and no
      replica of it could be used at the fleet epoch.  Loud, structured
      and retry-able — never a silently partial answer.
    - [health] summarizes the fleet:
      [health ok shards=N replicas=N live=N fenced=N epoch=N
      requests=N ok=N user=N unavailable=N failovers=N
      fence_refusals=N catchups=N probes=N].

    [stats] replies with one [nd-router-stats/1] JSON line mirroring
    {!stats}; [metrics] replies with the {e aggregated fleet
    exposition} (see {!scrape_metrics}) rather than just the router's
    own registry.

    {2 Trace propagation}

    Request lines accept the same optional trailing
    [trace=<trace_id>:<parent_span>] attribute as {!Nd_server} (same
    grammar, same [err user] on a malformed token).  Each request runs
    inside a [router.request] span; every upstream call (fan-out pulls,
    fence probes, catch-up replays, failover retries, metric scrapes)
    is a [router.call] child span, and when tracing is enabled the
    outgoing request is stamped with the router's own trace context —
    so a worker's [server.request] span re-parents under the router's
    [router.call] in the merged timeline ({!Nd_obs.Merge}).  Error
    replies and event-log rows carry the [router.request] span id as
    their [span] join key.

    {2 Epoch fencing}

    The fleet epoch is the router's count of mutations it has applied
    (initialized from the fleet's maximum at first contact).  Before a
    replica contributes to any reply, the router probes its [epoch]
    (once per request per replica — requests are serialized, so the
    epoch cannot move under a request) and refuses the replica unless
    it matches: a lagging replica is {e fenced} (dropped from
    rotation, [fence_refusals] incremented, an event-log row written)
    and caught up by replaying the missing journal suffix via
    [batch-update]; it is readmitted only once its epoch equals the
    fleet's.  A replica {e ahead} of the fleet (mutated behind the
    router's back) is fenced permanently.  Mixed-epoch merges are
    therefore impossible by construction, not by convention.

    {2 Failover ladder}

    Per request and per shard group, replicas are tried in order:
    fence-check, then the call.  Transport failures (connect exhaustion
    — see {!Nd_server.Client.connect} — reset, EOF mid-reply) drop the
    replica's connection, count a [failover], and move to the next
    replica; [err overloaded] sleeps the advertised floor with full
    jitter and moves on; [err user]/[err budget]/[err internal] are
    deterministic verdicts and pass through to the client.  When the
    ladder exhausts a group, the reply is [err unavailable] with
    [retry-after-ms] — and the probe timer keeps working to bring the
    group back.

    {2 Updates}

    Mutations are applied to a leader replica first (any usable one);
    only after the leader accepts is the mutation fanned to every other
    replica, journaled (the catch-up log) and the fleet epoch advanced,
    so a rejected mutation changes nothing anywhere.  Followers that
    miss the fan-out are fenced and caught up later.

    {2 The shared loop}

    The request envelope and the transport are {!Nd_server}'s
    ({!Nd_server.handle_with}, {!Nd_server.serve_with},
    {!Nd_server.serve_socket_with}), run with the router's {!service}
    and registry name ["router"]: rids, the [router.request] span,
    error mapping, the [router.request_us] histogram and event rows,
    then the socket hygiene ([err user … max-line-bytes=65536] and a
    close for an oversized line), the backlog drain
    ([err shutting-down rid=0 span=0 router is draining] + [bye]) and
    stop-then-join.  The socket transport returns only after every
    connection thread has been joined, so no merge is mid-pull when
    a caller stops the shards.

    What stays router-only is the fan-out: ownership routing and the
    k-way merge, leader-first replication, fencing, catch-up and
    probes, and the [stats], [health] and [metrics] verbs.  Router
    errors are one {!Nd_server.reply_error}: [err unavailable] carries
    its shard (logged as the event row's ["shard"]), a shard's
    user/budget/internal verdict is relayed under its own class with
    the shard's [rid=]/[span=] keys replaced by the router's.

    {!request_stop} makes new requests answer [err shutting-down] and
    ends the serving loops and the probe timer. *)
module Router : sig
  type conn = Nd_server.Client.conn = {
    transport : Nd_server.Client.transport;
    read_reply : float -> string list option;
    close : unit -> unit;
  }
  (** One replica connection; see {!Nd_server.Client.conn}. *)

  type endpoint
  (** One replica: a shard id plus a way to (re)connect to it. *)

  val endpoint :
    shard:int ->
    label:string ->
    (unit -> (conn, string) Stdlib.result) ->
    endpoint
  (** A custom endpoint; [label] names it in events and stats. *)

  val socket_endpoint :
    ?connect:Nd_server.Client.connect_policy -> shard:int -> string -> endpoint
  (** A worker behind a Unix-domain socket path, dialed with
      {!Nd_server.Client.connect} (bounded, backoff-scheduled) and
      spoken to through {!Nd_server.Client.fd_conn}. *)

  val local_endpoint : shard:int -> label:string -> Nd_server.t -> endpoint
  (** An in-process worker: each connect opens a fresh
      {!Nd_server.session} — the deterministic fixture tests and the
      bench build fleets from. *)

  type config = {
    fence : bool;
        (** per-request epoch fencing (default [true]; the bench's
            probe-overhead arm turns it off to price it) *)
    probe_interval_ms : int;
        (** background health/epoch probe period; [0] (default in
            tests) disables the timer — {!probe} can always be called
            directly *)
    retries : int;  (** extra failover passes over a group's ladder *)
    backoff_ms : int;  (** backoff cap before the first retry *)
    jitter : int -> int;  (** {!Nd_util.Backoff.full_jitter} or [none] *)
    sleep_ms : int -> unit;  (** injectable for tests *)
    retry_after_ms : int;  (** floor advertised in [err unavailable] *)
    max_enumerate : int;  (** page-size cap/default, as in {!Nd_server} *)
    event_log : (string -> unit) option;
        (** JSONL sink; same row shape as {!Nd_server}'s ([ts_us]
            microsecond timestamps, [span] carrying the
            [router.request] span id), plus a ["shard"] attribute on
            shard-scoped rows and the router-only statuses
            ["unavailable"]/["fenced"], and lifecycle rows with [cmd]
            ["(fence)"], ["(catchup)"], ["(failover)"], ["(probe)"] *)
  }

  val default_config : config

  type t

  val create :
    ?config:config -> ownership:Ownership.t -> arity:int -> endpoint list -> t
  (** @raise Invalid_argument when some shard in
      [0 .. Ownership.shards - 1] has no endpoint, an endpoint names a
      shard out of range, or [arity]/[max_enumerate]/[retry_after_ms]
      is out of range. *)

  val session : t -> t
  (** Fresh enumeration cursor and quit flag, everything else shared —
      one per client connection, as in {!Nd_server.session}. *)

  val handle : t -> string -> string list
  (** Process one request line; never raises.
      [Nd_server.handle_with service]: the server's envelope, so the
      contract is {!Nd_server.handle}'s. *)

  val probe : t -> unit
  (** One probe round: [health] every replica, record epoch and mode,
      fence lagging replicas, attempt catch-up, readmit at the fleet
      epoch.  The probe timer calls this; exposed for deterministic
      tests and for the catch-up bench. *)

  val start_probes : t -> Thread.t option
  (** Start the probe timer ([None] when [probe_interval_ms = 0]); the
      thread exits after {!request_stop}. *)

  val quitting : t -> bool
  val request_stop : t -> unit

  val service : t Nd_server.service
  (** The router's verbs for the shared loop: [fodb router] and [fodb
      cluster] serve with [Nd_server.serve_with service] (stdio) or
      [Nd_server.serve_socket_with service] (socket), under the
      server's default hygiene limits (64 KiB request lines, no
      timeouts, no caps). *)

  val scrape_metrics : t -> string
  (** The aggregated fleet exposition: the router's own process
      registry, fleet-derived gauges ([nd_fleet_epoch],
      [nd_fleet_live_replicas], [nd_fleet_fenced_replicas]), the
      per-shard merge-pull latency histogram ([nd_router_pull_us]) and
      every live replica's scrape re-labelled with [shard]/[replica],
      merged into one valid document ({!Nd_obs.Prom.merge}).  Takes
      the router lock; the [metrics] protocol verb replies with the
      same document.  Fenced or unreachable replicas are omitted. *)

  type stats = {
    requests : int;
    ok : int;
    user_errors : int;
    unavailable : int;  (** requests refused with [err unavailable] *)
    failovers : int;  (** replica-to-replica transport failovers *)
    fence_refusals : int;  (** lagging replicas refused a merge *)
    catchups : int;  (** journal-replay catch-ups that readmitted *)
    probes : int;  (** replica probes performed *)
    fleet_epoch : int;  (** [-1] until first contact *)
    live : int;
    fenced : int;
  }

  val stats : t -> stats

  val replica_states : t -> (int * string * string) list
  (** [(shard, label, state)] per replica; [state] is ["live"] or
      ["fenced: <reason>"].  For tests and the harness's summary. *)
end
