open Nd_util
open Nd_graph
open Nd_logic

(* Same histogram the direct Enumerate path observes into; the engine
   measures its own next-calls (cache-served or live) so both entry
   points report delay in the same unit. *)
let h_delay = Metrics.hist "enum.delay_ops"
let m_cache_hits = Metrics.counter "engine.cache_hits"
let m_cache_inserts = Metrics.counter "engine.cache_inserts"

(* Row comparisons of the cache's binary search, one [add] per lookup:
   machine work on the ops clock, so a cache-served call's delay is
   its O(k·log c) search. *)
let m_cache_probes = Metrics.counter ~ops:true "engine.cache_probes"

type rows = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The solution cache: [len] rows of [k] ints, strictly increasing in
   lexicographic order, packed into one growable bank (row [i] holds
   words [i·k, (i+1)·k)).  The frontier invariant below makes every
   insert land above the last row and every eviction a suffix, so the
   bank is only ever appended to and truncated. *)
type cache = {
  mutable rows : rows;
  mutable len : int;
  limit : int;
  frontier : Tuple.t;
      (* a fixed k-buffer, meaningful only when [frontier_set]; updated
         by blit so steady-state enumeration allocates nothing here.
         Invariant: every solution ≤ frontier is a row, and every row
         is ≤ frontier (no frontier, no rows). *)
  mutable frontier_set : bool;
  mutable full : bool;  (* limit reached: stop inserting, freeze frontier *)
  mutable complete : bool;  (* every solution is stored *)
}

type query_state = { nx : Nd_core.Next.t; cache : cache option }

type kind =
  | Sentence of Nd_core.Tester.t
  | Lazy_sentence of bool Lazy.t
      (* degraded k = 0 handle: model checking deferred to first use *)
  | Query of query_state

type degradation = [ `None | `Fallback of string | `Stale_rebuild of string ]

type t = {
  mutable g : Cgraph.t;
  phi : Fo.t;
  k : int;
  cache_limit : int;
  jobs : int;
  mutable kind : kind;
  mutable degradation : degradation;
  budget : Budget.t option;
  paranoid : bool;
  mutable emitted : int;
  mutable paranoid_checks : int;
}

let default_cache_limit = 100_000

(* Pools are with-scoped, never stored on the handle: a handle's
   lifetime is unbounded and domains are a scarce resource (the runtime
   caps them around 128), so each prepare/update spins its workers up
   and joins them before returning. *)
let with_jobs jobs f =
  if jobs > 1 then Pool.with_pool ~jobs (fun p -> f (Some p)) else f None

(* Run [f] with the ambient budget masked: paranoid cross-checks and
   degraded-handle construction are correctness machinery, not work the
   caller's budget should account (or abort). *)
let unbudgeted f =
  let prev = Budget.installed () in
  Budget.install None;
  Fun.protect ~finally:(fun () -> Budget.install prev) f

let new_rows words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words

let make_cache ~cache_limit g k =
  if cache_limit > 0 && Cgraph.n g > 0 then
    Some
      {
        rows = new_rows (k * min cache_limit 64);
        len = 0;
        limit = cache_limit;
        frontier = Array.make k 0;
        frontier_set = false;
        full = false;
        complete = false;
      }
  else None

let prepare ?(metrics = false) ?(cache_limit = default_cache_limit)
    ?budget ?(paranoid = false) ?(jobs = 1) g phi =
  if metrics then Metrics.enable ();
  if cache_limit < 0 then invalid_arg "Nd_engine.prepare: negative cache_limit";
  if jobs < 1 then invalid_arg "Nd_engine.prepare: jobs must be >= 1";
  let k = Fo.arity phi in
  let full_prepare pool () =
    Nd_trace.phase "engine.prepare" @@ fun () ->
    if k = 0 then Sentence (Nd_core.Tester.build g phi)
    else
      let nx = Nd_core.Next.build ?pool g phi in
      Query { nx; cache = make_cache ~cache_limit g k }
  in
  let kind, degradation =
    with_jobs jobs @@ fun pool ->
    match budget with
    | None -> (full_prepare pool (), `None)
    | Some b -> (
        match Budget.with_budget b (full_prepare pool) with
        | Ok kind -> (kind, `None)
        | Error info ->
            (* Preprocessing ran out of resources: degrade to an exact
               handle with no delay guarantees instead of failing.  The
               degraded construction is O(1) and runs unbudgeted. *)
            let reason = Nd_error.describe_budget info in
            let kind =
              unbudgeted @@ fun () ->
              if k = 0 then
                Lazy_sentence
                  (lazy (Nd_eval.Naive.model_check (Nd_eval.Naive.ctx g) phi))
              else
                let nx = Nd_core.Next.build_fallback g phi ~reason in
                Query { nx; cache = make_cache ~cache_limit g k }
            in
            (kind, `Fallback reason))
  in
  {
    g;
    phi;
    k;
    cache_limit;
    jobs;
    kind;
    degradation;
    budget;
    paranoid;
    emitted = 0;
    paranoid_checks = 0;
  }

let graph t = t.g
let query t = t.phi
let arity t = t.k
let jobs t = t.jobs

let degradation t = t.degradation

(* A stale-rebuild handle went through a full (possibly budgeted)
   re-prepare: it is a first-class compiled handle, not a degraded one.
   The rung records *why* the incremental path was abandoned. *)
let degraded t =
  match t.degradation with
  | `None | `Stale_rebuild _ -> false
  | `Fallback _ -> true

let epoch t = Cgraph.epoch t.g

let compiled_levels t =
  match t.kind with
  | Sentence _ | Lazy_sentence _ -> [||]
  | Query q -> Nd_core.Next.compiled_levels q.nx

let compiled t =
  match t.kind with
  | Sentence _ | Lazy_sentence _ -> false
  | Query q ->
      let lv = Nd_core.Next.compiled_levels q.nx in
      Array.length lv > 0 && lv.(Array.length lv - 1)

(* ---------------------------------------------------------------- *)
(* The solution cache.

   Soundness hinges on the frontier invariant: every solution ≤ the
   frontier is cached.  A live answer at query point [ā] may be
   inserted exactly when the invariant guarantees no uncached solution
   precedes it, i.e. when [ā ≤ frontier+1]: the result [s̄] is then the
   smallest solution ≥ ā, and every solution < ā is ≤ frontier, so
   after inserting [s̄] every solution ≤ s̄ is cached and the frontier
   advances to [s̄].  Sequential enumeration from the minimum tuple
   satisfies this at every step; random-access [next] calls benefit
   opportunistically.  A live answer is only consulted past the
   frontier, so [s̄] lies above every row: inserts are appends. *)

let cmp = Tuple.compare

(* Lexicographic comparison of row [i] against the k-tuple [a]. *)
let cmp_row (rows : rows) k i (a : Tuple.t) =
  let base = i * k in
  let rec go j =
    if j = k then 0
    else
      let x = rows.{base + j} in
      if x < a.(j) then -1 else if x > a.(j) then 1 else go (j + 1)
  in
  go 0

(* Index of the least row ≥ [a], or [c.len] when there is none: a
   binary search of at most ⌈log₂(len+1)⌉ row comparisons, charged to
   [engine.cache_probes] in one call. *)
let lower_bound k c a =
  let lo = ref 0 and hi = ref c.len and probes = ref 0 in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    incr probes;
    if cmp_row c.rows k mid a < 0 then lo := mid + 1 else hi := mid
  done;
  Metrics.add m_cache_probes !probes;
  !lo

let row_tuple k (rows : rows) i =
  Array.init k (fun j -> rows.{(i * k) + j})

(* O(1) amortised: the bank doubles (up to [limit] rows) when full. *)
let append_row k c sol =
  if c.len > 0 && cmp_row c.rows k (c.len - 1) sol >= 0 then
    Nd_error.invariantf
      "Nd_engine: cache insert %s is not above the last cached row %s"
      (Tuple.to_string sol)
      (Tuple.to_string (row_tuple k c.rows (c.len - 1)));
  let used = c.len * k in
  let cap = Bigarray.Array1.dim c.rows / k in
  if c.len >= cap then begin
    let bigger = new_rows (k * max (c.len + 1) (min c.limit (2 * cap))) in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub c.rows 0 used)
      (Bigarray.Array1.sub bigger 0 used);
    c.rows <- bigger
  end;
  Array.iteri (fun j v -> c.rows.{used + j} <- v) sol;
  c.len <- c.len + 1

let within_frontier c a =
  c.complete || (c.frontier_set && cmp a c.frontier <= 0)

let contiguous t c a =
  (not c.full) && (not c.complete)
  &&
  if not c.frontier_set then cmp a (Tuple.min t.k) = 0
  else
    let f = c.frontier in
    (
      cmp a f <= 0
      ||
      match Tuple.succ ~n:(Cgraph.n t.g) f with
      | Some sf -> cmp a sf <= 0
      | None -> false)

(* Record a live answer obtained at query point [a] (which must satisfy
   [contiguous]).  Runs outside the measured delay window: cache
   maintenance is bookkeeping, not answering cost. *)
let cache_record t c a r =
  if contiguous t c a then
    match r with
    | Some sol ->
        append_row t.k c sol;
        Metrics.incr m_cache_inserts;
        Array.blit sol 0 c.frontier 0 t.k;
        c.frontier_set <- true;
        (* a frontier at the maximum tuple covers the whole domain *)
        if Tuple.is_max ~n:(Cgraph.n t.g) sol then c.complete <- true;
        if c.len >= c.limit then c.full <- true
    | None -> c.complete <- true

(* Returns the answer plus the live query point, when the live pipeline
   was consulted (for cache recording by the caller).  Every row is
   ≤ frontier, so a row ≥ ā is the answer whenever ā is within it. *)
let next_query t q a =
  match q.cache with
  | Some c when within_frontier c a ->
      let i = lower_bound t.k c a in
      if i < c.len then begin
        Metrics.incr m_cache_hits;
        (Some (row_tuple t.k c.rows i), None)
      end
      else if c.complete then (None, None)
      else (
        (* no cached solution in [a, frontier]: resume live past it;
           [within_frontier] without [complete] implies the frontier
           buffer is set *)
        match Tuple.succ ~n:(Cgraph.n t.g) c.frontier with
        | None -> (None, None)
        | Some sf -> (Nd_core.Next.next_solution q.nx sf, Some sf))
  | _ -> (Nd_core.Next.next_solution q.nx a, Some a)

(* Every tuple entering the engine is validated here — identically for
   sentences, compiled queries and fallback/degraded handles — and a bad
   tuple is a caller mistake, not an internal failure: User_error. *)
let check_tuple t a =
  if Array.length a <> t.k then
    Nd_error.user_errorf "Nd_engine: tuple arity mismatch (query arity %d, got %d)"
      t.k (Array.length a);
  Array.iter
    (fun x ->
      if x < 0 || x >= Cgraph.n t.g then
        Nd_error.user_errorf "Nd_engine: vertex %d out of range [0, %d)" x
          (Cgraph.n t.g))
    a

(* Paranoid mode: differentially re-check a sample of emitted solutions
   against the naive evaluator.  A disagreement means the compiled
   pipeline (or a corrupted store) produced a wrong answer — an
   internal invariant violation, never a user error. *)
let paranoid_sample t sol =
  if t.paranoid then begin
    let i = t.emitted in
    if i < 4 || i land (i - 1) = 0 (* first few, then powers of two *) then begin
      t.paranoid_checks <- t.paranoid_checks + 1;
      let ok =
        unbudgeted @@ fun () ->
        Nd_eval.Naive.holds (Nd_eval.Naive.ctx t.g) t.phi sol
      in
      if not ok then
        Nd_error.invariantf
          "Nd_engine(paranoid): emitted tuple %s is not a solution of %s"
          (Tuple.to_string sol) (Fo.to_string t.phi)
    end
  end

let next t a =
  match t.kind with
  | Sentence ts ->
      check_tuple t a;
      if Nd_core.Tester.holds_sentence ts then Some [||] else None
  | Lazy_sentence v ->
      check_tuple t a;
      if Lazy.force v then Some [||] else None
  | Query q ->
      check_tuple t a;
      let observe = Metrics.enabled () in
      let before = if observe then Metrics.ops () else 0 in
      let r, live_at =
        Nd_trace.with_span "engine.next" (fun () -> next_query t q a)
      in
      if observe then Metrics.observe h_delay (Metrics.ops () - before);
      (match (q.cache, live_at) with
      | Some c, Some qp -> cache_record t c qp r
      | _ -> ());
      (match r with
      | Some sol ->
          paranoid_sample t sol;
          t.emitted <- t.emitted + 1
      | None -> ());
      r

let test t a =
  match t.kind with
  | Sentence ts ->
      check_tuple t a;
      Nd_core.Tester.holds_sentence ts
  | Lazy_sentence v ->
      check_tuple t a;
      Lazy.force v
  | Query q -> (
      check_tuple t a;
      match q.cache with
      | Some c when within_frontier c a ->
          Metrics.incr m_cache_hits;
          let i = lower_bound t.k c a in
          i < c.len && cmp_row c.rows t.k i a = 0
      | _ -> Nd_core.Next.test q.nx a)

let first t =
  match t.kind with
  | Sentence _ | Lazy_sentence _ -> next t [||]
  | Query _ -> if Cgraph.n t.g = 0 then None else next t (Tuple.min t.k)

let holds t = first t <> None

let seq t =
  match t.kind with
  | Sentence _ | Lazy_sentence _ ->
      fun () ->
        if holds t then Seq.Cons ([||], fun () -> Seq.Nil) else Seq.Nil
  | Query _ ->
      let n = Cgraph.n t.g in
      if n = 0 then Seq.empty
      else
        let rec from tup () =
          match tup with
          | None -> Seq.Nil
          | Some tup -> (
              match next t tup with
              | None -> Seq.Nil
              | Some sol -> Seq.Cons (sol, from (Tuple.succ ~n sol)))
        in
        from (Some (Tuple.min t.k))

let enumerate ?limit f t =
  let count = ref 0 in
  let rec go s =
    match limit with
    | Some l when !count >= l -> ()
    | _ -> (
        match s () with
        | Seq.Nil -> ()
        | Seq.Cons (sol, rest) ->
            incr count;
            f sol;
            go rest)
  in
  go (seq t)

let to_list ?limit t =
  let acc = ref [] in
  enumerate ?limit (fun sol -> acc := sol :: !acc) t;
  List.rev !acc

let count t = Nd_core.Count.count t.g t.phi

let count_enumerated t =
  let c = ref 0 in
  enumerate (fun _ -> incr c) t;
  !c

let use_skip t b =
  match t.kind with
  | Sentence _ | Lazy_sentence _ -> ()
  | Query q -> Nd_core.Answer.use_skip (Nd_core.Next.top q.nx) b

let cache_size t =
  match t.kind with
  | Query { cache = Some c; _ } -> c.len
  | _ -> 0

let cache_complete t =
  match t.kind with
  | Query { cache = Some c; _ } -> c.complete
  | _ -> false

let reset_metrics () = Metrics.reset ()

(* ---------------------------------------------------------------- *)
(* Incremental updates: absorb graph mutations without re-prepare.

   The bounded-maintenance argument: the compiled pipeline's answer on
   a tuple ā depends on the graph only within the cover radius R of
   ā's coordinates (distance atoms reach ≤ r ≤ R, local formulas are
   evaluated inside bags, and a bag's influence on any vertex it serves
   is ≤ R).  So a mutation at vertices T can only change answers on
   tuples with a coordinate in Reach = N_R(T) (taken in the old and the
   new graph) — every structure rooted outside Reach stays exact, and
   every cached solution strictly below the lex-least tuple meeting
   Reach stays exact too.  Sentence literals are the exception (their
   truth is global); handles carrying them keep bounded *structure*
   maintenance but drop the whole cache. *)

let m_updates = Metrics.counter "engine.updates"
let m_update_dirty = Metrics.counter "engine.update_dirty"
let m_stale_rebuilds = Metrics.counter "engine.stale_rebuilds"
let m_cache_evicted = Metrics.counter "engine.cache_evicted"

let default_stale_threshold = 0.3

let validate_mutation t mut =
  let n = Cgraph.n t.g in
  let chk v =
    if v < 0 || v >= n then
      Nd_error.user_errorf "Nd_engine.update: vertex %d out of range [0, %d)" v
        n
  in
  match mut with
  | Cgraph.Add_edge (u, v) | Cgraph.Remove_edge (u, v) ->
      chk u;
      chk v;
      if u = v then Nd_error.user_errorf "Nd_engine.update: self-loop %d" u
  | Cgraph.Set_color { color; vertex; _ } ->
      chk vertex;
      if color < 0 || color >= Cgraph.color_count t.g then
        Nd_error.user_errorf "Nd_engine.update: color %d out of range [0, %d)"
          color (Cgraph.color_count t.g)

(* Full re-prepare on the already-swapped graph: the stale-rebuild rung
   of the degradation ladder.  Budgeted like the original prepare; if
   even that is exhausted we fall one rung further, to `Fallback. *)
let stale_rebuild t reason =
  let full_prepare pool () =
    Nd_trace.phase "engine.prepare" @@ fun () ->
    if t.k = 0 then Sentence (Nd_core.Tester.build t.g t.phi)
    else
      let nx = Nd_core.Next.build ?pool t.g t.phi in
      Query { nx; cache = make_cache ~cache_limit:t.cache_limit t.g t.k }
  in
  Metrics.incr m_stale_rebuilds;
  with_jobs t.jobs @@ fun pool ->
  match t.budget with
  | None ->
      t.kind <- full_prepare pool ();
      t.degradation <- `Stale_rebuild reason
  | Some b -> (
      match Budget.with_budget b (full_prepare pool) with
      | Ok kind ->
          t.kind <- kind;
          t.degradation <- `Stale_rebuild reason
      | Error info ->
          let why = Nd_error.describe_budget info in
          let kind =
            unbudgeted @@ fun () ->
            if t.k = 0 then
              Lazy_sentence
                (lazy (Nd_eval.Naive.model_check (Nd_eval.Naive.ctx t.g) t.phi))
            else
              let nx = Nd_core.Next.build_fallback t.g t.phi ~reason:why in
              Query { nx; cache = make_cache ~cache_limit:t.cache_limit t.g t.k }
          in
          t.kind <- kind;
          t.degradation <- `Fallback why)

(* Clip the rows ≥ the lex-least tuple with a coordinate in the reach
   set — a truncation at its lower bound — and pull the frontier back
   just below it.  Rows strictly below have no coordinate in reach (any
   tuple containing one is ≥ [0;…;0;min reach]), so their solution
   status is untouched by the mutation and the frontier invariant
   survives. *)
let invalidate_cache t c reach_min =
  let dirty_first = Array.make t.k 0 in
  dirty_first.(t.k - 1) <- reach_min;
  c.len <- lower_bound t.k c dirty_first;
  (if c.frontier_set && cmp c.frontier dirty_first >= 0 then
     match Tuple.pred ~n:(Cgraph.n t.g) dirty_first with
     | Some p -> Array.blit p 0 c.frontier 0 t.k
     | None -> c.frontier_set <- false);
  (* the mutated region may hold solutions the cache has never seen *)
  c.complete <- false;
  c.full <- c.len >= c.limit

let reset_cache t q =
  t.kind <-
    Query
      {
        nx = q.nx;
        cache = make_cache ~cache_limit:t.cache_limit t.g t.k;
      }

let update ?(stale_threshold = default_stale_threshold) t mut =
  validate_mutation t mut;
  Nd_trace.phase "engine.update" @@ fun () ->
  Metrics.incr m_updates;
  let old_g = t.g in
  let g' = Cgraph.apply old_g mut in
  t.g <- g';
  let touched = Cgraph.mutation_vertices mut in
  (* every row the update drops — clipped, or discarded with the whole
     cache — counts as evicted, in one call *)
  let before = cache_size t in
  (match t.kind with
  | Sentence _ -> t.kind <- Sentence (Nd_core.Tester.build g' t.phi)
  | Lazy_sentence _ ->
      t.kind <-
        Lazy_sentence
          (lazy (Nd_eval.Naive.model_check (Nd_eval.Naive.ctx g') t.phi))
  | Query q -> (
      match Nd_core.Next.influence_radius q.nx with
      | None ->
          (* fallback pipeline: direct evaluation has global reach —
             swap its context and start the cache over *)
          Nd_core.Next.update q.nx g' ~touched;
          reset_cache t q
      | Some rr ->
          let reach =
            List.sort_uniq compare
              (List.concat_map
                 (fun v ->
                   Array.to_list (Bfs.ball old_g v ~radius:rr)
                   @ Array.to_list (Bfs.ball g' v ~radius:rr))
                 touched)
          in
          Metrics.add m_update_dirty (List.length reach);
          let n = Cgraph.n g' in
          if n > 0 && float_of_int (List.length reach) > stale_threshold *. float_of_int n
          then
            stale_rebuild t
              (Printf.sprintf
                 "dirty fraction %.2f exceeds stale threshold %.2f"
                 (float_of_int (List.length reach) /. float_of_int n)
                 stale_threshold)
          else begin
            (* a short-lived pool per update: the dirty set re-runs the
               same bag-jobs the prepare phase fanned out *)
            with_jobs t.jobs (fun pool ->
                Nd_core.Next.update ?pool q.nx g' ~touched);
            if Nd_core.Next.has_sentences q.nx then
              (* sentence truth is global: no bounded cache region *)
              reset_cache t q
            else
              match (q.cache, reach) with
              | Some c, w0 :: _ -> invalidate_cache t c w0
              | _ -> ()
          end));
  Metrics.add m_cache_evicted (before - cache_size t)

let update_batch ?stale_threshold t muts =
  List.iter (update ?stale_threshold t) muts

(* ---------------------------------------------------------------- *)

module Stats = struct
  type t = {
    n : int;
    m : int;
    colors : int;
    epoch : int;
    updates : int;
    query : string;
    arity : int;
    compiled : bool;
    compiled_levels : bool list;
    metrics_enabled : bool;
    phases : (string * float) list;
    counters : (string * int) list;
    ops : int;
    hists : (string * Metrics.hist_stats) list;
    solutions_emitted : int;
    max_delay_ops : int;
    cache_size : int;
    cache_limit : int;
    cache_complete : bool;
    degraded : bool;
    degradation_mode : string;
    degradation_reason : string option;
    paranoid : bool;
    paranoid_checks : int;
    budget_exhausted : Nd_error.budget_info option;
  }

  let jfloat f = Printf.sprintf "%.9g" f
  let jbool b = if b then "true" else "false"

  let jobj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ Nd_trace.Json.escape k ^ "\":" ^ v) fields)
    ^ "}"

  let jarr vs = "[" ^ String.concat "," vs ^ "]"

  let hist_json (h : Metrics.hist_stats) =
    jobj
      [
        ("count", string_of_int h.Metrics.count);
        ("max", string_of_int h.Metrics.max);
        ("mean", jfloat h.Metrics.mean);
        ("p50", string_of_int h.Metrics.p50);
        ("p95", string_of_int h.Metrics.p95);
        ("p99", string_of_int h.Metrics.p99);
      ]

  let to_json t =
    jobj
      [
        ("schema", "\"nd-engine-stats/1\"");
        ( "graph",
          jobj
            [
              ("n", string_of_int t.n);
              ("m", string_of_int t.m);
              ("colors", string_of_int t.colors);
              ("epoch", string_of_int t.epoch);
              ("updates", string_of_int t.updates);
            ] );
        ( "query",
          jobj
            [
              ("text", "\"" ^ Nd_trace.Json.escape t.query ^ "\"");
              ("arity", string_of_int t.arity);
              ("compiled", jbool t.compiled);
              ("levels", jarr (List.map jbool t.compiled_levels));
            ] );
        ("metrics_enabled", jbool t.metrics_enabled);
        ("phases_s", jobj (List.map (fun (k, v) -> (k, jfloat v)) t.phases));
        ( "counters",
          jobj (List.map (fun (k, v) -> (k, string_of_int v)) t.counters) );
        ("ops", string_of_int t.ops);
        ("hists", jobj (List.map (fun (k, h) -> (k, hist_json h)) t.hists));
        ( "enumeration",
          jobj
            [
              ("solutions_emitted", string_of_int t.solutions_emitted);
              ("max_delay_ops", string_of_int t.max_delay_ops);
            ] );
        ( "cache",
          jobj
            [
              ("size", string_of_int t.cache_size);
              ("limit", string_of_int t.cache_limit);
              ("complete", jbool t.cache_complete);
            ] );
        ( "degradation",
          jobj
            (("mode", "\"" ^ Nd_trace.Json.escape t.degradation_mode ^ "\"")
            ::
            (match t.degradation_reason with
            | Some r -> [ ("reason", "\"" ^ Nd_trace.Json.escape r ^ "\"") ]
            | None -> [])) );
        ( "paranoid",
          jobj
            [
              ("enabled", jbool t.paranoid);
              ("checks", string_of_int t.paranoid_checks);
            ] );
        ( "budget",
          match t.budget_exhausted with
          | None -> jobj [ ("exhausted", jbool false) ]
          | Some info ->
              jobj
                [
                  ("exhausted", jbool true);
                  ("phase", "\"" ^ Nd_trace.Json.escape info.Nd_error.phase ^ "\"");
                  ( "resource",
                    "\"" ^ Nd_error.resource_name info.Nd_error.resource ^ "\"" );
                  ("limit", string_of_int info.Nd_error.limit);
                  ("used", string_of_int info.Nd_error.used);
                ] );
      ]

  let pp ppf t =
    let open Format in
    fprintf ppf "graph: n=%d m=%d colors=%d@." t.n t.m t.colors;
    fprintf ppf "query: %s (arity %d, %s)@." t.query t.arity
      (if t.compiled then "compiled" else "fallback/sentence");
    if not t.metrics_enabled then
      fprintf ppf "metrics: disabled (pass ~metrics:true / --stats)@."
    else begin
      if t.phases <> [] then begin
        fprintf ppf "phases:@.";
        List.iter
          (fun (name, s) -> fprintf ppf "  %-24s %8.4fs@." name s)
          t.phases
      end;
      if t.counters <> [] then begin
        fprintf ppf "counters:@.";
        List.iter
          (fun (name, v) -> fprintf ppf "  %-24s %10d@." name v)
          t.counters
      end;
      fprintf ppf "ops total: %d@." t.ops;
      if t.hists <> [] then begin
        fprintf ppf "histograms (per call):@.";
        List.iter
          (fun (name, (h : Metrics.hist_stats)) ->
            fprintf ppf
              "  %-24s count=%d max=%d mean=%.1f p50=%d p95=%d p99=%d@." name
              h.Metrics.count h.Metrics.max h.Metrics.mean h.Metrics.p50
              h.Metrics.p95 h.Metrics.p99)
          t.hists
      end;
      fprintf ppf "enumeration: %d solutions emitted, max delay %d ops@."
        t.solutions_emitted t.max_delay_ops
    end;
    fprintf ppf "solution cache: %d keys%s (limit %d)@." t.cache_size
      (if t.cache_complete then ", complete" else "")
      t.cache_limit;
    (match t.degradation_reason with
    | Some r -> fprintf ppf "degradation: %s (%s)@." t.degradation_mode r
    | None -> ());
    if t.paranoid then
      fprintf ppf "paranoid: %d differential checks passed@." t.paranoid_checks;
    match t.budget_exhausted with
    | Some info -> fprintf ppf "budget: %s@." (Nd_error.describe_budget info)
    | None -> ()
end

let stats t : Stats.t =
  let hists = Metrics.hists () in
  let max_delay =
    match List.assoc_opt "enum.delay_ops" hists with
    | Some h -> h.Metrics.max
    | None -> 0
  in
  {
    Stats.n = Cgraph.n t.g;
    m = Cgraph.m t.g;
    colors = Cgraph.color_count t.g;
    epoch = Cgraph.epoch t.g;
    updates = Metrics.value m_updates;
    query = Fo.to_string t.phi;
    arity = t.k;
    compiled = compiled t;
    compiled_levels = Array.to_list (compiled_levels t);
    metrics_enabled = Metrics.enabled ();
    phases = Metrics.phases ();
    counters = Metrics.counters ();
    ops = Metrics.ops ();
    hists;
    solutions_emitted = t.emitted;
    max_delay_ops = max_delay;
    cache_size = cache_size t;
    cache_limit = t.cache_limit;
    cache_complete = cache_complete t;
    degraded = degraded t;
    degradation_mode =
      (match t.degradation with
      | `None -> "none"
      | `Fallback _ -> "fallback"
      | `Stale_rebuild _ -> "stale_rebuild");
    degradation_reason =
      (match t.degradation with
      | `None -> None
      | `Fallback r | `Stale_rebuild r -> Some r);
    paranoid = t.paranoid;
    paranoid_checks = t.paranoid_checks;
    budget_exhausted = Option.bind t.budget Budget.exhausted;
  }

(* ---------------------------------------------------------------- *)

module Inspect = struct
  module Cover = Nd_nowhere.Cover
  module Splitter = Nd_nowhere.Splitter
  module Wcol = Nd_nowhere.Wcol

  type cover_report = {
    r : int;
    bags : int;
    degree : int;
    weight : int;
    verified : (unit, string) result;
  }

  let cover g ~r =
    let c = Cover.compute g ~r in
    {
      r;
      bags = Cover.bag_count c;
      degree = Cover.degree c;
      weight = Cover.weight c;
      verified = Cover.verify g c;
    }

  let splitter_rounds ?(max_rounds = 64) g ~r =
    Splitter.measured_lambda g ~r ~max_rounds
      ~splitter:Splitter.splitter_center

  type graph_report = {
    gn : int;
    gm : int;
    gcolors : int;
    degree_max : int;
    degree_median : int;
    wcol : (int * Wcol.profile) list;
  }

  (* Chaos.Stale_view, provoked: swap the handle's graph without ANY
     maintenance, so the answering structures keep serving the old
     world.  Paranoid mode re-checks emitted tuples against the naive
     evaluator on [t.g] — the now-current graph — and must trip. *)
  let unsafe_inject_stale_view t mut = t.g <- Cgraph.apply t.g mut

  let graph_stats ?(wcol_radii = [ 1; 2 ]) g =
    let n = Cgraph.n g in
    let degs = Array.init n (Cgraph.degree g) in
    Array.sort compare degs;
    {
      gn = n;
      gm = Cgraph.m g;
      gcolors = Cgraph.color_count g;
      degree_max = (if n = 0 then 0 else degs.(n - 1));
      degree_median = (if n = 0 then 0 else degs.(n / 2));
      wcol = List.map (fun r -> (r, Wcol.profile g ~r)) wcol_radii;
    }
end

(* ---------------------------------------------------------------- *)
(* Persistence boundary.

   The snapshot codec (Nd_snapshot) must not see the engine's
   internals, and the engine must not know about files, checksums or
   corruption; [Persist] is the seam between them.  A payload is the
   closure-free preprocessing product (Next/Tester pipeline, which by
   marshal sharing carries the graph exactly once) plus the query.  The
   solution cache travels separately as its packed row bank (older
   formats: a plain key list, packed back into rows on the way in); it
   revives through [import], which vets the rows against the payload
   and the cache invariants before any of them serves an answer. *)

module Persist = struct
  type core = P_sentence of Nd_core.Tester.t | P_query of Nd_core.Next.t

  type payload = {
    p_g : Cgraph.t;
    p_phi : Fo.t;
    p_k : int;
    p_cache_limit : int;
    p_core : core;
  }

  (* The payload record of format 2 and 3 files, which also carried the
     epsilon that sized the cache's Theorem 3.1 store.  Marshal reads a
     record by field position, so those files decode as this type, and
     the epsilon is dropped on the way in. *)
  type legacy_payload = {
    l_g : Cgraph.t;
    l_phi : Fo.t;
    l_k : int;
    l_epsilon : float;
    l_cache_limit : int;
    l_core : core;
  }

  let of_legacy l =
    {
      p_g = l.l_g;
      p_phi = l.l_phi;
      p_k = l.l_k;
      p_cache_limit = l.l_cache_limit;
      p_core = l.l_core;
    }

  let to_legacy ~epsilon p =
    {
      l_g = p.p_g;
      l_phi = p.p_phi;
      l_k = p.p_k;
      l_epsilon = epsilon;
      l_cache_limit = p.p_cache_limit;
      l_core = p.p_core;
    }

  type cache_payload = {
    c_keys : Tuple.t array;  (* strictly increasing *)
    c_frontier : Tuple.t option;
    c_full : bool;
    c_complete : bool;
  }

  type nonrec rows = rows

  type row_image = {
    ri_k : int;
    ri_len : int;
    ri_rows : rows;
    ri_frontier : Tuple.t option;
    ri_full : bool;
    ri_complete : bool;
    ri_limit : int;
  }

  let export_image t =
    match t.kind with
    | Query { cache = Some c; _ } ->
        Some
          {
            ri_k = t.k;
            ri_len = c.len;
            ri_rows = c.rows;
            ri_frontier =
              (if c.frontier_set then Some (Array.copy c.frontier) else None);
            ri_full = c.full;
            ri_complete = c.complete;
            ri_limit = c.limit;
          }
    | _ -> None

  let export_keys t =
    Option.map
      (fun img ->
        {
          c_keys = Array.init img.ri_len (row_tuple t.k img.ri_rows);
          c_frontier = img.ri_frontier;
          c_full = img.ri_full;
          c_complete = img.ri_complete;
        })
      (export_image t)

  let export t =
    (match t.degradation with
    | `Fallback r ->
        Nd_error.user_errorf
          "Nd_engine.Persist.export: refusing to snapshot a degraded handle \
           (%s); it holds no preprocessing product worth persisting"
          r
    (* stale-rebuild handles went through a full re-prepare: first class *)
    | `None | `Stale_rebuild _ -> ());
    let core =
      match t.kind with
      | Sentence ts -> P_sentence ts
      | Lazy_sentence _ ->
          (* lazy sentences are only ever built on the degraded path,
             which the check above already rejected *)
          assert false
      | Query q -> P_query q.nx
    in
    { p_g = t.g; p_phi = t.phi; p_k = t.k; p_cache_limit = t.cache_limit; p_core = core }

  (* Cheap cross-checks between a decoded payload and what the caller
     asked for.  The per-section CRCs already reject random corruption;
     these reject *coherent* wrong data — a section transplanted from a
     different (internally valid) snapshot, or a snapshot presented
     with the wrong graph or query. *)
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt

  let check_payload ~graph ~query p =
    if Fo.to_string p.p_phi <> Fo.to_string query then
      err "payload query %s does not match requested %s"
        (Fo.to_string p.p_phi) (Fo.to_string query)
    else if p.p_k <> Fo.arity p.p_phi then
      err "payload arity %d inconsistent with its query" p.p_k
    else if not (Cgraph.equal p.p_g graph) then
      err "payload graph (n=%d, m=%d) differs from the graph presented at load"
        (Cgraph.n p.p_g) (Cgraph.m p.p_g)
    else if p.p_cache_limit < 0 then
      err "payload carries a negative cache limit"
    else Ok ()

  (* The key list packed into a row image.  A cache-disabled payload
     carries none worth keeping. *)
  let image_of_keys p cp =
    let k = p.p_k in
    if p.p_cache_limit <= 0 || Cgraph.n p.p_g = 0 then Ok None
    else if Array.exists (fun key -> Array.length key <> k) cp.c_keys then
      err "cache payload carries keys of the wrong arity"
    else begin
      let rows = new_rows (Array.length cp.c_keys * k) in
      Array.iteri
        (fun i key -> Array.iteri (fun j v -> rows.{(i * k) + j} <- v) key)
        cp.c_keys;
      Ok
        (Some
           {
             ri_k = k;
             ri_len = Array.length cp.c_keys;
             ri_rows = rows;
             ri_frontier = cp.c_frontier;
             ri_full = cp.c_full;
             ri_complete = cp.c_complete;
             ri_limit = p.p_cache_limit;
           })
    end

  (* The cache invariants, checked on rows that came from outside the
     process: the live code never re-checks them. *)
  let vet_image p nx img =
    let n = Cgraph.n p.p_g and k = p.p_k in
    let out_of_range v = v < 0 || v >= n in
    let rows = img.ri_rows in
    (* one allocation-free pass: range, then strict order *)
    let first_bad_row () =
      let rec go i =
        if i >= img.ri_len then None
        else
          let base = i * k in
          let rec vertex_ok j =
            j = k || ((not (out_of_range rows.{base + j})) && vertex_ok (j + 1))
          in
          let rec above j =
            j < k
            && (rows.{base + j} > rows.{base - k + j}
               || (rows.{base + j} = rows.{base - k + j} && above (j + 1)))
          in
          if not (vertex_ok 0) then Some (i, "has a vertex outside [0, n)")
          else if i > 0 && not (above 0) then Some (i, "is not above its predecessor")
          else go (i + 1)
      in
      go 0
    in
    if img.ri_k <> k then err "cache rows have arity %d, the payload %d" img.ri_k k
    else if p.p_cache_limit <= 0 || n = 0 then
      err "cache rows present but the payload has caching disabled"
    else if img.ri_len < 0 || img.ri_len > img.ri_limit then
      err "%d cache rows exceed the limit %d" img.ri_len img.ri_limit
    else if img.ri_full <> (img.ri_len >= img.ri_limit) then
      err "cache full flag inconsistent with its %d rows" img.ri_len
    else if img.ri_limit <> p.p_cache_limit then
      err "cache row limit %d differs from the payload's %d" img.ri_limit
        p.p_cache_limit
    else if Bigarray.Array1.dim rows < img.ri_len * k then
      err "row bank holds fewer words than %d rows" img.ri_len
    else
      match first_bad_row () with
      | Some (i, why) -> err "cache row %d %s" i why
      | None -> (
          match img.ri_frontier with
          | None when img.ri_len > 0 -> err "cache rows without a frontier"
          | Some f when Array.length f <> k || Array.exists out_of_range f ->
              err "cache frontier outside the graph's vertex range"
          | Some f when img.ri_len > 0 && cmp_row rows k (img.ri_len - 1) f > 0 ->
              err "cache frontier %s lies below the last row" (Tuple.to_string f)
          | frontier -> (
              (* a complete cache answers "none" past its frontier without
                 asking the pipeline: one live call checks that claim *)
              let past =
                match frontier with
                | None -> Some (Tuple.min k)
                | Some f -> Tuple.succ ~n f
              in
              match past with
              | Some a when img.ri_complete && Nd_core.Next.next_solution nx a <> None ->
                  err "cache marked complete, yet a solution lies past its frontier"
              | _ -> Ok ()))

  (* The one way a decoded payload becomes a live handle: no budget,
     paranoid mode off, single-job — install either around subsequent
     calls as usual. *)
  let import ~graph ~query p image =
    let handle kind =
      {
        g = p.p_g;
        phi = p.p_phi;
        k = p.p_k;
        cache_limit = p.p_cache_limit;
        jobs = 1;
        kind;
        degradation = `None;
        budget = None;
        paranoid = false;
        emitted = 0;
        paranoid_checks = 0;
      }
    in
    match check_payload ~graph ~query p with
    | Error _ as e -> e
    | Ok () -> (
        match (p.p_core, image) with
        | P_sentence ts, None when p.p_k = 0 -> Ok (handle (Sentence ts))
        | P_sentence _, Some _ -> err "cache rows attached to a sentence payload"
        | P_query nx, None when p.p_k > 0 -> Ok (handle (Query { nx; cache = None }))
        | P_query nx, Some img when p.p_k > 0 -> (
            match vet_image p nx img with
            | Error _ as e -> e
            | Ok () ->
                let frontier = Array.make p.p_k 0 in
                Option.iter (fun f -> Array.blit f 0 frontier 0 p.p_k) img.ri_frontier;
                let c =
                  {
                    rows = img.ri_rows;
                    len = img.ri_len;
                    limit = img.ri_limit;
                    frontier;
                    frontier_set = img.ri_frontier <> None;
                    full = img.ri_full;
                    complete = img.ri_complete;
                  }
                in
                Ok (handle (Query { nx; cache = Some c })))
        | _ -> err "payload core does not match its arity")
end
