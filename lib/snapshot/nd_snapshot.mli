(** Crash-safe snapshot persistence for prepared engine handles.

    Theorem 2.3's preprocessing is pseudo-linear in [|G|] with a
    non-elementary constant in the query — far too expensive to redo on
    every process start.  A snapshot persists the whole preprocessing
    product of a prepared {!Nd_engine.t} (cover/kernel structures,
    distance index and skip pointers, plus the engine's solution cache,
    via {!Nd_engine.Persist}) in a versioned, checksummed binary file,
    so a fresh process {!load}s in milliseconds what
    {!Nd_engine.prepare} computes in seconds.

    {2 File format (version 4)}

    {v
    +----------------------+
    | magic    "FODBSNAP"  |  8 bytes
    | version  u32 LE      |  4 bytes  (= 4; 2 and 3 still readable)
    | sections u32 LE      |  4 bytes  (= 3; 4 in version 3)
    +----------------------+
    | tag "META" | len u32 | crc32 u32 | payload …
    | tag "ENGN" | len u32 | crc32 u32 | payload …
    | tag "ROWS" | len u32 | crc32 u32 | payload …
    +----------------------+  exact EOF — trailing bytes are corruption
    v}

    [META] is a hand-rolled, version-stable record: builder OCaml
    version, query text + hash, arity, graph fingerprint (n, m,
    colors, order-insensitive edge/color hash), the graph's {e mutation
    epoch} ({!Nd_graph.Cgraph.epoch} — new in version 2), creation
    time, cached-solution count.  [ENGN] is the marshaled
    {!Nd_engine.Persist.payload}.

    [ROWS] (new in version 4) is the engine's solution cache as a raw
    row dump: a hand-rolled little-endian header (a present flag, row
    width k, row count, cache limit, the full/complete/frontier flags
    and the frontier), then the rows as 8-byte little-endian words,
    padded so they sit 8-byte-aligned {e in the file}.  A warm load
    adopts those words directly — on a 64-bit little-endian host by
    [Unix.map_file] (private copy-on-write mapping, so the live cache
    never writes back), elsewhere by a straight copy — and in either
    case every row is vetted ({!Nd_engine.Persist.import}) before the
    cache serves.  ROWS is the only copy of the cache in a version-4
    file.

    {2 Older versions}

    Versions 2 and 3 carry the cache as [CACH], a marshaled key list
    after ENGN, which a load packs into rows and vets the same way.
    Their META also holds an f64 epsilon after the arity, and their
    ENGN is {!Nd_engine.Persist.legacy_payload}: the epsilon that sized
    the Theorem 3.1 store the cache used to live in.  It is read and
    ignored.  Version 3 appends a [STOR] section (that store's register
    banks); it is checksummed like every section and otherwise
    ignored.

    {2 The corruption → fallback ladder}

    Loading trusts nothing: magic, version and section layout are
    checked first, then every section's CRC-32, then META is decoded
    and cross-checked against the graph and query the caller presents,
    and only then — with all checksums standing — are the marshaled
    sections deserialized, and the decoded payload is cross-checked
    {e again} against graph and query ({!Nd_engine.Persist.import}),
    which catches coherent-but-wrong data such as a section
    transplanted from a different valid snapshot.  Every failure is a
    {!corruption} value, never an exception and never a live handle;
    {!load_or_rebuild} turns any of them into a budgeted
    {!Nd_engine.prepare} so corrupt disks degrade service, never deny
    it. *)

type corruption =
  | Truncated of { expected : int; actual : int }
      (** The file ends before its declared structure does. *)
  | Bad_magic  (** Not a snapshot file (or a damaged leader). *)
  | Version_skew of { found : string; expected : string }
      (** Format version or builder OCaml version differs; marshaled
          sections are only trusted byte-compatible within a version. *)
  | Bad_layout of string
      (** Section tags missing, out of order, or trailing bytes. *)
  | Checksum of { section : string }  (** A section failed its CRC-32. *)
  | Mismatch of string
      (** Valid snapshot of the {e wrong instance}: graph fingerprint
          or query differs from what the caller presented. *)
  | Stale_epoch of { snapshot : int; current : int }
      (** ABA detection: the presented graph is structurally identical
          to the snapshotted one but its mutation epoch differs — it
          was mutated and reverted since the save, so the snapshot's
          cached state belongs to a different history.  Structure
          checks cannot see this; only the epoch counter can. *)
  | Decode of string
      (** A checksummed section failed to decode or cross-check. *)

val describe : corruption -> string

val fingerprint : Nd_graph.Cgraph.t -> int
(** Order-insensitive structural hash over vertices, edges and colors
    (32-bit).  Cheap pre-filter; {!load} additionally performs an exact
    graph comparison before returning a handle. *)

val save : ?format:int -> path:string -> Nd_engine.t -> int
(** Serialize a prepared handle; returns the bytes written.  The write
    is atomic (temp file + rename), so a crash mid-save leaves either
    the old snapshot or none — never a torn file at [path].
    [format] (default 4) selects the file format; [~format:2] writes
    the version-2 layout (CACH key list, legacy ENGN and META with
    epsilon 0.5), for readers of that vintage.
    @raise Invalid_argument on an unsupported format.
    @raise Nd_error.User_error on a degraded handle ({!Nd_engine.Persist.export}).
    @raise Sys_error on I/O failure. *)

val load :
  ?warm:bool ->
  path:string ->
  Nd_graph.Cgraph.t ->
  Nd_logic.Fo.t ->
  (Nd_engine.t, corruption) result
(** Verify and revive a snapshot for exactly this graph and query.  On
    [Error], nothing was deserialized into a live handle.  [Sys_error]
    (unreadable file) is folded into [Truncated].

    [warm] (default [true]) lets a version-4 load memory-map the ROWS
    words when the host allows.  [~warm:false] copies them instead —
    the portable path, same resulting handle.  Version 2 and 3 files
    always rebuild the rows from their CACH key list. *)

type route =
  | Replayed  (** Cache rows rebuilt from a v2/v3 CACH key list. *)
  | Warm of { mapped : bool }
      (** ROWS words adopted; [mapped] tells they were memory-mapped
          rather than copied.  A row-less version-4 file reports
          [mapped = false]. *)

val describe_route : route -> string

val load_routed :
  ?warm:bool ->
  path:string ->
  Nd_graph.Cgraph.t ->
  Nd_logic.Fo.t ->
  (Nd_engine.t * route, corruption) result
(** {!load}, also reporting which rung revived the solution cache.  The
    revival itself (ROWS decode, or CACH unmarshal and packing) runs
    inside a [snapshot.cache] trace span, which the ST bench row reads
    to time that step alone. *)

type outcome =
  | Loaded  (** The snapshot verified end-to-end. *)
  | Rebuilt of corruption
      (** The snapshot was rejected (why) and the handle was rebuilt
          from scratch with {!Nd_engine.prepare}. *)

val load_or_rebuild :
  ?metrics:bool ->
  ?cache_limit:int ->
  ?budget:Nd_util.Budget.t ->
  ?paranoid:bool ->
  ?warm:bool ->
  ?journal:Nd_graph.Cgraph.mutation list ->
  path:string ->
  Nd_graph.Cgraph.t ->
  Nd_logic.Fo.t ->
  Nd_engine.t * outcome
(** The graceful-degradation entry point: {!load}, falling back on any
    corruption to a fresh budgeted {!Nd_engine.prepare} (which itself
    degrades further to the naive-backed handle if the budget trips).
    The optional parameters govern only the rebuild path; a successful
    load keeps the snapshot's own cache and cache limit.

    [journal] (default [[]]) is the mutation log recorded since the
    snapshot was saved, in application order.  The presented [graph]
    must be the {e snapshotted} (pre-journal) one.  On a successful
    load the journal is replayed through {!Nd_engine.update} — bounded
    maintenance per entry instead of a re-prepare; on a rebuild the
    journal is folded into the graph first and the handle is prepared
    on the final state directly.  Either way the returned handle
    answers for the post-journal graph. *)

(** {1 Introspection} *)

type section = {
  tag : string;
  off : int;  (** payload offset in the file *)
  len : int;
  crc : int;
}

type info = {
  version : int;
  warmable : bool;
      (** A ROWS section is present with cache rows and this host can
          memory-map them. *)
  ocaml_version : string;
  query : string;
  query_hash : int;
  arity : int;
  graph_n : int;
  graph_m : int;
  graph_colors : int;
  graph_fingerprint : int;
  graph_epoch : int;  (** {!Nd_graph.Cgraph.epoch} at save time *)
  cached_solutions : int;
  created : float;  (** unix time at save *)
  sections : section list;
}

val layout : path:string -> (section list, corruption) result
(** Structural parse only (magic, version, section table) — no CRC
    verification, no decoding.  What the fault-injection suite uses to
    aim {!Nd_ram.Chaos.Disk} at specific fields. *)

val info : path:string -> (info, corruption) result
(** Full verification of header + all CRCs + META decode, without
    deserializing the engine sections.  What [fodb snapshot info]
    prints. *)

val describe_warm : info -> string
(** The [warm store:] verdict [fodb snapshot info] prints: ["yes …"]
    when {!info.warmable}, otherwise ["no (…)"] with the reason. *)
