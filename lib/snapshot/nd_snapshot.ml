open Nd_util
open Nd_graph
open Nd_logic

let magic = "FODBSNAP"
let format_version = 4

(* v2 files carry the cache as a Marshal'd key list; v3 appended STOR
   (the old Theorem 3.1 store's register banks), which is still
   checksummed on load but never adopted; v4 carries the cache only as
   ROWS, its packed row bank.  All three are readable; [save ~format:2]
   still writes the oldest layout. *)
let tags_of = function
  | 2 -> [ "META"; "ENGN"; "CACH" ]
  | 3 -> [ "META"; "ENGN"; "CACH"; "STOR" ]
  | _ -> [ "META"; "ENGN"; "ROWS" ]

(* The epsilon that format 2 and 3 files record in META and ENGN: the
   default every handle carried while the cache lived in a Theorem 3.1
   store it sized.  Nothing reads it back. *)
let legacy_epsilon = 0.5

let m_loads = Metrics.counter "snapshot.loads"
let m_fallbacks = Metrics.counter "snapshot.load_fallbacks"
let m_bytes = Metrics.counter "snapshot.bytes_written"
let m_warm = Metrics.counter "snapshot.warm_loads"
let m_mapped = Metrics.counter "snapshot.mapped_loads"

(* The row words are meaningful to map only when an OCaml int spans the
   full 64-bit word and the host agrees with the little-endian words. *)
let mappable = Sys.int_size = 63 && not Sys.big_endian

type corruption =
  | Truncated of { expected : int; actual : int }
  | Bad_magic
  | Version_skew of { found : string; expected : string }
  | Bad_layout of string
  | Checksum of { section : string }
  | Mismatch of string
  | Stale_epoch of { snapshot : int; current : int }
  | Decode of string

let describe = function
  | Truncated { expected; actual } ->
      Printf.sprintf "truncated: structure needs %d bytes, file has %d"
        expected actual
  | Bad_magic -> "not a snapshot file (bad magic)"
  | Version_skew { found; expected } ->
      Printf.sprintf "version skew: snapshot has %s, this build expects %s"
        found expected
  | Bad_layout m -> "malformed layout: " ^ m
  | Checksum { section } ->
      Printf.sprintf "checksum mismatch in section %s" section
  | Mismatch m -> "instance mismatch: " ^ m
  | Stale_epoch { snapshot; current } ->
      Printf.sprintf
        "stale epoch: snapshot was taken at graph epoch %d, presented graph \
         is at epoch %d (same structure, different mutation history)"
        snapshot current
  | Decode m -> "decode failure: " ^ m

exception C of corruption

let corrupt c = raise (C c)

(* ---------------- graph fingerprint ---------------- *)

(* Order-insensitive: per-element hashes summed mod 2^32, so logically
   equal graphs fingerprint equal no matter the edge iteration order. *)
let fingerprint g =
  let acc = ref 0 in
  let add x = acc := (!acc + x) land 0xFFFFFFFF in
  add (Hashtbl.hash (`N (Cgraph.n g)));
  add (Hashtbl.hash (`M (Cgraph.m g)));
  add (Hashtbl.hash (`C (Cgraph.color_count g)));
  Cgraph.fold_edges
    (fun u v () -> add (Hashtbl.hash (`E (min u v, max u v))))
    g ();
  for c = 0 to Cgraph.color_count g - 1 do
    Array.iter
      (fun v -> add (Hashtbl.hash (`Col (c, v))))
      (Cgraph.color_members g ~color:c)
  done;
  !acc

(* ---------------- little-endian primitives ---------------- *)

let put_u32 b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_f64 b f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done

type cursor = { cs : string; mutable pos : int; stop : int }

let need cur n what =
  if cur.pos + n > cur.stop then corrupt (Decode (what ^ ": short section"))

let get_u32 cur what =
  need cur 4 what;
  let v = ref 0 in
  for i = 0 to 3 do
    v := !v lor (Char.code cur.cs.[cur.pos + i] lsl (8 * i))
  done;
  cur.pos <- cur.pos + 4;
  !v

let get_str cur what =
  let n = get_u32 cur what in
  need cur n what;
  let s = String.sub cur.cs cur.pos n in
  cur.pos <- cur.pos + n;
  s

let get_f64 cur what =
  need cur 8 what;
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits
        (Int64.shift_left (Int64.of_int (Char.code cur.cs.[cur.pos + i])) (8 * i))
  done;
  cur.pos <- cur.pos + 8;
  Int64.float_of_bits !bits

(* ---------------- structure ---------------- *)

type section = { tag : string; off : int; len : int; crc : int }

type info = {
  version : int;
  warmable : bool;
  ocaml_version : string;
  query : string;
  query_hash : int;
  arity : int;
  graph_n : int;
  graph_m : int;
  graph_colors : int;
  graph_fingerprint : int;
  graph_epoch : int;
  cached_solutions : int;
  created : float;
  sections : section list;
}

(* a bare u32 read during structural parsing — header overruns are
   Truncated, not Decode, because nothing has been verified yet *)
let hdr_u32 s pos total =
  if pos + 4 > total then corrupt (Truncated { expected = pos + 4; actual = total });
  let v = ref 0 in
  for i = 0 to 3 do
    v := !v lor (Char.code s.[pos + i] lsl (8 * i))
  done;
  !v

let parse_structure s =
  let total = String.length s in
  if total < 16 then corrupt (Truncated { expected = 16; actual = total });
  if String.sub s 0 8 <> magic then corrupt Bad_magic;
  let v = hdr_u32 s 8 total in
  if v < 2 || v > format_version then
    corrupt
      (Version_skew
         {
           found = "format " ^ string_of_int v;
           expected = Printf.sprintf "format 2 to %d" format_version;
         });
  let tags = tags_of v in
  let nsect = hdr_u32 s 12 total in
  if nsect <> List.length tags then
    corrupt
      (Bad_layout
         (Printf.sprintf "header declares %d sections, format has %d" nsect
            (List.length tags)));
  let pos = ref 16 in
  let sections =
    List.map
      (fun want ->
        if !pos + 12 > total then
          corrupt (Truncated { expected = !pos + 12; actual = total });
        let tag = String.sub s !pos 4 in
        let len = hdr_u32 s (!pos + 4) total in
        let crc = hdr_u32 s (!pos + 8) total in
        if tag <> want then
          corrupt
            (Bad_layout
               (Printf.sprintf "found section %S where %S belongs" tag want));
        let off = !pos + 12 in
        if off + len > total then
          corrupt (Truncated { expected = off + len; actual = total });
        pos := off + len;
        { tag; off; len; crc })
      tags
  in
  if !pos <> total then
    corrupt (Bad_layout (Printf.sprintf "%d trailing bytes" (total - !pos)));
  (v, sections)

let verify_crcs s sections =
  List.iter
    (fun sec ->
      if Crc32.string ~off:sec.off ~len:sec.len s <> sec.crc then
        corrupt (Checksum { section = sec.tag }))
    sections

let find_section sections tag = List.find (fun s -> s.tag = tag) sections

(* ---------------- META codec ---------------- *)

let encode_meta ~format eng =
  let g = Nd_engine.graph eng in
  let qtext = Fo.to_string (Nd_engine.query eng) in
  let b = Buffer.create 128 in
  put_str b Sys.ocaml_version;
  put_str b qtext;
  put_u32 b (Crc32.string qtext);
  put_u32 b (Nd_engine.arity eng);
  if format < 4 then put_f64 b legacy_epsilon;
  put_u32 b (Cgraph.n g);
  put_u32 b (Cgraph.m g);
  put_u32 b (Cgraph.color_count g);
  put_u32 b (fingerprint g);
  put_u32 b (Cgraph.epoch g);
  put_f64 b (Unix.gettimeofday ());
  put_u32 b (Nd_engine.cache_size eng);
  Buffer.contents b

let decode_meta s sec ~version ~warmable ~sections =
  let cur = { cs = s; pos = sec.off; stop = sec.off + sec.len } in
  let ocaml_version = get_str cur "meta" in
  let query = get_str cur "meta" in
  let query_hash = get_u32 cur "meta" in
  let arity = get_u32 cur "meta" in
  if version < 4 then ignore (get_f64 cur "meta" : float);
  let graph_n = get_u32 cur "meta" in
  let graph_m = get_u32 cur "meta" in
  let graph_colors = get_u32 cur "meta" in
  let graph_fingerprint = get_u32 cur "meta" in
  let graph_epoch = get_u32 cur "meta" in
  let created = get_f64 cur "meta" in
  let cached_solutions = get_u32 cur "meta" in
  if cur.pos <> cur.stop then corrupt (Decode "meta: trailing bytes in section");
  if query_hash <> Crc32.string query then
    corrupt (Decode "meta: query hash inconsistent with query text");
  {
    version;
    warmable;
    ocaml_version;
    query;
    query_hash;
    arity;
    graph_n;
    graph_m;
    graph_colors;
    graph_fingerprint;
    graph_epoch;
    cached_solutions;
    created;
    sections;
  }

let check_meta meta ~graph ~query =
  if meta.ocaml_version <> Sys.ocaml_version then
    corrupt
      (Version_skew
         {
           found = "ocaml " ^ meta.ocaml_version;
           expected = "ocaml " ^ Sys.ocaml_version;
         });
  let qtext = Fo.to_string query in
  if meta.query <> qtext then
    corrupt
      (Mismatch
         (Printf.sprintf "snapshot is for query %s, load requested %s"
            meta.query qtext));
  if
    meta.graph_n <> Cgraph.n graph
    || meta.graph_m <> Cgraph.m graph
    || meta.graph_colors <> Cgraph.color_count graph
    || meta.graph_fingerprint <> fingerprint graph
  then
    corrupt
      (Mismatch
         (Printf.sprintf
            "snapshot graph (n=%d, m=%d, fp=%08x) is not the presented graph \
             (n=%d, m=%d, fp=%08x)"
            meta.graph_n meta.graph_m meta.graph_fingerprint (Cgraph.n graph)
            (Cgraph.m graph) (fingerprint graph)));
  (* ABA detection: a mutate-and-revert history produces a graph that is
     structurally identical to the snapshotted one (fingerprint and the
     exact [Persist.import] comparison both pass) yet whose cached
     solutions may have been observed against intermediate states.  The
     epoch counter is the only witness, so a skew here is corruption,
     not a match. *)
  if meta.graph_epoch <> Cgraph.epoch graph then
    corrupt
      (Stale_epoch { snapshot = meta.graph_epoch; current = Cgraph.epoch graph })

(* ---------------- ROWS codec ---------------- *)

(* The solution cache's packed row bank as raw little-endian words:

     u32 present | u32 k,count,limit | u32 full,complete,frontier_set
   | k × u32 frontier
   | u32 padlen | padlen zero bytes      (pads the rows to an 8-byte file offset)
   | count·k × i64 rows

   [payload_off] is the absolute file offset of this section's payload;
   the pad is computed against it so the row words are 8-aligned in the
   *file*, which is what lets a warm load hand them to [Unix.map_file]
   untranslated. *)

let encode_rows ~payload_off img =
  let b = Buffer.create 256 in
  (match img with
  | None -> put_u32 b 0
  | Some (img : Nd_engine.Persist.row_image) ->
      let k = img.ri_k in
      put_u32 b 1;
      put_u32 b k;
      put_u32 b img.ri_len;
      put_u32 b img.ri_limit;
      put_u32 b (Bool.to_int img.ri_full);
      put_u32 b (Bool.to_int img.ri_complete);
      (match img.ri_frontier with
      | Some f ->
          put_u32 b 1;
          Array.iter (fun v -> put_u32 b v) f
      | None ->
          put_u32 b 0;
          for _ = 1 to k do
            put_u32 b 0
          done);
      let off = payload_off + Buffer.length b + 4 in
      let pad = (8 - (off mod 8)) mod 8 in
      put_u32 b pad;
      Buffer.add_string b (String.make pad '\000');
      for i = 0 to (img.ri_len * k) - 1 do
        Buffer.add_int64_le b (Int64.of_int img.ri_rows.{i})
      done);
  Buffer.contents b

let get_flag cur what =
  match get_u32 cur what with
  | 0 -> false
  | 1 -> true
  | v -> corrupt (Decode (Printf.sprintf "%s: flag byte holds %d" what v))

(* Decode the ROWS section into a row image for the engine to vet.
   [map_fd], when the host qualifies, memory-maps the row words
   (private, copy-on-write) instead of copying them; any mapping
   failure falls back to the copy silently — the words are the same
   either way. *)
let decode_rows s sec ~meta ~map_fd =
  let cur = { cs = s; pos = sec.off; stop = sec.off + sec.len } in
  if not (get_flag cur "rows") then begin
    if cur.pos <> cur.stop then corrupt (Decode "rows: trailing bytes");
    None
  end
  else begin
    let k = get_u32 cur "rows" in
    let count = get_u32 cur "rows" in
    let limit = get_u32 cur "rows" in
    let full = get_flag cur "rows" in
    let complete = get_flag cur "rows" in
    let frontier_set = get_flag cur "rows" in
    if k <> meta.arity then
      corrupt (Decode "rows: arity differs from the META section");
    need cur (4 * k) "rows";
    let frontier = Array.init k (fun _ -> get_u32 cur "rows") in
    let pad = get_u32 cur "rows" in
    if pad > 7 then corrupt (Decode "rows: oversized alignment pad");
    need cur pad "rows";
    cur.pos <- cur.pos + pad;
    let rows_off = cur.pos in
    if rows_off mod 8 <> 0 then
      corrupt (Decode "rows: row words not 8-byte aligned");
    if k > 0 && count > (cur.stop - cur.pos) / (8 * k) then
      corrupt (Decode "rows: short section");
    let words = count * k in
    cur.pos <- cur.pos + (words * 8);
    if cur.pos <> cur.stop then corrupt (Decode "rows: trailing bytes");
    let mapped_rows =
      match map_fd with
      | Some fd when mappable && words > 0 -> (
          try
            Some
              (Bigarray.array1_of_genarray
                 (Unix.map_file fd ~pos:(Int64.of_int rows_off) Bigarray.int
                    Bigarray.c_layout false [| words |]))
          with Unix.Unix_error _ | Sys_error _ -> None)
      | _ -> None
    in
    let rows =
      match mapped_rows with
      | Some a -> a
      | None ->
          Bigarray.Array1.init Bigarray.int Bigarray.c_layout words (fun i ->
              Int64.to_int (String.get_int64_le s (rows_off + (i * 8))))
    in
    Some
      ( {
          Nd_engine.Persist.ri_k = k;
          ri_len = count;
          ri_rows = rows;
          ri_frontier = (if frontier_set then Some frontier else None);
          ri_full = full;
          ri_complete = complete;
          ri_limit = limit;
        },
        mapped_rows <> None )
  end

(* ---------------- file I/O ---------------- *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error _ -> corrupt (Truncated { expected = 16; actual = 0 })

(* A warm load must read the bytes it verifies and map the pages it
   adopts from the SAME open file description: saves publish by atomic
   rename, so holding one fd pins one inode — no window where the CRCs
   were checked against one file and the mapping serves another. *)
let with_snapshot_fd path f =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ ->
      corrupt (Truncated { expected = 16; actual = 0 })
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let len = (Unix.fstat fd).Unix.st_size in
          let buf = Bytes.create len in
          let pos = ref 0 in
          (try
             while !pos < len do
               let r = Unix.read fd buf !pos (len - !pos) in
               if r = 0 then raise Exit;
               pos := !pos + r
             done
           with Exit | Unix.Unix_error _ -> ());
          if !pos < len then corrupt (Truncated { expected = len; actual = !pos });
          f fd (Bytes.unsafe_to_string buf))

(* ---------------- save ---------------- *)

let save ?(format = format_version) ~path eng =
  if format <> 2 && format <> format_version then
    invalid_arg "Nd_snapshot.save: unsupported format";
  Nd_trace.phase "snapshot.save" @@ fun () ->
  let payload = Nd_engine.Persist.export eng in
  let marshal what v =
    try Marshal.to_string v []
    with Invalid_argument m ->
      Nd_error.invariantf
        "Nd_snapshot.save: %s payload is not marshal-safe (%s) — a closure \
         leaked into the preprocessing product" what m
  in
  let meta = encode_meta ~format eng in
  let sections =
    if format = 2 then
      let engn, cach =
        Nd_trace.with_span "snapshot.marshal" @@ fun () ->
        ( marshal "engine"
            (Nd_engine.Persist.to_legacy ~epsilon:legacy_epsilon payload),
          marshal "cache" (Nd_engine.Persist.export_keys eng) )
      in
      [ ("META", meta); ("ENGN", engn); ("CACH", cach) ]
    else begin
      let engn =
        Nd_trace.with_span "snapshot.marshal" @@ fun () ->
        marshal "engine" payload
      in
      let sections = [ ("META", meta); ("ENGN", engn) ] in
      (* ROWS is last so its absolute payload offset — which fixes the
         row alignment pad — is known before encoding it *)
      let payload_off =
        List.fold_left (fun o (_, p) -> o + 12 + String.length p) 16 sections
        + 12
      in
      let rows =
        Nd_trace.with_span "snapshot.rows" @@ fun () ->
        encode_rows ~payload_off (Nd_engine.Persist.export_image eng)
      in
      sections @ [ ("ROWS", rows) ]
    end
  in
  let b =
    Buffer.create
      (List.fold_left (fun a (_, p) -> a + String.length p) 64 sections)
  in
  Buffer.add_string b magic;
  put_u32 b format;
  put_u32 b (List.length sections);
  List.iter
    (fun (tag, payload) ->
      Buffer.add_string b tag;
      put_u32 b (String.length payload);
      put_u32 b (Crc32.string payload);
      Buffer.add_string b payload)
    sections;
  let doc = Buffer.contents b in
  (* atomic publish: a crash mid-write leaves the old snapshot (or
     nothing) at [path], never a torn file *)
  Nd_trace.with_span "snapshot.write" (fun () ->
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      (try
         output_string oc doc;
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp path);
  Metrics.add m_bytes (String.length doc);
  String.length doc

(* ---------------- load ---------------- *)

let layout ~path =
  match parse_structure (read_file path) with
  | _, sections -> Ok sections
  | exception C c -> Error c

(* Whether a parsed file offers the warm path: a v4 ROWS section whose
   present flag is set. *)
let rows_present s sections =
  match List.find_opt (fun sec -> sec.tag = "ROWS") sections with
  | Some sec -> sec.len >= 4 && hdr_u32 s sec.off (sec.off + sec.len) = 1
  | None -> false

let info ~path =
  match
    let s = read_file path in
    let version, sections = parse_structure s in
    verify_crcs s sections;
    let warmable = mappable && rows_present s sections in
    decode_meta s (find_section sections "META") ~version ~warmable ~sections
  with
  | i -> Ok i
  | exception C c -> Error c

let describe_warm i =
  if i.warmable then "yes (cache rows mmap-ready)"
  else if i.version >= 4 then "no (no cache rows to map)"
  else Printf.sprintf "no (format %d: the cache replays from CACH)" i.version

type route = Replayed | Warm of { mapped : bool }

let describe_route = function
  | Replayed -> "cache replayed from CACH"
  | Warm { mapped = true } -> "cache rows memory-mapped"
  | Warm { mapped = false } -> "cache rows copied"

let load_routed ?(warm = true) ~path graph query =
  Nd_trace.phase "snapshot.load" @@ fun () ->
  match
    with_snapshot_fd path @@ fun fd s ->
    let version, sections =
      Nd_trace.with_span "snapshot.verify" @@ fun () ->
      let version, sections = parse_structure s in
      verify_crcs s sections;
      (version, sections)
    in
    let meta =
      decode_meta s
        (find_section sections "META")
        ~version
        ~warmable:(mappable && rows_present s sections)
        ~sections
    in
    check_meta meta ~graph ~query;
    (* All checksums and cross-checks stand: only now touch Marshal.
       Everything it reads was produced by [save] in a build with the
       same format and OCaml version. *)
    let unmarshal : 'a. section -> 'a =
     fun sec ->
      try Marshal.from_string s sec.off
      with e ->
        corrupt
          (Decode
             (Printf.sprintf "section %s failed to deserialize (%s)" sec.tag
                (Printexc.to_string e)))
    in
    let payload =
      Nd_trace.with_span "snapshot.unmarshal" (fun () ->
          let engn = find_section sections "ENGN" in
          if version >= 4 then (unmarshal engn : Nd_engine.Persist.payload)
          else Nd_engine.Persist.of_legacy (unmarshal engn))
    in
    (* [snapshot.cache] spans exactly the cache revival: the ROWS words
       adopted (mapped, or copied when [warm] is off or the host cannot
       map them), or the CACH key list of a v2/v3 file unmarshalled and
       packed into rows.  A v3 STOR section passed its checksum above
       and is otherwise ignored. *)
    let image, route =
      Nd_trace.with_span "snapshot.cache" @@ fun () ->
      if version >= 4 then
        match
          decode_rows s
            (find_section sections "ROWS")
            ~meta
            ~map_fd:(if warm && mappable then Some fd else None)
        with
        | Some (img, mapped) -> (Some img, Warm { mapped })
        | None -> (None, Warm { mapped = false })
      else
        let cache : Nd_engine.Persist.cache_payload option =
          unmarshal (find_section sections "CACH")
        in
        match Option.map (Nd_engine.Persist.image_of_keys payload) cache with
        | None | Some (Ok None) -> (None, Replayed)
        | Some (Ok (Some img)) -> (Some img, Replayed)
        | Some (Error m) -> corrupt (Decode ("cache key list rejected: " ^ m))
    in
    match
      Nd_trace.with_span "snapshot.import" (fun () ->
          Nd_engine.Persist.import ~graph ~query payload image)
    with
    | Ok eng ->
        Metrics.incr m_loads;
        (match route with
        | Warm { mapped } ->
            Metrics.incr m_warm;
            if mapped then Metrics.incr m_mapped
        | Replayed -> ());
        (eng, route)
    | Error m -> corrupt (Decode ("import rejected payload: " ^ m))
  with
  | result -> Ok result
  | exception C c -> Error c

let load ?warm ~path graph query =
  Result.map fst (load_routed ?warm ~path graph query)

type outcome = Loaded | Rebuilt of corruption

let m_replayed = Metrics.counter "snapshot.journal_replayed"

let load_or_rebuild ?metrics ?cache_limit ?budget ?paranoid ?warm
    ?(journal = []) ~path graph query =
  match load ?warm ~path graph query with
  | Ok eng ->
      (* revive at the snapshotted state, then absorb the journal through
         the incremental pipeline — mutations recorded since the save
         cost bounded maintenance each, not a re-prepare *)
      List.iter (fun m -> Nd_engine.update eng m) journal;
      Metrics.add m_replayed (List.length journal);
      (eng, Loaded)
  | Error c ->
      Metrics.incr m_fallbacks;
      let g = List.fold_left Cgraph.apply graph journal in
      let eng =
        Nd_engine.prepare ?metrics ?cache_limit ?budget ?paranoid g
          query
      in
      (eng, Rebuilt c)
