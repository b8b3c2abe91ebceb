(* Snapshot persistence: round-trips across the generator zoo must be
   answer-identical to a fresh prepare, and every on-disk corruption
   class (truncation, bit flips, stale versions, swapped or
   transplanted sections, wrong graph/query) must be *detected* at load
   — never deserialized into a live handle — with load_or_rebuild
   degrading to a budgeted rebuild. *)

open Nd_graph
open Nd_logic
module Snap = Nd_snapshot
module Disk = Nd_ram.Chaos.Disk

let tmp_counter = ref 0

let tmp_path () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nd_snapshot_test_%d_%d.snap" (Unix.getpid ())
       !tmp_counter)

let with_tmp f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let graph_of spec = Gen.randomly_color ~seed:7 ~colors:3 (Gen.of_spec ~seed:7 spec)

let probe_tuples g k =
  let n = Cgraph.n g in
  if k = 0 then [ [||] ]
  else
    [
      Array.make k 0;
      Array.init k (fun i -> (i * 3) mod n);
      Array.make k (n - 1);
      Array.init k (fun i -> (n - 1 - i) mod n);
    ]

(* save → load → the loaded handle answers next/test/enumerate exactly
   like a freshly prepared one *)
let differential_roundtrip spec query =
  with_tmp @@ fun path ->
  let g = graph_of spec in
  let phi = Parse.formula query in
  let fresh = Nd_engine.prepare g phi in
  (* warm part of the cache so the snapshot carries a non-trivial store *)
  Nd_engine.enumerate ~limit:25 (fun _ -> ()) fresh;
  let bytes = Snap.save ~path fresh in
  Alcotest.(check bool)
    (spec ^ ": snapshot non-empty") true (bytes > 0 && Disk.size path = bytes);
  let loaded =
    match Snap.load ~path g phi with
    | Ok eng -> eng
    | Error c -> Alcotest.failf "%s: clean snapshot rejected: %s" spec (Snap.describe c)
  in
  Alcotest.(check bool)
    (spec ^ ": cache revived") true
    (Nd_engine.cache_size loaded = Nd_engine.cache_size fresh);
  let reference = Nd_engine.prepare g phi in
  if Nd_engine.arity reference = 0 then
    Alcotest.(check bool)
      (spec ^ ": sentence verdict") (Nd_engine.holds reference)
      (Nd_engine.holds loaded)
  else begin
    Alcotest.(check bool)
      (spec ^ ": enumeration identical") true
      (Nd_engine.to_list loaded = Nd_engine.to_list reference);
    List.iter
      (fun t ->
        Alcotest.(check bool)
          (spec ^ ": next agrees") true
          (Nd_engine.next loaded t = Nd_engine.next reference t);
        Alcotest.(check bool)
          (spec ^ ": test agrees") true
          (Nd_engine.test loaded t = Nd_engine.test reference t))
      (probe_tuples g (Nd_engine.arity reference))
  end

let zoo =
  [
    "grid:6x6"; "planar:5x5"; "tree:40"; "path:30"; "cycle:30"; "star:20";
    "clique:8"; "bdeg:60:3"; "ktree:40:3"; "subdiv:4"; "gnp:40:0.08";
  ]

let test_zoo_roundtrips () =
  List.iter (fun spec -> differential_roundtrip spec "dist(x,y) <= 2") zoo

let test_roundtrip_other_queries () =
  differential_roundtrip "grid:6x6" "C0(x) & dist(x,y) > 2";
  differential_roundtrip "tree:40" "E(x,y)";
  (* sentences persist the Tester *)
  differential_roundtrip "grid:6x6" "exists x y. E(x,y)"

let test_warm_cache_roundtrip () =
  (* a *complete* cache must revive as complete and keep serving *)
  with_tmp @@ fun path ->
  let g = graph_of "grid:5x5" in
  let phi = Parse.formula "dist(x,y) <= 2" in
  let fresh = Nd_engine.prepare g phi in
  let all = Nd_engine.to_list fresh in
  Alcotest.(check bool) "cache complete" true (Nd_engine.cache_complete fresh);
  ignore (Snap.save ~path fresh);
  match Snap.load ~path g phi with
  | Error c -> Alcotest.failf "rejected: %s" (Snap.describe c)
  | Ok loaded ->
      Alcotest.(check bool) "completeness revived" true
        (Nd_engine.cache_complete loaded);
      Alcotest.(check bool) "answers from revived store" true
        (Nd_engine.to_list loaded = all)

(* ---------------- corruption classes ---------------- *)

(* one small reference snapshot everything below corrupts copies of *)
let make_reference () =
  let g = graph_of "grid:5x5" in
  let phi = Parse.formula "dist(x,y) <= 2" in
  let eng = Nd_engine.prepare g phi in
  Nd_engine.enumerate ~limit:10 (fun _ -> ()) eng;
  (g, phi, eng)

let expect_rejected what path g phi =
  match Snap.load ~path g phi with
  | Ok _ -> Alcotest.failf "%s: corrupted snapshot produced a live handle" what
  | Error c ->
      Alcotest.(check bool)
        (what ^ ": describable") true
        (String.length (Snap.describe c) > 0);
      c

let test_truncation_detected () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  let bytes = Snap.save ~path eng in
  let original = Disk.read path in
  (* deterministic cut points: empty file, inside magic, at each header
     field boundary, inside each section, one byte short *)
  let cuts =
    [ 0; 1; 7; 8; 11; 12; 15; 16; 20; 40; bytes / 2; bytes - 1 ]
    |> List.sort_uniq compare
    |> List.filter (fun k -> k >= 0 && k < bytes)
  in
  List.iter
    (fun k ->
      Disk.write path original;
      Disk.truncate_at path k;
      ignore (expect_rejected (Printf.sprintf "truncate@%d" k) path g phi))
    cuts

let test_truncation_random () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  let bytes = Snap.save ~path eng in
  let original = Disk.read path in
  let st = Random.State.make [| 0xdead |] in
  for _ = 1 to 50 do
    let k = Random.State.int st bytes in
    Disk.write path original;
    Disk.truncate_at path k;
    ignore (expect_rejected (Printf.sprintf "truncate@%d" k) path g phi)
  done

let test_bitflip_detected () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  let bytes = Snap.save ~path eng in
  let original = Disk.read path in
  let st = Random.State.make [| 0xf11b |] in
  for _ = 1 to 100 do
    let byte = Random.State.int st bytes in
    let bit = Random.State.int st 8 in
    Disk.write path original;
    Disk.flip_bit path ~byte ~bit;
    ignore
      (expect_rejected (Printf.sprintf "flip %d.%d" byte bit) path g phi)
  done

let test_stale_version_detected () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  (* the u32 LE format version lives right after the 8-byte magic *)
  Disk.patch path ~pos:8 "\x63\x00\x00\x00";
  match expect_rejected "stale version" path g phi with
  | Snap.Version_skew _ -> ()
  | c -> Alcotest.failf "expected Version_skew, got %s" (Snap.describe c)

let test_swapped_sections_detected () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  let sections =
    match Snap.layout ~path with
    | Ok s -> s
    | Error c -> Alcotest.failf "layout of clean file: %s" (Snap.describe c)
  in
  let whole s = (s.Snap.off - 12, s.Snap.len + 12) in
  (match sections with
  | meta :: engn :: _ ->
      (* swap the entire META and ENGN sections (headers included):
         both survive byte-for-byte, but in the wrong order *)
      Disk.swap_ranges path (whole meta) (whole engn);
      (match expect_rejected "swapped sections" path g phi with
      | Snap.Bad_layout _ | Snap.Truncated _ -> ()
      | c -> Alcotest.failf "expected layout error, got %s" (Snap.describe c))
  | _ -> Alcotest.fail "fewer than two sections");
  (* payload-only swap: tags stay in place, contents exchanged *)
  let original_eng = Nd_engine.prepare g phi in
  Nd_engine.enumerate ~limit:10 (fun _ -> ()) original_eng;
  ignore (Snap.save ~path original_eng);
  (match Snap.layout ~path with
  | Ok (meta :: engn :: _) ->
      let l = min meta.Snap.len engn.Snap.len in
      Disk.swap_ranges path (meta.Snap.off, l) (engn.Snap.off, l);
      (match expect_rejected "swapped payloads" path g phi with
      | Snap.Checksum _ -> ()
      | c -> Alcotest.failf "expected Checksum, got %s" (Snap.describe c))
  | Ok _ -> Alcotest.fail "fewer than two sections"
  | Error c -> Alcotest.failf "layout: %s" (Snap.describe c))

let test_trailing_garbage_detected () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  Disk.write path (Disk.read path ^ "JUNK");
  match expect_rejected "trailing garbage" path g phi with
  | Snap.Bad_layout _ -> ()
  | c -> Alcotest.failf "expected Bad_layout, got %s" (Snap.describe c)

let test_wrong_instance_detected () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  (* same spec, different coloring: a different graph *)
  let g' = Gen.randomly_color ~seed:99 ~colors:3 (Gen.of_spec ~seed:7 "grid:5x5") in
  (match Snap.load ~path g' phi with
  | Ok _ -> Alcotest.fail "snapshot accepted for a different graph"
  | Error (Snap.Mismatch _) -> ()
  | Error c -> Alcotest.failf "expected Mismatch, got %s" (Snap.describe c));
  (* different query *)
  let phi' = Parse.formula "dist(x,y) <= 1" in
  (match Snap.load ~path g phi' with
  | Ok _ -> Alcotest.fail "snapshot accepted for a different query"
  | Error (Snap.Mismatch _) -> ()
  | Error c -> Alcotest.failf "expected Mismatch, got %s" (Snap.describe c));
  (* and the right instance still loads after all those rejections *)
  match Snap.load ~path g phi with
  | Ok _ -> ()
  | Error c -> Alcotest.failf "clean load after rejections: %s" (Snap.describe c)

let test_transplanted_section_detected () =
  (* the deep check: sections with *valid* CRCs transplanted from a
     different, internally consistent snapshot must still be rejected
     by the decoded-payload cross-checks *)
  with_tmp @@ fun path_a ->
  with_tmp @@ fun path_b ->
  let phi = Parse.formula "dist(x,y) <= 2" in
  let ga = graph_of "grid:5x5" in
  let gb = graph_of "cycle:25" in
  let ea = Nd_engine.prepare ga phi and eb = Nd_engine.prepare gb phi in
  Nd_engine.enumerate ~limit:10 (fun _ -> ()) ea;
  Nd_engine.enumerate ~limit:10 (fun _ -> ()) eb;
  ignore (Snap.save ~path:path_a ea);
  ignore (Snap.save ~path:path_b eb);
  let lay p =
    match Snap.layout ~path:p with
    | Ok s -> s
    | Error c -> Alcotest.failf "layout: %s" (Snap.describe c)
  in
  let la = lay path_a and lb = lay path_b in
  let a = Disk.read path_a and b = Disk.read path_b in
  let whole s bytes = String.sub bytes (s.Snap.off - 12) (s.Snap.len + 12) in
  let sec name l = List.find (fun s -> s.Snap.tag = name) l in
  (* splice B's ENGN section (valid tag, len, crc) into A's file *)
  let sa = sec "ENGN" la and sb = sec "ENGN" lb in
  let spliced =
    String.sub a 0 (sa.Snap.off - 12)
    ^ whole sb b
    ^ String.sub a
        (sa.Snap.off + sa.Snap.len)
        (String.length a - sa.Snap.off - sa.Snap.len)
  in
  Disk.write path_a spliced;
  match Snap.load ~path:path_a ga phi with
  | Ok _ -> Alcotest.fail "transplanted ENGN section produced a live handle"
  | Error (Snap.Decode _ | Snap.Mismatch _) -> ()
  | Error c ->
      Alcotest.failf "expected Decode/Mismatch, got %s" (Snap.describe c)

let test_load_or_rebuild_fallback () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  let expected = Nd_engine.to_list eng in
  ignore (Snap.save ~path eng);
  (* clean file: loads *)
  let _, outcome = Snap.load_or_rebuild ~path g phi in
  Alcotest.(check bool) "clean loads" true (outcome = Snap.Loaded);
  (* corrupted file: rebuilds, and the rebuilt handle is exact *)
  Disk.flip_bit path ~byte:(Disk.size path / 2) ~bit:3;
  let rebuilt, outcome = Snap.load_or_rebuild ~path g phi in
  (match outcome with
  | Snap.Rebuilt c ->
      Alcotest.(check bool) "reason recorded" true
        (String.length (Snap.describe c) > 0)
  | Snap.Loaded -> Alcotest.fail "corrupted snapshot loaded");
  Alcotest.(check bool) "rebuilt handle exact" true
    (Nd_engine.to_list rebuilt = expected);
  (* missing file: also a rebuild, not an exception *)
  Sys.remove path;
  let rebuilt2, outcome2 = Snap.load_or_rebuild ~path g phi in
  (match outcome2 with
  | Snap.Rebuilt _ -> ()
  | Snap.Loaded -> Alcotest.fail "missing file loaded");
  Alcotest.(check bool) "rebuild after missing file exact" true
    (Nd_engine.to_list rebuilt2 = expected)

let test_degraded_handle_refused () =
  with_tmp @@ fun path ->
  let g = graph_of "bdeg:60:3" in
  let phi = Parse.formula "dist(x,y) <= 2" in
  let eng =
    Nd_engine.prepare ~budget:(Nd_util.Budget.create ~max_ops:1 ()) g phi
  in
  Alcotest.(check bool) "degraded" true (Nd_engine.degraded eng);
  match Snap.save ~path eng with
  | exception Nd_error.User_error _ -> ()
  | _ -> Alcotest.fail "degraded handle was snapshotted"

let test_info_and_layout () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  let bytes = Snap.save ~path eng in
  (match Snap.layout ~path with
  | Ok sections ->
      Alcotest.(check (list string)) "section order"
        [ "META"; "ENGN"; "ROWS" ]
        (List.map (fun s -> s.Snap.tag) sections);
      let last = List.nth sections 2 in
      Alcotest.(check int) "sections tile the file" bytes
        (last.Snap.off + last.Snap.len)
  | Error c -> Alcotest.failf "layout: %s" (Snap.describe c));
  match Snap.info ~path with
  | Error c -> Alcotest.failf "info: %s" (Snap.describe c)
  | Ok i ->
      Alcotest.(check int) "version" 4 i.Snap.version;
      Alcotest.(check bool) "warmable on this host"
        (Sys.int_size = 63 && not Sys.big_endian)
        i.Snap.warmable;
      Alcotest.(check int) "epoch" (Cgraph.epoch g) i.Snap.graph_epoch;
      Alcotest.(check string) "query text" (Nd_logic.Fo.to_string phi) i.Snap.query;
      Alcotest.(check int) "graph n" (Cgraph.n g) i.Snap.graph_n;
      Alcotest.(check int) "graph fingerprint" (Snap.fingerprint g)
        i.Snap.graph_fingerprint;
      Alcotest.(check int) "cached count" (Nd_engine.cache_size eng)
        i.Snap.cached_solutions

let test_atomic_overwrite () =
  (* saving over an existing snapshot must leave a valid file (temp +
     rename), and fingerprints are order-insensitive *)
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  ignore (Snap.save ~path eng);
  (match Snap.load ~path g phi with
  | Ok _ -> ()
  | Error c -> Alcotest.failf "overwritten snapshot invalid: %s" (Snap.describe c));
  let edges g = Cgraph.fold_edges (fun u v acc -> (u, v) :: acc) g [] in
  let g_rev =
    Cgraph.create ~n:(Cgraph.n g)
      ~colors:
        (Array.init (Cgraph.color_count g) (fun c ->
             let s = Nd_util.Bitset.create (Cgraph.n g) in
             Array.iter
               (fun v -> Nd_util.Bitset.add s v)
               (Cgraph.color_members g ~color:c);
             s))
      (List.rev (edges g))
  in
  Alcotest.(check int) "fingerprint ignores edge order" (Snap.fingerprint g)
    (Snap.fingerprint g_rev)

(* ABA: mutate-and-revert yields a structurally identical graph with a
   different epoch — every structural check passes, only the epoch
   counter can reject the stale snapshot *)
let test_stale_epoch_detected () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  let g' =
    List.fold_left Cgraph.apply g
      [ Cgraph.Add_edge (0, 24); Cgraph.Remove_edge (0, 24) ]
  in
  Alcotest.(check bool) "ABA structure equal" true (Cgraph.equal g g');
  Alcotest.(check int) "ABA fingerprint equal" (Snap.fingerprint g)
    (Snap.fingerprint g');
  (match expect_rejected "stale epoch" path g' phi with
  | Snap.Stale_epoch { snapshot = 0; current = 2 } -> ()
  | c -> Alcotest.failf "expected Stale_epoch 0/2, got %s" (Snap.describe c));
  (* same-history reload still works *)
  match Snap.load ~path g phi with
  | Ok _ -> ()
  | Error c -> Alcotest.failf "same-epoch load rejected: %s" (Snap.describe c)

(* a snapshot of a mutated engine records the mutated epoch, and a
   matching mutated graph revives it *)
let test_epoch_roundtrip_after_update () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  let mut = Cgraph.Add_edge (0, 24) in
  Nd_engine.update eng mut;
  let g' = Cgraph.apply g mut in
  ignore (Snap.save ~path eng);
  (match Snap.info ~path with
  | Ok i -> Alcotest.(check int) "saved epoch" 1 i.Snap.graph_epoch
  | Error c -> Alcotest.failf "info: %s" (Snap.describe c));
  match Snap.load ~path g' phi with
  | Error c -> Alcotest.failf "mutated-state load rejected: %s" (Snap.describe c)
  | Ok loaded ->
      Alcotest.(check bool) "answers match" true
        (Nd_engine.to_list loaded = Nd_engine.to_list (Nd_engine.prepare g' phi))

let test_journal_replay () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  let journal =
    [
      Cgraph.Add_edge (0, 24);
      Cgraph.Remove_edge (0, 1);
      Cgraph.Set_color { color = 0; vertex = 5; present = true };
    ]
  in
  let g' = List.fold_left Cgraph.apply g journal in
  (* clean load: snapshot revives at the base state, journal replays
     through the incremental pipeline *)
  let eng1, outcome = Snap.load_or_rebuild ~journal ~path g phi in
  (match outcome with
  | Snap.Loaded -> ()
  | Snap.Rebuilt c -> Alcotest.failf "clean snapshot rebuilt: %s" (Snap.describe c));
  Alcotest.(check int) "replayed epoch" (List.length journal)
    (Nd_engine.epoch eng1);
  Alcotest.(check bool) "replayed answers" true
    (Nd_engine.to_list eng1 = Nd_engine.to_list (Nd_engine.prepare g' phi));
  (* corrupt the file: the rebuild path must fold the journal into the
     graph before preparing *)
  Disk.flip_bit path ~byte:20 ~bit:0;
  let eng2, outcome = Snap.load_or_rebuild ~journal ~path g phi in
  (match outcome with
  | Snap.Rebuilt _ -> ()
  | Snap.Loaded -> Alcotest.fail "corrupt snapshot loaded");
  Alcotest.(check bool) "rebuilt answers" true
    (Nd_engine.to_list eng2 = Nd_engine.to_list (Nd_engine.prepare g' phi))

(* ---------------- version-4 warm cache (ROWS section) ---------------- *)

let host_mappable = Sys.int_size = 63 && not Sys.big_endian

let test_warm_routes () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  (* default load goes warm; on a 64-bit little-endian host it maps *)
  match Snap.load_routed ~path g phi with
  | Error c -> Alcotest.failf "warm load rejected: %s" (Snap.describe c)
  | Ok (warm_eng, route) -> (
      (match route with
      | Snap.Warm { mapped } ->
          if host_mappable then
            Alcotest.(check bool) "banks memory-mapped" true mapped
      | Snap.Replayed -> Alcotest.fail "v4 snapshot took the replay rung");
      (* the mapped handle and the copied handle answer identically *)
      match Snap.load_routed ~warm:false ~path g phi with
      | Error c -> Alcotest.failf "copying load rejected: %s" (Snap.describe c)
      | Ok (cold_eng, cold_route) ->
          Alcotest.(check bool) "warm:false copies the rows" true
            (cold_route = Snap.Warm { mapped = false });
          Alcotest.(check int) "cache sizes agree"
            (Nd_engine.cache_size cold_eng)
            (Nd_engine.cache_size warm_eng);
          Alcotest.(check bool) "answers agree" true
            (Nd_engine.to_list warm_eng = Nd_engine.to_list cold_eng))

let test_warm_store_stays_live () =
  (* an adopted (possibly mapped) row bank must stay fully live — cache
     growth and invalidation write to private pages, never the file *)
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~path eng);
  let before = Disk.read path in
  let loaded =
    match Snap.load ~path g phi with
    | Ok e -> e
    | Error c -> Alcotest.failf "load: %s" (Snap.describe c)
  in
  (* enumerate everything: grows the revived bank well past the
     snapshotted prefix *)
  let all = Nd_engine.to_list loaded in
  Alcotest.(check bool) "serves after revival" true (List.length all > 0);
  Alcotest.(check bool) "complete after full sweep" true
    (Nd_engine.cache_complete loaded);
  (* mutate: invalidation + maintenance on the adopted bank *)
  let mut = Cgraph.Add_edge (0, 24) in
  Nd_engine.update loaded mut;
  let g' = Cgraph.apply g mut in
  Alcotest.(check bool) "post-update answers" true
    (Nd_engine.to_list loaded = Nd_engine.to_list (Nd_engine.prepare g' phi));
  Alcotest.(check bool) "snapshot file untouched" true
    (Disk.read path = before)

let test_v2_format_compat () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  let bytes = Snap.save ~format:2 ~path eng in
  (match Snap.layout ~path with
  | Ok sections ->
      Alcotest.(check (list string)) "v2 section order"
        [ "META"; "ENGN"; "CACH" ]
        (List.map (fun s -> s.Snap.tag) sections);
      let last = List.nth sections 2 in
      Alcotest.(check int) "v2 sections tile the file" bytes
        (last.Snap.off + last.Snap.len);
      (* Marshal reads records by field position, so files written
         before epsilon left the payload need the six-field record *)
      let engn = List.nth sections 1 in
      Alcotest.(check int) "v2 ENGN keeps the legacy record" 6
        (Obj.size (Obj.repr (Marshal.from_string (Disk.read path) engn.Snap.off)))
  | Error c -> Alcotest.failf "v2 layout: %s" (Snap.describe c));
  (match Snap.info ~path with
  | Ok i ->
      Alcotest.(check int) "v2 version" 2 i.Snap.version;
      Alcotest.(check bool) "v2 never warmable" false i.Snap.warmable
  | Error c -> Alcotest.failf "v2 info: %s" (Snap.describe c));
  match Snap.load_routed ~path g phi with
  | Error c -> Alcotest.failf "v2 load rejected: %s" (Snap.describe c)
  | Ok (loaded, route) ->
      Alcotest.(check bool) "v2 loads via replay" true
        (route = Snap.Replayed);
      Alcotest.(check int) "v2 cache revived"
        (Nd_engine.cache_size eng)
        (Nd_engine.cache_size loaded);
      Alcotest.(check bool) "v2 answers" true
        (Nd_engine.to_list loaded = Nd_engine.to_list eng)

(* A version-3 file, built from a v2 one: v3 was the v2 layout plus a
   trailing STOR section (the old store's register banks), which a v4
   reader checksums and otherwise ignores.  Built here rather than
   committed: META pins the OCaml version that wrote the file. *)
let put_u32_buf b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let v3_of_v2 v2 =
  let stor = "\001\000\000\000" ^ String.init 60 (fun i -> Char.chr (i * 7 land 0xFF)) in
  let b = Buffer.create (String.length v2 + 128) in
  Buffer.add_string b (String.sub v2 0 8);
  put_u32_buf b 3;
  put_u32_buf b 4;
  Buffer.add_string b (String.sub v2 16 (String.length v2 - 16));
  Buffer.add_string b "STOR";
  put_u32_buf b (String.length stor);
  put_u32_buf b (Nd_util.Crc32.string stor);
  Buffer.add_string b stor;
  Buffer.contents b

let test_v3_format_compat () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  ignore (Snap.save ~format:2 ~path eng);
  Disk.write path (v3_of_v2 (Disk.read path));
  (match Snap.layout ~path with
  | Ok sections ->
      Alcotest.(check (list string)) "v3 section order"
        [ "META"; "ENGN"; "CACH"; "STOR" ]
        (List.map (fun s -> s.Snap.tag) sections)
  | Error c -> Alcotest.failf "v3 layout: %s" (Snap.describe c));
  (match Snap.info ~path with
  | Ok i ->
      Alcotest.(check int) "v3 version" 3 i.Snap.version;
      Alcotest.(check bool) "v3 never warmable" false i.Snap.warmable;
      Alcotest.(check bool) "info prints warm store: no" true
        (String.starts_with ~prefix:"no " (Snap.describe_warm i))
  | Error c -> Alcotest.failf "v3 info: %s" (Snap.describe c));
  (match Snap.load_routed ~path g phi with
  | Error c -> Alcotest.failf "v3 load rejected: %s" (Snap.describe c)
  | Ok (loaded, route) ->
      Alcotest.(check bool) "v3 loads via replay" true (route = Snap.Replayed);
      Alcotest.(check int) "v3 cache revived" (Nd_engine.cache_size eng)
        (Nd_engine.cache_size loaded);
      List.iter
        (fun t ->
          Alcotest.(check bool) "v3 next" true
            (Nd_engine.next loaded t = Nd_engine.next eng t);
          Alcotest.(check bool) "v3 test" true
            (Nd_engine.test loaded t = Nd_engine.test eng t))
        (probe_tuples g 2);
      Alcotest.(check bool) "v3 answers" true
        (Nd_engine.to_list loaded = Nd_engine.to_list eng));
  (* the ignored STOR section is still checksummed *)
  let stor =
    match Snap.layout ~path with
    | Ok sections -> List.find (fun s -> s.Snap.tag = "STOR") sections
    | Error c -> Alcotest.failf "layout: %s" (Snap.describe c)
  in
  Disk.flip_bit path ~byte:(stor.Snap.off + 9) ~bit:1;
  match expect_rejected "v3 stor bit flip" path g phi with
  | Snap.Checksum { section = "STOR" } -> ()
  | c -> Alcotest.failf "expected STOR checksum, got %s" (Snap.describe c)

(* ROWS payload layout (see nd_snapshot.mli): present, k, count, limit,
   full, complete, frontier_set (7 × u32 = 28 bytes), k × u32 frontier,
   u32 pad, pad zeros, then count·k 8-aligned i64 row words. *)

let u32_at s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let put_u32_bytes b pos v =
  for i = 0 to 3 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let rows_section path =
  match Snap.layout ~path with
  | Ok sections -> List.find (fun s -> s.Snap.tag = "ROWS") sections
  | Error c -> Alcotest.failf "layout: %s" (Snap.describe c)

(* after a deliberate payload edit, restore the section CRC so the
   corruption is "coherent" — it must then be caught by semantic
   vetting, not the checksum *)
let recrc path sec =
  let s = Disk.read path in
  let crc = Nd_util.Crc32.string ~off:sec.Snap.off ~len:sec.Snap.len s in
  let b = Bytes.of_string s in
  put_u32_bytes b (sec.Snap.off - 4) crc;
  Disk.write path (Bytes.to_string b)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_rows_corruption_ladder () =
  with_tmp @@ fun path ->
  let g, phi, eng = make_reference () in
  (* answers from a separate handle: [eng] keeps its 10-row prefix, so
     a complete flag set on its rows is a lie the vetting must catch *)
  let expected = Nd_engine.to_list (Nd_engine.prepare g phi) in
  ignore (Snap.save ~path eng);
  let original = Disk.read path in
  let sec = rows_section path in
  let off = sec.Snap.off in
  let k = u32_at original (off + 4) in
  let count = u32_at original (off + 8) in
  Alcotest.(check bool) "cache rows present" true (u32_at original off = 1);
  Alcotest.(check int) "row width" 2 k;
  Alcotest.(check bool) "frontier recorded" true (u32_at original (off + 24) = 1);
  Alcotest.(check bool) "several rows" true (count >= 2);
  let frontier_off = off + 28 in
  let pad_off = frontier_off + (4 * k) in
  let rows_off = pad_off + 4 + u32_at original pad_off in
  let word i = rows_off + (8 * i) in
  Alcotest.(check int) "rows 8-aligned in the file" 0 (rows_off mod 8);
  Alcotest.(check int) "rows tile the section" (off + sec.Snap.len)
    (word (count * k));
  (* rung 1: raw bit damage inside ROWS → the checksum refuses *)
  Disk.flip_bit path ~byte:(word 1) ~bit:2;
  (match expect_rejected "rows bit flip" path g phi with
  | Snap.Checksum { section = "ROWS" } -> ()
  | c -> Alcotest.failf "expected ROWS checksum, got %s" (Snap.describe c));
  (* rung 2: truncation mid-rows → the structural parse refuses *)
  Disk.write path original;
  Disk.truncate_at path (word 1 + 4);
  (match expect_rejected "rows truncation" path g phi with
  | Snap.Truncated _ -> ()
  | c -> Alcotest.failf "expected Truncated, got %s" (Snap.describe c));
  (* rung 3: coherent damage (CRC recomputed) → vetting refuses with a
     Decode naming the broken invariant, whether the rows are mapped or
     copied, and load_or_rebuild lands on an exact rebuild *)
  let coherent what ~reason edit =
    Disk.write path original;
    let b = Bytes.of_string original in
    edit b;
    Disk.write path (Bytes.to_string b);
    recrc path sec;
    List.iter
      (fun warm ->
        match Snap.load_routed ~warm ~path g phi with
        | Error (Snap.Decode m) when contains m reason -> ()
        | Error c ->
            Alcotest.failf "%s (warm=%b): expected Decode (%s), got %s" what warm
              reason (Snap.describe c)
        | Ok _ -> Alcotest.failf "%s (warm=%b): corrupt ROWS loaded" what warm)
      [ true; false ];
    let rebuilt, outcome = Snap.load_or_rebuild ~path g phi in
    (match outcome with
    | Snap.Rebuilt _ -> ()
    | Snap.Loaded -> Alcotest.failf "%s: corrupt ROWS loaded" what);
    Alcotest.(check bool) (what ^ ": rebuilt handle exact") true
      (Nd_engine.to_list rebuilt = expected)
  in
  let set_word b i v = Bytes.set_int64_le b (word i) (Int64.of_int v) in
  coherent "rows out of order" ~reason:"not above its predecessor" (fun b ->
      (* swap rows 0 and 1 *)
      for j = 0 to k - 1 do
        let x = Bytes.get_int64_le b (word j) in
        Bytes.set_int64_le b (word j) (Bytes.get_int64_le b (word (k + j)));
        Bytes.set_int64_le b (word (k + j)) x
      done);
  coherent "vertex >= n" ~reason:"vertex outside" (fun b ->
      (* the last word of the last row: order is kept *)
      set_word b ((count * k) - 1) (Cgraph.n g + 7));
  coherent "count > limit" ~reason:"exceed the limit" (fun b ->
      put_u32_bytes b (off + 12) (count - 1));
  coherent "full flag" ~reason:"full flag" (fun b -> put_u32_bytes b (off + 16) 1);
  coherent "complete flag" ~reason:"marked complete" (fun b ->
      put_u32_bytes b (off + 20) 1);
  coherent "frontier below the last row" ~reason:"below the last row" (fun b ->
      for j = 0 to k - 1 do
        put_u32_bytes b (frontier_off + (4 * j))
          (Int64.to_int (Bytes.get_int64_le b (word j)))
      done);
  coherent "wild frontier" ~reason:"frontier outside" (fun b ->
      put_u32_bytes b frontier_off (Cgraph.n g + 7));
  coherent "k differs from META" ~reason:"arity differs from the META" (fun b ->
      put_u32_bytes b (off + 4) (k + 1))

let suite =
  [
    Alcotest.test_case "zoo round-trips (differential)" `Slow
      test_zoo_roundtrips;
    Alcotest.test_case "round-trips: colors, edges, sentences" `Slow
      test_roundtrip_other_queries;
    Alcotest.test_case "complete cache revives" `Quick
      test_warm_cache_roundtrip;
    Alcotest.test_case "truncation detected (boundaries)" `Quick
      test_truncation_detected;
    Alcotest.test_case "truncation detected (random)" `Slow
      test_truncation_random;
    Alcotest.test_case "bit flips detected (random)" `Slow
      test_bitflip_detected;
    Alcotest.test_case "stale version detected" `Quick
      test_stale_version_detected;
    Alcotest.test_case "swapped sections detected" `Quick
      test_swapped_sections_detected;
    Alcotest.test_case "trailing garbage detected" `Quick
      test_trailing_garbage_detected;
    Alcotest.test_case "wrong graph / query detected" `Quick
      test_wrong_instance_detected;
    Alcotest.test_case "transplanted section detected" `Quick
      test_transplanted_section_detected;
    Alcotest.test_case "load_or_rebuild degrades gracefully" `Quick
      test_load_or_rebuild_fallback;
    Alcotest.test_case "degraded handle refused" `Quick
      test_degraded_handle_refused;
    Alcotest.test_case "stale epoch (ABA) detected" `Quick
      test_stale_epoch_detected;
    Alcotest.test_case "epoch round-trips after update" `Quick
      test_epoch_roundtrip_after_update;
    Alcotest.test_case "journal replay on load_or_rebuild" `Quick
      test_journal_replay;
    Alcotest.test_case "info + layout introspection" `Quick
      test_info_and_layout;
    Alcotest.test_case "atomic overwrite + fingerprint" `Quick
      test_atomic_overwrite;
    Alcotest.test_case "warm load routes (v4 ROWS)" `Quick test_warm_routes;
    Alcotest.test_case "warm store stays live" `Quick
      test_warm_store_stays_live;
    Alcotest.test_case "v2 format still readable" `Quick
      test_v2_format_compat;
    Alcotest.test_case "v3 format read through CACH" `Quick
      test_v3_format_compat;
    Alcotest.test_case "ROWS corruption ladder" `Quick
      test_rows_corruption_ladder;
  ]
