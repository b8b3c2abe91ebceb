(* The cluster tier: ownership partition, the duplicate-free k-way
   merge, and the epoch-fencing router — differential against the
   single-node engine, under failover, lagging replicas, catch-up and
   total shard loss.  Everything runs in-process over local endpoints:
   deterministic, no sockets, no sleeps (jitter and sleep_ms are
   injected as identities). *)

open Nd_graph
module Server = Nd_server
module Tuple = Nd_util.Tuple
module Ownership = Nd_cluster.Ownership
module Merge = Nd_cluster.Merge
module Router = Nd_cluster.Router

let graph () = Gen.randomly_color ~seed:5 ~colors:3 (Gen.grid 5 5)
let query = "dist(x,y) <= 2"
let formula () = Nd_logic.Parse.formula query

let expected_solutions () =
  Nd_engine.to_list (Nd_engine.prepare (graph ()) (formula ()))

(* One shard worker: an ordinary server whose [owner] config restricts
   it to the shard's slice of the solution space.  Each replica gets
   its own engine (its own mutable state), all over the same boot
   graph. *)
let shard_server own ~shard =
  let eng = Nd_engine.prepare (graph ()) (formula ()) in
  let config =
    {
      Server.default_config with
      Server.ownership = Some (Ownership.for_shard own ~shard);
    }
  in
  (Server.create ~config eng, eng)

(* deterministic router config: no timer, no real sleeps, no jitter *)
let rconfig ?(fence = true) ?(retries = 1) ?event_log () =
  {
    Router.fence;
    probe_interval_ms = 0;
    retries;
    backoff_ms = 1;
    jitter = Nd_util.Backoff.none;
    sleep_ms = ignore;
    retry_after_ms = 25;
    max_enumerate = 512;
    event_log;
  }

let fleet ?config ~shards ~replicas () =
  let own = Ownership.compute (graph ()) ~shards in
  let servers =
    Array.init shards (fun s ->
        Array.init replicas (fun _ -> shard_server own ~shard:s))
  in
  let eps =
    List.concat_map
      (fun s ->
        List.init replicas (fun r ->
            Router.local_endpoint ~shard:s
              ~label:(Printf.sprintf "s%d/r%d" s r)
              (fst servers.(s).(r))))
      (List.init shards Fun.id)
  in
  let rt = Router.create ?config ~ownership:own ~arity:2 eps in
  (rt, servers, own)

let starts p l = String.starts_with ~prefix:p l

let infix needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let tuple_of_payload s =
  Array.of_list (List.map int_of_string (String.split_on_char ',' s))

let drive ?(page = 7) rt =
  let sols = ref [] and complete = ref false and guard = ref 0 in
  while not !complete do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "enumeration did not terminate";
    let reply = Router.handle rt (Printf.sprintf "enumerate %d" page) in
    List.iter
      (fun l ->
        if starts "sol " l then
          sols := tuple_of_payload (String.sub l 4 (String.length l - 4)) :: !sols
        else if starts "err " l then Alcotest.failf "enumerate: %s" l
        else if starts "end " l then
          complete :=
            String.length l > 9
            && String.sub l (String.length l - 8) 8 = "complete")
      reply
  done;
  List.rev !sols

let check_sols what got =
  Alcotest.(check bool) what true (got = expected_solutions ())

let terminator reply =
  match List.rev reply with
  | last :: _ -> last
  | [] -> Alcotest.fail "empty reply"

let check_ok what reply = Alcotest.(check string) what "ok" (terminator reply)

(* ---------------- ownership ---------------- *)

let prop_ownership_partition =
  QCheck.Test.make
    ~name:"ownership: total, disjoint, first-coordinate partition" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x0a11 |] in
      let w = 2 + Random.State.int st 4 and h = 2 + Random.State.int st 4 in
      let g = Gen.grid w h in
      let n = Cgraph.n g in
      let shards = 1 + Random.State.int st 4 in
      let own = Ownership.compute g ~shards in
      if Ownership.shards own <> shards then
        QCheck.Test.fail_reportf "shards: %d" (Ownership.shards own);
      if Ownership.n own <> n then QCheck.Test.fail_reportf "n mismatch";
      if Ownership.shard_of_tuple own [||] <> 0 then
        QCheck.Test.fail_reportf "empty tuple not shard 0's";
      for _ = 1 to 40 do
        let arity = 1 + Random.State.int st 2 in
        let t = Array.init arity (fun _ -> Random.State.int st n) in
        let sh = Ownership.shard_of_tuple own t in
        if sh < 0 || sh >= shards then
          QCheck.Test.fail_reportf "shard %d out of range" sh;
        if Ownership.shard_of_vertex own t.(0) <> sh then
          QCheck.Test.fail_reportf "tuple not owned by first coordinate";
        let owners =
          List.filter
            (fun s -> Ownership.owner own ~shard:s t)
            (List.init shards Fun.id)
        in
        if owners <> [ sh ] then
          QCheck.Test.fail_reportf "tuple has %d owners"
            (List.length owners)
      done;
      true)

let test_ownership_validation () =
  let g = Gen.grid 3 3 in
  (match Ownership.compute g ~shards:0 with
  | _ -> Alcotest.fail "shards=0 accepted"
  | exception Invalid_argument _ -> ());
  (match Ownership.compute ~r:0 g ~shards:2 with
  | _ -> Alcotest.fail "r=0 accepted"
  | exception Invalid_argument _ -> ());
  match Ownership.for_shard (Ownership.compute g ~shards:2) ~shard:2 with
  | _ -> Alcotest.fail "shard 2 of 2 accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- the k-way merge ---------------- *)

(* Satellite: random partitions WITH cross-stream overlap, random page
   sizes, pagination truncating the merge mid-way.  The lower bound is
   the only state carried between pages — exactly what survives a
   failover — so page-by-page equality with the sorted dedup union is
   the no-gaps / no-duplicates theorem for resumed merges. *)
let prop_merge_no_gaps_no_dups =
  QCheck.Test.make
    ~name:"k-way merge: overlapping streams, truncation mid-way" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x3e16e |] in
      let n = 1 + Random.State.int st 9 in
      let arity = 1 + Random.State.int st 2 in
      let shards = 1 + Random.State.int st 3 in
      let k = 1 + Random.State.int st 6 in
      let m = Random.State.int st 40 in
      let universe =
        List.init m (fun _ -> Array.init arity (fun _ -> Random.State.int st n))
      in
      let sorted = List.sort_uniq Tuple.compare universe in
      let streams = Array.make shards [] in
      List.iter
        (fun t ->
          let primary = Random.State.int st shards in
          streams.(primary) <- t :: streams.(primary);
          (* overlap: some tuples live on several streams; the merge
             must still emit them exactly once *)
          if shards > 1 && Random.State.int st 4 = 0 then begin
            let other = Random.State.int st shards in
            if other <> primary then streams.(other) <- t :: streams.(other)
          end)
        sorted;
      Array.iteri
        (fun i l -> streams.(i) <- List.sort Tuple.compare l)
        streams;
      let pull sh lb =
        List.find_opt (fun t -> Tuple.compare t lb >= 0) streams.(sh)
      in
      let rec pages start acc rounds =
        if rounds > 500 then QCheck.Test.fail_reportf "merge did not finish";
        match start with
        | None -> acc
        | Some _ ->
            let page, next = Merge.merge_pull ~n ~k ~start ~shards ~pull in
            if List.length page > k then
              QCheck.Test.fail_reportf "page of %d exceeds k=%d"
                (List.length page) k;
            pages next (acc @ page) (rounds + 1)
      in
      let merged = pages (Some (Tuple.min arity)) [] 0 in
      if merged <> sorted then
        QCheck.Test.fail_reportf "merged %d tuples, expected %d"
          (List.length merged) (List.length sorted);
      true)

(* ---------------- router differential ---------------- *)

let test_router_differential () =
  List.iter
    (fun shards ->
      let rt, _, _ = fleet ~config:(rconfig ()) ~shards ~replicas:1 () in
      check_sols
        (Printf.sprintf "%d-shard enumeration = single-node" shards)
        (drive rt))
    [ 1; 2; 3; 5 ]

let test_router_next_and_test () =
  let rt, _, _ = fleet ~config:(rconfig ()) ~shards:3 ~replicas:1 () in
  (* the next-verb walk reconstitutes the same global stream *)
  let n = Cgraph.n (graph ()) in
  let collected = ref [] in
  let rec walk lb =
    match Router.handle rt ("next " ^ fmt lb) with
    | [ one; "ok" ] when starts "sol " one ->
        let sol = tuple_of_payload (String.sub one 4 (String.length one - 4)) in
        collected := sol :: !collected;
        (match Tuple.succ ~n sol with Some lb' -> walk lb' | None -> ())
    | [ "none"; "ok" ] -> ()
    | r -> Alcotest.failf "next reply: %s" (String.concat "|" r)
  and fmt t =
    String.concat "," (List.map string_of_int (Array.to_list t))
  in
  walk (Tuple.min 2);
  check_sols "next-walk = single-node" (List.rev !collected);
  (* test answers match membership *)
  Alcotest.(check (list string)) "test true" [ "true"; "ok" ]
    (Router.handle rt "test 0,1");
  Alcotest.(check (list string)) "test false" [ "false"; "ok" ]
    (Router.handle rt "test 0,24")

let test_router_health_stats_and_quit () =
  let rt, _, _ = fleet ~config:(rconfig ()) ~shards:2 ~replicas:2 () in
  ignore (Router.handle rt "enumerate 5");
  (match Router.handle rt "health" with
  | [ line; "ok" ] ->
      List.iter
        (fun tok ->
          Alcotest.(check bool) tok true
            (infix tok line))
        [ "health ok"; "shards=2"; "replicas=4"; "live="; "epoch=" ]
  | r -> Alcotest.failf "health reply: %s" (String.concat "|" r));
  (match Router.handle rt "stats" with
  | [ json; "ok" ] ->
      Alcotest.(check bool) "stats is the router schema" true
        (infix "nd-router-stats/1" json)
  | r -> Alcotest.failf "stats reply: %s" (String.concat "|" r));
  let s = Router.stats rt in
  Alcotest.(check int) "all replicas live" 4 s.Router.live;
  Alcotest.(check bool) "not quitting" false (Router.quitting rt);
  Alcotest.(check (list string)) "quit" [ "bye" ] (Router.handle rt "quit");
  Alcotest.(check bool) "quitting" true (Router.quitting rt)

let test_router_session_isolation () =
  let rt, _, _ = fleet ~config:(rconfig ()) ~shards:2 ~replicas:1 () in
  let s1 = Router.session rt and s2 = Router.session rt in
  let page s = Router.handle s "enumerate 3" in
  let p1 = page s1 in
  let p1' = page s2 in
  Alcotest.(check (list string)) "fresh cursor per session" p1 p1';
  let p2 = page s1 in
  Alcotest.(check bool) "s1 advanced independently" true (p1 <> p2)

let test_router_unknown_verb_is_user_error () =
  let rt, _, _ = fleet ~config:(rconfig ()) ~shards:2 ~replicas:1 () in
  match Router.handle rt "frobnicate" with
  | [ line ] ->
      Alcotest.(check bool) "err user" true (starts "err user" line);
      check_ok "still alive" (Router.handle rt "enumerate 2")
  | r -> Alcotest.failf "unknown verb reply: %s" (String.concat "|" r)

let test_create_validation () =
  let own = Ownership.compute (graph ()) ~shards:2 in
  let srv, _ = shard_server own ~shard:0 in
  let ep = Router.local_endpoint ~shard:0 ~label:"only" srv in
  (* shard 1 has no endpoint *)
  (match Router.create ~ownership:own ~arity:2 [ ep ] with
  | _ -> Alcotest.fail "gap in shard coverage accepted"
  | exception Invalid_argument _ -> ());
  match
    Router.create ~ownership:own ~arity:2
      [ ep; Router.local_endpoint ~shard:7 ~label:"oob" srv ]
  with
  | _ -> Alcotest.fail "out-of-range shard accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- failover ---------------- *)

(* Replica s0/r0 dies mid-stream (transport EOF on every call after the
   first few); the router must fail over to s0/r1 and the merged stream
   must come out whole — the pull-driven merge re-asks the sibling with
   the same lower bound, so the page boundary cannot leak gaps or
   duplicates. *)
let test_failover_mid_enumeration () =
  let shards = 2 in
  let own = Ownership.compute (graph ()) ~shards in
  let a0, _ = shard_server own ~shard:0 in
  let a1, _ = shard_server own ~shard:0 in
  let b0, _ = shard_server own ~shard:1 in
  let calls = ref 0 in
  let dying =
    Router.endpoint ~shard:0 ~label:"s0/dying" (fun () ->
        let session = Server.session a0 in
        Ok
          {
            Router.transport =
              (fun line ->
                incr calls;
                if !calls > 5 then raise End_of_file
                else Server.handle session line);
            read_reply = (fun _ -> None);
            close = ignore;
          })
  in
  let rt =
    Router.create ~config:(rconfig ()) ~ownership:own ~arity:2
      [
        dying;
        Router.local_endpoint ~shard:0 ~label:"s0/backup" a1;
        Router.local_endpoint ~shard:1 ~label:"s1" b0;
      ]
  in
  check_sols "failover mid-stream keeps the stream whole" (drive ~page:3 rt);
  let s = Router.stats rt in
  Alcotest.(check bool) "failover counted" true (s.Router.failovers >= 1);
  Alcotest.(check bool) "no unavailable" true (s.Router.unavailable = 0)

(* ---------------- replication, fencing, catch-up ---------------- *)

let mutation = "add-edge 0 7"

let mutated_solutions () =
  let g = Cgraph.apply (graph ()) (Cgraph.mutation_of_string mutation) in
  Nd_engine.to_list (Nd_engine.prepare g (formula ()))

(* s0/r1 misses the update fan-out (its transport drops [update] lines);
   the router fences it, and the next probe round replays the missing
   journal suffix via batch-update and readmits it at the fleet epoch. *)
let test_update_fence_and_catchup () =
  let shards = 2 in
  let own = Ownership.compute (graph ()) ~shards in
  let a0, _ = shard_server own ~shard:0 in
  let a1, a1_eng = shard_server own ~shard:0 in
  let b0, _ = shard_server own ~shard:1 in
  let events = ref [] in
  let dropping =
    Router.endpoint ~shard:0 ~label:"s0/lagging" (fun () ->
        let session = Server.session a1 in
        Ok
          {
            Router.transport =
              (fun line ->
                if starts "update" line then raise End_of_file
                else Server.handle session line);
            read_reply = (fun _ -> None);
            close = ignore;
          })
  in
  let config = rconfig ~event_log:(fun l -> events := l :: !events) () in
  let rt =
    Router.create ~config ~ownership:own ~arity:2
      [
        Router.local_endpoint ~shard:0 ~label:"s0/leader" a0;
        dropping;
        Router.local_endpoint ~shard:1 ~label:"s1" b0;
      ]
  in
  check_ok "update accepted" (Router.handle rt ("update " ^ mutation));
  let s = Router.stats rt in
  Alcotest.(check int) "fleet epoch advanced" 1 s.Router.fleet_epoch;
  Alcotest.(check int) "lagging replica fenced" 1 s.Router.fenced;
  Alcotest.(check int) "replica engine still at epoch 0" 0
    (Nd_engine.epoch a1_eng);
  (* answers reflect the mutation even while a replica lags *)
  Alcotest.(check bool) "post-update enumeration correct" true
    (drive rt = mutated_solutions ());
  (* the probe round catches the laggard up and readmits it *)
  Router.probe rt;
  let s = Router.stats rt in
  Alcotest.(check bool) "catch-up happened" true (s.Router.catchups >= 1);
  Alcotest.(check int) "everyone back in rotation" 0 s.Router.fenced;
  Alcotest.(check int) "laggard replayed the journal" 1
    (Nd_engine.epoch a1_eng);
  (* lifecycle rows were written *)
  let have cmd =
    List.exists
      (fun l -> infix (Printf.sprintf "%S" cmd) l)
      !events
  in
  Alcotest.(check bool) "(fence) row" true (have "(fence)");
  Alcotest.(check bool) "(catchup) row" true (have "(catchup)")

(* A replica mutated behind the router's back is AHEAD of the fleet:
   no safe rollback exists, so it is fenced permanently and its state
   never contaminates a merge. *)
let test_ahead_replica_permanently_fenced () =
  let shards = 1 in
  let own = Ownership.compute (graph ()) ~shards in
  let a0, _ = shard_server own ~shard:0 in
  let a1, a1_eng = shard_server own ~shard:0 in
  let rt =
    Router.create ~config:(rconfig ()) ~ownership:own ~arity:2
      [
        Router.local_endpoint ~shard:0 ~label:"honest" a0;
        Router.local_endpoint ~shard:0 ~label:"rogue" a1;
      ]
  in
  (* establish the fleet epoch at 0 *)
  check_ok "first contact" (Router.handle rt "enumerate 3");
  (* the rogue mutates out-of-band *)
  Nd_engine.update a1_eng (Cgraph.mutation_of_string mutation);
  Router.probe rt;
  let s = Router.stats rt in
  Alcotest.(check int) "rogue fenced" 1 s.Router.fenced;
  (match
     List.find_opt
       (fun (_, label, _) -> label = "rogue")
       (Router.replica_states rt)
   with
  | Some (_, _, state) ->
      Alcotest.(check bool) "state names the ahead fence" true
        (infix "ahead" state)
  | None -> Alcotest.fail "rogue replica missing from states");
  (* the honest replica answers; answers are the UNMUTATED ones *)
  Router.handle rt "reset" |> check_ok "reset";
  check_sols "merge never saw the rogue epoch" (drive rt)

(* All replicas of a shard gone: the shard group is unavailable and the
   reply says so loudly — structured fields, no partial answer. *)
let test_unavailable_when_group_dark () =
  let shards = 2 in
  let own = Ownership.compute (graph ()) ~shards in
  let a0, _ = shard_server own ~shard:0 in
  let b0, _ = shard_server own ~shard:1 in
  let dead = ref false in
  let events = ref [] in
  let mortal =
    Router.endpoint ~shard:1 ~label:"s1/mortal" (fun () ->
        if !dead then Error "connect refused (down for the test)"
        else
          let session = Server.session b0 in
          Ok
            {
              Router.transport =
                (fun line ->
                  if !dead then raise End_of_file
                  else Server.handle session line);
              read_reply = (fun _ -> None);
              close = ignore;
            })
  in
  let config =
    rconfig ~retries:0 ~event_log:(fun l -> events := l :: !events) ()
  in
  let rt =
    Router.create ~config ~ownership:own ~arity:2
      [ Router.local_endpoint ~shard:0 ~label:"s0" a0; mortal ]
  in
  check_ok "healthy first page" (Router.handle rt "enumerate 3");
  dead := true;
  (match Router.handle rt "enumerate 512" with
  | [ line ] ->
      Alcotest.(check bool) "err unavailable" true
        (starts "err unavailable" line);
      List.iter
        (fun tok ->
          Alcotest.(check bool) tok true
            (infix tok line))
        [ "shard=1"; "retry-after-ms=25"; "rid=" ]
  | r -> Alcotest.failf "dark group reply: %s" (String.concat "|" r));
  let s = Router.stats rt in
  Alcotest.(check bool) "unavailable counted" true (s.Router.unavailable >= 1);
  (* the event row carries the shard attribute and the status *)
  Alcotest.(check bool) "unavailable event row" true
    (List.exists
       (fun l ->
         infix "\"unavailable\"" l
         && infix "\"shard\":1" l)
       !events);
  (* the group coming back revives the router with no restart *)
  dead := false;
  Router.handle rt "reset" |> check_ok "reset";
  check_sols "recovered after the outage" (drive rt)

(* A lagging replica whose catch-up channel is also broken must stay
   out of rotation: the router answers [err unavailable] rather than
   serving the stale epoch.  Mixed-epoch merges are impossible, not
   just discouraged. *)
let test_stale_replica_never_served () =
  let shards = 1 in
  let own = Ownership.compute (graph ()) ~shards in
  (* a leader that can be killed on demand + a replica that misses every
     update AND every catch-up replay *)
  let mk_pair () =
    let a0, _ = shard_server own ~shard:0 in
    let a1, _ = shard_server own ~shard:0 in
    let a0_dead = ref false in
    let flaky =
      Router.endpoint ~shard:0 ~label:"leader" (fun () ->
          let session = Server.session a0 in
          Ok
            {
              Router.transport =
                (fun line ->
                  if !a0_dead then raise End_of_file
                  else Server.handle session line);
              read_reply = (fun _ -> None);
              close = ignore;
            })
    in
    let stale =
      Router.endpoint ~shard:0 ~label:"stale" (fun () ->
          let session = Server.session a1 in
          Ok
            {
              Router.transport =
                (fun line ->
                  if starts "update" line || starts "batch-update" line then
                    raise End_of_file
                  else Server.handle session line);
              read_reply = (fun _ -> None);
              close = ignore;
            })
    in
    (flaky, stale, a0_dead)
  in
  let flaky, stale, a0_dead = mk_pair () in
  let rt =
    Router.create ~config:(rconfig ~retries:0 ()) ~ownership:own ~arity:2
      [ flaky; stale ]
  in
  check_ok "update through the leader" (Router.handle rt ("update " ^ mutation));
  a0_dead := true;
  (match Router.handle rt "enumerate 512" with
  | [ line ] ->
      Alcotest.(check bool) "unavailable, not stale data" true
        (starts "err unavailable" line)
  | r -> Alcotest.failf "stale-group reply: %s" (String.concat "|" r));
  (* with fencing disabled the stale replica WOULD serve — proving the
     fence is what stood between the client and a mixed-epoch answer *)
  let flaky2, stale2, a0_dead2 = mk_pair () in
  let rt2 =
    Router.create
      ~config:(rconfig ~fence:false ~retries:0 ())
      ~ownership:own ~arity:2 [ flaky2; stale2 ]
  in
  check_ok "unfenced update" (Router.handle rt2 ("update " ^ mutation));
  a0_dead2 := true;
  let got = drive rt2 in
  Alcotest.(check bool) "no-fence mode serves the stale epoch" true
    (got = expected_solutions ())

(* ---------------- owned streams ---------------- *)

(* A fleet of one replica per shard over [g]/[phi]; all shards share
   one engine (answers do not depend on its cache). *)
let fleet_on ?(config = rconfig ()) g phi ~shards =
  let eng = Nd_engine.prepare g phi in
  let own = Ownership.compute g ~shards in
  let servers =
    Array.init shards (fun shard ->
        Server.create
          ~config:
            {
              Server.default_config with
              Server.ownership = Some (Ownership.for_shard own ~shard);
            }
          eng)
  in
  let eps =
    List.init shards (fun s ->
        Router.local_endpoint ~shard:s ~label:(Printf.sprintf "s%d" s)
          servers.(s))
  in
  let rt =
    Router.create ~config ~ownership:own ~arity:(Nd_engine.arity eng) eps
  in
  (eng, own, servers, rt)

let fmt_tup t = String.concat "," (List.map string_of_int (Array.to_list t))

(* the [next] verb of a server or router, parsed *)
let next_via handle a =
  match handle ("next " ^ fmt_tup a) with
  | [ "none"; "ok" ] -> None
  | [ one; "ok" ] when starts "sol " one ->
      let p = String.sub one 4 (String.length one - 4) in
      Some (if p = "" then [||] else tuple_of_payload p)
  | r -> Alcotest.failf "next %s: %s" (fmt_tup a) (String.concat "|" r)

(* The one-by-one walk shard mode used to do: the oracle for the jump. *)
let walk_next eng ~owned a =
  let n = Cgraph.n (Nd_engine.graph eng) in
  let rec go a =
    match Nd_engine.next eng a with
    | None -> None
    | Some sol when owned sol -> Some sol
    | Some sol -> (
        match Tuple.succ ~n sol with None -> None | Some a' -> go a')
  in
  go a

(* every [next]-walk answer of a server, from the smallest tuple *)
let stream_of handle ~n ~arity =
  let rec go acc = function
    | None -> List.rev acc
    | Some a -> (
        match next_via handle a with
        | None -> List.rev acc
        | Some sol -> go (sol :: acc) (Tuple.succ ~n sol))
  in
  if arity > 0 && n = 0 then [] else go [] (Some (Tuple.min arity))

let owned_stream_queries =
  [|
    "exists x y. E(x,y) & C1(y)";
    "C0(x) & (exists z. E(x,z) & C1(z))";
    "dist(x,y) > 2 & C1(y)";
    "dist(x,y) <= 1";
    "E(x,y) & dist(y,z) <= 1 & C0(z)";
  |]

let prop_owned_streams =
  QCheck.Test.make
    ~name:"owned streams: jump = one-by-one walk, partition, router minimum"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x0c0de |] in
      let fams = Array.of_list Gen.families in
      let fam = fams.(Random.State.int st (Array.length fams)) in
      let g =
        Gen.randomly_color ~seed ~colors:3
          (fam.Gen.build (8 + Random.State.int st 25))
      in
      let n = Cgraph.n g in
      let q =
        owned_stream_queries.(Random.State.int st
                                (Array.length owned_stream_queries))
      in
      let shards = [| 1; 2; 3; 5 |].(Random.State.int st 4) in
      let eng, own, servers, rt =
        fleet_on g (Nd_logic.Parse.formula q) ~shards
      in
      let arity = Nd_engine.arity eng in
      let shard_handle s = Server.handle (Server.session servers.(s)) in
      let ctx = Printf.sprintf "%s n=%d %S shards=%d" fam.Gen.name n q shards in
      (* each shard's stream: disjoint, and their union is the
         single-node stream *)
      let streams =
        List.init shards (fun s -> stream_of (shard_handle s) ~n ~arity)
      in
      let union = List.sort Tuple.compare (List.concat streams) in
      if union <> Nd_engine.to_list eng then
        QCheck.Test.fail_reportf "%s: shard streams do not partition the answers"
          ctx;
      if n > 0 || arity = 0 then
        for _ = 1 to 25 do
          let a =
            Array.init arity (fun _ -> Random.State.int st (max n 1))
          in
          let answers =
            List.init shards (fun s ->
                let got = next_via (shard_handle s) a in
                let want =
                  walk_next eng ~owned:(Ownership.owner own ~shard:s) a
                in
                if got <> want then
                  QCheck.Test.fail_reportf "%s: shard %d next %s differs" ctx s
                    (fmt_tup a);
                got)
          in
          let least =
            List.fold_left
              (fun b x ->
                match (b, x) with
                | None, x | x, None -> x
                | Some b, Some x -> Some (if Tuple.compare x b < 0 then x else b))
              None answers
          in
          if next_via (Router.handle rt) a <> least then
            QCheck.Test.fail_reportf "%s: router next %s is not the minimum" ctx
              (fmt_tup a)
        done;
      true)

(* Regression: routed replies are byte-identical to a single
   node for valid, maximal, out-of-range, negative and wrong-arity
   tuples — error replies included (they used to carry the router's
   own Ownership message for an out-of-range first coordinate). *)
let test_routed_replies_match_single_node () =
  let g = Gen.randomly_color ~seed:1 ~colors:3 (Gen.grid 10 10) in
  let phi = Nd_logic.Parse.formula "dist(x,y) > 2 & C1(y)" in
  let single_eng = Nd_engine.prepare g phi in
  let lines =
    List.concat_map
      (fun tup -> [ "next " ^ tup; "test " ^ tup ])
      [
        "0,0"; "5,17"; "42,3"; "99,99"; "99,0"; "100,0"; "-1,5"; "3,100";
        "3,-2"; "7"; "1,2,3"; ""; "x,1";
      ]
    @ [ "enumerate 3"; "enumerate 4"; "enumerate 0"; "enumerate -1";
        "enumerate x"; "reset"; "enumerate 5" ]
  in
  List.iter
    (fun shards ->
      let _, _, _, rt = fleet_on g phi ~shards in
      (* a fresh server per fleet, so the rid counters line up *)
      let single = Server.create single_eng in
      List.iter
        (fun line ->
          Alcotest.(check (list string))
            (Printf.sprintf "%d shards: %s" shards line)
            (Server.handle single line) (Router.handle rt line))
        lines)
    [ 2; 3 ]

(* The predicate form of the config is read at first coordinates and
   serves exactly like the ownership it describes. *)
let test_owner_predicate_compat () =
  let g = Gen.randomly_color ~seed:3 ~colors:3 (Gen.grid 6 6) in
  let eng = Nd_engine.prepare g (Nd_logic.Parse.formula "dist(x,y) > 2 & C1(y)") in
  let own = Ownership.compute g ~shards:3 in
  let n = Cgraph.n g in
  for shard = 0 to 2 do
    let serve config = Server.handle (Server.create ~config eng) in
    let by_pred =
      serve
        { Server.default_config with owner = Some (Ownership.owner own ~shard) }
    and by_own =
      serve
        {
          Server.default_config with
          ownership = Some (Ownership.for_shard own ~shard);
        }
    in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d: same stream" shard)
      true
      (stream_of by_pred ~n ~arity:2 = stream_of by_own ~n ~arity:2)
  done;
  match
    Server.create
      ~config:
        {
          Server.default_config with
          owner = Some (Ownership.owner own ~shard:0);
          ownership = Some (Ownership.for_shard own ~shard:0);
        }
      eng
  with
  | _ -> Alcotest.fail "both ownership forms accepted"
  | exception Invalid_argument _ -> ()

(* Cost gate: from a foreign first coordinate, a shard pays
   at most one engine [next] per owned vertex it passes over, plus
   one — the one-by-one walk paid one per foreign solution and fails
   this by two orders of magnitude. *)
let test_owned_next_cost () =
  let g = Gen.randomly_color ~seed:1 ~colors:3 (Gen.grid 30 30) in
  let n = Cgraph.n g in
  let phi = Nd_logic.Parse.formula "dist(x,y) > 2 & C1(y)" in
  let eng, own, servers, _ = fleet_on g phi ~shards:2 in
  let handle = Server.handle (Server.session servers.(1)) in
  let engine_nexts () =
    match List.assoc_opt "enum.delay_ops" (Nd_engine.stats eng).hists with
    | Some h -> h.Nd_util.Metrics.count
    | None -> 0
  in
  let was_on = Nd_util.Metrics.enabled () in
  Nd_util.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_on then Nd_util.Metrics.disable ())
    (fun () ->
      let foreign =
        List.filter
          (fun v -> Ownership.shard_of_vertex own v <> 1)
          (List.init n Fun.id)
      in
      Alcotest.(check bool) "shard 0 owns something" true (foreign <> []);
      List.iteri
        (fun i u ->
          if i mod 7 = 0 then begin
            let before = engine_nexts () in
            let got = next_via handle [| u; 0 |] in
            let calls = engine_nexts () - before in
            let stop = match got with Some s -> s.(0) | None -> n in
            let skipped = ref 0 in
            for v = u + 1 to stop - 1 do
              if Ownership.shard_of_vertex own v = 1 then incr skipped
            done;
            if calls > !skipped + 1 then
              Alcotest.failf
                "next %d,0 on shard 1: %d engine calls for %d skipped owned \
                 vertices"
                u calls !skipped
          end)
        foreign)

(* Event rows for ordinary requests mirror the server's shape. *)
let test_event_rows_shape () =
  let events = ref [] in
  let rt, _, _ =
    fleet
      ~config:(rconfig ~event_log:(fun l -> events := l :: !events) ())
      ~shards:2 ~replicas:1 ()
  in
  ignore (Router.handle rt "enumerate 3");
  ignore (Router.handle rt "frobnicate");
  ignore (Router.handle rt "quit");
  let rows = List.rev !events in
  Alcotest.(check int) "one row per request" 3 (List.length rows);
  List.iteri
    (fun i l ->
      match Nd_trace.Json.parse l with
      | Error e -> Alcotest.failf "row %d not JSON: %s" i e
      | Ok j ->
          List.iter
            (fun name ->
              if Nd_trace.Json.member name j = None then
                Alcotest.failf "row %d lacks %s" i name)
            [ "ts_us"; "rid"; "span"; "cmd"; "status"; "latency_us"; "lines" ])
    rows;
  let statuses =
    List.filter_map
      (fun l ->
        match Nd_trace.Json.parse l with
        | Ok j -> (
            match Nd_trace.Json.member "status" j with
            | Some (Nd_trace.Json.Str s) -> Some s
            | _ -> None)
        | Error _ -> None)
      rows
  in
  Alcotest.(check (list string)) "statuses" [ "ok"; "user"; "bye" ] statuses

(* ---------------- the shared socket transport ---------------- *)

(* Serve on a thread (fork is off the table once domains have been
   spawned elsewhere in the binary) until [f path] returns, then stop
   and join. *)
let with_socket ~serve ~stop f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nd_cluster_test_%d_%d.sock" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1000.) land 0xffffff))
  in
  let th = Thread.create (fun () -> try serve ~path with _ -> ()) () in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let rec wait tries =
    if Sys.file_exists path then ()
    else if tries = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      wait (tries - 1)
    end
  in
  wait 100;
  f path

let with_router_socket rt =
  with_socket
    ~serve:(fun ~path -> Nd_server.serve_socket_with Router.service rt ~path)
    ~stop:(fun () -> Router.request_stop rt)

(* One connection: write [bytes] in full, half-close, and return every
   byte read until the peer closes (a reset after queued replies counts
   as the close). *)
let exchange path bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let rec send off =
    if off < String.length bytes then
      match Unix.write_substring fd bytes off (String.length bytes - off) with
      | n -> send (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  send 0;
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let out = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec recv () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
    | n ->
        Buffer.add_subbytes out chunk 0 n;
        recv ()
  in
  recv ();
  Buffer.contents out

(* Regression: the router's socket loop read with [input_line], so one
   client line could grow router memory without bound; it now shares
   the server's bounded reader. *)
let test_router_socket_caps_line_length () =
  let rt, _, _ = fleet ~config:(rconfig ()) ~shards:2 ~replicas:1 () in
  with_router_socket rt @@ fun path ->
  Alcotest.(check string) "err user, then the connection closes"
    "err user rid=1 span=0 request line exceeds max-line-bytes=65536\n"
    (exchange path ("next " ^ String.make 69_995 '1' ^ "\nnext 0,0\n"))

(* Regression: the router's accept loop had no backlog drain, so a
   client connecting as it stopped saw a bare close. *)
let test_router_socket_drains_backlog () =
  let rt, _, _ = fleet ~config:(rconfig ()) ~shards:2 ~replicas:1 () in
  with_router_socket rt @@ fun path ->
  Router.request_stop rt;
  Alcotest.(check string) "structured refusal, then bye"
    "err shutting-down rid=0 span=0 router is draining\nbye\n"
    (exchange path "next 0,0\n")

(* One pipelined session, byte for byte, over a server socket and a
   2-shard router socket: CRLF, a blank line, errors, pages, and a
   trailing unterminated [quit] served at EOF. *)
let test_router_socket_session_matches_server () =
  let session =
    "epoch\r\nnext 0,0\n\ntest 0,1\nenumerate 3\nenumerate 2\r\n\
     frobnicate\nnext 1,x\nreset\nenumerate 1\nquit"
  in
  let served =
    let srv = Server.create (Nd_engine.prepare (graph ()) (formula ())) in
    with_socket
      ~serve:(fun ~path -> Server.serve_socket srv ~path)
      ~stop:(fun () -> Server.request_stop srv)
      (fun path -> exchange path session)
  in
  let rt, _, _ = fleet ~config:(rconfig ()) ~shards:2 ~replicas:1 () in
  let routed = with_router_socket rt (fun path -> exchange path session) in
  Alcotest.(check bool) "the session ends in bye" true
    (String.ends_with ~suffix:"\nbye\n" served);
  Alcotest.(check string) "router socket = server socket" served routed

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ownership_partition;
    Alcotest.test_case "ownership validation" `Quick test_ownership_validation;
    QCheck_alcotest.to_alcotest prop_merge_no_gaps_no_dups;
    Alcotest.test_case "router differential vs single-node" `Quick
      test_router_differential;
    Alcotest.test_case "router next + test verbs" `Quick
      test_router_next_and_test;
    Alcotest.test_case "router health, stats, quit" `Quick
      test_router_health_stats_and_quit;
    Alcotest.test_case "router sessions isolate cursors" `Quick
      test_router_session_isolation;
    Alcotest.test_case "unknown verb is a user error" `Quick
      test_router_unknown_verb_is_user_error;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "failover mid-enumeration" `Quick
      test_failover_mid_enumeration;
    Alcotest.test_case "update replication, fence + catch-up" `Quick
      test_update_fence_and_catchup;
    Alcotest.test_case "ahead replica permanently fenced" `Quick
      test_ahead_replica_permanently_fenced;
    Alcotest.test_case "dark shard group: err unavailable" `Quick
      test_unavailable_when_group_dark;
    Alcotest.test_case "stale replica never served" `Quick
      test_stale_replica_never_served;
    Alcotest.test_case "event rows shape" `Quick test_event_rows_shape;
    QCheck_alcotest.to_alcotest prop_owned_streams;
    Alcotest.test_case "routed replies = single node, errors included" `Quick
      test_routed_replies_match_single_node;
    Alcotest.test_case "owned next: engine calls per skipped vertex" `Quick
      test_owned_next_cost;
    Alcotest.test_case "owner predicate = ownership" `Quick
      test_owner_predicate_compat;
    Alcotest.test_case "router socket caps line length" `Quick
      test_router_socket_caps_line_length;
    Alcotest.test_case "router socket drains its backlog" `Quick
      test_router_socket_drains_backlog;
    Alcotest.test_case "router socket session = server socket" `Quick
      test_router_socket_session_matches_server;
  ]
