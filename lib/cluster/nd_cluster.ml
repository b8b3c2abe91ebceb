open Nd_util

(* Router-side counters beyond the shared envelope's (Nd_server.meters:
   requests, replies, errors by class, latency) *)
let meters = Nd_server.meters "router"
let m_failovers = Metrics.counter "router.failovers"
let m_fence_refusals = Metrics.counter "router.fence_refusals"
let m_catchups = Metrics.counter "router.catchups"
let m_probes = Metrics.counter "router.probes"

(* ---------------- Ownership ---------------- *)

module Ownership = struct
  type t = {
    shards : int;
    n : int;
    shard_of : int array;
    per_shard : Nd_server.ownership array;
  }

  (* Home bags dealt round-robin: deterministic given the boot graph,
     so every fleet process derives the identical partition.  Totality
     and disjointness hold for any bag assignment, so mutations (which
     never add vertices) cannot break the partition — only erode its
     locality, which is a performance property, not a correctness
     one. *)
  let compute ?(r = 1) g ~shards =
    if shards < 1 then invalid_arg "Ownership.compute: shards must be >= 1";
    if r < 1 then invalid_arg "Ownership.compute: r must be >= 1";
    let n = Nd_graph.Cgraph.n g in
    let shard_of =
      if n = 0 then [||]
      else
        let cov = Nd_nowhere.Cover.compute g ~r in
        Array.map (fun bag -> bag mod shards) cov.Nd_nowhere.Cover.assigned
    in
    let per_shard =
      Array.init shards (fun s ->
          Nd_server.ownership_of_vertices ~n ~owns_empty:(s = 0) (fun v ->
              shard_of.(v) = s))
    in
    { shards; n; shard_of; per_shard }

  let shards t = t.shards
  let n t = t.n

  let shard_of_vertex t v =
    if v < 0 || v >= t.n then
      invalid_arg (Printf.sprintf "Ownership.shard_of_vertex: %d out of range" v)
    else t.shard_of.(v)

  let shard_of_tuple t tup =
    if Array.length tup = 0 || tup.(0) < 0 || tup.(0) >= t.n then 0
    else t.shard_of.(tup.(0))

  let for_shard t ~shard =
    if shard < 0 || shard >= t.shards then
      invalid_arg
        (Printf.sprintf "Ownership.for_shard: shard %d out of range" shard);
    t.per_shard.(shard)

  let owner t ~shard = Nd_server.owns (for_shard t ~shard)
end

(* ---------------- Merge ---------------- *)

module Merge = struct
  (* Pull-driven k-way merge.  Heads are cached between emissions: a
     head strictly above the current bound is still valid, so each
     emission re-pulls only the streams whose head was consumed (or
     duplicated) — about one pull per emitted element for disjoint
     streams.  [pull sh lb] being memoryless given [lb] is what makes
     failover resumption free: the caller may answer a re-pull from a
     different replica. *)
  let merge_pull ~n ~k ~start ~shards ~pull =
    match start with
    | None -> ([], None)
    | Some lb0 ->
        let heads = Array.make shards None in
        let exhausted = Array.make shards false in
        let acc = ref [] in
        let count = ref 0 in
        let lb = ref (Some lb0) in
        let continue = ref true in
        while !continue && !count < k do
          match !lb with
          | None -> continue := false
          | Some l ->
              for sh = 0 to shards - 1 do
                if not exhausted.(sh) then
                  match heads.(sh) with
                  | Some h when Tuple.compare h l >= 0 -> ()
                  | _ -> (
                      match pull sh l with
                      | Some h -> heads.(sh) <- Some h
                      | None ->
                          heads.(sh) <- None;
                          exhausted.(sh) <- true)
              done;
              let best = ref None in
              for sh = 0 to shards - 1 do
                match (heads.(sh), !best) with
                | Some h, None -> best := Some h
                | Some h, Some b when Tuple.compare h b < 0 -> best := Some h
                | _ -> ()
              done;
              (match !best with
              | None ->
                  lb := None;
                  continue := false
              | Some b ->
                  acc := b :: !acc;
                  incr count;
                  (* duplicates across streams are emitted once: every
                     head equal to the winner is consumed *)
                  for sh = 0 to shards - 1 do
                    match heads.(sh) with
                    | Some h when Tuple.equal h b -> heads.(sh) <- None
                    | _ -> ()
                  done;
                  lb := Tuple.succ ~n b;
                  if !lb = None then continue := false)
        done;
        (List.rev !acc, !lb)
end

(* ---------------- Router ---------------- *)

module Router = struct
  module Client = Nd_server.Client

  type conn = Client.conn = {
    transport : Client.transport;
    read_reply : float -> string list option;
    close : unit -> unit;
  }

  type endpoint = {
    ep_shard : int;
    ep_label : string;
    ep_dial : unit -> (conn, string) result;
  }

  let endpoint ~shard ~label dial =
    { ep_shard = shard; ep_label = label; ep_dial = dial }

  let socket_endpoint ?connect ~shard path =
    endpoint ~shard ~label:path (fun () ->
        match Client.connect ?policy:connect path with
        | Error m -> Error m
        | Ok fd -> Ok (Client.fd_conn fd))

  let local_endpoint ~shard ~label srv =
    endpoint ~shard ~label (fun () ->
        let s = Nd_server.session srv in
        Ok
          {
            transport = (fun req -> Nd_server.handle s req);
            read_reply = (fun _ -> None);
            close = ignore;
          })

  type config = {
    fence : bool;
    probe_interval_ms : int;
    retries : int;
    backoff_ms : int;
    jitter : int -> int;
    sleep_ms : int -> unit;
    retry_after_ms : int;
    max_enumerate : int;
    event_log : (string -> unit) option;
  }

  let default_config =
    {
      fence = true;
      probe_interval_ms = 0;
      retries = 1;
      backoff_ms = 20;
      jitter = Backoff.full_jitter ();
      sleep_ms =
        (fun ms ->
          try ignore (Unix.select [] [] [] (float ms /. 1000.))
          with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      retry_after_ms = 100;
      max_enumerate = 1000;
      event_log = None;
    }

  type rstate = Live | Fenced of string

  type replica = {
    r_shard : int;
    r_label : string;
    r_dial : unit -> (conn, string) result;
    mutable r_conn : conn option;
    mutable r_epoch : int;  (* last observed; -1 unknown *)
    mutable r_state : rstate;
    mutable r_checked : int;  (* request serial of the last fence check *)
    mutable r_usable : bool;  (* fence verdict cached under r_checked *)
  }

  type group = { reps : replica array; mutable pref : int }

  (* The journal is the catch-up log: (epoch-after, wire syntax) per
     mutation the router has replicated, newest first, capped — a
     replica lagging past the horizon stays fenced rather than being
     fed a hole. *)
  let journal_cap = 4096

  type shared = {
    own : Ownership.t;
    arity : int;
    cfg : config;
    groups : group array;
    mutable serial : int;
    mutable fleet_epoch : int;  (* -1 until first contact *)
    mutable journal : (int * string) list;
    mutable c_failovers : int;
    mutable c_fence_refusals : int;
    mutable c_catchups : int;
    mutable c_probes : int;
    pull_hist : Nd_obs.Lhist.t;
  }

  type cursor = Unstarted | At of int array | Exhausted

  (* [gate] is the shared envelope's state: the request lock every
     dispatch (and every probe and scrape) runs under, the stop flag
     and the request/reply tallies *)
  type t = {
    rs : shared;
    gate : Nd_server.gate;
    mutable cursor : cursor;
    mutable quit : bool;
  }

  type stats = {
    requests : int;
    ok : int;
    user_errors : int;
    unavailable : int;
    failovers : int;
    fence_refusals : int;
    catchups : int;
    probes : int;
    fleet_epoch : int;
    live : int;
    fenced : int;
  }

  let create ?(config = default_config) ~ownership ~arity endpoints =
    (* the router writes to upstream sockets whose worker may die at
       any moment; a broken pipe must surface as EPIPE (a transport
       error → failover), never as a fatal signal — and that holds for
       in-process use (tests, the differential harness) too, not just
       under the socket transport *)
    (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
     with Invalid_argument _ | Sys_error _ -> ());
    if arity < 0 then invalid_arg "Router.create: arity must be >= 0";
    if config.max_enumerate <= 0 then
      invalid_arg "Router.create: max_enumerate must be positive";
    if config.retry_after_ms < 0 then
      invalid_arg "Router.create: retry_after_ms must be >= 0";
    let shards = Ownership.shards ownership in
    List.iter
      (fun ep ->
        if ep.ep_shard < 0 || ep.ep_shard >= shards then
          invalid_arg
            (Printf.sprintf "Router.create: endpoint %s names shard %d of %d"
               ep.ep_label ep.ep_shard shards))
      endpoints;
    let groups =
      Array.init shards (fun sh ->
          let reps =
            List.filter_map
              (fun ep ->
                if ep.ep_shard = sh then
                  Some
                    {
                      r_shard = sh;
                      r_label = ep.ep_label;
                      r_dial = ep.ep_dial;
                      r_conn = None;
                      r_epoch = -1;
                      r_state = Live;
                      r_checked = -1;
                      r_usable = true;
                    }
                else None)
              endpoints
          in
          if reps = [] then
            invalid_arg
              (Printf.sprintf "Router.create: shard %d has no endpoint" sh);
          { reps = Array.of_list reps; pref = 0 })
    in
    let rs =
      {
        own = ownership;
        arity;
        cfg = config;
        groups;
        serial = 0;
        fleet_epoch = -1;
        journal = [];
        c_failovers = 0;
        c_fence_refusals = 0;
        c_catchups = 0;
        c_probes = 0;
        pull_hist =
          Nd_obs.Lhist.create ~name:"nd_router_pull_us"
            ~help:"Per-shard merge-pull latency (microseconds)." ~label:"shard"
            ();
      }
    in
    {
      rs;
      gate =
        Nd_server.gate meters
          ~epoch:(fun () -> rs.fleet_epoch)
          { Nd_server.default_config with event_log = config.event_log };
      cursor = Unstarted;
      quit = false;
    }

  let session t = { t with cursor = Unstarted; quit = false }
  let quitting t = t.quit
  let request_stop t = Nd_server.stop t.gate

  (* ---------------- event rows and reply errors ---------------- *)

  (* a lifecycle row: shard-scoped, outside any request *)
  let ev (rs : shared) ~shard ~cmd ~status ~lines =
    Option.iter
      (fun sink ->
        sink
          (Nd_server.event_row ~ts_us:(Nd_obs.now_us ()) ~rid:0 ~span:0 ~cmd
             ~status ~latency_us:0 ~lines ~shard ()))
      rs.cfg.event_log

  let unavailable (rs : shared) sh =
    raise
      (Nd_server.Reply_error
         {
           cls = "unavailable";
           msg =
             Printf.sprintf
               "shard=%d retry-after-ms=%d no live replica at fleet epoch" sh
               rs.cfg.retry_after_ms;
           shard = Some sh;
         })

  (* ---------------- replica plumbing ---------------- *)

  let epoch_of_line l =
    match String.split_on_char ' ' l with
    | "epoch" :: n :: _ -> int_of_string_opt n
    | _ -> None

  let parse_epoch_reply = function
    | first :: _ -> epoch_of_line first
    | [] -> None

  let drop_conn rep =
    match rep.r_conn with
    | Some c ->
        rep.r_conn <- None;
        (try c.close () with _ -> ())
    | None -> ()

  let fence (rs : shared) rep reason =
    (match rep.r_state with
    | Fenced _ -> ()
    | Live ->
        ev rs ~shard:rep.r_shard ~cmd:"(fence)" ~status:"fenced" ~lines:0);
    rep.r_state <- Fenced reason

  let readmit (rs : shared) rep =
    match rep.r_state with
    | Live -> ()
    | Fenced _ ->
        rep.r_state <- Live;
        ev rs ~shard:rep.r_shard ~cmd:"(readmit)" ~status:"ok" ~lines:0

  (* The connect handshake doubles as the epoch read and as the resync
     against injected garbage: garbage merged into our first line (or
     sent as its own line) makes the worker emit one extra [err user]
     reply; reading the queued true reply — or cleanly resending when
     the lines merged and no reply is pending — restores the
     one-reply-per-request discipline before the connection is used. *)
  let handshake (c : conn) =
    match c.transport "epoch" with
    | exception End_of_file -> Error "eof in handshake"
    | exception Sys_error m -> Error m
    | exception Unix.Unix_error (e, fn, _) ->
        Error (Unix.error_message e ^ " in " ^ fn)
    | r -> (
        match parse_epoch_reply r with
        | Some e -> Ok e
        | None -> (
            match Client.status_of_reply r with
            | Client.Err_reply ("user", _) -> (
                match
                  try `R (c.read_reply 0.3) with
                  | End_of_file -> `T "eof in handshake"
                  | Sys_error m -> `T m
                with
                | `T m -> Error m
                | `R (Some r2) -> (
                    match parse_epoch_reply r2 with
                    | Some e -> Ok e
                    | None -> Error "handshake desync")
                | `R None -> (
                    (* merged-line shape: the garbage swallowed our
                       probe; a clean resend gets a clean reply *)
                    match c.transport "epoch" with
                    | exception End_of_file -> Error "eof in handshake"
                    | exception Sys_error m -> Error m
                    | exception Unix.Unix_error (e, fn, _) ->
                        Error (Unix.error_message e ^ " in " ^ fn)
                    | r3 -> (
                        match parse_epoch_reply r3 with
                        | Some e -> Ok e
                        | None -> Error "handshake desync")))
            | _ -> Error "unexpected handshake reply"))

  let connected rep =
    match rep.r_conn with
    | Some c -> Ok c
    | None -> (
        match rep.r_dial () with
        | Error m -> Error m
        | Ok c -> (
            match handshake c with
            | Ok e ->
                rep.r_epoch <- e;
                rep.r_conn <- Some c;
                Ok c
            | Error m ->
                (try c.close () with _ -> ());
                Error m))

  (* Every upstream call is a [router.call] span, and — when tracing is
     on — the outgoing request is stamped with the router's trace
     context so the worker's [server.request] span becomes its child in
     the merged timeline (DESIGN S17). *)
  let raw_call rep req =
    let verb =
      match String.index_opt req ' ' with
      | None -> req
      | Some i -> String.sub req 0 i
    in
    Nd_trace.with_span "router.call"
      ~attrs:
        [
          ("shard", string_of_int rep.r_shard);
          ("replica", rep.r_label);
          ("verb", verb);
        ]
    @@ fun () ->
    let req =
      if Nd_trace.enabled () then
        Nd_obs.Ctx.stamp req
          {
            Nd_obs.Ctx.trace_id = Nd_trace.trace_id ();
            span = Nd_trace.current_span_id ();
          }
      else req
    in
    match connected rep with
    | Error m -> `Transport m
    | Ok c -> (
        match c.transport req with
        | exception End_of_file ->
            drop_conn rep;
            `Transport "eof"
        | exception Sys_error m ->
            drop_conn rep;
            `Transport m
        | exception Unix.Unix_error (e, fn, _) ->
            drop_conn rep;
            `Transport (Unix.error_message e ^ " in " ^ fn)
        | reply -> (
            match Client.status_of_reply reply with
            | Client.Transport_error m ->
                drop_conn rep;
                `Transport m
            | st -> `Reply (reply, st)))

  let body lines =
    match List.rev lines with _terminator :: rev -> List.rev rev | [] -> []

  (* A shard's deterministic verdict, relayed with the shard's own
     rid=/span= join keys stripped: the envelope re-stamps the
     router's *)
  let shard_error cls msg =
    let rec strip = function
      | tok :: rest
        when String.starts_with ~prefix:"rid=" tok
             || String.starts_with ~prefix:"span=" tok ->
          strip rest
      | toks -> String.concat " " toks
    in
    raise
      (Nd_server.Reply_error
         { cls; msg = strip (String.split_on_char ' ' msg); shard = None })

  let update_reply_epoch lines =
    match lines with first :: _ -> epoch_of_line first | [] -> None

  (* journal-suffix replay: exact by epoch arithmetic — the replica's
     probed epoch says precisely how many entries it is missing, so a
     transport-ambiguous mutation is never double-applied *)
  let catch_up (rs : shared) rep =
    if rs.fleet_epoch < 0 || rep.r_epoch < 0 then false
    else
      let missing =
        List.rev (List.filter (fun (e, _) -> e > rep.r_epoch) rs.journal)
      in
      let len = List.length missing in
      let contiguous =
        len > 0
        && rep.r_epoch + len = rs.fleet_epoch
        && fst (List.hd missing) = rep.r_epoch + 1
      in
      if not contiguous then false
      else
        Nd_trace.with_span "router.catchup"
          ~attrs:
            [
              ("shard", string_of_int rep.r_shard);
              ("entries", string_of_int len);
            ]
        @@ fun () ->
        let wire = String.concat ";" (List.map snd missing) in
        match raw_call rep ("batch-update " ^ wire) with
        | `Reply (r, Client.Ok_reply) -> (
            match update_reply_epoch (body r) with
            | Some e when e = rs.fleet_epoch ->
                rep.r_epoch <- e;
                rs.c_catchups <- rs.c_catchups + 1;
                Metrics.incr m_catchups;
                ev rs ~shard:rep.r_shard ~cmd:"(catchup)" ~status:"ok"
                  ~lines:len;
                readmit rs rep;
                true
            | _ -> false)
        | _ -> false

  (* First contact: learn every reachable replica's epoch and adopt the
     maximum as the fleet epoch.  Run as its own round before any merge
     so adoption can never change the fence mid-request. *)
  let init_fleet (rs : shared) =
    let best = ref (-1) in
    Array.iter
      (fun g ->
        Array.iter
          (fun rep ->
            match connected rep with
            | Ok _ -> if rep.r_epoch > !best then best := rep.r_epoch
            | Error _ -> ())
          g.reps)
      rs.groups;
    if !best >= 0 then rs.fleet_epoch <- !best

  (* The fence: one epoch probe per replica per request (requests are
     serialized under the router lock, so the fleet epoch cannot move
     under a request).  [`Usable] is the only verdict that lets a
     replica contribute to a merge. *)
  let fence_check (rs : shared) rep =
    if not rs.cfg.fence then `Usable
    else begin
      if rs.fleet_epoch < 0 then init_fleet rs;
      if rep.r_checked = rs.serial then
        if rep.r_usable then `Usable else `Refused "fenced this request"
      else begin
        rep.r_checked <- rs.serial;
        rep.r_usable <- false;
        match raw_call rep "epoch" with
        | `Transport m -> `Transport m
        | `Reply (r, _) -> (
            match parse_epoch_reply r with
            | None -> `Refused "unparseable epoch reply"
            | Some e ->
                rep.r_epoch <- e;
                if rs.fleet_epoch < 0 then rs.fleet_epoch <- e;
                if e = rs.fleet_epoch then begin
                  readmit rs rep;
                  rep.r_usable <- true;
                  `Usable
                end
                else begin
                  rs.c_fence_refusals <- rs.c_fence_refusals + 1;
                  Metrics.incr m_fence_refusals;
                  if e < rs.fleet_epoch then begin
                    fence rs rep
                      (Printf.sprintf "lagging: epoch %d < fleet %d" e
                         rs.fleet_epoch);
                    if catch_up rs rep then begin
                      rep.r_usable <- true;
                      `Usable
                    end
                    else `Refused "lagging behind fleet epoch"
                  end
                  else begin
                    (* mutated behind the router's back; no safe way to
                       roll it back — permanent fence *)
                    fence rs rep
                      (Printf.sprintf "ahead of fleet: epoch %d > %d" e
                         rs.fleet_epoch);
                    `Refused "ahead of fleet epoch"
                  end
                end)
      end
    end

  let use_replica (rs : shared) rep req =
    match fence_check rs rep with
    | `Refused r -> `Refused r
    | `Transport m ->
        fence rs rep ("transport: " ^ m);
        `Transport m
    | `Usable -> (
        match raw_call rep req with
        | `Transport m ->
            fence rs rep ("transport: " ^ m);
            `Transport m
        | `Reply (r, st) ->
            if not rs.cfg.fence then readmit rs rep;
            `Reply (r, st))

  (* The failover ladder: replicas in rotation order starting from the
     last one that worked, fenced ones last (they get a revival chance
     through [fence_check] once the live ones are exhausted).  Transport
     failures move on immediately; [err overloaded] sleeps the
     advertised floor (jittered) first; deterministic verdicts pass
     through.  The ladder runs [1 + retries] passes, then the group is
     declared unavailable. *)
  let group_call (rs : shared) sh req =
    let g = rs.groups.(sh) in
    let nreps = Array.length g.reps in
    let order =
      let rot = Array.init nreps (fun i -> (g.pref + i) mod nreps) in
      let live, fenced =
        Array.fold_right
          (fun i (l, f) ->
            match g.reps.(i).r_state with
            | Live -> (i :: l, f)
            | Fenced _ -> (l, i :: f))
          rot ([], [])
      in
      Array.of_list (live @ fenced)
    in
    let sched = Backoff.schedule ~max_ms:1_000 rs.cfg.backoff_ms in
    let total = nreps * (1 + rs.cfg.retries) in
    let rec go attempt =
      if attempt > total then unavailable rs sh
      else begin
        let idx = order.((attempt - 1) mod nreps) in
        let rep = g.reps.(idx) in
        let wrap = attempt mod nreps = 0 in
        let move ~slept =
          if wrap && not slept then
            rs.cfg.sleep_ms
              (Backoff.delay_ms ~jitter:rs.cfg.jitter sched
                 ~attempt:(attempt / nreps));
          go (attempt + 1)
        in
        match use_replica rs rep req with
        | `Refused _ -> go (attempt + 1)
        | `Transport _ ->
            rs.c_failovers <- rs.c_failovers + 1;
            Metrics.incr m_failovers;
            ev rs ~shard:sh ~cmd:"(failover)" ~status:"transport" ~lines:0;
            move ~slept:false
        | `Reply (lines, st) -> (
            match st with
            | Client.Ok_reply ->
                g.pref <- idx;
                body lines
            | Client.Err_reply ("overloaded", msg) ->
                rs.cfg.sleep_ms
                  (Backoff.delay_after_ms ~jitter:rs.cfg.jitter
                     ~at_least_ms:(Client.retry_after_of_msg msg)
                     sched
                     ~attempt:(1 + ((attempt - 1) / nreps)));
                move ~slept:true
            | Client.Err_reply ("shutting-down", _) | Client.Closed ->
                (* the replica is draining (or ended the session): its
                   sibling should answer *)
                drop_conn rep;
                rs.c_failovers <- rs.c_failovers + 1;
                Metrics.incr m_failovers;
                ev rs ~shard:sh ~cmd:"(failover)" ~status:"transport"
                  ~lines:0;
                move ~slept:false
            | Client.Err_reply (cls, msg) ->
                (* user/budget/internal: a deterministic verdict — the
                   same graph gives the same answer everywhere *)
                shard_error cls msg
            | Client.Transport_error _ -> assert false)
      end
    in
    go 1

  (* ---------------- verbs ---------------- *)

  let group_next t sh lb =
    let t0 = Unix.gettimeofday () in
    let reply = group_call t.rs sh ("next " ^ Nd_server.fmt_tuple lb) in
    Nd_obs.Lhist.observe t.rs.pull_hist ~label:(string_of_int sh)
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
    match reply with
    | [ one ] when one = "none" -> None
    | [ one ] when String.starts_with ~prefix:"sol " one ->
        Some (Nd_server.parse_tuple (String.sub one 4 (String.length one - 4)))
    | other ->
        Nd_error.invariantf "shard %d: bad next reply %S" sh
          (String.concat "/" other)

  (* The shard a request for [tup] goes to first.  A tuple the engine
     will reject (wrong arity, or a first coordinate out of range) goes
     to shard 0, whose engine words the error exactly as a single node
     does. *)
  let route (rs : shared) tup =
    if Array.length tup <> rs.arity then 0
    else Ownership.shard_of_tuple rs.own tup

  (* Owner first: every other shard's solutions >= [tup] have a first
     coordinate above [tup.(0)], so an owner answer that keeps
     [tup.(0)] is the global minimum.  Otherwise the rest are asked and
     the minimum taken, reusing the owner's answer. *)
  let fan_next t tup =
    let rs = t.rs in
    let owner = route rs tup in
    let first = group_next t owner tup in
    match first with
    | Some sol when Array.length sol = 0 || sol.(0) = tup.(0) -> first
    | _ ->
        let best = ref first in
        for sh = 0 to Ownership.shards rs.own - 1 do
          if sh <> owner then
            match group_next t sh tup with
            | None -> ()
            | Some sol -> (
                match !best with
                | None -> best := Some sol
                | Some b -> if Tuple.compare sol b < 0 then best := Some sol)
        done;
        !best

  let page t k =
    let rs = t.rs in
    let arity = rs.arity in
    let n = Ownership.n rs.own in
    let start =
      match t.cursor with
      | Exhausted -> None
      | At a -> Some a
      | Unstarted -> if arity > 0 && n = 0 then None else Some (Tuple.min arity)
    in
    let sols, next =
      Merge.merge_pull ~n ~k ~start
        ~shards:(Ownership.shards rs.own)
        ~pull:(fun sh lb -> group_next t sh lb)
    in
    t.cursor <- (match next with Some a -> At a | None -> Exhausted);
    (sols, next = None)

  (* Replication: leader-first.  The mutation list is validated locally,
     then offered to replicas in order; the first acceptance is the
     leader's and fixes the new fleet epoch, after which the fan-out to
     the rest is best-effort — a replica that misses it is fenced by its
     next epoch probe and caught up from the journal.  A deterministic
     rejection before any acceptance aborts with nothing applied
     anywhere (engine mutations validate before applying, so a replica
     that died mid-call can only have applied a *valid* mutation, which
     epoch arithmetic reconciles — see {!catch_up}). *)
  let cmd_update t line muts =
    let rs = t.rs in
    let k = List.length muts in
    let wires = List.map Nd_graph.Cgraph.mutation_to_string muts in
    let leader = ref None in
    let failed_groups = ref [] in
    Array.iteri
      (fun sh g ->
        let applied_here = ref false in
        Array.iter
          (fun rep ->
            match use_replica rs rep line with
            | `Reply (r, Client.Ok_reply) ->
                applied_here := true;
                (match update_reply_epoch (body r) with
                | Some e -> rep.r_epoch <- e
                | None -> ());
                if !leader = None then leader := Some (body r)
            | `Reply (_, Client.Err_reply (cls, msg)) ->
                if !leader = None then shard_error cls msg
                else
                  (* post-acceptance divergence: the same mutation was
                     rejected here but applied elsewhere — never trust
                     this replica again without a catch-up *)
                  fence rs rep ("rejected replicated mutation: " ^ cls)
            | `Reply (_, _) | `Refused _ -> ()
            | `Transport _ ->
                rs.c_failovers <- rs.c_failovers + 1;
                Metrics.incr m_failovers)
          g.reps;
        if not !applied_here then failed_groups := sh :: !failed_groups)
      rs.groups;
    match !leader with
    | None -> unavailable rs (match !failed_groups with s :: _ -> s | [] -> 0)
    | Some reply_body ->
        let new_fleet =
          match update_reply_epoch reply_body with
          | Some e -> e
          | None -> Nd_error.invariantf "unparseable update reply from leader"
        in
        let base = new_fleet - k in
        List.iteri
          (fun i wire ->
            rs.journal <- (base + i + 1, wire) :: rs.journal)
          wires;
        (match
           List.filteri (fun i _ -> i < journal_cap) rs.journal
         with
        | capped -> rs.journal <- capped);
        rs.fleet_epoch <- new_fleet;
        t.cursor <- Unstarted;
        reply_body

  let live_fenced (rs : shared) =
    let live = ref 0 and fenced = ref 0 in
    Array.iter
      (fun g ->
        Array.iter
          (fun rep ->
            match rep.r_state with
            | Live -> incr live
            | Fenced _ -> incr fenced)
          g.reps)
      rs.groups;
    (!live, !fenced)

  let stats t =
    let rs = t.rs in
    let live, fenced = live_fenced rs in
    let replies = Nd_server.replies t.gate in
    {
      requests = Nd_server.requests t.gate;
      ok = replies "ok";
      user_errors = replies "user";
      unavailable = replies "unavailable";
      failovers = rs.c_failovers;
      fence_refusals = rs.c_fence_refusals;
      catchups = rs.c_catchups;
      probes = rs.c_probes;
      fleet_epoch = rs.fleet_epoch;
      live;
      fenced;
    }

  let stats_json t =
    let s = stats t in
    Printf.sprintf
      "{\"schema\":\"nd-router-stats/1\",\"requests\":%d,\"ok\":%d,\"user_errors\":%d,\"unavailable\":%d,\"failovers\":%d,\"fence_refusals\":%d,\"catchups\":%d,\"probes\":%d,\"fleet_epoch\":%d,\"live\":%d,\"fenced\":%d}"
      s.requests s.ok s.user_errors s.unavailable s.failovers s.fence_refusals
      s.catchups s.probes s.fleet_epoch s.live s.fenced

  let cmd_health t =
    let rs = t.rs in
    let s = stats t in
    [
      Printf.sprintf
        "health ok shards=%d replicas=%d live=%d fenced=%d epoch=%d \
         requests=%d ok=%d user=%d unavailable=%d failovers=%d \
         fence_refusals=%d catchups=%d probes=%d"
        (Array.length rs.groups)
        (Array.fold_left (fun acc g -> acc + Array.length g.reps) 0 rs.groups)
        s.live s.fenced s.fleet_epoch s.requests s.ok s.user_errors
        s.unavailable s.failovers s.fence_refusals s.catchups s.probes;
    ]

  let replica_states t =
    let acc = ref [] in
    Array.iter
      (fun g ->
        Array.iter
          (fun rep ->
            let state =
              match rep.r_state with
              | Live -> "live"
              | Fenced reason -> "fenced: " ^ reason
            in
            acc := (rep.r_shard, rep.r_label, state) :: !acc)
          g.reps)
      t.rs.groups;
    List.rev !acc

  (* One merged exposition for the whole fleet: the router's own
     process metrics, the fleet-derived gauges, the per-shard pull
     histogram, and every live replica's scrape re-labelled with its
     shard/replica identity.  Fenced replicas are skipped (their staleness
     is already visible through [nd_fleet_fenced_replicas]); a replica
     whose scrape fails transport-wise is silently omitted — the scrape
     must never take the fleet down. *)
  let scrape_metrics_locked t =
    let rs = t.rs in
    let live, fenced = live_fenced rs in
    let gauges =
      [
        Nd_obs.Prom.gauge ~name:"nd_fleet_epoch"
          ~help:"Fleet epoch adopted by the router (-1 before first contact)."
          rs.fleet_epoch;
        Nd_obs.Prom.gauge ~name:"nd_fleet_live_replicas"
          ~help:"Replicas currently admitted to merges." live;
        Nd_obs.Prom.gauge ~name:"nd_fleet_fenced_replicas"
          ~help:"Replicas currently fenced." fenced;
      ]
    in
    let hist = Nd_obs.Lhist.render rs.pull_hist in
    let shards = ref [] in
    Array.iter
      (fun g ->
        Array.iteri
          (fun idx rep ->
            match rep.r_state with
            | Fenced _ -> ()
            | Live -> (
                match raw_call rep "metrics" with
                | `Reply (r, Client.Ok_reply) ->
                    shards :=
                      Nd_obs.Prom.relabel
                        ~labels:
                          [
                            ("shard", string_of_int rep.r_shard);
                            ("replica", string_of_int idx);
                          ]
                        (String.concat "\n" (body r))
                      :: !shards
                | `Reply _ | `Transport _ -> ()))
          g.reps)
      rs.groups;
    Nd_obs.Prom.merge
      ((Nd_trace.Prometheus.render_current () :: gauges)
      @ (if hist = "" then [] else [ hist ])
      @ List.rev !shards)

  let scrape_metrics t =
    Nd_server.with_gate_lock t.gate (fun () -> scrape_metrics_locked t)

  let dispatch t line =
    let rs = t.rs in
    (* the fence's once-per-request probe cache is keyed by this *)
    rs.serial <- rs.serial + 1;
    let cmd, arg = Nd_server.split_command line in
    match cmd with
    | "quit" ->
        t.quit <- true;
        `Bye
    | "next" ->
        let tup = Nd_server.parse_tuple arg in
        `Ok
          [
            (match fan_next t tup with
            | Some sol -> "sol " ^ Nd_server.fmt_tuple sol
            | None -> "none");
          ]
    | "test" ->
        let tup = Nd_server.parse_tuple arg in
        `Ok (group_call rs (route rs tup) ("test " ^ Nd_server.fmt_tuple tup))
    | "enumerate" ->
        `Ok
          (Nd_server.enumerate_reply ~max_enumerate:rs.cfg.max_enumerate arg
             (page t))
    | "update" | "batch-update" ->
        `Ok (cmd_update t line (Nd_server.mutations cmd arg))
    | "epoch" ->
        if rs.fleet_epoch < 0 then init_fleet rs;
        if rs.fleet_epoch < 0 then unavailable rs 0
        else `Ok [ Printf.sprintf "epoch %d" rs.fleet_epoch ]
    | "reset" ->
        t.cursor <- Unstarted;
        `Ok []
    | "stats" -> `Ok [ stats_json t ]
    | "metrics" ->
        `Ok
          (List.filter
             (fun l -> l <> "")
             (String.split_on_char '\n' (scrape_metrics_locked t)))
    | "health" -> `Ok (cmd_health t)
    | _ ->
        Nd_error.user_errorf
          "unknown command %S (try next/test/enumerate/update/batch-update/epoch/reset/stats/metrics/health/quit)"
          cmd

  (* ---------------- probing ---------------- *)

  let health_tokens line =
    List.fold_left
      (fun (e, m) tok ->
        if String.starts_with ~prefix:"epoch=" tok then
          (int_of_string_opt (String.sub tok 6 (String.length tok - 6)), m)
        else if String.starts_with ~prefix:"mode=" tok then
          (e, Some (String.sub tok 5 (String.length tok - 5)))
        else (e, m))
      (None, None)
      (String.split_on_char ' ' line)

  let probe_locked (rs : shared) =
    Nd_trace.with_span "router.probe" @@ fun () ->
    rs.serial <- rs.serial + 1;
    if rs.cfg.fence && rs.fleet_epoch < 0 then init_fleet rs;
    Array.iter
      (fun g ->
        Array.iter
          (fun rep ->
            rs.c_probes <- rs.c_probes + 1;
            Metrics.incr m_probes;
            match raw_call rep "health" with
            | `Transport m -> fence rs rep ("transport: " ^ m)
            | `Reply (r, Client.Ok_reply) -> (
                let epoch, _mode =
                  match body r with
                  | first :: _ -> health_tokens first
                  | [] -> (None, None)
                in
                match epoch with
                | None -> fence rs rep "health reply without epoch"
                | Some e ->
                    rep.r_epoch <- e;
                    if not rs.cfg.fence then readmit rs rep
                    else if rs.fleet_epoch < 0 then rs.fleet_epoch <- e;
                    if rs.cfg.fence then
                      if e = rs.fleet_epoch then readmit rs rep
                      else if e < rs.fleet_epoch then begin
                        fence rs rep
                          (Printf.sprintf "lagging: epoch %d < fleet %d" e
                             rs.fleet_epoch);
                        ignore (catch_up rs rep)
                      end
                      else
                        fence rs rep
                          (Printf.sprintf "ahead of fleet: epoch %d > %d" e
                             rs.fleet_epoch))
            | `Reply _ -> fence rs rep "unhealthy reply to probe")
          g.reps)
      rs.groups

  let probe t = Nd_server.with_gate_lock t.gate (fun () -> probe_locked t.rs)

  let start_probes t =
    let rs = t.rs in
    if rs.cfg.probe_interval_ms <= 0 then None
    else
      Some
        (Thread.create
           (fun () ->
             let slice = 0.05 in
             let rec sleep_until dl =
               if
                 (not (Nd_server.stopping t.gate))
                 && Unix.gettimeofday () < dl
               then begin
                 (try ignore (Unix.select [] [] [] slice)
                  with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                 sleep_until dl
               end
             in
             let rec loop () =
               if Nd_server.stopping t.gate then ()
               else begin
                 sleep_until
                   (Unix.gettimeofday ()
                   +. (float_of_int rs.cfg.probe_interval_ms /. 1000.));
                 if not (Nd_server.stopping t.gate) then begin
                   (try probe t with _ -> ());
                   loop ()
                 end
               end
             in
             loop ())
           ())

  let service =
    { Nd_server.gate = (fun t -> t.gate); session; dispatch; quitting }

  let handle t line = Nd_server.handle_with service t line
end
