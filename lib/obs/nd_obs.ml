module Metrics = Nd_util.Metrics
module Json = Nd_trace.Json

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* ---------------- trace-context request attribute ---------------- *)

module Ctx = struct
  type t = { trace_id : string; span : int }

  let prefix = "trace="

  let id_ok s =
    s <> ""
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
           | _ -> false)
         s

  let encode { trace_id; span } = Printf.sprintf "%s%s:%d" prefix trace_id span

  let has_prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let parse tok =
    if not (has_prefix tok) then Error "missing trace= prefix"
    else
      let plen = String.length prefix in
      let payload = String.sub tok plen (String.length tok - plen) in
      match String.rindex_opt payload ':' with
      | None -> Error "want trace=<id>:<span>"
      | Some i -> (
          let id = String.sub payload 0 i in
          let sp = String.sub payload (i + 1) (String.length payload - i - 1) in
          if not (id_ok id) then
            Error "trace id must be non-empty [A-Za-z0-9._-]+"
          else
            match int_of_string_opt sp with
            | Some s when s >= 0 -> Ok { trace_id = id; span = s }
            | _ -> Error "span must be a non-negative integer")

  let attrs { trace_id; span } =
    [ ("ctx.trace", trace_id); ("ctx.span", string_of_int span) ]

  let split_line line =
    match String.rindex_opt line ' ' with
    | Some i ->
        let tok = String.sub line (i + 1) (String.length line - i - 1) in
        if has_prefix tok then
          (String.trim (String.sub line 0 i), Some (parse tok))
        else (line, None)
    | None -> (line, None)

  let stamp line t = line ^ " " ^ encode t
end

(* ---------------- cross-process trace merge ---------------- *)

module Merge = struct
  type report = {
    r_processes : int;
    r_events : int;
    r_linked : int;
    r_orphans : int;
  }

  (* One parsed Chrome event, with the structured args the exporter
     writes split out from the free-form string attrs. *)
  type ev = {
    e_name : string;
    e_tid : int;
    e_ts : float;
    e_dur : float;
    e_sid : int;
    e_parent : int;
    e_ops : int;
    e_attrs : (string * string) list;
  }

  let parse_shard label doc =
    match Json.parse doc with
    | Error e -> Error (Printf.sprintf "%s: not valid JSON: %s" label e)
    | Ok j -> (
        let trace_id =
          match Json.member "process" j with
          | Some p -> (
              match Json.member "trace_id" p with
              | Some (Json.Str s) when s <> "" -> s
              | _ -> label)
          | None -> label
        in
        match Json.member "traceEvents" j with
        | Some (Json.Arr events) -> (
            let bad = ref None in
            let evs =
              List.filter_map
                (fun e ->
                  if !bad <> None then None
                  else
                    let num k =
                      match Json.member k e with
                      | Some (Json.Num f) -> Some f
                      | _ -> None
                    in
                    let arg_num k =
                      match Json.member "args" e with
                      | Some a -> (
                          match Json.member k a with
                          | Some (Json.Num f) -> Some (int_of_float f)
                          | _ -> None)
                      | None -> None
                    in
                    let arg_strs () =
                      match Json.member "args" e with
                      | Some (Json.Obj fields) ->
                          List.filter_map
                            (fun (k, v) ->
                              match v with
                              | Json.Str s -> Some (k, s)
                              | _ -> None)
                            fields
                      | _ -> []
                    in
                    let name =
                      match Json.member "name" e with
                      | Some (Json.Str s) -> s
                      | _ -> ""
                    in
                    match
                      (num "ts", num "dur", arg_num "sid", arg_num "parent")
                    with
                    | Some ts, Some dur, Some sid, Some parent ->
                        Some
                          {
                            e_name = name;
                            e_tid =
                              (match num "tid" with
                              | Some t -> int_of_float t
                              | None -> 1);
                            e_ts = ts;
                            e_dur = dur;
                            e_sid = sid;
                            e_parent = parent;
                            e_ops =
                              (match arg_num "ops" with
                              | Some o -> o
                              | None -> 0);
                            e_attrs = arg_strs ();
                          }
                    | _ ->
                        bad :=
                          Some
                            (Printf.sprintf "%s: event missing ts/dur/sid/parent"
                               label);
                        None)
                events
            in
            match !bad with
            | Some e -> Error e
            | None -> Ok (trace_id, evs))
        | _ -> Error (Printf.sprintf "%s: missing traceEvents array" label))

  let merge docs =
    if docs = [] then Error "no trace shards to merge"
    else
      let rec parse_all i acc = function
        | [] -> Ok (List.rev acc)
        | d :: rest -> (
            match parse_shard (Printf.sprintf "shard%d" i) d with
            | Error e -> Error e
            | Ok s -> parse_all (i + 1) (s :: acc) rest)
      in
      match parse_all 0 [] docs with
      | Error e -> Error e
      | Ok shards ->
          (* per-process sid offsets into one global namespace *)
          let offsets = Array.make (List.length shards) 0 in
          let _ =
            List.fold_left
              (fun (i, off) (_, evs) ->
                offsets.(i) <- off;
                let mx =
                  List.fold_left (fun m e -> max m e.e_sid) 0 evs
                in
                (i + 1, off + mx))
              (0, 0) shards
          in
          let dup = ref None in
          let index : (string * int, int) Hashtbl.t = Hashtbl.create 256 in
          List.iteri
            (fun i (tid, evs) ->
              List.iter
                (fun e ->
                  let key = (tid, e.e_sid) in
                  if Hashtbl.mem index key then
                    dup :=
                      Some
                        (Printf.sprintf
                           "duplicate span %d under trace id %S (shards must \
                            have distinct trace ids)"
                           e.e_sid tid)
                  else Hashtbl.replace index key (offsets.(i) + e.e_sid))
                evs)
            shards;
          (match !dup with
          | Some e -> Error e
          | None ->
              let linked = ref 0 and orphans = ref 0 and total = ref 0 in
              let b = Buffer.create 4096 in
              Buffer.add_string b "{\"processes\":[";
              List.iteri
                (fun i (tid, _) ->
                  if i > 0 then Buffer.add_char b ',';
                  Buffer.add_string b
                    (Printf.sprintf "{\"pid\":%d,\"trace_id\":\"%s\"}" (i + 1)
                       (Json.escape tid)))
                shards;
              Buffer.add_string b "],\"traceEvents\":[";
              let first = ref true in
              List.iteri
                (fun i (_, evs) ->
                  List.iter
                    (fun e ->
                      incr total;
                      let gsid = offsets.(i) + e.e_sid in
                      let orphaned = ref false in
                      let gparent =
                        if e.e_parent <> 0 then offsets.(i) + e.e_parent
                        else
                          match
                            ( List.assoc_opt "ctx.trace" e.e_attrs,
                              List.assoc_opt "ctx.span" e.e_attrs )
                          with
                          | Some rt, Some rs -> (
                              match int_of_string_opt rs with
                              | Some rsp when rsp > 0 -> (
                                  match Hashtbl.find_opt index (rt, rsp) with
                                  | Some g ->
                                      incr linked;
                                      g
                                  | None ->
                                      (* flagged, never dropped: the remote
                                         parent was evicted or its shard is
                                         missing from the merge *)
                                      incr orphans;
                                      orphaned := true;
                                      0)
                              | _ -> 0)
                          | _ -> 0
                      in
                      if !first then first := false else Buffer.add_char b ',';
                      Buffer.add_string b "{\"name\":\"";
                      Buffer.add_string b (Json.escape e.e_name);
                      Buffer.add_string b
                        (Printf.sprintf
                           "\",\"cat\":\"fodb\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.0f,\"dur\":%.0f,\"args\":{\"sid\":%d,\"parent\":%d,\"ops\":%d"
                           (i + 1) e.e_tid e.e_ts e.e_dur gsid gparent e.e_ops);
                      List.iter
                        (fun (k, v) ->
                          Buffer.add_string b ",\"";
                          Buffer.add_string b (Json.escape k);
                          Buffer.add_string b "\":\"";
                          Buffer.add_string b (Json.escape v);
                          Buffer.add_string b "\"")
                        e.e_attrs;
                      if !orphaned then
                        Buffer.add_string b ",\"ctx.orphan\":\"unresolved\"";
                      Buffer.add_string b "}}")
                    evs)
                shards;
              Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
              Ok
                ( Buffer.contents b,
                  {
                    r_processes = List.length shards;
                    r_events = !total;
                    r_linked = !linked;
                    r_orphans = !orphans;
                  } ))

  type verdict = {
    v_processes : int;
    v_events : int;
    v_server_requests : int;
    v_contained : int;
    v_orphans : int;
  }

  let default_slack_us = 500.

  let validate ?(slack_us = default_slack_us) doc =
    match Json.parse doc with
    | Error e -> Error ("not valid JSON: " ^ e)
    | Ok j -> (
        let processes =
          match Json.member "processes" j with
          | Some (Json.Arr l) -> List.length l
          | _ -> 0
        in
        match Json.member "traceEvents" j with
        | Some (Json.Arr ([] )) -> Error "traceEvents is empty"
        | Some (Json.Arr events) -> (
            let tbl : (int, float * float * int * string) Hashtbl.t =
              Hashtbl.create 256
            in
            let err = ref None in
            let fail m = if !err = None then err := Some m in
            let orphans = ref 0 in
            let parsed =
              List.filter_map
                (fun e ->
                  let num k =
                    match Json.member k e with
                    | Some (Json.Num f) -> Some f
                    | _ -> None
                  in
                  let args = Json.member "args" e in
                  let arg_num k =
                    match args with
                    | Some a -> (
                        match Json.member k a with
                        | Some (Json.Num f) -> Some (int_of_float f)
                        | _ -> None)
                    | None -> None
                  in
                  let arg_str k =
                    match args with
                    | Some a -> (
                        match Json.member k a with
                        | Some (Json.Str s) -> Some s
                        | _ -> None)
                    | None -> None
                  in
                  let name =
                    match Json.member "name" e with
                    | Some (Json.Str s) -> s
                    | _ -> ""
                  in
                  (match Json.member "ph" e with
                  | Some (Json.Str "X") -> ()
                  | _ -> fail "merged event is not a complete (X) event");
                  if arg_str "ctx.orphan" <> None then incr orphans;
                  match (num "ts", num "dur", arg_num "sid", arg_num "parent")
                  with
                  | Some ts, Some dur, Some sid, Some parent ->
                      if ts < 0. || dur < 0. then fail "negative ts/dur";
                      Hashtbl.replace tbl sid (ts, dur, parent, name);
                      Some
                        ( sid, ts, dur, parent, name, arg_str "ctx.trace",
                          arg_str "ctx.orphan" <> None )
                  | _ ->
                      fail "merged event missing ts/dur/sid/parent";
                      None)
                events
            in
            match !err with
            | Some e -> Error e
            | None ->
                (* containment on every resolved parent edge, with a
                   cross-process slack: processes share a wall clock but
                   clamp it monotonically per domain, so edges may skew
                   by more than the single-process 1us *)
                List.iter
                  (fun (sid, ts, dur, parent, _, _, _) ->
                    if !err = None && parent <> 0 then
                      match Hashtbl.find_opt tbl parent with
                      | None -> ()
                      | Some (pts, pdur, _, _) ->
                          if
                            ts +. slack_us < pts
                            || ts +. dur > pts +. pdur +. slack_us
                          then
                            fail
                              (Printf.sprintf
                                 "span %d not contained in parent %d" sid
                                 parent))
                  parsed;
                (* the acceptance rule: every ctx-carrying server.request
                   whose context resolved must climb to a router-side
                   root — the router's request span for query traffic
                   (counted in v_contained), or the probe/catch-up
                   timers the router also stamps.  An unresolved context
                   was flagged ctx.orphan at merge time (its parent was
                   evicted from a bounded ring upstream): it stays
                   visible in the document and in v_orphans, but cannot
                   witness containment either way, so it is exempt. *)
                let server_requests = ref 0 and contained = ref 0 in
                let rec router_root steps sid =
                  if steps >= 64 then None
                  else
                    match Hashtbl.find_opt tbl sid with
                    | None -> None
                    | Some (_, _, parent, name) ->
                        if name = "router.request" then Some name
                        else if parent <> 0 then router_root (steps + 1) parent
                        else if String.starts_with ~prefix:"router." name then
                          (* a rootless router-side span: the probe /
                             catch-up timers and off-request scrapes
                             stamp their fan-outs too *)
                          Some name
                        else None
                in
                List.iter
                  (fun (_, _, _, parent, name, ctx, orphan) ->
                    if name = "server.request" && ctx <> None && not orphan
                    then begin
                      incr server_requests;
                      match
                        if parent = 0 then None else router_root 0 parent
                      with
                      | Some "router.request" -> incr contained
                      | Some _ -> ()
                      | None ->
                          if !err = None then
                            fail
                              "a propagated server.request span does not \
                               reach a router-side ancestor"
                    end)
                  parsed;
                (match !err with
                | Some e -> Error e
                | None ->
                    Ok
                      {
                        v_processes = processes;
                        v_events = List.length events;
                        v_server_requests = !server_requests;
                        v_contained = !contained;
                        v_orphans = !orphans;
                      }))
        | _ -> Error "missing traceEvents array")
end

(* ---------------- Prometheus aggregation ---------------- *)

module Prom = struct
  let relabel ~labels text =
    if labels = [] then text
    else
      let ins =
        String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k
                 (Nd_trace.Prometheus.escape_label v))
             labels)
      in
      String.split_on_char '\n' text
      |> List.map (fun line ->
             if line = "" || line.[0] = '#' then line
             else
               match String.index_opt line '{' with
               | Some bi ->
                   String.sub line 0 (bi + 1)
                   ^ ins ^ ","
                   ^ String.sub line (bi + 1) (String.length line - bi - 1)
               | None -> (
                   match String.index_opt line ' ' with
                   | None -> line
                   | Some sp ->
                       String.sub line 0 sp ^ "{" ^ ins ^ "}"
                       ^ String.sub line sp (String.length line - sp)))
      |> String.concat "\n"

  type block = {
    b_help : string;
    mutable b_type : string option;
    mutable b_samples : string list;  (* newest first *)
  }

  let merge texts =
    let order = ref [] in
    let blocks : (string, block) Hashtbl.t = Hashtbl.create 32 in
    let pre = ref [] in
    let fam_of_header line pfx =
      let rest = String.sub line (String.length pfx)
                   (String.length line - String.length pfx) in
      match String.index_opt rest ' ' with
      | Some i -> String.sub rest 0 i
      | None -> rest
    in
    List.iter
      (fun text ->
        let current = ref None in
        String.split_on_char '\n' text
        |> List.iter (fun line ->
               let starts p =
                 String.length line >= String.length p
                 && String.sub line 0 (String.length p) = p
               in
               if String.trim line = "" then ()
               else if starts "# HELP " then begin
                 let name = fam_of_header line "# HELP " in
                 (match Hashtbl.find_opt blocks name with
                 | Some _ -> ()
                 | None ->
                     Hashtbl.replace blocks name
                       { b_help = line; b_type = None; b_samples = [] };
                     order := name :: !order);
                 current := Some name
               end
               else if starts "# TYPE " then begin
                 let name = fam_of_header line "# TYPE " in
                 (match Hashtbl.find_opt blocks name with
                 | Some blk -> if blk.b_type = None then blk.b_type <- Some line
                 | None ->
                     Hashtbl.replace blocks name
                       {
                         b_help = "# HELP " ^ name ^ " (undocumented)";
                         b_type = Some line;
                         b_samples = [];
                       };
                     order := name :: !order);
                 current := Some name
               end
               else if line.[0] = '#' then ()
               else
                 match !current with
                 | Some name ->
                     let blk = Hashtbl.find blocks name in
                     blk.b_samples <- line :: blk.b_samples
                 | None -> pre := line :: !pre))
      texts;
    let b = Buffer.create 4096 in
    List.iter
      (fun line ->
        Buffer.add_string b line;
        Buffer.add_char b '\n')
      (List.rev !pre);
    List.iter
      (fun name ->
        let blk = Hashtbl.find blocks name in
        Buffer.add_string b blk.b_help;
        Buffer.add_char b '\n';
        (match blk.b_type with
        | Some t ->
            Buffer.add_string b t;
            Buffer.add_char b '\n'
        | None -> ());
        List.iter
          (fun line ->
            Buffer.add_string b line;
            Buffer.add_char b '\n')
          (List.rev blk.b_samples))
      (List.rev !order);
    Buffer.contents b

  let gauge ~name ~help v =
    Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n%s %d\n" name help name name
      v
end

(* ---------------- labelled histograms ---------------- *)

module Lhist = struct
  let bounds = Nd_trace.Prometheus.bucket_bounds

  let max_bound = bounds.(Array.length bounds - 1)

  type series = {
    l : string;
    counts : int array;
    mutable count : int;
    mutable sum : int;
  }

  type t = {
    name : string;
    help : string;
    label_key : string;
    mutable series : series list;  (* insertion order *)
  }

  let create ~name ~help ~label () = { name; help; label_key = label; series = [] }

  let observe t ~label v =
    let v = if v < 0 then 0 else if v > max_bound then max_bound else v in
    let s =
      match List.find_opt (fun s -> s.l = label) t.series with
      | Some s -> s
      | None ->
          let s =
            { l = label; counts = Array.make (Array.length bounds) 0;
              count = 0; sum = 0 }
          in
          t.series <- t.series @ [ s ];
          s
    in
    let i = ref 0 in
    while bounds.(!i) < v do
      incr i
    done;
    s.counts.(!i) <- s.counts.(!i) + 1;
    s.count <- s.count + 1;
    s.sum <- s.sum + v

  let render t =
    if t.series = [] then ""
    else begin
      let b = Buffer.create 512 in
      Buffer.add_string b
        (Printf.sprintf "# HELP %s %s\n# TYPE %s histogram\n" t.name t.help
           t.name);
      List.iter
        (fun s ->
          let lv = Nd_trace.Prometheus.escape_label s.l in
          let cum = ref 0 in
          Array.iteri
            (fun i le ->
              cum := !cum + s.counts.(i);
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{%s=\"%s\",le=\"%d\"} %d\n" t.name
                   t.label_key lv le !cum))
            bounds;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{%s=\"%s\",le=\"+Inf\"} %d\n" t.name
               t.label_key lv s.count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum{%s=\"%s\"} %d\n" t.name t.label_key lv
               s.sum);
          Buffer.add_string b
            (Printf.sprintf "%s_count{%s=\"%s\"} %d\n" t.name t.label_key lv
               s.count))
        t.series;
      Buffer.contents b
    end
end

(* ---------------- crash flight recorder ---------------- *)

module Flight = struct
  let default_capacity = 256

  type t = {
    capacity : int;
    ring : string array;
    mutable head : int;
    mutable count : int;
    mutable appended : int;
    path : string option;
    mutable oc : out_channel option;
    m : Mutex.t;
  }

  let create ?(capacity = default_capacity) ?path () =
    if capacity <= 0 then
      invalid_arg "Nd_obs.Flight.create: capacity must be positive";
    let oc =
      Option.map
        (fun p -> open_out_gen [ Open_append; Open_creat ] 0o644 p)
        path
    in
    {
      capacity;
      ring = Array.make capacity "";
      head = 0;
      count = 0;
      appended = 0;
      path;
      oc;
      m = Mutex.create ();
    }

  (* Rewrite the on-disk file down to the ring contents (tmp + rename,
     so a crash mid-compaction cannot lose the recent past). *)
  let compact_locked t =
    match t.path with
    | None -> ()
    | Some p ->
        (match t.oc with Some oc -> close_out_noerr oc | None -> ());
        let tmp = p ^ ".tmp" in
        let oc = open_out tmp in
        for i = 0 to t.count - 1 do
          output_string oc
            t.ring.((t.head - t.count + i + t.capacity) mod t.capacity);
          output_char oc '\n'
        done;
        close_out oc;
        Sys.rename tmp p;
        t.oc <- Some (open_out_gen [ Open_append; Open_creat ] 0o644 p);
        t.appended <- t.count

  let record t line =
    Mutex.protect t.m (fun () ->
        t.ring.(t.head) <- line;
        t.head <- (t.head + 1) mod t.capacity;
        if t.count < t.capacity then t.count <- t.count + 1;
        match t.oc with
        | None -> ()
        | Some oc ->
            output_string oc line;
            output_char oc '\n';
            flush oc;
            t.appended <- t.appended + 1;
            if t.appended > 8 * t.capacity then compact_locked t)

  let events t =
    Mutex.protect t.m (fun () ->
        List.init t.count (fun i ->
            t.ring.((t.head - t.count + i + t.capacity) mod t.capacity)))

  let close t =
    Mutex.protect t.m (fun () ->
        match t.oc with
        | Some oc ->
            close_out_noerr oc;
            t.oc <- None
        | None -> ())

  (* -- post-mortem side: static helpers over a dead worker's file -- *)

  let read_lines path =
    match open_in_bin path with
    | exception Sys_error _ -> []
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let text = really_input_string ic (in_channel_length ic) in
            String.split_on_char '\n' text
            |> List.map String.trim
            |> List.filter (fun l -> l <> ""))

  let harvest ~src ~capacity =
    let lines = read_lines src in
    let n = List.length lines in
    if n <= capacity then lines
    else List.filteri (fun i _ -> i >= n - capacity) lines

  let last_epoch events =
    List.fold_left
      (fun acc line ->
        match Json.parse line with
        | Ok j -> (
            match Json.member "epoch" j with
            | Some (Json.Num e) -> Some (int_of_float e)
            | _ -> acc)
        | Error _ -> acc)
      None events

  let write_postmortem ~path ~cause ~decision ~last_epoch ~events =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc
          "{\"kind\":\"postmortem\",\"ts_us\":%d,\"cause\":\"%s\",\"decision\":\"%s\",\"last_epoch\":%s,\"events\":%d}\n"
          (now_us ()) (Json.escape cause) (Json.escape decision)
          (match last_epoch with
          | Some e -> string_of_int e
          | None -> "null")
          (List.length events);
        List.iter
          (fun line ->
            output_string oc line;
            output_char oc '\n')
          events);
    Sys.rename tmp path

  let truncate path = close_out (open_out path)
end
