module Metrics = Nd_util.Metrics

type span = {
  sid : int;
  parent : int;
  name : string;
  attrs : (string * string) list;
  ts_us : int;
  dur_us : int;
  ops : int;
  dom : int;
}

(* ---------------- state ---------------- *)

let default_capacity = 4096

let on = ref false

(* Ring of completed spans: [ring.(head)] is the oldest slot when full;
   [count] <= capacity, [head] is the next write position.  Guarded by
   [rm]: spans complete on whichever domain opened them (parallel
   bag-jobs trace cover construction, for instance), and sys-threads of
   a concurrent serve loop record too. *)
let rm = Mutex.create ()
let ring : span array ref = ref [||]
let head = ref 0
let count = ref 0
let dropped_n = ref 0

let next_sid = Atomic.make 0

(* Open-span stack (innermost first), per domain: nesting follows the
   dynamic call structure *of that domain*, so a bag-job's spans parent
   onto each other, never across domains (the fan-out span on the main
   domain is closed only after the join, so cross-domain parenting
   would be ill-founded anyway). *)
type open_span = {
  o_sid : int;
  o_parent : int;
  o_name : string;
  o_attrs : (string * string) list;
  o_ts : int;
  o_ops0 : int;
}

let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

(* Losses are mirrored into the shared registry so a scrape sees them;
   the counter never carries ~ops (tracer bookkeeping is not machine
   work in the cost model). *)
let c_dropped = Metrics.counter "trace.dropped"

(* ---------------- monotonic microsecond clock ---------------- *)

(* No monotonic clock in the stdlib/unix we link against; clamp wall
   time so ts never steps backwards (trace viewers require it).  The
   clamp is per domain — each domain is its own timeline lane in the
   Chrome export, and lanes only need to be monotonic individually. *)
let last_us_key = Domain.DLS.new_key (fun () -> ref 0)

let now_us () =
  let last_us = Domain.DLS.get last_us_key in
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  let t = if t < !last_us then !last_us else t in
  last_us := t;
  t

(* ---------------- lifecycle ---------------- *)

let reset_ring cap =
  ring := Array.make cap { sid = 0; parent = 0; name = ""; attrs = [];
                           ts_us = 0; dur_us = 0; ops = 0; dom = 0 };
  head := 0;
  count := 0;
  dropped_n := 0

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Nd_trace.enable: capacity must be positive";
  Mutex.protect rm (fun () ->
      if Array.length !ring <> capacity then reset_ring capacity);
  on := true

let disable () =
  on := false;
  stack () := []

let enabled () = !on

let clear () =
  Mutex.protect rm (fun () ->
      let cap =
        if Array.length !ring = 0 then default_capacity else Array.length !ring
      in
      reset_ring cap);
  stack () := []

let dropped () = !dropped_n

let record sp =
  Mutex.protect rm @@ fun () ->
  let cap = Array.length !ring in
  if cap = 0 then ()
  else begin
    !ring.(!head) <- sp;
    head := (!head + 1) mod cap;
    if !count < cap then incr count
    else begin
      incr dropped_n;
      Metrics.incr c_dropped
    end
  end

let spans () =
  Mutex.protect rm @@ fun () ->
  let n = !count in
  if n = 0 then []
  else begin
    let cap = Array.length !ring in
    let first = ((!head - n) mod cap + cap) mod cap in
    List.init n (fun i -> !ring.((first + i) mod cap))
  end

(* ---------------- spans ---------------- *)

let current_span_id () =
  match !(stack ()) with [] -> 0 | o :: _ -> o.o_sid

let with_span name ?(attrs = []) f =
  if not !on then f ()
  else begin
    let stack = stack () in
    let o =
      {
        o_sid = Atomic.fetch_and_add next_sid 1 + 1;
        o_parent = (match !stack with [] -> 0 | o :: _ -> o.o_sid);
        o_name = name;
        o_attrs = attrs;
        o_ts = now_us ();
        o_ops0 = Metrics.ops ();
      }
    in
    stack := o :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with
        | top :: rest when top.o_sid = o.o_sid -> stack := rest
        | s -> stack := List.filter (fun x -> x.o_sid <> o.o_sid) s);
        if !on then
          let t1 = now_us () in
          record
            {
              sid = o.o_sid;
              parent = o.o_parent;
              name = o.o_name;
              attrs = o.o_attrs;
              ts_us = o.o_ts;
              dur_us = max 0 (t1 - o.o_ts);
              ops = max 0 (Metrics.ops () - o.o_ops0);
              dom = (Domain.self () :> int);
            })
      f
  end

let phase name ?attrs f = with_span name ?attrs (fun () -> Metrics.phase name f)

(* ---------------- process trace identity ---------------- *)

(* One id per process, stamped into every exported shard and every
   propagated [trace=<id>:<span>] token, so a cross-process merge can
   resolve a remote parent reference back to the process that owns the
   span.  The default is derived from pid + start time; harnesses that
   want readable merged timelines ([fodb cluster]) set explicit ids. *)

let id_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
  | _ -> false

let trace_id_ref = ref ""

let trace_id () =
  if !trace_id_ref = "" then
    trace_id_ref :=
      Printf.sprintf "p%d-%06x" (Unix.getpid ())
        (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff);
  !trace_id_ref

let set_trace_id id =
  if id = "" || not (String.for_all id_char id) then
    invalid_arg "Nd_trace.set_trace_id: id must be non-empty [A-Za-z0-9._-]+";
  trace_id_ref := id

(* ---------------- minimal JSON reader and writer ---------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Bad (!pos, msg)) in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              if !pos >= n then fail "bad escape"
              else begin
                (match s.[!pos] with
                | '"' -> Buffer.add_char b '"'
                | '\\' -> Buffer.add_char b '\\'
                | '/' -> Buffer.add_char b '/'
                | 'b' -> Buffer.add_char b '\b'
                | 'f' -> Buffer.add_char b '\012'
                | 'n' -> Buffer.add_char b '\n'
                | 'r' -> Buffer.add_char b '\r'
                | 't' -> Buffer.add_char b '\t'
                | 'u' ->
                    if !pos + 4 >= n then fail "bad \\u escape";
                    let hex = String.sub s (!pos + 1) 4 in
                    let code =
                      try int_of_string ("0x" ^ hex)
                      with _ -> fail "bad \\u escape"
                    in
                    (* Good enough for ASCII control chars; multi-byte
                       code points round-trip as '?' in this minimal
                       reader. *)
                    if code < 0x80 then Buffer.add_char b (Char.chr code)
                    else Buffer.add_char b '?';
                    pos := !pos + 4
                | _ -> fail "bad escape");
                incr pos
              end;
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      if !pos = start then fail "expected number"
      else
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> f
        | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          expect '{';
          skip_ws ();
          if peek () = Some '}' then begin
            expect '}';
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  expect ',';
                  fields ((k, v) :: acc)
              | Some '}' ->
                  expect '}';
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or } in object"
            in
            Obj (fields [])
          end
      | Some '[' ->
          expect '[';
          skip_ws ();
          if peek () = Some ']' then begin
            expect ']';
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  expect ',';
                  elems (v :: acc)
              | Some ']' ->
                  expect ']';
                  List.rev (v :: acc)
              | _ -> fail "expected , or ] in array"
            in
            Arr (elems [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some _ -> Num (parse_number ())
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos)
      else Ok v
    with Bad (p, msg) -> Error (Printf.sprintf "%s at byte %d" msg p)

  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

(* ---------------- Chrome trace-event export ---------------- *)

let export_chrome () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"process\":{\"trace_id\":\"";
  Buffer.add_string b (Json.escape (trace_id ()));
  Buffer.add_string b
    (Printf.sprintf "\",\"pid\":%d},\"traceEvents\":[" (Unix.getpid ()));
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":\"";
      Buffer.add_string b (Json.escape sp.name);
      Buffer.add_string b
        (Printf.sprintf "\",\"cat\":\"fodb\",\"ph\":\"X\",\"pid\":1,\"tid\":%d"
           (sp.dom + 1));
      Buffer.add_string b (Printf.sprintf ",\"ts\":%d,\"dur\":%d" sp.ts_us sp.dur_us);
      Buffer.add_string b
        (Printf.sprintf ",\"args\":{\"sid\":%d,\"parent\":%d,\"ops\":%d" sp.sid
           sp.parent sp.ops);
      List.iter
        (fun (k, v) ->
          Buffer.add_string b ",\"";
          Buffer.add_string b (Json.escape k);
          Buffer.add_string b "\":\"";
          Buffer.add_string b (Json.escape v);
          Buffer.add_string b "\"")
        sp.attrs;
      Buffer.add_string b "}}")
    (spans ());
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let save_chrome ~path =
  let n = !count in
  let doc = export_chrome () in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc doc);
  Sys.rename tmp path;
  n

(* ---------------- Chrome trace validation ---------------- *)

let validate_chrome text =
  match Json.parse text with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | None -> Error "missing traceEvents"
      | Some (Json.Arr events) -> (
          if events = [] then Error "traceEvents is empty"
          else
            let tbl = Hashtbl.create 64 in
            let check_event ev =
              let str k =
                match Json.member k ev with Some (Json.Str s) -> Some s | _ -> None
              in
              let num k =
                match Json.member k ev with
                | Some (Json.Num f) -> Some f
                | _ -> None
              in
              let arg k =
                match Json.member "args" ev with
                | Some args -> (
                    match Json.member k args with
                    | Some (Json.Num f) -> Some (int_of_float f)
                    | _ -> None)
                | None -> None
              in
              match (str "name", str "ph", num "ts", num "dur") with
              | Some name, _, _, _ when name = "" -> Error "empty event name"
              | _, Some ph, _, _ when ph <> "X" ->
                  Error (Printf.sprintf "unexpected phase %S" ph)
              | Some _, Some _, Some ts, Some dur ->
                  if ts < 0. then Error "negative ts"
                  else if dur < 0. then Error "negative dur"
                  else begin
                    (match (arg "sid", arg "parent") with
                    | Some sid, Some parent ->
                        Hashtbl.replace tbl sid (ts, dur, parent)
                    | _ -> ());
                    Ok ()
                  end
              | _ -> Error "event missing name/ph/ts/dur"
            in
            let rec all = function
              | [] -> Ok ()
              | ev :: rest -> (
                  match check_event ev with Ok () -> all rest | e -> e)
            in
            match all events with
            | Error e -> Error e
            | Ok () ->
                (* Containment: a child's [ts, ts+dur] must sit inside
                   its parent's (only checkable when the parent is still
                   in the export — the ring may have evicted it).  Allow
                   1us slack for clock granularity at the edges. *)
                let bad = ref None in
                Hashtbl.iter
                  (fun sid (ts, dur, parent) ->
                    if !bad = None && parent <> 0 then
                      match Hashtbl.find_opt tbl parent with
                      | None -> ()
                      | Some (pts, pdur, _) ->
                          if ts +. 1. < pts || ts +. dur > pts +. pdur +. 1. then
                            bad :=
                              Some
                                (Printf.sprintf
                                   "span %d not contained in parent %d" sid
                                   parent))
                  tbl;
                (match !bad with
                | Some e -> Error e
                | None -> Ok (List.length events)))
      | Some _ -> Error "traceEvents is not an array")

(* ---------------- Prometheus exposition ---------------- *)

module Prometheus = struct
  let sanitize name =
    let b = Buffer.create (String.length name + 3) in
    Buffer.add_string b "nd_";
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
        | _ -> Buffer.add_char b '_')
      name;
    Buffer.contents b

  let escape_label v =
    let b = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  (* Explicit bucket upper bounds for the integer histograms: 0 and the
     powers of two up to the registry clamp.  Values saturate into the
     clamp bucket at observation time, so le="<clamp>" always equals
     _count. *)
  let bucket_bounds =
    let rec go acc b =
      if b > Metrics.hist_clamp then List.rev acc else go (b :: acc) (b * 2)
    in
    Array.of_list (0 :: go [] 1)

  let render (s : Metrics.snapshot) =
    let b = Buffer.create 4096 in
    let family name typ help =
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
    in
    (* counters *)
    List.iter
      (fun (c : Metrics.counter_snapshot) ->
        let name = sanitize c.c_name ^ "_total" in
        family name "counter"
          (Printf.sprintf "Event counter %s%s." c.c_name
             (if c.c_ops then " (counts as machine ops)" else ""));
        Buffer.add_string b (Printf.sprintf "%s %d\n" name c.c_value))
      s.s_counters;
    (* the ops clock *)
    family "nd_ops_total" "counter"
      "Machine-operation clock: sum of all ops-flagged counters.";
    Buffer.add_string b (Printf.sprintf "nd_ops_total %d\n" s.s_ops);
    (* phase timers as one labelled family *)
    family "nd_phase_seconds_total" "counter"
      "Cumulative wall-clock seconds per named phase.";
    List.iter
      (fun (name, secs) ->
        Buffer.add_string b
          (Printf.sprintf "nd_phase_seconds_total{phase=\"%s\"} %.9f\n"
             (escape_label name) secs))
      s.s_phases;
    (* histograms *)
    List.iter
      (fun (h : Metrics.hist_snapshot) ->
        let name = sanitize h.h_name in
        family name "histogram"
          (Printf.sprintf "Distribution of %s (integer-valued)." h.h_name);
        let nb = Array.length h.h_buckets in
        let cum = ref 0 and next = ref 0 in
        Array.iter
          (fun le ->
            while !next < nb && !next <= le do
              cum := !cum + h.h_buckets.(!next);
              incr next
            done;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name le !cum))
          bucket_bounds;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.h_count);
        Buffer.add_string b (Printf.sprintf "%s_sum %d\n" name h.h_sum);
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" name h.h_count))
      s.s_hists;
    Buffer.contents b

  let render_current () = render (Metrics.snapshot ())

  (* ---- validator ---- *)

  let name_ok name =
    name <> ""
    && (match name.[0] with
       | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
       | _ -> false)
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         name

  (* A full label list: [k1="v1",k2="v2"] with the exposition format's
     escapes inside values.  [None] on malformed syntax.  The aggregated
     fleet exposition carries several labels per sample
     ([shard="0",replica="1",le="4"]), so the validator must parse the
     whole list, not just a leading [le]. *)
  let parse_labels s =
    let n = String.length s in
    let pos = ref 0 in
    let ok = ref true in
    let out = ref [] in
    let ident () =
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
        | _ -> false
      do
        incr pos
      done;
      if !pos = start then (
        ok := false;
        "")
      else String.sub s start (!pos - start)
    in
    while !ok && !pos < n do
      let k = ident () in
      if !ok then
        if !pos < n && s.[!pos] = '=' then incr pos else ok := false;
      if !ok then
        if !pos < n && s.[!pos] = '"' then incr pos else ok := false;
      if !ok then begin
        let b = Buffer.create 8 in
        let fin = ref false in
        while !ok && not !fin do
          if !pos >= n then ok := false
          else
            match s.[!pos] with
            | '"' ->
                incr pos;
                fin := true
            | '\\' ->
                if !pos + 1 >= n then ok := false
                else begin
                  (match s.[!pos + 1] with
                  | '"' -> Buffer.add_char b '"'
                  | '\\' -> Buffer.add_char b '\\'
                  | 'n' -> Buffer.add_char b '\n'
                  | _ -> ok := false);
                  pos := !pos + 2
                end
            | c ->
                Buffer.add_char b c;
                incr pos
        done;
        if !ok then begin
          out := (k, Buffer.contents b) :: !out;
          if !pos < n then
            if s.[!pos] = ',' then begin
              incr pos;
              if !pos >= n then ok := false
            end
            else ok := false
        end
      end
    done;
    if !ok then Some (List.rev !out) else None

  (* A parsed sample line: metric name (with suffix), label list,
     value. *)
  let parse_sample line =
    let brace = String.index_opt line '{' in
    let space =
      match String.index_opt line ' ' with
      | Some i -> i
      | None -> String.length line
    in
    match brace with
    | Some bi when bi < space -> (
        match String.rindex_opt line '}' with
        | None -> None
        | Some ei when ei < bi -> None
        | Some ei -> (
            let name = String.sub line 0 bi in
            let labels_s = String.sub line (bi + 1) (ei - bi - 1) in
            let value =
              String.trim (String.sub line (ei + 1) (String.length line - ei - 1))
            in
            match parse_labels labels_s with
            | None -> None
            | Some labels -> if value = "" then None else Some (name, labels, value)))
    | _ ->
        let name = String.sub line 0 space in
        if space >= String.length line then None
        else
          let value =
            String.trim (String.sub line space (String.length line - space))
          in
          Some (name, [], value)

  type fam_state = { mutable f_type : string; mutable f_has_help : bool }

  (* Histogram invariants are per *series* — one (family, labels minus
     [le]) combination — not per family: the aggregated exposition holds
     one bucket ladder per shard/replica under the same family name. *)
  type ser_state = {
    s_base : string;
    mutable s_last_bucket : float;  (* cumulative check *)
    mutable s_inf : float option;
    mutable s_sum : bool;
    mutable s_cnt : float option;
  }

  let validate text =
    let lines = String.split_on_char '\n' text in
    let fams : (string, fam_state) Hashtbl.t = Hashtbl.create 32 in
    let fam name =
      match Hashtbl.find_opt fams name with
      | Some f -> f
      | None ->
          let f = { f_type = ""; f_has_help = false } in
          Hashtbl.replace fams name f;
          f
    in
    let series : (string, ser_state) Hashtbl.t = Hashtbl.create 32 in
    let series_key base labels =
      let rest = List.filter (fun (k, _) -> k <> "le") labels in
      let rest = List.sort compare rest in
      base ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) rest)
      ^ "}"
    in
    let ser base labels =
      let key = series_key base labels in
      match Hashtbl.find_opt series key with
      | Some s -> s
      | None ->
          let s =
            { s_base = base; s_last_bucket = -1.; s_inf = None; s_sum = false;
              s_cnt = None }
          in
          Hashtbl.replace series key s;
          s
    in
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    let base_of name =
      let strip sfx =
        let ls = String.length sfx and ln = String.length name in
        if ln > ls && String.sub name (ln - ls) ls = sfx then
          Some (String.sub name 0 (ln - ls))
        else None
      in
      match strip "_bucket" with
      | Some b -> (b, `Bucket)
      | None -> (
          match strip "_sum" with
          | Some b when Hashtbl.mem fams b -> (b, `Sum)
          | _ -> (
              match strip "_count" with
              | Some b when Hashtbl.mem fams b -> (b, `Count)
              | _ -> (name, `Plain)))
    in
    List.iter
      (fun line ->
        if !err <> None || String.trim line = "" then ()
        else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
          let rest = String.sub line 7 (String.length line - 7) in
          let name =
            match String.index_opt rest ' ' with
            | Some i -> String.sub rest 0 i
            | None -> rest
          in
          if not (name_ok name) then fail ("bad metric name in HELP: " ^ name)
          else (fam name).f_has_help <- true
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          let rest = String.sub line 7 (String.length line - 7) in
          match String.split_on_char ' ' rest with
          | [ name; typ ] ->
              if not (name_ok name) then fail ("bad metric name in TYPE: " ^ name)
              else begin
                let f = fam name in
                if not f.f_has_help then fail ("TYPE before HELP for " ^ name)
                else if f.f_type <> "" then fail ("duplicate TYPE for " ^ name)
                else if typ <> "counter" && typ <> "gauge" && typ <> "histogram"
                then fail ("unknown type " ^ typ ^ " for " ^ name)
                else f.f_type <- typ
              end
          | _ -> fail ("malformed TYPE line: " ^ line)
        end
        else if line.[0] = '#' then ()
        else
          match parse_sample line with
          | None -> fail ("malformed sample line: " ^ line)
          | Some (name, labels, value) -> (
              match float_of_string_opt value with
              | None -> fail ("non-numeric sample value: " ^ line)
              | Some v -> (
                  let base, kind = base_of name in
                  match kind with
                  | `Plain ->
                      if not (name_ok name) then fail ("bad metric name: " ^ name)
                      else if not (Hashtbl.mem fams name) then
                        fail ("sample without TYPE/HELP: " ^ name)
                      else if (fam name).f_type = "" then
                        fail ("sample without TYPE: " ^ name)
                  | `Bucket -> (
                      if not (Hashtbl.mem fams base) then
                        fail ("bucket for undeclared histogram: " ^ base)
                      else if (fam base).f_type <> "histogram" then
                        fail (base ^ " has buckets but is not a histogram")
                      else
                        match List.assoc_opt "le" labels with
                        | None -> fail ("bucket without le label: " ^ line)
                        | Some "+Inf" -> (ser base labels).s_inf <- Some v
                        | Some _ ->
                            let s = ser base labels in
                            if v < s.s_last_bucket then
                              fail
                                ("non-monotone buckets for "
                               ^ series_key base labels ^ ": " ^ value)
                            else s.s_last_bucket <- v)
                  | `Sum -> (ser base labels).s_sum <- true
                  | `Count -> (ser base labels).s_cnt <- Some v)))
      lines;
    (match !err with
    | Some _ -> ()
    | None ->
        Hashtbl.iter
          (fun name f ->
            if !err = None && f.f_type = "" then
              fail ("family without TYPE: " ^ name))
          fams;
        let hist_sampled : (string, unit) Hashtbl.t = Hashtbl.create 8 in
        Hashtbl.iter
          (fun key s ->
            if !err = None && (fam s.s_base).f_type = "histogram" then begin
              Hashtbl.replace hist_sampled s.s_base ();
              match (s.s_inf, s.s_cnt) with
              | None, _ -> fail ("histogram series without +Inf bucket: " ^ key)
              | _, None -> fail ("histogram series without _count: " ^ key)
              | Some inf, Some cnt ->
                  if inf <> cnt then fail ("+Inf bucket <> _count for " ^ key)
                  else if not s.s_sum then
                    fail ("histogram series without _sum: " ^ key)
                  else if s.s_last_bucket > inf then
                    fail ("finite bucket exceeds +Inf for " ^ key)
            end)
          series;
        Hashtbl.iter
          (fun name f ->
            if !err = None && f.f_type = "histogram"
               && not (Hashtbl.mem hist_sampled name)
            then fail ("histogram without samples: " ^ name))
          fams);
    match !err with
    | Some e -> Error e
    | None -> Ok (Hashtbl.length fams)
end
