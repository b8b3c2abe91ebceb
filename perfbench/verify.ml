(* Reply checks.  Every timed reply is one operation; an operation
   fails when it is an error reply, differs from the in-process
   reference, or (for sampled next/test replies) disagrees with the
   naive evaluator. *)

type op = { line : string; reply : string list; mutable bad : bool }

(* Self-test hook: when [corrupt_every] is k > 0, every k-th recorded
   reply is altered before any check sees it (see Selftest). *)
let corrupt_every = ref 0
let corrupted = ref 0
let recorded = ref 0
let corrupt_lock = Mutex.create ()

let corrupt_line l =
  match String.split_on_char ' ' l with
  | [ "true" ] -> "false"
  | [ "false" ] -> "true"
  | [ "sol"; t ] -> "sol " ^ t ^ "0"
  | "epoch" :: rest -> String.concat " " ("epoch" :: "9" :: rest)
  | _ -> l ^ "x"

let op line reply =
  let reply =
    if !corrupt_every <= 0 then reply
    else begin
      Mutex.lock corrupt_lock;
      incr recorded;
      let hit = !recorded mod !corrupt_every = 0 in
      if hit then incr corrupted;
      Mutex.unlock corrupt_lock;
      match reply with l :: rest when hit -> corrupt_line l :: rest | _ -> reply
    end
  in
  { line; reply; bad = false }

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let flag o = o.bad <- true

let is_err reply = List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "err ") reply

let parse_tuple s = Array.of_list (List.map int_of_string (String.split_on_char ',' s))

let sols_of reply =
  List.filter_map
    (fun l ->
      if String.length l > 4 && String.sub l 0 4 = "sol " then
        Some (parse_tuple (String.sub l 4 (String.length l - 4)))
      else None)
    reply

(* Compare each op with the reply [expect] gives for the same line. *)
let against_reference ops expect =
  List.iter (fun o -> if is_err o.reply || expect o.line <> o.reply then flag o) ops

(* ---- the naive oracle ---- *)

let gap_cap = 4000

(* [next T] -> T': T' is a solution and nothing in [T, T') is (the walk
   stops after [gap_cap] tuples); [none]: nothing >= T within the cap. *)
let naive_next g phi t reply =
  let c = Nd_eval.Naive.ctx ~cache:true g in
  let n = Nd_graph.Cgraph.n g in
  let holds a = Nd_eval.Naive.holds c phi a in
  let rec clear a stop steps =
    steps >= gap_cap
    || (match stop with Some s when Nd_util.Tuple.compare a s >= 0 -> true | _ -> false)
    || ((not (holds a))
       && match Nd_util.Tuple.succ ~n a with None -> true | Some a' -> clear a' stop (steps + 1))
  in
  match reply with
  | [ "none"; "ok" ] -> clear t None 0
  | [ s; "ok" ] when String.length s > 4 && String.sub s 0 4 = "sol " ->
      let t' = parse_tuple (String.sub s 4 (String.length s - 4)) in
      Nd_util.Tuple.compare t' t >= 0 && holds t' && clear t (Some t') 0
  | _ -> false

let naive_test g phi t reply =
  let c = Nd_eval.Naive.ctx g in
  match reply with
  | [ b; "ok" ] -> b = string_of_bool (Nd_eval.Naive.holds c phi t)
  | _ -> false

(* Check up to [limit] next/test ops (spread evenly) with the oracle. *)
let against_naive ?(limit = 300) g phi ops =
  let pts =
    List.filter (fun o -> String.length o.line > 5 && (String.sub o.line 0 5 = "next " || String.sub o.line 0 5 = "test ")) ops
  in
  let n = List.length pts in
  let stride = max 1 (n / limit) in
  List.iteri
    (fun i o ->
      if i mod stride = 0 then begin
        let t = parse_tuple (String.sub o.line 5 (String.length o.line - 5)) in
        let ok =
          (* a malformed or out-of-range reply fails the check *)
          try
            if String.sub o.line 0 4 = "next" then naive_next g phi t o.reply
            else naive_test g phi t o.reply
          with Invalid_argument _ | Failure _ -> false
        in
        if not ok then flag o
      end)
    pts

(* Count checked operations; the first few failures are kept to print. *)
let settle t ops =
  List.iter
    (fun o ->
      t.attempted <- t.attempted + 1;
      if o.bad then begin
        t.failed <- t.failed + 1;
        let msg = o.line ^ " -> " ^ String.concat " | " o.reply in
        let msg = if String.length msg > 160 then String.sub msg 0 160 ^ " ..." else msg in
        if List.length t.notes < 8 then t.notes <- msg :: t.notes
      end)
    ops

(* Order-sensitive digest of a solution stream (FNV-1a over the
   reply lines). *)
let digest_lines h lines =
  List.fold_left
    (fun h l ->
      let h = ref h in
      String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x100000001b3) l;
      (!h lxor 10) * 0x100000001b3)
    h lines

let digest_init = 0x4bf29ce484222325
