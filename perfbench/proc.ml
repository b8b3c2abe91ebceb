(* Launching fodb processes, talking the line protocol to them, and
   making sure every process this benchmark starts has ended before it
   exits. *)

let fodb = ref "fodb"
let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let live_lock = Mutex.create ()

let track pid =
  Mutex.lock live_lock;
  Hashtbl.replace live pid ();
  Mutex.unlock live_lock

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | exception Unix.Unix_error _ -> ()
  | _ -> ()

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* SIGTERM (a graceful drain in fodb), then SIGKILL after [grace_s]. *)
let stop ?(grace_s = 10.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now_ns () + int_of_float (grace_s *. 1e9) in
  let rec wait () =
    if reaped pid then ()
    else if Util.now_ns () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      waitpid_retry pid
    end
    else (Thread.delay 0.005; wait ())
  in
  wait ();
  Mutex.lock live_lock;
  Hashtbl.remove live pid;
  Mutex.unlock live_lock

let stop_all () =
  let pids = Hashtbl.fold (fun p () acc -> p :: acc) live [] in
  List.iter (fun p -> stop ~grace_s:5. p) pids

let () =
  at_exit stop_all;
  (* a benchmark stopped from outside still stops its servers *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ]

(* An stdin that is at end of file. *)
let empty_stdin () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.close w;
  r

let log_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

(* A process with its stdout redirected to [log] (stderr too). *)
let spawn_logged ~log args =
  let out = log_fd log and inp = empty_stdin () in
  let pid = Unix.create_process !fodb (Array.of_list (!fodb :: args)) inp out out in
  Unix.close out;
  Unix.close inp;
  track pid;
  pid

(* ---- the line protocol ---- *)

type conn = { ic : in_channel; oc : out_channel; close : unit -> unit }

let is_terminator l =
  l = "ok" || l = "bye" || (String.length l >= 4 && String.sub l 0 4 = "err ")

(* Send one request line, read the reply through its terminator. *)
let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let rec go acc =
    let l = input_line c.ic in
    if is_terminator l then List.rev (l :: acc) else go (l :: acc)
  in
  go []

(* A fodb serve speaking on its stdin/stdout (cold-start's launch). *)
let spawn_stdio ~log args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = log_fd log in
  let pid = Unix.create_process !fodb (Array.of_list (!fodb :: args)) in_r out_w err in
  track pid;
  List.iter Unix.close [ in_r; out_w; err ];
  let ic = Unix.in_channel_of_descr out_r and oc = Unix.out_channel_of_descr in_w in
  (pid, { ic; oc; close = (fun () -> close_out_noerr oc; close_in_noerr ic) })

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      Some { ic; oc; close = (fun () -> (try Unix.close fd with Unix.Unix_error _ -> ())) }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Dial [path] until the server accepts, failing after [timeout_s] or
   when [pid] has died. *)
let connect_wait ?(timeout_s = 150.) ~pid path =
  let deadline = Util.now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    match connect path with
    | Some c -> c
    | None ->
        if reaped pid then failwith (Printf.sprintf "fodb (pid %d) exited before serving %s" pid path)
        else if Util.now_ns () > deadline then failwith ("timed out waiting for " ^ path)
        else (Thread.delay 0.002; go ())
  in
  go ()

(* ---- resident memory ---- *)

let status_kb pid key =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let r = ref None in
      (try
         while !r = None do
           let l = input_line ic in
           if String.length l > String.length key && String.sub l 0 (String.length key) = key then
             Scanf.sscanf (String.sub l (String.length key) (String.length l - String.length key))
               " %d" (fun kb -> r := Some kb)
         done
       with End_of_file -> ());
      close_in ic;
      !r

(* Children of [pid] (the cluster's shard workers). *)
let children pid =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             match int_of_string_opt e with
             | None -> None
             | Some p -> (
                 match open_in (Printf.sprintf "/proc/%d/stat" p) with
                 | exception Sys_error _ -> None
                 | ic ->
                     let l = try input_line ic with End_of_file -> "" in
                     close_in ic;
                     (* the comm field may hold spaces; ppid follows ") S " *)
                     match String.rindex_opt l ')' with
                     | None -> None
                     | Some i ->
                         Scanf.sscanf (String.sub l (i + 1) (String.length l - i - 1))
                           " %s %d" (fun _ ppid -> if ppid = pid then Some p else None)))

(* VmHWM of [pid] plus its children, in MB. *)
let peak_rss_mb ?(with_children = false) pid =
  let pids = pid :: (if with_children then children pid else []) in
  let kb = List.fold_left (fun a p -> a + Option.value ~default:0 (status_kb p "VmHWM:")) 0 pids in
  float_of_int kb /. 1024.

let file_contains path needle =
  match open_in path with
  | exception Sys_error _ -> false
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let ln = String.length needle in
      let rec find i = i + ln <= n && (String.sub s i ln = needle || find (i + 1)) in
      find 0
