(* The loopback TCP workload: server.exe processes on 127.0.0.1 and a
   single-threaded open-loop generator.

   Requests are due on a fixed schedule (rate r: request i at i/r after
   the step starts) and alternate between replica 0 (the leader) and
   replica 1 (a follower that forwards), one connection each.  Latency
   is timed from the due time, so a stalled generator or server charges
   the wait to every request behind it; how late the generator itself
   sent is reported separately. *)

module Driver = Raftpax_netshell.Driver
module Transport = Raftpax_netshell.Transport
module Wire = Raftpax_netcore.Wire
module Workload = Raftpax_kvstore.Workload
module Types = Raftpax_consensus.Types

(* ---- processes ---- *)

(* Driver.server_exe looks next to the running binary and in ../bin,
   neither of which holds server.exe for a binary built under bench/. *)
let server_exe () =
  let exe = Sys.executable_name in
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe
  in
  List.fold_left Filename.concat (Filename.dirname exe)
    [ Filename.parent_dir_name; Filename.parent_dir_name; "bin"; "server.exe" ]

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* SIGTERM, then SIGKILL after [grace_s], then reap.  A saturated
   server can ignore SIGTERM indefinitely (README: "Known server bug"),
   so a plain terminate-and-wait would hang. *)
let terminate ?(grace_s = 2.0) pids =
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  let t0 = Clock.now_ns () in
  let rec wait live =
    let live = List.filter (fun pid -> not (exited pid)) live in
    if (not (List.is_empty live)) && Clock.seconds_since t0 < grace_s then begin
      Unix.sleepf 0.02;
      wait live
    end
    else live
  in
  let stuck = wait pids in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) stuck;
  List.iter reap stuck;
  List.length stuck

(* The fields of /proc/<pid>/stat after "pid (comm) ", so index 0 is
   stat field 3 (the state); comm may hold spaces.  [||] once the
   process is gone. *)
let stat_fields pid =
  match Report.read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> [||]
  | stat ->
      let after = String.rindex stat ')' + 2 in
      Array.of_list
        (String.split_on_char ' ' (String.sub stat after (String.length stat - after)))

let stat_int fields i =
  if i < Array.length fields then int_of_string_opt fields.(i) else None

(* Children of this process, read from /proc: the safety net for a
   spawn that failed half-way, whose pids Driver.spawn_cluster never
   returned. *)
let children () =
  let me = Unix.getpid () in
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | Some pid when Option.equal Int.equal (stat_int (stat_fields pid) 1) (Some me) ->
             Some pid
         | Some _ | None -> None)
  |> List.sort Int.compare

type cluster = { cl : Driver.cluster; conns : Transport.conn array }

let stop c =
  Array.iter Transport.close c.conns;
  let stuck = terminate (Array.to_list c.cl.Driver.pids) in
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.cl.Driver.stdouts;
  stuck

(* utime + stime (stat fields 14 and 15), in µs: USER_HZ is 100 on
   Linux. *)
let cpu_us pid =
  let fields = stat_fields pid in
  match (stat_int fields 11, stat_int fields 12) with
  | Some u, Some s -> (u + s) * 10_000
  | _ -> 0

(* Ticks (1/100 s) in which the hypervisor ran something else on the
   machine's virtual CPUs, summed over them: field 8 of /proc/stat's
   "cpu" line, 0 where it is missing. *)
let steal_ticks () =
  match Report.read_file "/proc/stat" with
  | exception Sys_error _ -> 0
  | stat -> (
      let first = List.hd (String.split_on_char '\n' stat) in
      match List.filter (fun f -> not (String.equal f "")) (String.split_on_char ' ' first) with
      | "cpu" :: fields -> (
          match List.nth_opt fields 7 with
          | Some v -> Option.value ~default:0 (int_of_string_opt v)
          | None -> 0)
      | _ -> 0)

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid =
  match Report.read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with Some k -> k /. 1000.0 | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' status)

(* ---- requests ---- *)

(* Request ids are unique per cluster session; [wait_replies] and the
   steps share the counter. *)
type session = {
  c : cluster;
  wl : Workload.t;
  mutable next_id : int;
  mutable puts_answered : int;
}

let poll conns ~timeout_s on_frame =
  let fds = Array.to_list (Array.map Transport.fd conns) in
  let writes =
    Array.to_list conns
    |> List.filter Transport.pending_out
    |> List.map Transport.fd
  in
  match Unix.select fds writes [] (Float.max 0.0 timeout_s) with
  | rd, wr, _ ->
      Array.iter
        (fun c ->
          if List.memq (Transport.fd c) wr then Transport.flush c;
          if List.memq (Transport.fd c) rd then on_frame c)
        conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Spawn, wait for READY, connect, and get one reply on every
   connection: the workload's set-up. *)
let setup ~n ~seed ~targets =
  Unix.putenv "RAFTPAX_SERVER_EXE" (server_exe ());
  let t0 = Clock.now_ns () in
  let cl =
    try Driver.spawn_cluster ~protocol_name:"raft" ~n ~seed
    with e ->
      ignore (terminate (children ()));
      raise e
  in
  let conns =
    try Array.map (fun node -> Driver.connect cl.Driver.endpoints.(node)) targets
    with e ->
      ignore (terminate (Array.to_list cl.Driver.pids));
      raise e
  in
  let c = { cl; conns } in
  let wl = Workload.create ~seed:(Int64.of_int seed) ~regions:n Sims.tcp_spec in
  let s = { c; wl; next_id = 0; puts_answered = 0 } in
  let pending = Array.make (Array.length conns) true in
  Array.iteri
    (fun i conn ->
      Transport.send conn
        (Wire.Client_req { req_id = s.next_id + i; op = Types.Get { key = 1 } }))
    conns;
  s.next_id <- s.next_id + Array.length conns;
  let deadline = Clock.now_ns () + 10_000_000_000 in
  while Array.exists Fun.id pending && Clock.now_ns () < deadline do
    poll conns ~timeout_s:0.05 (fun conn ->
        List.iter
          (function
            | Wire.Client_reply { req_id; _ } when req_id < Array.length conns ->
                pending.(req_id) <- false
            | _ -> ())
          (Transport.recv conn))
  done;
  if Array.exists Fun.id pending then begin
    ignore (stop c);
    failwith "loopback cluster gave no first reply within 10s"
  end;
  (s, Clock.seconds_since t0)

type step = {
  rate : int;
  abandoned : bool;  (** stopped early: it could no longer pass *)
  measured : int;  (** requests sent with due times in the measured window *)
  answered : int;
  unanswered : int;  (** measured requests still unanswered [drain_s] after *)
  p50_us : int;  (** medians over the less-stolen half of the one-second *)
  p99_us : int;  (** windows of each window's percentile; an unanswered
                     request counts as answered when the step ended *)
  stolen_s : float;  (** CPU time the hypervisor took, from the first
                         measured send to the end of the step *)
  lag_p99_us : int;  (** send time minus due time *)
  send_us : float;  (** mean time in Transport.send per request *)
  recv_us : float;  (** mean time in Transport.recv per reply *)
  window_s : float;  (** the measured requests' due times span this *)
  served_s : float;  (** first measured due time to last measured reply *)
  cpu_us : int array;  (** per server, over the measured sends *)
}

let limit_p99_us = 25_000

let passes st =
  (not st.abandoned) && st.p99_us <= limit_p99_us && st.unanswered * 100 <= st.measured

let run_step s ~rate ~warm_s ~measure_s ~drain_s =
  let conns = s.c.conns in
  let k = Array.length conns in
  let pids = s.c.cl.Driver.pids in
  let warm = int_of_float (float_of_int rate *. warm_s) in
  let total = warm + int_of_float (float_of_int rate *. measure_s) in
  let base = s.next_id in
  s.next_id <- s.next_id + total;
  let gap_ns = 1_000_000_000 / rate in
  let start = Clock.now_ns () + 1_000_000 in
  let due i = start + (i * gap_ns) in
  let lat = Array.make total (-1) and lag = Array.make total 0 in
  let is_put = Array.make total false in
  let send_ns = ref 0 and recv_ns = ref 0 and replies = ref 0 in
  let last_reply = ref 0 in
  (* More requests outstanding than were sent in the last 250 ms plus 1%
     of the step means over 1% will miss the 25 ms limit: the step has
     failed, and offering the rest would only grow the servers' backlog. *)
  let give_up = (total / 100) + (rate / 4) in
  let stop_at = ref total in
  (* Server CPU over the measured window: from the first measured send
     to the last send. *)
  let cpu0 = ref [||] and cpu1 = ref [||] in
  let snap () = Array.map cpu_us pids in
  (* Steal at each one-second window's first send; -1 until then. *)
  let planned_windows = max 1 ((total - warm) / rate) in
  let steal_at = Array.make (planned_windows + 1) (-1) in
  let next = ref 0 in
  let finished () =
    !next = !stop_at
    && (!replies = !next
       || Clock.now_ns () > due (!next - 1) + int_of_float (drain_s *. 1e9))
  in
  let on_frame conn =
    let t = Clock.now_ns () in
    let frames = Transport.recv conn in
    let now = Clock.now_ns () in
    recv_ns := !recv_ns + (now - t);
    List.iter
      (function
        | Wire.Client_reply { req_id; _ } ->
            let i = req_id - base in
            if i >= 0 && i < total && lat.(i) < 0 then begin
              incr replies;
              lat.(i) <- (now - due i) / 1000;
              if i >= warm then last_reply := now;
              if is_put.(i) then s.puts_answered <- s.puts_answered + 1
            end
        | _ -> ())
      frames
  in
  while not (finished ()) do
    let now = Clock.now_ns () in
    while !next < !stop_at && due !next <= now do
      let i = !next in
      if i = warm then cpu0 := snap ();
      if i >= warm && (i - warm) mod rate = 0 && (i - warm) / rate < planned_windows then
        steal_at.((i - warm) / rate) <- steal_ticks ();
      let node = i mod k in
      let op = Workload.next_op s.wl ~region:node in
      is_put.(i) <- (match op with Types.Put _ -> true | Types.Get _ -> false);
      let t = Clock.now_ns () in
      lag.(i) <- (t - due i) / 1000;
      Transport.send conns.(node) (Wire.Client_req { req_id = base + i; op });
      send_ns := !send_ns + (Clock.now_ns () - t);
      incr next;
      if !next - !replies > give_up then stop_at := !next;
      if !next = !stop_at then cpu1 := snap ()
    done;
    let timeout_s =
      if !next < !stop_at then float_of_int (due !next - Clock.now_ns ()) /. 1e9
      else 0.01
    in
    poll conns ~timeout_s on_frame;
    if Array.exists (fun c -> not (Transport.alive c)) conns then
      failwith "lost connection to a loopback server"
  done;
  let ended = Clock.now_ns () in
  let steal_end = steal_ticks () in
  let sent = !stop_at in
  let measured = max 0 (sent - warm) in
  let answered = ref 0 in
  for i = warm to sent - 1 do
    if lat.(i) >= 0 then incr answered
  done;
  (* Windowed percentiles: one bad second of host scheduling moves one
     window's p99, not the step's.  A window in which the hypervisor
     stopped the machine's CPUs measures the host, not the program, so
     only the less-stolen half of the windows counts. *)
  let windows = max 1 (measured / rate) in
  Array.iteri (fun w t -> if t < 0 then steal_at.(w) <- steal_end) steal_at;
  let stolen w = (if w = windows - 1 then steal_end else steal_at.(w + 1)) - steal_at.(w) in
  let counted =
    List.init windows (fun w -> (stolen w, w))
    |> List.sort (fun (a, w) (b, v) -> if Int.equal a b then Int.compare w v else Int.compare a b)
    |> List.filteri (fun j _ -> j < (windows + 1) / 2)
    |> List.map snd
  in
  let windowed p =
    let per_window w =
      let lo = warm + (w * rate) in
      let hi = if w = windows - 1 then sent else lo + rate in
      let a =
        Array.init (max 0 (hi - lo)) (fun j ->
            let i = lo + j in
            if lat.(i) >= 0 then lat.(i) else (ended - due i) / 1000)
      in
      Array.sort Int.compare a;
      float_of_int (Report.percentile a p)
    in
    int_of_float (Report.median (List.map per_window counted))
  in
  let lags = Array.sub lag warm measured in
  Array.sort Int.compare lags;
  if Array.length !cpu0 = 0 then cpu0 := !cpu1;
  {
    rate;
    abandoned = sent < total;
    measured;
    answered = !answered;
    unanswered = measured - !answered;
    p50_us = windowed 0.50;
    p99_us = windowed 0.99;
    lag_p99_us = Report.percentile lags 0.99;
    stolen_s = float_of_int (steal_end - steal_at.(0)) /. 100.0;
    send_us = float_of_int !send_ns /. 1000.0 /. float_of_int (max 1 sent);
    recv_us = float_of_int !recv_ns /. 1000.0 /. float_of_int (max 1 !replies);
    window_s = float_of_int (measured * gap_ns) /. 1e9;
    served_s =
      (if !last_reply > 0 then float_of_int (!last_reply - due warm) /. 1e9
       else float_of_int (measured * gap_ns) /. 1e9);
    cpu_us = Array.map2 (fun a b -> b - a) !cpu0 !cpu1;
  }

(* Every replica's applied-state snapshot, byte-identical, covering at
   least the writes the generator saw acknowledged. *)
let agreement s =
  match
    Driver.await_agreement s.c.cl ~min_ops:s.puts_answered ~timeout_s:20.0
  with
  | None -> [ "no snapshot from every replica" ]
  | Some snaps ->
      let _, c0, s0 = snaps.(0) in
      if
        c0 >= s.puts_answered
        && Array.for_all (fun (_, c, snap) -> c = c0 && String.equal snap s0) snaps
      then []
      else [ "replica snapshots differ after the run" ]

let peak_rss_sum s =
  Array.fold_left (fun acc pid -> acc +. peak_rss_mb pid) 0.0 s.c.cl.Driver.pids
