(* Drives a loopback multi-process cluster: spawns one server.exe per
   replica on 127.0.0.1, runs closed-loop clients over real sockets, and
   implements the three entry points the CLI and bench expose — the
   convergence demo, the sim-vs-net cross-check, and the wall-clock
   benchmark. *)

module Engine = Raftpax_sim.Engine
module Net = Raftpax_sim.Net
module Protocol = Raftpax_kvstore.Protocol
module Workload = Raftpax_kvstore.Workload
module Wire = Raftpax_netcore.Wire
module Snapshot = Raftpax_netcore.Snapshot
module Types = Raftpax_consensus.Types

(* ---- locating server.exe ---- *)

let server_exe () =
  match Sys.getenv_opt "RAFTPAX_SERVER_EXE" with
  | Some p -> p
  | None ->
      let dir = Filename.dirname Sys.executable_name in
      let candidates =
        [
          Filename.concat dir "server.exe";
          Filename.concat dir (Filename.concat ".." (Filename.concat "bin" "server.exe"));
        ]
      in
      let rec pick = function
        | [] -> failwith "server.exe not found (set RAFTPAX_SERVER_EXE)"
        | c :: rest -> if Sys.file_exists c then c else pick rest
      in
      pick candidates

(* ---- cluster lifecycle ---- *)

type cluster = {
  n : int;
  endpoints : (string * int) array;
  pids : int array;
  stdouts : Unix.file_descr array;
}

let free_ports k =
  (* Bind-to-0 probes; closed before the servers bind.  Loopback CI is
     quiet enough that the race window does not bite in practice. *)
  let fds =
    Array.init k (fun _ ->
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
        fd)
  in
  let ports = Array.map Transport.bound_port fds in
  Array.iter Unix.close fds;
  ports

let wait_ready fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Bytes.create 256 in
  let acc = Buffer.create 64 in
  let rec loop () =
    if String.length (Buffer.contents acc) > 0 && String.contains (Buffer.contents acc) '\n'
    then true
    else begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then false
      else
        match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> false
        | _ -> (
            match Unix.read fd buf 0 256 with
            | 0 -> false
            | n ->
                Buffer.add_subbytes acc buf 0 n;
                loop ())
    end
  in
  loop ()

let spawn_cluster ~protocol_name ~n ~seed =
  let exe = server_exe () in
  let ports = free_ports n in
  let endpoints = Array.map (fun p -> ("127.0.0.1", p)) ports in
  let peers =
    String.concat ","
      (Array.to_list (Array.map (fun p -> "127.0.0.1:" ^ string_of_int p) ports))
  in
  let pids = Array.make n 0 in
  let stdouts = Array.make n Unix.stdin in
  for i = 0 to n - 1 do
    let r, w = Unix.pipe () in
    let args =
      [|
        exe;
        "--me"; string_of_int i;
        "--protocol"; protocol_name;
        "--port"; string_of_int ports.(i);
        "--peers"; peers;
        "--seed"; string_of_int (seed + i);
      |]
    in
    let pid = Unix.create_process exe args Unix.stdin w Unix.stderr in
    Unix.close w;
    pids.(i) <- pid;
    stdouts.(i) <- r
  done;
  let cl = { n; endpoints; pids; stdouts } in
  let ok = Array.for_all (fun fd -> wait_ready fd ~timeout_s:10.0) stdouts in
  if not ok then failwith "cluster did not report READY within 10s";
  cl

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* SIGTERM, then SIGKILL after a 2 s grace, then reap.  A saturated
   server.exe can ignore SIGTERM for minutes, so a plain
   terminate-and-wait could hang. *)
let kill_cluster cl =
  Array.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    cl.pids;
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec wait live =
    match List.filter (fun pid -> not (exited pid)) live with
    | live when live <> [] && Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait live
    | stuck -> stuck
  in
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (wait (Array.to_list cl.pids));
  Array.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    cl.stdouts

(* ---- client connections ---- *)

let connect (host, port) =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port));
  let c = Transport.of_fd fd in
  Transport.send c Wire.Client_hello;
  c

(* ---- closed-loop client run ---- *)

type stop = Ops of int | Duration of float

type run_result = {
  completed : int;
  retries : int;
  latencies_us : int list;  (** completed-op latencies, newest first *)
  elapsed_s : float;
  ops_in_order : Types.op list;  (** completion order *)
}

let retry_after_s = 5.0

type client = {
  cl_node : int;
  mutable outstanding : (int * Types.op * float) option;
      (** req_id, op, started (wall seconds) *)
}

let run_clients ~endpoints ~clients_per_node ?total_clients ~spec ~workload_seed
    ~stop () =
  let n = Array.length endpoints in
  let conns = Array.map connect endpoints in
  let wl = Workload.create ~seed:workload_seed ~regions:n spec in
  let num_clients =
    match total_clients with Some k -> k | None -> n * clients_per_node
  in
  let clients =
    Array.init num_clients (fun i -> { cl_node = i mod n; outstanding = None })
  in
  let req_owner = Hashtbl.create 1024 in
  let next_req = ref 0 in
  let completed = ref 0 in
  let retries = ref 0 in
  let latencies = ref [] in
  let ops_done = ref [] in
  let t0 = Unix.gettimeofday () in
  let stopped now =
    match stop with
    | Ops k -> !completed >= k
    | Duration s -> now -. t0 >= s
  in
  let submit c op =
    let id = !next_req in
    incr next_req;
    Hashtbl.replace req_owner id c;
    c.outstanding <- Some (id, op, Unix.gettimeofday ());
    Transport.send conns.(c.cl_node) (Wire.Client_req { req_id = id; op })
  in
  let issue_fresh now =
    Array.iter
      (fun c ->
        if c.outstanding = None && not (stopped now) then
          submit c (Workload.next_op wl ~region:c.cl_node))
      clients
  in
  let handle_frame = function
    | Wire.Client_reply { req_id; value = _ } -> (
        match Hashtbl.find_opt req_owner req_id with
        | None -> ()
        | Some c -> (
            Hashtbl.remove req_owner req_id;
            match c.outstanding with
            | Some (id, op, started) when id = req_id ->
                c.outstanding <- None;
                incr completed;
                let lat_us =
                  int_of_float ((Unix.gettimeofday () -. started) *. 1e6)
                in
                latencies := lat_us :: !latencies;
                ops_done := op :: !ops_done
            | _ -> () (* stale reply for a retried request *)))
    | _ -> ()
  in
  let finished () =
    let now = Unix.gettimeofday () in
    match stop with
    | Ops _ -> stopped now
    | Duration _ -> stopped now
  in
  while not (finished ()) do
    let now = Unix.gettimeofday () in
    issue_fresh now;
    (* Retry stragglers under a fresh request id. *)
    Array.iter
      (fun c ->
        match c.outstanding with
        | Some (id, op, started) when now -. started > retry_after_s ->
            Hashtbl.remove req_owner id;
            incr retries;
            submit c op
        | _ -> ())
      clients;
    let fds = Array.to_list (Array.map Transport.fd conns) in
    let writes =
      List.filter_map
        (fun c -> if Transport.pending_out c then Some (Transport.fd c) else None)
        (Array.to_list conns)
    in
    (match Unix.select fds writes [] 0.05 with
    | rd, wr, _ ->
        Array.iter
          (fun c ->
            if List.memq (Transport.fd c) wr then Transport.flush c;
            if List.memq (Transport.fd c) rd then
              List.iter handle_frame (Transport.recv c))
          conns
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    if Array.exists (fun c -> not (Transport.alive c)) conns then
      failwith "lost connection to a server"
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.iter Transport.close conns;
  {
    completed = !completed;
    retries = !retries;
    latencies_us = !latencies;
    elapsed_s = elapsed;
    ops_in_order = List.rev !ops_done;
  }

(* ---- snapshots ---- *)

let fetch_snapshot endpoint ~timeout_s =
  let c = connect endpoint in
  Transport.send c Wire.Snapshot_req;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let result = ref None in
  while !result = None && Unix.gettimeofday () < deadline && Transport.alive c do
    (match Unix.select [ Transport.fd c ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ ->
        List.iter
          (function
            | Wire.Snapshot_reply { node; committed; snapshot } ->
                result := Some (node, committed, snapshot)
            | _ -> ())
          (Transport.recv c)
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    Transport.flush c
  done;
  Transport.close c;
  !result

let snapshot_all cl ~timeout_s =
  Array.map (fun ep -> fetch_snapshot ep ~timeout_s) cl.endpoints

(* Poll until every replica reports the same snapshot covering at least
   [min_ops] committed operations. *)
let await_agreement cl ~min_ops ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop last =
    let snaps = snapshot_all cl ~timeout_s:5.0 in
    let all =
      Array.for_all (fun s -> s <> None) snaps
    in
    if all then begin
      let snaps = Array.map Option.get snaps in
      let _, c0, s0 = snaps.(0) in
      let agreed =
        c0 >= min_ops
        && Array.for_all (fun (_, c, s) -> c = c0 && String.equal s s0) snaps
      in
      if agreed then Some snaps
      else if Unix.gettimeofday () > deadline then last
      else begin
        Unix.sleepf 0.25;
        loop (Some snaps)
      end
    end
    else if Unix.gettimeofday () > deadline then last
    else begin
      Unix.sleepf 0.25;
      loop last
    end
  in
  loop None

(* ---- entry points ---- *)

type demo_result = {
  d_ok : bool;
  d_completed : int;
  d_retries : int;
  d_throughput : float;
  d_snapshots : (int * int * string) array;  (** node, committed, snapshot *)
}

let quick_spec clients_per_node =
  {
    Workload.read_fraction = 0.5;
    conflict_rate = 0.05;
    value_size = 8;
    records = 1_000;
    clients_per_region = clients_per_node;
    key_dist = Workload.Uniform;
  }

let demo ~protocol_name ~n ~ops ~clients_per_node ~seed =
  let cl = spawn_cluster ~protocol_name ~n ~seed in
  Fun.protect
    ~finally:(fun () -> kill_cluster cl)
    (fun () ->
      let r =
        run_clients ~endpoints:cl.endpoints ~clients_per_node
          ~spec:(quick_spec clients_per_node)
          ~workload_seed:(Int64.of_int seed) ~stop:(Ops ops) ()
      in
      (* Reads served from a lease (LL/PQL) never enter the log, so the
         count gate is on completed writes — those commit everywhere. *)
      let puts =
        List.length
          (List.filter
             (function Types.Put _ -> true | Types.Get _ -> false)
             r.ops_in_order)
      in
      let snaps = await_agreement cl ~min_ops:puts ~timeout_s:30.0 in
      match snaps with
      | Some snaps ->
          let _, c0, s0 = snaps.(0) in
          let agreed =
            c0 >= puts
            && Array.for_all
                 (fun (_, c, s) -> c = c0 && String.equal s s0)
                 snaps
          in
          {
            d_ok = agreed && r.completed >= ops;
            d_completed = r.completed;
            d_retries = r.retries;
            d_throughput = float_of_int r.completed /. r.elapsed_s;
            d_snapshots = snaps;
          }
      | None ->
          {
            d_ok = false;
            d_completed = r.completed;
            d_retries = r.retries;
            d_throughput = float_of_int r.completed /. r.elapsed_s;
            d_snapshots = [||];
          })

(* Feed one recorded command stream through the simulated runtime and
   return the leader's canonical snapshot. *)
let sim_replay ~protocol ~n ~ops_in_order ~seed =
  let engine = Engine.create ~seed:(Int64.of_int seed) () in
  let net = Net.create engine ~nodes:(Shell.nodes_for n) in
  let rt = Protocol.make protocol net ~leader:0 in
  List.iter
    (fun op ->
      let arrived = ref false in
      rt.Protocol.submit ~node:0 op (fun _ -> arrived := true);
      let guard = ref 0 in
      while (not !arrived) && !guard < 10_000 do
        Engine.run engine ~until:(Engine.now engine + 10_000);
        incr guard
      done;
      if not !arrived then failwith "sim replay: op did not complete")
    ops_in_order;
  Snapshot.of_ops (rt.Protocol.committed_ops ~node:0)

type crosscheck_result = {
  c_ok : bool;
  c_ops : int;
  c_net_digest : string;
  c_sim_digest : string;
}

let crosscheck ~protocol_name ~n ~ops ~seed =
  let protocol =
    match Protocol.of_name protocol_name with
    | Some p -> p
    | None -> invalid_arg ("unknown protocol " ^ protocol_name)
  in
  let cl = spawn_cluster ~protocol_name ~n ~seed in
  let net_run =
    Fun.protect
      ~finally:(fun () -> kill_cluster cl)
      (fun () ->
        (* One sequential client: completion order = submission order =
           commit order, so the same stream replayed in the simulator
           must produce the identical snapshot.  Write-only, because a
           leased read (LL/PQL) commits in neither harness while a
           logged read commits in both — whether a given read takes the
           lease path depends on timing, which wall-clock and sim don't
           share. *)
        let r =
          run_clients ~endpoints:cl.endpoints ~clients_per_node:1
            ~total_clients:1
            ~spec:{ (quick_spec 1) with clients_per_region = 1; read_fraction = 0.0 }
            ~workload_seed:(Int64.of_int seed) ~stop:(Ops ops) ()
        in
        if r.retries > 0 then failwith "crosscheck: retries on loopback";
        let snaps = await_agreement cl ~min_ops:r.completed ~timeout_s:30.0 in
        (r, snaps))
  in
  let r, snaps = net_run in
  match snaps with
  | None -> { c_ok = false; c_ops = r.completed; c_net_digest = "-"; c_sim_digest = "-" }
  | Some snaps ->
      let _, _, net_snap = snaps.(0) in
      let sim_snap = sim_replay ~protocol ~n ~ops_in_order:r.ops_in_order ~seed in
      if not (String.equal net_snap sim_snap) then begin
        (* Leave the two snapshots on disk for diffing. *)
        let dump name s =
          let oc = open_out (Filename.concat (Filename.get_temp_dir_name ()) name) in
          output_string oc s;
          close_out oc
        in
        dump "raftpax_crosscheck_net.txt" net_snap;
        dump "raftpax_crosscheck_sim.txt" sim_snap
      end;
      {
        c_ok = String.equal net_snap sim_snap;
        c_ops = r.completed;
        c_net_digest = Snapshot.digest net_snap;
        c_sim_digest = Snapshot.digest sim_snap;
      }

(* ---- wall-clock bench ---- *)

type bench_run = {
  b_protocol : string;
  b_clients : int;  (** per node *)
  b_nodes : int;
  b_completed : int;
  b_retries : int;
  b_throughput_ops : float;
  b_p50_us : int;
  b_p99_us : int;
}

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0
  | len ->
      let idx = int_of_float (p *. float_of_int (len - 1)) in
      sorted.(max 0 (min (len - 1) idx))

let bench_run ~protocol_name ~n ~clients_per_node ~duration_s ~seed =
  let cl = spawn_cluster ~protocol_name ~n ~seed in
  Fun.protect
    ~finally:(fun () -> kill_cluster cl)
    (fun () ->
      let r =
        run_clients ~endpoints:cl.endpoints ~clients_per_node
          ~spec:(quick_spec clients_per_node)
          ~workload_seed:(Int64.of_int seed)
          ~stop:(Duration duration_s) ()
      in
      let lats = Array.of_list r.latencies_us in
      Array.sort Int.compare lats;
      {
        b_protocol = protocol_name;
        b_clients = clients_per_node;
        b_nodes = n;
        b_completed = r.completed;
        b_retries = r.retries;
        b_throughput_ops = float_of_int r.completed /. r.elapsed_s;
        b_p50_us = percentile lats 0.50;
        b_p99_us = percentile lats 0.99;
      })
