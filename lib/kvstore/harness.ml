module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
module Stats = Sim.Stats
module C = Raftpax_consensus
module Types = C.Types
module Telemetry = Raftpax_telemetry.Telemetry
module Wire = Raftpax_netcore.Wire

type protocol =
  | Raft
  | Raft_star
  | Raft_ll
      [@lint.allow
        "scenario-parity"
        "leader-lease local reads under the nemesis clock-skew adversary \
         need lease-aware linearizability accounting first; tracked on the \
         ROADMAP as the Raft-LL lease scope"]
  | Raft_pql
  | Mencius
  | Multipaxos

let protocol_name = function
  | Raft -> "Raft"
  | Raft_star -> "Raft*"
  | Raft_ll -> "Raft*-LL"
  | Raft_pql -> "Raft*-PQL"
  | Mencius -> "Raft*-Mencius"
  | Multipaxos -> "MultiPaxos"

type config = {
  protocol : protocol;
  leader_site : Topology.site;
  workload : Workload.spec;
  duration_s : int;
  warmup_s : int;
  cooldown_s : int;
  seed : int64;
  telemetry : bool;
  tracing : bool;
  batch_size : int;
  batch_delay_us : int;
}

let config ?(leader_site = Topology.Oregon) ?(duration_s = 10) ?(warmup_s = 2)
    ?(cooldown_s = 2) ?(seed = 1L) ?(telemetry = false) ?(tracing = false)
    ?(batch_size = 1) ?(batch_delay_us = 0) protocol workload =
  {
    protocol;
    leader_site;
    workload;
    duration_s;
    warmup_s;
    cooldown_s;
    seed;
    telemetry;
    tracing;
    batch_size;
    batch_delay_us;
  }

type request = {
  trace : int;
  region : int;
  is_read : bool;
  started_us : int;
  latency_us : int;
}

type result = {
  throughput_ops : float;
  read_leader : Stats.t;
  read_follower : Stats.t;
  write_leader : Stats.t;
  write_follower : Stats.t;
  retries : int;
  consistency_violations : int;
  messages : int;
  bytes_by_node : int array;
  telemetry : Telemetry.t option;
  requests : request list;
  sim_events : int;
  minor_words : float;
}

(* A protocol instance reduced to what the clients need.  [submit] returns
   the command id — the span trace id when tracing is on. *)
type instance = {
  submit : node:int -> Types.op -> (Types.reply -> unit) -> int;
  committed_ops : node:int -> Types.op list;
}

(* The network shell's view of a runtime: the client-facing [instance]
   plus the transport hooks — intercept outgoing cross-replica messages
   ([w_set_wire], wrapped in the protocol-agnostic
   {!Raftpax_netcore.Wire.protocol_msg} envelope), inject received ones
   ([w_deliver]), and partition the command-id space across processes
   ([w_set_cmd_ids]). *)
type wired = {
  w_instance : instance;
  w_set_wire :
    (src:int -> dst:int -> size:int -> Wire.protocol_msg -> unit) option ->
    unit;
  w_deliver : node:int -> Wire.protocol_msg -> unit;
  w_set_cmd_ids : base:int -> stride:int -> unit;
}

(* One runtime's transport hooks behind the {!Wire} envelope: [inj]
   wraps an outgoing message; [deliver] injects a received envelope and
   ignores another protocol's. *)
let wire_hooks ~submit ~committed_ops ~set_wire ~deliver ~set_cmd_ids ~inj =
  {
    w_instance = { submit; committed_ops };
    w_set_wire =
      (fun hook ->
        set_wire
          (Option.map
             (fun f ~src ~dst ~size m -> f ~src ~dst ~size (inj m))
             hook));
    w_deliver = deliver;
    w_set_cmd_ids = set_cmd_ids;
  }

let make_wired ?telemetry ?(batch_size = 1) ?(batch_delay_us = 0) protocol net
    ~leader =
  (* batch_size = 1 leaves [p] untouched, so the default configs reach the
     runtimes byte-for-byte as before batching existed. *)
  let batched (p : Types.params) =
    if batch_size <= 1 then p else { p with batch_size; batch_delay_us }
  in
  match protocol with
  | Raft | Raft_star | Raft_ll | Raft_pql ->
      let cfg =
        match protocol with
        | Raft -> C.Raft.raft ~leader ()
        | Raft_star -> C.Raft.raft_star ~leader ()
        | Raft_ll -> C.Raft.raft_ll ~leader ()
        | Raft_pql -> C.Raft.raft_pql ~leader ()
        | _ -> assert false
      in
      let cfg = { cfg with C.Raft.params = batched cfg.C.Raft.params } in
      let t = C.Raft.create ?telemetry cfg net in
      C.Raft.start t;
      wire_hooks ~submit:(C.Raft.submit_id t)
        ~committed_ops:(C.Raft.committed_ops t) ~set_wire:(C.Raft.set_wire t)
        ~set_cmd_ids:(C.Raft.set_cmd_ids t)
        ~inj:(fun m -> Wire.Raft_msg m)
        ~deliver:(fun ~node -> function
          | Wire.Raft_msg m -> C.Raft.deliver t ~node m
          | Wire.Mencius_msg _ | Wire.Multipaxos_msg _ -> ())
  | Mencius ->
      let cfg = C.Mencius.default_config in
      let cfg = { cfg with C.Mencius.params = batched cfg.C.Mencius.params } in
      let t = C.Mencius.create ?telemetry cfg net in
      C.Mencius.start t;
      wire_hooks ~submit:(C.Mencius.submit_id t)
        ~committed_ops:(C.Mencius.committed_ops t)
        ~set_wire:(C.Mencius.set_wire t) ~set_cmd_ids:(C.Mencius.set_cmd_ids t)
        ~inj:(fun m -> Wire.Mencius_msg m)
        ~deliver:(fun ~node -> function
          | Wire.Mencius_msg m -> C.Mencius.deliver t ~node m
          | Wire.Raft_msg _ | Wire.Multipaxos_msg _ -> ())
  | Multipaxos ->
      let cfg = C.Multipaxos.default_config in
      let cfg =
        { cfg with C.Multipaxos.params = batched cfg.C.Multipaxos.params }
      in
      let t = C.Multipaxos.create ?telemetry ~leader cfg net in
      C.Multipaxos.start t;
      wire_hooks ~submit:(C.Multipaxos.submit_id t)
        ~committed_ops:(C.Multipaxos.committed_ops t)
        ~set_wire:(C.Multipaxos.set_wire t)
        ~set_cmd_ids:(C.Multipaxos.set_cmd_ids t)
        ~inj:(fun m -> Wire.Multipaxos_msg m)
        ~deliver:(fun ~node -> function
          | Wire.Multipaxos_msg m -> C.Multipaxos.deliver t ~node m
          | Wire.Raft_msg _ | Wire.Mencius_msg _ -> ())

let make_instance ?telemetry ?batch_size ?batch_delay_us protocol net ~leader =
  (make_wired ?telemetry ?batch_size ?batch_delay_us protocol net ~leader)
    .w_instance

let run cfg =
  let engine = Engine.create ~seed:cfg.seed () in
  let nodes =
    List.mapi (fun i site -> { Net.id = i; site }) Topology.sites
  in
  let net = Net.create engine ~nodes in
  let regions = List.length Topology.sites in
  let leader = Topology.site_index cfg.leader_site in
  let tel =
    if cfg.telemetry || cfg.tracing then
      Some (Telemetry.create ~tracing:cfg.tracing ~n:regions ())
    else None
  in
  (match tel with
  | Some tel -> Net.set_metrics net tel.Telemetry.metrics
  | None -> ());
  let inst =
    make_instance ?telemetry:tel ~batch_size:cfg.batch_size
      ~batch_delay_us:cfg.batch_delay_us cfg.protocol net ~leader
  in
  let wl = Workload.create ~seed:cfg.seed ~regions cfg.workload in
  let read_leader = Stats.create ()
  and read_follower = Stats.create ()
  and write_leader = Stats.create ()
  and write_follower = Stats.create () in
  let retries = ref 0 in
  let events = ref [] in
  let requests = ref [] in
  let end_us = cfg.duration_s * 1_000_000 in
  (* Closed-loop clients: one outstanding op each, retry on timeout. *)
  let rec client_loop c () =
    if Engine.now engine < end_us then begin
      let op = Workload.next_op wl ~region:(Client.region c) in
      attempt c op
    end
  and on_timeout c =
    incr retries;
    if Engine.now engine < end_us then attempt c (Client.cur_op c)
  and attempt c op =
    let gen = Client.attempt engine c op ~on_timeout in
    let started = Client.started_us c in
    let region = Client.region c in
    let trace =
      inst.submit ~node:region op (fun reply ->
        if Client.accept c ~gen then begin
          let now = Engine.now engine in
          let latency = now - started in
          let at_leader = region = leader in
          if cfg.tracing then
            requests :=
              {
                trace = Client.trace c;
                region;
                is_read = (match op with Types.Get _ -> true | _ -> false);
                started_us = started;
                latency_us = latency;
              }
              :: !requests;
          (match op with
          | Types.Get { key } ->
              Stats.record
                (if at_leader then read_leader else read_follower)
                ~latency_us:latency ~at_us:now;
              events :=
                Lin_check.Read
                  { key; started_us = started; returned = reply.Types.value }
                :: !events
          | Types.Put { write_id; key; _ } ->
              Stats.record
                (if at_leader then write_leader else write_follower)
                ~latency_us:latency ~at_us:now;
              events :=
                Lin_check.Write_complete { write_id; key; at_us = now }
                :: !events);
          client_loop c ()
        end)
    in
    (* The completion callback only fires from scheduled events, after
       [submit] has returned the command id into the client record. *)
    Client.set_trace c trace
  in
  for region = 0 to regions - 1 do
    for _ = 1 to cfg.workload.Workload.clients_per_region do
      let c = Client.create ~region in
      (* Stagger client start to avoid a synchronized burst. *)
      let jitter = Sim.Rng.int (Engine.rng engine) 100_000 in
      Engine.schedule engine ~delay:jitter (client_loop c)
    done
  done;
  let minor_before = Gc.minor_words () in
  Engine.run engine ~until:end_us;
  let minor_words = Gc.minor_words () -. minor_before in
  let sim_events = Engine.events_executed engine in
  (* ---- consistency check against the committed order ---- *)
  let committed_order = inst.committed_ops ~node:leader in
  let violations =
    if committed_order = [] then 0
    else (Lin_check.check ~committed_order !events).Lin_check.violations |> List.length
  in
  let from_us = cfg.warmup_s * 1_000_000 in
  let until_us = (cfg.duration_s - cfg.cooldown_s) * 1_000_000 in
  let all =
    Stats.merge [ read_leader; read_follower; write_leader; write_follower ]
  in
  {
    throughput_ops = Stats.throughput_ops all ~from_us ~until_us;
    read_leader;
    read_follower;
    write_leader;
    write_follower;
    retries = !retries;
    consistency_violations = violations;
    messages = Net.sent_count net;
    bytes_by_node = Array.init regions (fun n -> Net.bytes_sent net n);
    telemetry = tel;
    requests = List.rev !requests;
    sim_events;
    minor_words;
  }

let median_throughput ?(trials = 3) cfg =
  let xs =
    List.init trials (fun i ->
        (run { cfg with seed = Int64.add cfg.seed (Int64.of_int i) })
          .throughput_ops)
    |> List.sort Float.compare
  in
  List.nth xs (trials / 2)

let peak_throughput ?(clients = [ 50; 200; 800; 2000 ]) cfg =
  List.fold_left
    (fun best c ->
      let cfg =
        {
          cfg with
          workload = { cfg.workload with Workload.clients_per_region = c };
        }
      in
      max best (median_throughput ~trials:1 cfg))
    0.0 clients
