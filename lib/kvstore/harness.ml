module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
module Stats = Sim.Stats
module Types = Raftpax_consensus.Types
module Telemetry = Raftpax_telemetry.Telemetry
module Wire = Raftpax_netcore.Wire

type protocol = Protocol.t =
  | Raft
  | Raft_star
  | Raft_ll
  | Raft_pql
  | Mencius
  | Multipaxos

let protocol_name = Protocol.name

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

type instance = {
  submit : node:int -> Types.op -> (Types.reply -> unit) -> int;
  committed_ops : node:int -> Types.op list;
}

type wired = {
  w_instance : instance;
  w_set_wire :
    (src:int -> dst:int -> size:int -> Wire.protocol_msg -> unit) option ->
    unit;
  w_deliver : node:int -> Wire.protocol_msg -> unit;
  w_set_cmd_ids : base:int -> stride:int -> unit;
}

let make_wired ?telemetry ?batch_size ?batch_delay_us protocol net ~leader =
  let r =
    Protocol.make ?telemetry ?batch_size ?batch_delay_us protocol net ~leader
  in
  {
    w_instance = { submit = r.submit_id; committed_ops = r.committed_ops };
    w_set_wire = r.set_wire;
    w_deliver = r.deliver;
    w_set_cmd_ids = r.set_cmd_ids;
  }

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
    (Lin_check.check ~committed_order !events).Lin_check.violations
    |> List.length
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
