module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
module Stats = Sim.Stats
module Types = Raftpax_consensus.Types
module Telemetry = Raftpax_telemetry.Telemetry
module Metrics = Raftpax_telemetry.Metrics
module Json = Raftpax_telemetry.Json

type placement = Fixed of Topology.site | Round_robin | Nearest_majority

let placement_name = function
  | Fixed site -> "fixed:" ^ String.lowercase_ascii (Topology.site_name site)
  | Round_robin -> "round-robin"
  | Nearest_majority -> "nearest-majority"

let leader_sites placement ~shards =
  let ranked = Array.of_list Topology.ranked_by_nearest_majority in
  let sites = Array.of_list Topology.sites in
  Array.init shards (fun g ->
      match placement with
      | Fixed site -> site
      | Round_robin -> sites.(g mod Array.length sites)
      | Nearest_majority -> ranked.(g mod Array.length ranked))

type config = {
  shards : int;
  protocols : Harness.protocol list;
  placement : placement;
  workload : Workload.spec;
  duration_s : int;
  warmup_s : int;
  cooldown_s : int;
  seed : int64;
  telemetry : bool;
  batch_size : int;
  batch_delay_us : int;
}

let config ?(protocols = [ Harness.Raft_star ]) ?(placement = Nearest_majority)
    ?(duration_s = 10) ?(warmup_s = 2) ?(cooldown_s = 2) ?(seed = 1L)
    ?(telemetry = false) ?(batch_size = 1) ?(batch_delay_us = 0) ~shards
    workload =
  if shards < 1 then invalid_arg "Shard.config: shards must be >= 1";
  if protocols = [] then invalid_arg "Shard.config: empty protocol list";
  {
    shards;
    protocols;
    placement;
    workload;
    duration_s;
    warmup_s;
    cooldown_s;
    seed;
    telemetry;
    batch_size;
    batch_delay_us;
  }

let group_protocol cfg g = List.nth cfg.protocols (g mod List.length cfg.protocols)

type group_result = {
  g_protocol : Harness.protocol;
  g_leader_site : Topology.site;
  g_ops : int;
  g_throughput_ops : float;
  g_read : Stats.t;
  g_write : Stats.t;
  g_retries : int;
  g_reads_checked : int;
  g_violations : int;
  g_committed : int;
  g_messages : int;
  g_telemetry : Telemetry.t option;
}

type result = {
  throughput_ops : float;
  retries : int;
  reads_checked : int;
  violations : int;
  messages : int;
  groups : group_result array;
}

(* One consensus group's live state during a run. *)
type group_run = {
  inst : Harness.instance;
  net : Net.t;
  tel : Telemetry.t option;
  leader : int;
  leader_site : Topology.site;
  protocol : Harness.protocol;
  read_stats : Stats.t;
  write_stats : Stats.t;
  history : Lin_check.History.t;  (** the group's keys, in completion order *)
  mutable ops : int;
  mutable retries : int;
}

let run cfg =
  let engine = Engine.create ~seed:cfg.seed () in
  let regions = List.length Topology.sites in
  let sites = leader_sites cfg.placement ~shards:cfg.shards in
  let mk g =
    let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
    let net = Net.create engine ~nodes in
    let tel =
      if cfg.telemetry then Some (Telemetry.create ~n:regions ()) else None
    in
    (match tel with
    | Some tel -> Net.set_metrics net tel.Telemetry.metrics
    | None -> ());
    let leader = Topology.site_index sites.(g) in
    let inst =
      Harness.make_instance ?telemetry:tel ~batch_size:cfg.batch_size
        ~batch_delay_us:cfg.batch_delay_us (group_protocol cfg g) net ~leader
    in
    {
      inst;
      net;
      tel;
      leader;
      leader_site = sites.(g);
      protocol = group_protocol cfg g;
      read_stats = Stats.create ();
      write_stats = Stats.create ();
      history = Lin_check.History.create ();
      ops = 0;
      retries = 0;
    }
  in
  (* Build groups in ascending order: creation draws on shared engine
     state, so the construction order is part of the deterministic run. *)
  let rec build g = if g = cfg.shards then [] else mk g :: build (g + 1) in
  let groups = Array.of_list (build 0) in
  let group_of_key key = Workload.group_of_key ~shards:cfg.shards key in
  let wl = Workload.create ~seed:cfg.seed ~regions cfg.workload in
  let end_us = cfg.duration_s * 1_000_000 in
  (* Closed-loop clients, one outstanding op each, retry on timeout.
     Every op is routed to its key's owning group and submitted at that
     group's replica in the client's own region; the protocol forwards to
     the group's leader. *)
  let group_of_op op = groups.(group_of_key (Types.key_of op)) in
  let rec client_loop c () =
    if Engine.now engine < end_us then begin
      let op = Workload.next_op wl ~region:(Client.region c) in
      attempt c op
    end
  and on_timeout c =
    let op = Client.cur_op c in
    let g = group_of_op op in
    g.retries <- g.retries + 1;
    if Engine.now engine < end_us then attempt c op
  and attempt c op =
    let g = group_of_op op in
    let gen = Client.attempt engine c op ~on_timeout in
    let started = Client.started_us c in
    ignore
      (g.inst.Harness.submit ~node:(Client.region c) op (fun reply ->
           if Client.accept c ~gen then begin
             let now = Engine.now engine in
             let latency = now - started in
             g.ops <- g.ops + 1;
             (match op with
             | Types.Get { key } ->
                 Stats.record g.read_stats ~latency_us:latency ~at_us:now;
                 Lin_check.History.read g.history ~key ~started_us:started
                   ~returned:reply.Types.value
             | Types.Put { write_id; key; _ } ->
                 Stats.record g.write_stats ~latency_us:latency ~at_us:now;
                 Lin_check.History.write_complete g.history ~write_id ~key
                   ~at_us:now);
             client_loop c ()
           end))
  in
  for region = 0 to regions - 1 do
    for _ = 1 to cfg.workload.Workload.clients_per_region do
      let c = Client.create ~region in
      let jitter = Sim.Rng.int (Engine.rng engine) 100_000 in
      Engine.schedule engine ~delay:jitter (client_loop c)
    done
  done;
  Engine.run engine ~until:end_us;
  (* ---- per-group consistency oracles: each key lives in exactly one
     group's state machine, so its group's order decides it ---- *)
  let committed_orders =
    Array.map (fun g -> g.inst.Harness.committed_ops ~node:g.leader) groups
  in
  let checks =
    Array.mapi
      (fun i g ->
        Lin_check.History.check ~committed_order:committed_orders.(i) g.history)
      groups
  in
  let from_us = cfg.warmup_s * 1_000_000 in
  let until_us = (cfg.duration_s - cfg.cooldown_s) * 1_000_000 in
  let group_results =
    Array.mapi
      (fun i g ->
        let stats = Stats.merge [ g.read_stats; g.write_stats ] in
        {
          g_protocol = g.protocol;
          g_leader_site = g.leader_site;
          g_ops = g.ops;
          g_throughput_ops = Stats.throughput_ops stats ~from_us ~until_us;
          g_read = g.read_stats;
          g_write = g.write_stats;
          g_retries = g.retries;
          g_reads_checked = checks.(i).Lin_check.reads_checked;
          g_violations = List.length checks.(i).Lin_check.violations;
          g_committed = List.length committed_orders.(i);
          g_messages = Net.sent_count g.net;
          g_telemetry = g.tel;
        })
      groups
  in
  let all =
    Stats.merge
      (Array.to_list groups
      |> List.concat_map (fun g -> [ g.read_stats; g.write_stats ]))
  in
  let sum f = Array.fold_left (fun acc g -> acc + f g) 0 group_results in
  {
    throughput_ops = Stats.throughput_ops all ~from_us ~until_us;
    retries = sum (fun g -> g.g_retries);
    reads_checked = sum (fun g -> g.g_reads_checked);
    violations = sum (fun g -> g.g_violations);
    messages = sum (fun g -> g.g_messages);
    groups = group_results;
  }

(* ---- canonical renderings ---- *)

let protocols_string cfg =
  String.concat "," (List.map Harness.protocol_name cfg.protocols)

let snapshot_string cfg r =
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "shards=%d placement=%s protocols=%s seed=%Ld" cfg.shards
    (placement_name cfg.placement)
    (protocols_string cfg) cfg.seed;
  add "workload clients=%d reads=%.2f conflict=%.2f size=%d records=%d"
    cfg.workload.Workload.clients_per_region cfg.workload.Workload.read_fraction
    cfg.workload.Workload.conflict_rate cfg.workload.Workload.value_size
    cfg.workload.Workload.records;
  add "aggregate tput=%.3f retries=%d reads_checked=%d violations=%d messages=%d"
    r.throughput_ops r.retries r.reads_checked r.violations r.messages;
  Array.iteri
    (fun i g ->
      let stats = Stats.merge [ g.g_read; g.g_write ] in
      add
        "group %d: proto=%s leader=%s ops=%d committed=%d tput=%.3f p50=%d \
         p99=%d retries=%d reads_checked=%d violations=%d messages=%d"
        i
        (Harness.protocol_name g.g_protocol)
        (Topology.site_name g.g_leader_site)
        g.g_ops g.g_committed g.g_throughput_ops
        (Stats.percentile_us stats 0.50)
        (Stats.percentile_us stats 0.99)
        g.g_retries g.g_reads_checked g.g_violations g.g_messages)
    r.groups;
  Array.iteri
    (fun i g ->
      match g.g_telemetry with
      | None -> ()
      | Some tel ->
          add "group %d metrics:" i;
          Buffer.add_string buf (Telemetry.snapshot_string tel))
    r.groups;
  Buffer.contents buf

(* Pull the "counters"/"histograms" sub-objects out of a group's metric
   snapshot; Null when telemetry is off. *)
let telemetry_json tel =
  match tel with
  | None -> (Json.Null, Json.Null)
  | Some tel -> (
      match
        Metrics.snapshot_to_json (Metrics.snapshot tel.Telemetry.metrics)
      with
      | Json.Obj fields ->
          ( Option.value ~default:Json.Null (List.assoc_opt "counters" fields),
            Option.value ~default:Json.Null (List.assoc_opt "histograms" fields)
          )
      | _ -> (Json.Null, Json.Null))

(* Roll per-group counter objects ({name: [per-replica]}) up into one
   {name: total} object, summing over replicas and groups.  Assoc-list
   based on purpose: detlint forbids unordered hashtable iteration in
   lib/, and snapshot key sets are tiny. *)
let rollup_counters objs =
  let pairs =
    List.concat_map
      (function
        | Json.Obj fields ->
            List.map
              (fun (name, v) ->
                let total =
                  match v with
                  | Json.List xs ->
                      List.fold_left
                        (fun acc x ->
                          match x with Json.Int i -> acc + i | _ -> acc)
                        0 xs
                  | Json.Int i -> i
                  | _ -> 0
                in
                (name, total))
              fields
        | _ -> [])
      objs
  in
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
  in
  let rec merge = function
    | [] -> []
    | (name, v) :: rest ->
        let same, rest =
          List.partition (fun (m, _) -> String.equal m name) rest
        in
        ( name,
          Json.Int (List.fold_left (fun acc (_, x) -> acc + x) v same) )
        :: merge rest
  in
  Json.Obj (merge sorted)

let result_to_json cfg r =
  let group_json i g =
    let stats = Stats.merge [ g.g_read; g.g_write ] in
    let counters, histograms = telemetry_json g.g_telemetry in
    Json.Obj
      [
        ("group", Json.Int i);
        ("protocol", Json.String (Harness.protocol_name g.g_protocol));
        ("leader_site", Json.String (Topology.site_name g.g_leader_site));
        ("ops", Json.Int g.g_ops);
        ("committed", Json.Int g.g_committed);
        ("throughput_ops", Json.Float g.g_throughput_ops);
        ("p50_us", Json.Int (Stats.percentile_us stats 0.50));
        ("p90_us", Json.Int (Stats.percentile_us stats 0.90));
        ("p99_us", Json.Int (Stats.percentile_us stats 0.99));
        ("retries", Json.Int g.g_retries);
        ("reads_checked", Json.Int g.g_reads_checked);
        ("violations", Json.Int g.g_violations);
        ("messages", Json.Int g.g_messages);
        ("counters", counters);
        ("histograms", histograms);
      ]
  in
  let aggregate_counters =
    rollup_counters
      (Array.to_list r.groups
      |> List.map (fun g -> fst (telemetry_json g.g_telemetry)))
  in
  Json.Obj
    [
      ("shards", Json.Int cfg.shards);
      ("placement", Json.String (placement_name cfg.placement));
      ("protocols", Json.String (protocols_string cfg));
      ( "config",
        Json.Obj
          [
            ("clients_per_region", Json.Int cfg.workload.Workload.clients_per_region);
            ("read_fraction", Json.Float cfg.workload.Workload.read_fraction);
            ("conflict_rate", Json.Float cfg.workload.Workload.conflict_rate);
            ("value_size", Json.Int cfg.workload.Workload.value_size);
            ("records", Json.Int cfg.workload.Workload.records);
            ("duration_s", Json.Int cfg.duration_s);
            ("warmup_s", Json.Int cfg.warmup_s);
            ("cooldown_s", Json.Int cfg.cooldown_s);
            ("seed", Json.Int (Int64.to_int cfg.seed));
            ("batch_size", Json.Int cfg.batch_size);
            ("batch_delay_us", Json.Int cfg.batch_delay_us);
          ] );
      ("throughput_ops", Json.Float r.throughput_ops);
      ("retries", Json.Int r.retries);
      ("reads_checked", Json.Int r.reads_checked);
      ("violations", Json.Int r.violations);
      ("messages", Json.Int r.messages);
      ("aggregate_counters", aggregate_counters);
      ("groups", Json.List (Array.to_list r.groups |> List.mapi group_json));
    ]
