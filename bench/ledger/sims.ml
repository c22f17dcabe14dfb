(* The simulated workloads: their fixed configurations, the end-to-end
   runs through the program's own entry points, and the traced mirrors
   the per-layer numbers come from.

   A mirror re-creates an entry point's construction and client loop
   (same seeds, same call order, so the same random draws) around the
   public calls into each layer, and attaches a wire hook that re-sends
   every cross-replica message with [Net.send] and a closure calling the
   runtime's [deliver] — the very path the runtimes take without a hook.
   The mirror must therefore reproduce the untraced run's deterministic
   fields exactly; the ledger checks that it does. *)

module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Cpu = Sim.Cpu
module Rng = Sim.Rng
module Stats = Sim.Stats
module Topology = Sim.Topology
module C = Raftpax_consensus
module Types = C.Types
module Vec = C.Vec
module Harness = Raftpax_kvstore.Harness
module Shard = Raftpax_kvstore.Shard
module Workload = Raftpax_kvstore.Workload
module Lin_check = Raftpax_kvstore.Lin_check
module Cluster = Raftpax_nemesis.Cluster
module Telemetry = Raftpax_telemetry.Telemetry
module Metrics = Raftpax_telemetry.Metrics
module Wire = Raftpax_netcore.Wire
module Framing = Raftpax_netcore.Framing
module Codec = Raftpax_netcore.Codec
module Shell = Raftpax_netshell.Shell

let regions = List.length Topology.sites
let wan_nodes () = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites
let ms_of_us us = float_of_int us /. 1000.0

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ---- workload configurations ---- *)

let lease_config ~smoke ~seed ~telemetry =
  let duration_s, trim = if smoke then (2, 0) else (20, 2) in
  Harness.config ~duration_s ~warmup_s:trim ~cooldown_s:trim ~seed ~telemetry
    Harness.Raft_pql Workload.default

let sharded_config ~smoke ~seed ~telemetry =
  let duration_s, trim = if smoke then (2, 0) else (10, 2) in
  Shard.config
    ~protocols:[ Harness.Raft_star; Harness.Mencius; Harness.Multipaxos ]
    ~placement:Shard.Nearest_majority ~duration_s ~warmup_s:trim
    ~cooldown_s:trim ~seed ~telemetry ~batch_size:16 ~batch_delay_us:2000
    ~shards:3
    {
      Workload.read_fraction = 0.0;
      conflict_rate = 0.0;
      value_size = 8;
      records = 1_000_000;
      clients_per_region = 400;
      key_dist = Workload.Uniform;
    }

(* An open-loop schedule: requests arrive as a Poisson stream drawn from
   the seed, each at a home replica; an attempt unanswered after
   [deadline_us] is retried at the next live replica. *)
type openloop = {
  seed : int64;
  n : int;
  rate : float;  (** requests per simulated second *)
  issue_until_us : int;  (** no request is due after this *)
  end_us : int;
  deadline_us : int;  (** 0: never retry *)
  crash : (int * int * int) option;  (** node, crash at, restart at (µs) *)
  spec : Workload.spec;
  alternate : bool;  (** homes alternate 0,1,0,... instead of uniform *)
}

(* Smoke keeps the timeline (a takeover needs seconds) at a tenth of
   the rate. *)
let failover_config ~smoke ~seed =
  {
    seed;
    n = regions;
    rate = (if smoke then 200.0 else 2000.0);
    issue_until_us = 28_000_000;
    end_us = 30_000_000;
    deadline_us = 5_000_000;
    crash = Some (0, 10_000_000, 20_000_000);
    spec =
      {
        Workload.default with
        read_fraction = 0.0;
        conflict_rate = 0.0;
        clients_per_region = 0;
      };
    alternate = false;
  }

(* The TCP workload's operations: half reads, 8-byte values, 100K
   records, drawn for the two replicas the generator talks to. *)
let tcp_spec =
  {
    Workload.read_fraction = 0.5;
    conflict_rate = 0.05;
    value_size = 8;
    records = 100_000;
    clients_per_region = 0;
    key_dist = Workload.Uniform;
  }

(* The TCP workload's op stream (one step at 2k ops/s) replayed in
   process through the runtime server.exe hosts, for the sim-layer
   counts the server processes cannot report. *)
let twin_config ~smoke ~seed =
  let secs = if smoke then 2 else 10 in
  {
    seed;
    n = 3;
    rate = 2000.0;
    issue_until_us = secs * 1_000_000;
    end_us = (secs + 1) * 1_000_000;
    deadline_us = 0;
    crash = None;
    spec = tcp_spec;
    alternate = true;
  }

(* ---- the traced run's recorders ---- *)

(* Every send the nets see (for the null replay) and a deterministic
   sample of the hooked protocol messages (for the codec replay). *)
type recorder = {
  sends : int Vec.t;  (** pairs: time, packed (net, src, dst, size) *)
  msgs : (int * int * Wire.protocol_msg) Vec.t;
  mutable hooked : int;
}

let max_sampled = 50_000
let recorder () = { sends = Vec.create (); msgs = Vec.create (); hooked = 0 }

let record_sends rc net ~index =
  Net.set_monitor net
    (Some
       (fun ~now ~src ~dst ~size ~dropped ->
         if not dropped then begin
           Vec.push rc.sends now;
           Vec.push rc.sends (((((size lsl 8) lor index) lsl 8) lor src) lsl 8 lor dst)
         end))

let hook rc sp net ~wrap ~deliver ~src ~dst ~size m =
  if rc.hooked land 15 = 0 && Vec.length rc.msgs < max_sampled then
    Vec.push rc.msgs (src, dst, wrap m);
  rc.hooked <- rc.hooked + 1;
  Spans.enter sp Spans.Net_send ~trace:(-1);
  Net.send net ~src ~dst ~size (fun () ->
      Spans.enter sp Spans.Deliver ~trace:(-1);
      deliver ~node:dst m;
      Spans.leave sp);
  Spans.leave sp

let wire_hook rc sp net (w : Harness.wired) =
  w.Harness.w_set_wire
    (Some (hook rc sp net ~wrap:Fun.id ~deliver:w.Harness.w_deliver))

(* What a traced run hands the per-layer computation, and what the
   untraced run must match. *)
type facts = {
  ops : int;
  attempted : int;
  failed : int;  (** attempts abandoned (closed loop), or never answered *)
  reads : int;
  retries : int;
  sim_events : int;  (** -1 where the entry point does not expose it *)
  messages : int;
  bytes : int;
  p50_us : int;
  p99_us : int;
  pending_peak : int;
  duration_us : int;
  n_nodes : int;  (** replicas per registry in [tels] *)
  tels : Telemetry.t list;
  oracle_wall_s : float;  (** Engine.run + oracle + report, timed apart *)
  problems : string list;
}

let violations_problem v =
  if v = 0 then [] else [ Printf.sprintf "%d linearizability violations" v ]

(* ---- lease-reads: the Harness.run mirror ---- *)

type hclient = {
  region : int;
  mutable cur_op : Types.op;
  mutable started_us : int;
  mutable gen : int;
  mutable waiting : bool;
  mutable wd_pending : bool;
  mutable trace : int;
}

let retry_timeout_us = 20_000_000

let mirror_harness (cfg : Harness.config) sp rc =
  let engine = Engine.create ~seed:cfg.seed () in
  let net = Net.create engine ~nodes:(wan_nodes ()) in
  let leader = Topology.site_index cfg.leader_site in
  let tel = Telemetry.create ~n:regions () in
  Net.set_metrics net tel.Telemetry.metrics;
  let w =
    Harness.make_wired ~telemetry:tel ~batch_size:cfg.batch_size
      ~batch_delay_us:cfg.batch_delay_us cfg.protocol net ~leader
  in
  wire_hook rc sp net w;
  record_sends rc net ~index:0;
  let inst = w.Harness.w_instance in
  let wl = Workload.create ~seed:cfg.seed ~regions cfg.workload in
  let stats = Array.init 4 (fun _ -> Stats.create ()) in
  let retries = ref 0 and reads = ref 0 and pending_peak = ref 0 in
  let events = ref [] in
  let end_us = cfg.duration_s * 1_000_000 in
  let rec client_loop c () =
    if Engine.now engine < end_us then begin
      Spans.enter sp Spans.Next_op ~trace:(-1);
      let op = Workload.next_op wl ~region:c.region in
      Spans.leave sp;
      attempt c op
    end
  and arm_watchdog c =
    c.wd_pending <- true;
    let delay = c.started_us + retry_timeout_us - Engine.now engine in
    Engine.schedule engine ~delay (fun () -> watchdog_fire c)
  and watchdog_fire c =
    c.wd_pending <- false;
    if c.waiting then
      if Engine.now engine >= c.started_us + retry_timeout_us then begin
        c.waiting <- false;
        incr retries;
        if Engine.now engine < end_us then attempt c c.cur_op
      end
      else arm_watchdog c
  and attempt c op =
    c.cur_op <- op;
    c.started_us <- Engine.now engine;
    c.gen <- c.gen + 1;
    c.waiting <- true;
    if not c.wd_pending then arm_watchdog c;
    let gen = c.gen in
    let started = c.started_us in
    Spans.enter sp Spans.Submit ~trace:(-1);
    let trace =
      inst.Harness.submit ~node:c.region op (fun reply ->
          if c.waiting && c.gen = gen then begin
            Spans.enter sp Spans.Reply ~trace:c.trace;
            c.waiting <- false;
            let now = Engine.now engine in
            let latency = now - started in
            let at_leader = c.region = leader in
            (match op with
            | Types.Get { key } ->
                incr reads;
                Stats.record stats.(if at_leader then 0 else 1) ~latency_us:latency
                  ~at_us:now;
                events :=
                  Lin_check.Read
                    { key; started_us = started; returned = reply.Types.value }
                  :: !events
            | Types.Put { write_id; key; _ } ->
                Stats.record stats.(if at_leader then 2 else 3) ~latency_us:latency
                  ~at_us:now;
                events :=
                  Lin_check.Write_complete { write_id; key; at_us = now }
                  :: !events);
            pending_peak := max !pending_peak (Engine.pending engine);
            client_loop c ();
            Spans.leave sp
          end)
    in
    Spans.leave_trace sp trace;
    c.trace <- trace
  in
  for region = 0 to regions - 1 do
    for _ = 1 to cfg.workload.Workload.clients_per_region do
      let c =
        {
          region;
          cur_op = Types.Get { key = 0 };
          started_us = 0;
          gen = 0;
          waiting = false;
          wd_pending = false;
          trace = -1;
        }
      in
      let jitter = Rng.int (Engine.rng engine) 100_000 in
      Engine.schedule engine ~delay:jitter (client_loop c)
    done
  done;
  let t0 = Clock.now_ns () in
  Spans.enter sp Spans.Engine_run ~trace:(-1);
  Engine.run engine ~until:end_us;
  Spans.leave sp;
  Spans.enter sp Spans.Lin_check ~trace:(-1);
  let violations =
    match inst.Harness.committed_ops ~node:leader with
    | [] -> 0
    | committed_order ->
        List.length
          (Lin_check.check ~committed_order !events).Lin_check.violations
  in
  Spans.leave sp;
  Spans.enter sp Spans.Report ~trace:(-1);
  let all = Stats.merge (Array.to_list stats) in
  let p50_us = Stats.percentile_us all 0.50
  and p99_us = Stats.percentile_us all 0.99 in
  let bytes = ref 0 in
  for node = 0 to regions - 1 do
    bytes := !bytes + Net.bytes_sent net node
  done;
  Spans.leave sp;
  {
    ops = Stats.count all;
    attempted = Stats.count all + !retries;
    failed = !retries;
    reads = !reads;
    retries = !retries;
    sim_events = Engine.events_executed engine;
    messages = Net.sent_count net;
    bytes = !bytes;
    p50_us;
    p99_us;
    pending_peak = !pending_peak;
    duration_us = end_us;
    n_nodes = regions;
    tels = [ tel ];
    oracle_wall_s = Clock.seconds_since t0;
    problems = violations_problem violations;
  }

(* ---- sharded-writes: the Shard.run mirror ---- *)

type group = {
  inst : Harness.instance;
  net : Net.t;
  g_leader : int;
  g_stats : Stats.t;
  mutable g_ops : int;
  mutable g_retries : int;
}

let mirror_shard (cfg : Shard.config) sp rc =
  let engine = Engine.create ~seed:cfg.Shard.seed () in
  let sites = Shard.leader_sites cfg.Shard.placement ~shards:cfg.Shard.shards in
  let tels = ref [] in
  let mk g =
    let net = Net.create engine ~nodes:(wan_nodes ()) in
    let tel = Telemetry.create ~n:regions () in
    tels := tel :: !tels;
    Net.set_metrics net tel.Telemetry.metrics;
    let leader = Topology.site_index sites.(g) in
    let w =
      Harness.make_wired ~telemetry:tel ~batch_size:cfg.Shard.batch_size
        ~batch_delay_us:cfg.Shard.batch_delay_us (Shard.group_protocol cfg g) net
        ~leader
    in
    wire_hook rc sp net w;
    record_sends rc net ~index:g;
    {
      inst = w.Harness.w_instance;
      net;
      g_leader = leader;
      g_stats = Stats.create ();
      g_ops = 0;
      g_retries = 0;
    }
  in
  let rec build g = if g = cfg.Shard.shards then [] else mk g :: build (g + 1) in
  let groups = Array.of_list (build 0) in
  let group_of_key key = Workload.group_of_key ~shards:cfg.Shard.shards key in
  let wl = Workload.create ~seed:cfg.Shard.seed ~regions cfg.Shard.workload in
  let events = ref [] in
  let reads = ref 0 and pending_peak = ref 0 in
  let end_us = cfg.Shard.duration_s * 1_000_000 in
  let rec client_loop region () =
    if Engine.now engine < end_us then begin
      Spans.enter sp Spans.Next_op ~trace:(-1);
      let op = Workload.next_op wl ~region in
      Spans.leave sp;
      attempt region op
    end
  and attempt region op =
    let g = groups.(group_of_key (Types.key_of op)) in
    let started = Engine.now engine in
    let finished = ref false in
    let timeout =
      Engine.schedule_cancellable engine ~delay:retry_timeout_us (fun () ->
          if not !finished then begin
            finished := true;
            g.g_retries <- g.g_retries + 1;
            if Engine.now engine < end_us then attempt region op
          end)
    in
    let trace = ref (-1) in
    Spans.enter sp Spans.Submit ~trace:(-1);
    trace :=
      g.inst.Harness.submit ~node:region op (fun reply ->
          if not !finished then begin
            Spans.enter sp Spans.Reply ~trace:!trace;
            finished := true;
            Engine.cancel timeout;
            let now = Engine.now engine in
            g.g_ops <- g.g_ops + 1;
            Stats.record g.g_stats ~latency_us:(now - started) ~at_us:now;
            (match op with
            | Types.Get { key } ->
                incr reads;
                events :=
                  Lin_check.Read
                    { key; started_us = started; returned = reply.Types.value }
                  :: !events
            | Types.Put { write_id; key; _ } ->
                events :=
                  Lin_check.Write_complete { write_id; key; at_us = now }
                  :: !events);
            pending_peak := max !pending_peak (Engine.pending engine);
            client_loop region ();
            Spans.leave sp
          end);
    Spans.leave_trace sp !trace
  in
  for region = 0 to regions - 1 do
    for _ = 1 to cfg.Shard.workload.Workload.clients_per_region do
      let jitter = Rng.int (Engine.rng engine) 100_000 in
      Engine.schedule engine ~delay:jitter (client_loop region)
    done
  done;
  let t0 = Clock.now_ns () in
  Spans.enter sp Spans.Engine_run ~trace:(-1);
  Engine.run engine ~until:end_us;
  Spans.leave sp;
  Spans.enter sp Spans.Lin_check ~trace:(-1);
  let committed_orders =
    Array.map (fun g -> g.inst.Harness.committed_ops ~node:g.g_leader) groups
  in
  let checks =
    Lin_check.check_sharded ~committed_orders ~group_of_key (List.rev !events)
  in
  let violations =
    Array.fold_left
      (fun acc c -> acc + List.length c.Lin_check.violations)
      0 checks
  in
  Spans.leave sp;
  Spans.enter sp Spans.Report ~trace:(-1);
  let all = Stats.merge (Array.to_list (Array.map (fun g -> g.g_stats) groups)) in
  let p50_us = Stats.percentile_us all 0.50
  and p99_us = Stats.percentile_us all 0.99 in
  let sum f = Array.fold_left (fun acc g -> acc + f g) 0 groups in
  let bytes =
    sum (fun g ->
        let b = ref 0 in
        for node = 0 to regions - 1 do
          b := !b + Net.bytes_sent g.net node
        done;
        !b)
  in
  Spans.leave sp;
  {
    ops = sum (fun g -> g.g_ops);
    attempted = sum (fun g -> g.g_ops + g.g_retries);
    failed = sum (fun g -> g.g_retries);
    reads = !reads;
    retries = sum (fun g -> g.g_retries);
    sim_events = Engine.events_executed engine;
    messages = sum (fun g -> Net.sent_count g.net);
    bytes;
    p50_us;
    p99_us;
    pending_peak = !pending_peak;
    duration_us = end_us;
    n_nodes = regions;
    tels = List.rev !tels;
    oracle_wall_s = Clock.seconds_since t0;
    problems = violations_problem violations;
  }

(* ---- open-loop runs: failover and the TCP twin ---- *)

(* The few calls an open-loop run makes into a cluster.  [submit]
   returns the command id, or -1 where the entry point hides it. *)
type cluster = {
  submit : node:int -> Types.op -> (Types.reply -> unit) -> int;
  crash : node:int -> unit;
  restart : node:int -> unit;
  committed_ops : node:int -> Types.op list;
}

type system = {
  engine : Engine.t;
  nets : Net.t list;
  cluster : cluster;
  sys_tels : Telemetry.t list;
}

let of_nemesis (c : Cluster.t) =
  {
    submit =
      (fun ~node op k ->
        c.Cluster.submit ~node op k;
        -1);
    crash = c.Cluster.crash;
    restart = c.Cluster.restart;
    committed_ops = c.Cluster.committed_ops;
  }

let telemetry_for net ~telemetry ~n =
  if telemetry then begin
    let tel = Telemetry.create ~n () in
    Net.set_metrics net tel.Telemetry.metrics;
    Some tel
  end
  else None

(* The failover cluster as the nemesis builds it.  Traced, the same
   MultiPaxos construction is made directly so the wire hook can be
   attached (Cluster.t does not expose it). *)
let failover_system ~seed ~telemetry ~traced =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:(wan_nodes ()) in
  let tel = telemetry_for net ~telemetry ~n:regions in
  let cluster =
    match traced with
    | None -> of_nemesis (Cluster.make ?telemetry:tel Cluster.Multipaxos net)
    | Some (rc, sp) ->
        let mp =
          C.Multipaxos.create ?telemetry:tel ~leader:0 C.Multipaxos.default_config
            net
        in
        C.Multipaxos.start mp;
        C.Multipaxos.set_wire mp
          (Some
             (hook rc sp net
                ~wrap:(fun m -> Wire.Multipaxos_msg m)
                ~deliver:(C.Multipaxos.deliver mp)));
        record_sends rc net ~index:0;
        {
          submit = C.Multipaxos.submit_id mp;
          crash = C.Multipaxos.crash mp;
          restart = C.Multipaxos.restart mp;
          committed_ops = C.Multipaxos.committed_ops mp;
        }
  in
  { engine; nets = [ net ]; cluster; sys_tels = Option.to_list tel }

(* The runtime one server.exe hosts (Shell.run: raft, leader 0, the
   shell's node placement), here with all replicas live in one engine. *)
let twin_system ~seed ~telemetry ~traced =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:(Shell.nodes_for 3) in
  let tel = telemetry_for net ~telemetry ~n:3 in
  let w = Harness.make_wired ?telemetry:tel Harness.Raft net ~leader:0 in
  (match traced with
  | Some (rc, sp) ->
      wire_hook rc sp net w;
      record_sends rc net ~index:0
  | None -> ());
  let inst = w.Harness.w_instance in
  let no_faults ~node:_ = invalid_arg "the twin injects no faults" in
  {
    engine;
    nets = [ net ];
    cluster =
      {
        submit = inst.Harness.submit;
        crash = no_faults;
        restart = no_faults;
        committed_ops = inst.Harness.committed_ops;
      };
    sys_tels = Option.to_list tel;
  }

let op_equal (a : Types.op) (b : Types.op) =
  match (a, b) with
  | Get { key = k1 }, Get { key = k2 } -> k1 = k2
  | Put p1, Put p2 ->
      p1.key = p2.key && p1.size = p2.size && p1.write_id = p2.write_id
  | Get _, Put _ | Put _, Get _ -> false

let rec is_prefix short long =
  match (short, long) with
  | [], _ -> true
  | _ :: _, [] -> false
  | a :: s, b :: l -> op_equal a b && is_prefix s l

type ol_result = {
  facts : facts;
  retried : int;  (** requests that needed at least one retry *)
  unavail_us : int option;  (** crash to the first completion due after it *)
}

let run_openloop (o : openloop) sys sp =
  let engine = sys.engine in
  let sched = Rng.split (Rng.create o.seed) in
  let wl = Workload.create ~seed:o.seed ~regions:o.n o.spec in
  let down = Array.make o.n false in
  let lat = Stats.create () in
  let attempted = ref 0 and completed = ref 0 and retried = ref 0 in
  let reads = ref 0 and pending_peak = ref 0 in
  let events = ref [] in
  let acked = ref [] in
  let crash_at = match o.crash with Some (_, at, _) -> at | None -> max_int in
  let unavail = ref None in
  let rec live node = if down.(node) then live ((node + 1) mod o.n) else node in
  let issue i due =
    incr attempted;
    let home = if o.alternate then i land 1 else Rng.int sched o.n in
    Spans.enter sp Spans.Next_op ~trace:(-1);
    let op = Workload.next_op wl ~region:home in
    Spans.leave sp;
    let finished = ref false and was_retried = ref false in
    let rec attempt node =
      let trace = ref (-1) in
      Spans.enter sp Spans.Submit ~trace:(-1);
      trace :=
        sys.cluster.submit ~node op (fun reply ->
            if not !finished then begin
              Spans.enter sp Spans.Reply ~trace:!trace;
              finished := true;
              incr completed;
              let now = Engine.now engine in
              Stats.record lat ~latency_us:(now - due) ~at_us:now;
              (match op with
              | Types.Get { key } ->
                  incr reads;
                  events :=
                    Lin_check.Read
                      { key; started_us = due; returned = reply.Types.value }
                    :: !events
              | Types.Put { write_id; key; _ } ->
                  acked := write_id :: !acked;
                  events :=
                    Lin_check.Write_complete { write_id; key; at_us = now }
                    :: !events);
              if due >= crash_at && Option.is_none !unavail then
                unavail := Some (now - crash_at);
              pending_peak := max !pending_peak (Engine.pending engine);
              Spans.leave sp
            end);
      Spans.leave_trace sp !trace;
      if o.deadline_us > 0 then
        Engine.schedule engine ~kind:Engine.Exact ~delay:o.deadline_us (fun () ->
            if not !finished then begin
              if not !was_retried then incr retried;
              was_retried := true;
              attempt (live ((node + 1) mod o.n))
            end)
    in
    attempt (live home)
  in
  let mean_gap_us = 1e6 /. o.rate in
  let rec arrive i due () =
    issue i due;
    let next = due + 1 + int_of_float (Rng.exponential sched ~mean:mean_gap_us) in
    if next <= o.issue_until_us then
      Engine.schedule engine ~kind:Engine.Exact ~delay:(next - due)
        (arrive (i + 1) next)
  in
  Engine.schedule engine ~kind:Engine.Exact ~delay:0 (arrive 0 0);
  (match o.crash with
  | Some (node, at, back) ->
      Engine.schedule engine ~kind:Engine.Exact ~delay:at (fun () ->
          down.(node) <- true;
          sys.cluster.crash ~node);
      Engine.schedule engine ~kind:Engine.Exact ~delay:back (fun () ->
          down.(node) <- false;
          sys.cluster.restart ~node)
  | None -> ());
  let t0 = Clock.now_ns () in
  Spans.enter sp Spans.Engine_run ~trace:(-1);
  Engine.run engine ~until:o.end_us;
  Spans.leave sp;
  (* The oracle: committed prefixes agree, no acknowledged write is
     lost, and reads are linearizable against the longest prefix. *)
  Spans.enter sp Spans.Lin_check ~trace:(-1);
  let orders = List.init o.n (fun node -> sys.cluster.committed_ops ~node) in
  let longest =
    List.fold_left
      (fun best l -> if List.compare_lengths l best > 0 then l else best)
      [] orders
  in
  let problems = ref [] in
  List.iteri
    (fun node l ->
      if not (is_prefix l longest) then
        problems :=
          Printf.sprintf "replica %d's committed prefix diverges" node :: !problems)
    orders;
  let committed = Hashtbl.create 4096 in
  List.iter
    (function
      | Types.Put { write_id; _ } -> Hashtbl.replace committed write_id ()
      | Types.Get _ -> ())
    longest;
  let lost = List.filter (fun id -> not (Hashtbl.mem committed id)) !acked in
  (match lost with
  | [] -> ()
  | _ :: _ ->
      problems :=
        Printf.sprintf "%d acknowledged writes missing from the committed order"
          (List.length lost)
        :: !problems);
  let violations =
    match longest with
    | [] -> 0
    | committed_order ->
        List.length
          (Lin_check.check ~committed_order !events).Lin_check.violations
  in
  Spans.leave sp;
  Spans.enter sp Spans.Report ~trace:(-1);
  let p50_us = Stats.percentile_us lat 0.50 and p99_us = Stats.percentile_us lat 0.99 in
  let messages = List.fold_left (fun acc n -> acc + Net.sent_count n) 0 sys.nets in
  let bytes =
    List.fold_left
      (fun acc n ->
        let b = ref acc in
        for node = 0 to o.n - 1 do
          b := !b + Net.bytes_sent n node
        done;
        !b)
      0 sys.nets
  in
  Spans.leave sp;
  if Option.is_some o.crash && Option.is_none !unavail then
    problems := "no request due after the crash completed" :: !problems;
  {
    facts =
      {
        ops = !completed;
        attempted = !attempted;
        failed = !attempted - !completed;
        reads = !reads;
        retries = !retried;
        sim_events = Engine.events_executed engine;
        messages;
        bytes;
        p50_us;
        p99_us;
        pending_peak = !pending_peak;
        duration_us = o.end_us;
        n_nodes = o.n;
        tels = sys.sys_tels;
        oracle_wall_s = Clock.seconds_since t0;
        problems = List.rev_append !problems (violations_problem violations);
      };
    retried = !retried;
    unavail_us = !unavail;
  }
