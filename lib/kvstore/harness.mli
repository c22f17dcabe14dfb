(** Experiment harness reproducing the paper's Section-5 methodology:
    closed-loop clients per region, a measurement window with warm-up and
    cool-down trimmed, medians over several seeded trials. *)

type protocol = Protocol.t =
  | Raft
  | Raft_star
  | Raft_ll
  | Raft_pql
  | Mencius
  | Multipaxos

val protocol_name : protocol -> string
(** {!Protocol.name} *)

type config = {
  protocol : protocol;
  leader_site : Raftpax_sim.Topology.site;
      (** placement of the (initial) leader; ignored by Mencius *)
  workload : Workload.spec;
  duration_s : int;
  warmup_s : int;
  cooldown_s : int;
  seed : int64;
  telemetry : bool;  (** attach metric probes (counters / histograms) *)
  tracing : bool;
      (** additionally capture per-request span traces and the
          per-request latency records (implies telemetry) *)
  batch_size : int;
      (** leader-side command batching (see {!Raftpax_consensus.Types.params});
          1 (the default) reproduces the unbatched runtimes byte-for-byte *)
  batch_delay_us : int;  (** batching flush timer; meaningless at size 1 *)
}

val config :
  ?leader_site:Raftpax_sim.Topology.site ->
  ?duration_s:int ->
  ?warmup_s:int ->
  ?cooldown_s:int ->
  ?seed:int64 ->
  ?telemetry:bool ->
  ?tracing:bool ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  protocol ->
  Workload.spec ->
  config
(** Defaults: leader in Oregon, 10 s run with 2 s warm-up/cool-down
    (scaled down from the paper's 50 s / 10 s to keep simulation time
    reasonable; the steady-state estimates are unaffected), seed 1,
    telemetry and tracing off. *)

type request = {
  trace : int;  (** span trace id — the protocol command id *)
  region : int;  (** submitting client's region / replica *)
  is_read : bool;
  started_us : int;
  latency_us : int;
}

type result = {
  throughput_ops : float;  (** completed ops/s in the window *)
  read_leader : Raftpax_sim.Stats.t;  (** reads by leader-region clients *)
  read_follower : Raftpax_sim.Stats.t;
  write_leader : Raftpax_sim.Stats.t;
  write_follower : Raftpax_sim.Stats.t;
  retries : int;
  consistency_violations : int;
      (** reads that returned a value older than the latest write committed
          before the read began, or a never-written value *)
  messages : int;  (** total protocol messages on the wire *)
  bytes_by_node : int array;  (** egress bytes per replica *)
  telemetry : Raftpax_telemetry.Telemetry.t option;
      (** the run's metric registry and tracer, when enabled *)
  requests : request list;
      (** completed requests in completion order (tracing runs only) *)
  sim_events : int;
      (** engine events executed by the run — BENCH_engine's events/sec
          numerator (wall time is the caller's to measure) *)
  minor_words : float;
      (** minor-heap words allocated across the simulation loop
          ({!Gc.minor_words} delta; excludes the post-run lin check) *)
}

(** {1 Projections of {!Protocol.runtime}} *)

type instance = {
  submit :
    node:int ->
    Raftpax_consensus.Types.op ->
    (Raftpax_consensus.Types.reply -> unit) ->
    int;  (** {!Protocol.runtime.submit_id} *)
  committed_ops : node:int -> Raftpax_consensus.Types.op list;
}

val make_instance :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  protocol ->
  Raftpax_sim.Net.t ->
  leader:int ->
  instance
(** {!Protocol.make}, reduced to what clients use. *)

type wired = {
  w_instance : instance;
  w_set_wire :
    (src:int ->
    dst:int ->
    size:int ->
    Raftpax_netcore.Wire.protocol_msg ->
    unit)
    option ->
    unit;
  w_deliver : node:int -> Raftpax_netcore.Wire.protocol_msg -> unit;
  w_set_cmd_ids : base:int -> stride:int -> unit;
}

val make_wired :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  protocol ->
  Raftpax_sim.Net.t ->
  leader:int ->
  wired
(** {!Protocol.make}, reduced to the instance and the wire hooks. *)

val run : config -> result

val median_throughput : ?trials:int -> config -> float
(** Re-runs with distinct seeds and reports the median throughput (the
    paper reports the median of 5 trials). *)
