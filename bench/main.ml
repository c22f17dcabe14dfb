(* Benchmark harness: regenerates every figure of the paper's Section 5
   evaluation on the simulated WAN, plus Bechamel micro-benchmarks and the
   ablations called out in DESIGN.md.

     dune exec bench/main.exe            -- everything (quick settings)
     dune exec bench/main.exe fig9a      -- one figure
     dune exec bench/main.exe all full   -- longer runs / wider sweeps

   Absolute numbers are simulator-scale; EXPERIMENTS.md records the
   paper-vs-measured comparison of the *shapes*. *)

module Sim = Raftpax_sim
module Stats = Sim.Stats
module Topology = Sim.Topology
module Tel = Raftpax_telemetry
module Json = Tel.Json
module Metrics = Tel.Metrics
open Raftpax_kvstore
module H = Harness
module W = Workload

let quick = ref true

let duration () = if !quick then 6 else 30
let trim () = if !quick then 1 else 3

(* Global batching knobs ([--batch N] / [--batch-delay US]): applied to
   every figure run unless the figure overrides them per-row (fig_engine
   runs both settings itself).  Defaults reproduce the unbatched
   runtimes byte-for-byte. *)
let batch_size_flag = ref 1
let batch_delay_flag = ref 0

(* The batched benchmark rows' setting (fig_engine, the million-user
   shard run): a flush delay well under the WAN RTT so latency is
   unaffected, a size cap large enough that the flush timer (not the
   cap) is what usually fires. *)
let engine_batch = (16, 2_000)

let run_cfg ?leader_site ?(clients = 50) ?(read_fraction = 0.9)
    ?(conflict_rate = 0.05) ?(value_size = 8) ?batch_size ?batch_delay_us proto
    =
  let batch_size = Option.value batch_size ~default:!batch_size_flag in
  let batch_delay_us = Option.value batch_delay_us ~default:!batch_delay_flag in
  H.config ?leader_site ~duration_s:(duration ()) ~warmup_s:(trim ())
    ~cooldown_s:(trim ()) ~telemetry:true ~batch_size ~batch_delay_us proto
    {
      W.read_fraction;
      conflict_rate;
      value_size;
      records = 100_000;
      clients_per_region = clients;
      key_dist = W.Uniform;
    }

(* ---- machine-readable artifacts ----

   Every harness run a figure performs is recorded and dumped as
   BENCH_<figure>.json under [--out DIR], so plotting and regression
   tooling can consume the numbers without scraping stdout.  The schema
   is stable: {figure, mode, runs: [{protocol, config, throughput_ops,
   p50_us, p90_us, p99_us, retries, messages, counters, histograms}]},
   with counters/histograms keyed by probe name, one value per replica
   (from the telemetry snapshot). *)

let out_dir = ref "bench_output"
let recorded : Json.t list ref = ref []

let json_of_run (cfg : H.config) (r : H.result) =
  let stats =
    Stats.merge
      [ r.H.read_leader; r.H.read_follower; r.H.write_leader; r.H.write_follower ]
  in
  let counters, histograms =
    match r.H.telemetry with
    | Some tel -> (
        match Metrics.snapshot_to_json (Metrics.snapshot tel.Tel.Telemetry.metrics) with
        | Json.Obj fields ->
            ( Option.value ~default:Json.Null (List.assoc_opt "counters" fields),
              Option.value ~default:Json.Null (List.assoc_opt "histograms" fields) )
        | _ -> (Json.Null, Json.Null))
    | None -> (Json.Null, Json.Null)
  in
  Json.Obj
    [
      ("protocol", Json.String (H.protocol_name cfg.H.protocol));
      ( "config",
        Json.Obj
          [
            ("clients_per_region", Json.Int cfg.H.workload.W.clients_per_region);
            ("read_fraction", Json.Float cfg.H.workload.W.read_fraction);
            ("conflict_rate", Json.Float cfg.H.workload.W.conflict_rate);
            ("value_size", Json.Int cfg.H.workload.W.value_size);
            ("duration_s", Json.Int cfg.H.duration_s);
            ("warmup_s", Json.Int cfg.H.warmup_s);
            ("cooldown_s", Json.Int cfg.H.cooldown_s);
            ("leader_site", Json.String (Topology.site_name cfg.H.leader_site));
            ("seed", Json.Int (Int64.to_int cfg.H.seed));
            ("batch_size", Json.Int cfg.H.batch_size);
            ("batch_delay_us", Json.Int cfg.H.batch_delay_us);
          ] );
      ("throughput_ops", Json.Float r.H.throughput_ops);
      ("p50_us", Json.Int (Stats.percentile_us stats 0.50));
      ("p90_us", Json.Int (Stats.percentile_us stats 0.90));
      ("p99_us", Json.Int (Stats.percentile_us stats 0.99));
      ("retries", Json.Int r.H.retries);
      ("messages", Json.Int r.H.messages);
      ("counters", counters);
      ("histograms", histograms);
    ]

let run_recorded cfg =
  let r = H.run cfg in
  recorded := json_of_run cfg r :: !recorded;
  r

let write_artifact ~figure runs =
  if not (Sys.file_exists !out_dir) then Unix.mkdir !out_dir 0o755;
  let path = Filename.concat !out_dir ("BENCH_" ^ figure ^ ".json") in
  let doc =
    Json.Obj
      [
        ("figure", Json.String figure);
        ("mode", Json.String (if !quick then "quick" else "full"));
        ("runs", Json.List (List.rev runs));
      ]
  in
  let oc = open_out path in
  output_string oc (Fmt.str "%a@." Json.pp doc);
  close_out oc;
  Fmt.pr "   [wrote %s]@." path

let pp_ms ppf us = Fmt.pf ppf "%7.1f" (float_of_int us /. 1000.0)

let pp_lat_row name stats =
  Fmt.pr "  %-14s p50=%ams p90=%ams p99=%ams (n=%d)@." name pp_ms
    (Stats.percentile_us stats 0.50)
    pp_ms
    (Stats.percentile_us stats 0.90)
    pp_ms
    (Stats.percentile_us stats 0.99)
    (Stats.count stats)

let fig9_systems = [ H.Raft_pql; H.Raft_ll; H.Raft; H.Raft_star ]

(* ---- Figure 9a/9b: read and write latency, leader vs followers ---- *)

let fig9_latency ~which () =
  Fmt.pr "== Figure 9%s: %s latency (90%% read, 5%% conflict, 50 clients/region) ==@."
    (if which = `Read then "a" else "b")
    (if which = `Read then "read" else "write");
  List.iter
    (fun proto ->
      let r = run_recorded (run_cfg proto) in
      let leader, follower =
        match which with
        | `Read -> (r.H.read_leader, r.H.read_follower)
        | `Write -> (r.H.write_leader, r.H.write_follower)
      in
      Fmt.pr "%s@." (H.protocol_name proto);
      pp_lat_row "leader" leader;
      pp_lat_row "followers" follower;
      assert (r.H.consistency_violations = 0))
    fig9_systems

(* ---- Figure 9c: peak throughput vs read percentage ---- *)

let fig9c () =
  Fmt.pr "== Figure 9c: peak throughput (ops/s) vs read percentage ==@.";
  let client_sweep = if !quick then [ 100; 400 ] else [ 100; 400; 1200; 3000 ] in
  Fmt.pr "%-14s %10s %10s %10s@." "system" "50%" "90%" "99%";
  let raft_star_90 = ref 0.0 and pql_90 = ref 0.0 in
  List.iter
    (fun proto ->
      (* peak throughput: the best point of a client-count sweep, run
         through run_recorded so every point lands in the JSON artifact *)
      let peak read_fraction =
        List.fold_left
          (fun best clients ->
            let r =
              run_recorded
                (run_cfg ~clients ~read_fraction ~conflict_rate:0.05 proto)
            in
            max best r.H.throughput_ops)
          0.0 client_sweep
      in
      let p50 = peak 0.50 and p90 = peak 0.90 and p99 = peak 0.99 in
      if proto = H.Raft_star then raft_star_90 := p90;
      if proto = H.Raft_pql then pql_90 := p90;
      Fmt.pr "%-14s %10.0f %10.0f %10.0f@." (H.protocol_name proto) p50 p90 p99)
    fig9_systems;
  if !raft_star_90 > 0.0 then
    Fmt.pr "PQL speedup over Raft* at 90%% reads: %.2fx (paper: 1.6x)@."
      (!pql_90 /. !raft_star_90)

(* ---- Figure 9d: PQL speedup over Raft* vs conflict rate ---- *)

let fig9d () =
  Fmt.pr "== Figure 9d: Raft*-PQL throughput speedup over Raft* vs conflict rate ==@.";
  let clients = if !quick then 200 else 1200 in
  List.iter
    (fun conflict ->
      let tput proto =
        (run_recorded (run_cfg ~clients ~conflict_rate:conflict proto))
          .H.throughput_ops
      in
      let pql = tput H.Raft_pql and star = tput H.Raft_star in
      Fmt.pr "  conflict %3.0f%%: speedup %+.0f%%@." (conflict *. 100.0)
        ((pql -. star) /. star *. 100.0))
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ]

(* ---- Figure 10: Mencius ---- *)

type m_sys = {
  name : string;
  proto : H.protocol;
  leader : Topology.site;
  conflict : float;
}

let fig10_systems =
  [
    { name = "Raft*-M-100%"; proto = H.Mencius; leader = Topology.Oregon; conflict = 1.0 };
    { name = "Raft*-M-0%"; proto = H.Mencius; leader = Topology.Oregon; conflict = 0.0 };
    { name = "Raft-Oregon"; proto = H.Raft; leader = Topology.Oregon; conflict = 0.0 };
    { name = "Raft*-Oregon"; proto = H.Raft_star; leader = Topology.Oregon; conflict = 0.0 };
    { name = "Raft-Seoul"; proto = H.Raft; leader = Topology.Seoul; conflict = 0.0 };
  ]

let fig10_throughput ~value_size ~label () =
  Fmt.pr "== Figure 10%s: throughput (ops/s) vs clients/region, %s values, 100%% writes ==@."
    label
    (if value_size = 8 then "8B" else "4KB");
  let sweeps =
    if value_size = 8 then
      if !quick then [ 10; 50; 200; 600 ] else [ 10; 50; 200; 800; 2500 ]
    else if !quick then [ 5; 20; 80; 200 ]
    else [ 5; 20; 80; 250; 800 ]
  in
  Fmt.pr "%-14s" "system";
  List.iter (fun c -> Fmt.pr " %8d" c) sweeps;
  Fmt.pr "@.";
  List.iter
    (fun sys ->
      Fmt.pr "%-14s" sys.name;
      List.iter
        (fun clients ->
          let r =
            run_recorded
              (run_cfg ~leader_site:sys.leader ~clients ~read_fraction:0.0
                 ~conflict_rate:sys.conflict ~value_size sys.proto)
          in
          Fmt.pr " %8.0f" r.H.throughput_ops)
        sweeps;
      Fmt.pr "@.")
    fig10_systems

let fig10_latency ~value_size ~label () =
  Fmt.pr "== Figure 10%s: latency, %s values, 100%% writes, 50 clients/region ==@."
    label
    (if value_size = 8 then "8B" else "4KB");
  List.iter
    (fun sys ->
      let r =
        run_recorded
          (run_cfg ~leader_site:sys.leader ~clients:50 ~read_fraction:0.0
             ~conflict_rate:sys.conflict ~value_size sys.proto)
      in
      Fmt.pr "%s@." sys.name;
      pp_lat_row "leader" r.H.write_leader;
      pp_lat_row "followers" r.H.write_follower)
    fig10_systems

(* ---- sharded serving: aggregate throughput scaling (ours) ---- *)

(* The sweep the million-user trajectory tracks: M consensus groups over
   the hash-partitioned store, leaders placed nearest-majority, under a
   write-heavy 4 KB load that saturates a single group's leader uplink —
   so aggregate throughput must scale with the group count.  [--shards M]
   restricts the sweep to one group count. *)

let shards_override = ref None

let fig_shard () =
  let group_counts =
    match !shards_override with
    | Some m -> [ m ]
    | None -> if !quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ]
  in
  let client_sweep = if !quick then [ 100; 400 ] else [ 100; 400; 1200 ] in
  let wl clients =
    {
      W.read_fraction = 0.0;
      conflict_rate = 0.0;
      value_size = 4096;
      records = 100_000;
      clients_per_region = clients;
      key_dist = W.Uniform;
    }
  in
  let shard_run ?(protocols = [ H.Raft_star ]) m clients =
    let cfg =
      Shard.config ~protocols ~duration_s:(duration ()) ~warmup_s:(trim ())
        ~cooldown_s:(trim ()) ~telemetry:true ~shards:m (wl clients)
    in
    let r = Shard.run cfg in
    recorded := Shard.result_to_json cfg r :: !recorded;
    assert (r.Shard.violations = 0);
    r
  in
  Fmt.pr
    "== Sharded serving: aggregate throughput (ops/s) vs group count, 4KB \
     writes, nearest-majority leaders ==@.";
  Fmt.pr "%-8s" "groups";
  List.iter (fun c -> Fmt.pr " %8dc" c) client_sweep;
  Fmt.pr "@.";
  let peak_by_groups =
    List.map
      (fun m ->
        Fmt.pr "%-8d" m;
        let tputs =
          List.map
            (fun clients ->
              let r = shard_run m clients in
              Fmt.pr " %9.0f" r.Shard.throughput_ops;
              r.Shard.throughput_ops)
            client_sweep
        in
        Fmt.pr "@.";
        (m, List.fold_left max 0.0 tputs))
      group_counts
  in
  (match peak_by_groups with
  | (m0, t0) :: rest when rest <> [] ->
      Fmt.pr "scaling vs %d group(s):" m0;
      List.iter
        (fun (m, t) -> Fmt.pr " %dx groups=%.2fx tput" (m / m0) (t /. t0))
        rest;
      Fmt.pr "@.";
      (* the acceptance gate: aggregate peak throughput must increase
         monotonically with the group count *)
      let rec monotonic = function
        | (_, a) :: ((_, b) :: _ as rest) -> a < b && monotonic rest
        | _ -> true
      in
      assert (monotonic peak_by_groups)
  | _ -> ());
  (* one heterogeneous deployment at the widest sweep point: mixed
     protocol groups must serve the same routed load *)
  let m = List.fold_left max 1 group_counts in
  let r =
    shard_run ~protocols:[ H.Raft_star; H.Mencius; H.Multipaxos ] m
      (List.hd client_sweep)
  in
  Fmt.pr "heterogeneous mix (%d groups, Raft*/Mencius/MultiPaxos): %.0f ops/s@."
    m r.Shard.throughput_ops;
  (* ---- the million-user variant: 8 consensus groups over a 1M-record
     keyspace, 2000 closed-loop clients (400/region over 5 regions),
     command batching on.  Small values and a short quick-mode duration
     keep it inside CI; full mode stretches the run, not the shape. *)
  let mu_duration = if !quick then 3 else duration () in
  let mu_clients = 400 in
  let mu_shards = max 8 (match !shards_override with Some m -> m | None -> 8) in
  let mu_wl =
    {
      W.read_fraction = 0.9;
      conflict_rate = 0.0;
      value_size = 8;
      records = 1_000_000;
      clients_per_region = mu_clients;
      key_dist = W.Uniform;
    }
  in
  let mu_cfg =
    Shard.config ~protocols:[ H.Raft_star ] ~duration_s:mu_duration ~warmup_s:1
      ~cooldown_s:1 ~telemetry:true ~batch_size:(fst engine_batch)
      ~batch_delay_us:(snd engine_batch) ~shards:mu_shards mu_wl
  in
  let t0 = Unix.gettimeofday () in
  let r = Shard.run mu_cfg in
  let wall = Unix.gettimeofday () -. t0 in
  recorded := Shard.result_to_json mu_cfg r :: !recorded;
  assert (r.Shard.violations = 0);
  Fmt.pr
    "million-user: %d groups, %d clients, 1M records, batch=%d: %.0f ops/s \
     (%.1fs wall)@."
    mu_shards
    (mu_clients * List.length Topology.sites)
    (fst engine_batch) r.Shard.throughput_ops wall

(* ---- network cost table (ours): egress distribution per protocol ---- *)

let netcost () =
  Fmt.pr "== Network cost (ours): egress MB per replica, 100%% writes, 8B, 50 clients/region ==@.";
  Fmt.pr "%-14s %9s" "system" "msgs";
  List.iter
    (fun site -> Fmt.pr " %8s" (Topology.site_name site))
    Topology.sites;
  Fmt.pr "@.";
  List.iter
    (fun proto ->
      let r = run_recorded (run_cfg ~read_fraction:0.0 ~conflict_rate:0.0 proto) in
      Fmt.pr "%-14s %9d" (H.protocol_name proto) r.H.messages;
      Array.iter
        (fun bytes -> Fmt.pr " %8.1f" (float_of_int bytes /. 1_000_000.0))
        r.H.bytes_by_node;
      Fmt.pr "@.")
    [ H.Raft; H.Raft_pql; H.Mencius; H.Multipaxos ];
  Fmt.pr "   (single-leader systems concentrate egress at the leader;@.";
  Fmt.pr "    Mencius spreads it across the five sites)@."

(* ---- ablations (DESIGN.md) ---- *)

let ablation_lease_duration () =
  Fmt.pr "== Ablation: PQL lease duration: post-crash write stall ==@.";
  Fmt.pr "   (paper parameters: 2s duration, 0.5s renewal; a crashed lease@.";
  Fmt.pr "    holder blocks commits until its last lease expires)@.";
  List.iter
    (fun (duration_ms, renew_ms) ->
      let params =
        {
          Raftpax_consensus.Types.default_params with
          lease_duration_us = duration_ms * 1000;
          lease_renew_us = renew_ms * 1000;
        }
      in
      let engine = Sim.Engine.create ~seed:5L () in
      let nodes =
        List.mapi (fun i site -> { Sim.Net.id = i; site }) Topology.sites
      in
      let net = Sim.Net.create engine ~nodes in
      let cfg = { (Raftpax_consensus.Raft.raft_pql ~leader:0 ()) with params } in
      let t = Raftpax_consensus.Raft.create cfg net in
      Raftpax_consensus.Raft.start t;
      (* steady state, then crash Seoul (a lease holder) and immediately
         issue a write: it stalls until Seoul's lease lapses *)
      Raftpax_consensus.Raft.submit t ~node:0
        (Raftpax_consensus.Types.Put { key = 1; size = 8; write_id = 1 })
        (fun _ -> ());
      Sim.Engine.run engine ~until:3_000_000;
      Raftpax_consensus.Raft.crash t ~node:4;
      let stall = ref 0 in
      let t0 = Sim.Engine.now engine in
      Raftpax_consensus.Raft.submit t ~node:0
        (Raftpax_consensus.Types.Put { key = 1; size = 8; write_id = 2 })
        (fun _ -> stall := Sim.Engine.now engine - t0);
      Sim.Engine.run engine ~until:(3_000_000 + (duration_ms * 1000) + 5_000_000);
      Fmt.pr "  lease %5dms renew %5dms: post-crash write stall %ams@."
        duration_ms renew_ms pp_ms !stall)
    [ (500, 125); (2000, 500); (8000, 2000) ]

let ablation_pipeline_window () =
  Fmt.pr "== Ablation: replication pipeline window (leader write latency) ==@.";
  List.iter
    (fun window ->
      let params =
        { Raftpax_consensus.Types.default_params with pipeline_window = window }
      in
      let engine = Sim.Engine.create ~seed:6L () in
      let nodes =
        List.mapi (fun i site -> { Sim.Net.id = i; site }) Topology.sites
      in
      let net = Sim.Net.create engine ~nodes in
      let cfg = { (Raftpax_consensus.Raft.raft_star ~leader:0 ()) with params } in
      let t = Raftpax_consensus.Raft.create cfg net in
      Raftpax_consensus.Raft.start t;
      let lat = Stats.create () in
      let rec client i =
        if Sim.Engine.now engine < 5_000_000 then begin
          let t0 = Sim.Engine.now engine in
          Raftpax_consensus.Raft.submit t ~node:0
            (Raftpax_consensus.Types.Put { key = i; size = 8; write_id = i })
            (fun _ ->
              Stats.record lat
                ~latency_us:(Sim.Engine.now engine - t0)
                ~at_us:(Sim.Engine.now engine);
              client (i + 1))
        end
      in
      for _ = 1 to 10 do
        client 1
      done;
      Sim.Engine.run engine ~until:5_000_000;
      Fmt.pr "  window %2d: leader write p50 %ams p90 %ams@." window pp_ms
        (Stats.percentile_us lat 0.50)
        pp_ms
        (Stats.percentile_us lat 0.90))
    [ 1; 2; 8 ]

(* ---- Bechamel micro-benchmarks ---- *)

let micro () =
  let open Bechamel in
  let open Raftpax_core in
  let cfg_tiny = Proto_config.tiny in
  let mp = Spec_multipaxos.spec cfg_tiny in
  let rs = Spec_raft_star.spec cfg_tiny in
  let mp_init = List.hd mp.Spec.init in
  let mapped = Spec_raft_star.to_paxos cfg_tiny (List.hd rs.Spec.init) in
  let wl = W.create ~seed:3L ~regions:5 W.default in
  (* One hot key: 1 000 acknowledged writes, one every 10 us, and 10 000
     reads, one every 1 us, each returning the write its floor requires. *)
  let hot_order =
    List.init 1_000 (fun id ->
        Raftpax_consensus.Types.Put { key = 0; size = 8; write_id = id })
  in
  let hot_events =
    List.init 1_000 (fun id ->
        Lin_check.Write_complete { write_id = id; key = 0; at_us = 10 * id })
    @ List.init 10_000 (fun t ->
          Lin_check.Read { key = 0; started_us = t; returned = Some (t / 10) })
  in
  (* Lease-read shaped, as a lease-reads run records it: 20 000 writes,
     5% of them on the hot key and the rest over 100 000 keys, with nine
     reads between consecutive writes, 180 000 in all, each returning its
     key's latest acknowledged write; the committed order is the write
     order. *)
  let lease_order, lease_events =
    let rng = Sim.Rng.create 11L in
    let key () =
      if Sim.Rng.int rng 100 < 5 then W.hot_key else Sim.Rng.int rng 100_000
    in
    let latest = Hashtbl.create 1024 in
    let order = ref [] and events = ref [] in
    for id = 0 to 19_999 do
      let t = 10 * id in
      let k = key () in
      order := Raftpax_consensus.Types.Put { key = k; size = 8; write_id = id } :: !order;
      events := Lin_check.Write_complete { write_id = id; key = k; at_us = t } :: !events;
      Hashtbl.replace latest k id;
      for r = 1 to 9 do
        let k = key () in
        events :=
          Lin_check.Read { key = k; started_us = t + r; returned = Hashtbl.find_opt latest k }
          :: !events
      done
    done;
    (List.rev !order, List.rev !events)
  in
  (* A queue held at [n] pending events: each fires and reschedules
     itself [1, 2n) µs ahead, n on average, so a run of 1 µs fires one
     event on average and the row reads ns per fire-and-reschedule at
     that depth. *)
  let queue_steady n =
    let e = Sim.Engine.create () in
    let state = ref 1 in
    let rec tick () =
      state := ((!state * 1103515245) + 12345) land 0x3fffffff;
      Sim.Engine.schedule e ~delay:(1 + ((!state lsr 8) mod ((2 * n) - 1))) tick
    in
    for _ = 1 to n do
      tick ()
    done;
    Test.make
      ~name:(Printf.sprintf "sim/queue-steady-%d" n)
      (Staged.stage (fun () -> Sim.Engine.run e ~until:(Sim.Engine.now e + 1)))
  in
  let tests =
    [
      Test.make ~name:"spec/multipaxos-successors"
        (Staged.stage (fun () -> ignore (Spec.successors mp mp_init)));
      Test.make ~name:"spec/raft-star-mapping"
        (Staged.stage (fun () ->
             ignore (Spec_raft_star.to_paxos cfg_tiny (List.hd rs.Spec.init))));
      Test.make ~name:"refinement/discharge-stutter"
        (Staged.stage (fun () ->
             ignore (Refinement.discharge ~high:mp ~max_hops:1 mapped mapped)));
      Test.make ~name:"workload/next-op"
        (Staged.stage (fun () -> ignore (W.next_op wl ~region:2)));
      Test.make ~name:"sim/engine-event"
        (Staged.stage (fun () ->
             let e = Sim.Engine.create () in
             Sim.Engine.schedule e ~delay:1 ignore;
             Sim.Engine.run_all e));
      queue_steady 10;
      queue_steady 1_500;
      queue_steady 12_000;
      Test.make ~name:"kvstore/lin-check-hot-key"
        (Staged.stage (fun () ->
             ignore (Lin_check.check ~committed_order:hot_order hot_events)));
      Test.make ~name:"kvstore/lin-check-lease-shaped"
        (Staged.stage (fun () ->
             ignore (Lin_check.check ~committed_order:lease_order lease_events)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
    in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.iter (fun (name, result) ->
           match Analyze.OLS.estimates result with
           | Some [ est ] -> Fmt.pr "  %-32s %12.1f ns/run@." name est
           | _ -> Fmt.pr "  %-32s (no estimate)@." name)
  in
  Fmt.pr "== Micro-benchmarks (Bechamel, monotonic clock) ==@.";
  List.iter benchmark tests

(* ---- engine: simulator hot-path microbenchmark ----

   Measures the cost of the simulation machinery itself on the fig9 hot
   path (closed-loop clients over the WAN sim, telemetry on): engine
   events executed per wall-clock second and minor-heap words allocated
   per completed op.  This is the perf gate for the engine/runtime
   data-structure work — protocol figures measure the protocol, this one
   measures the harness.  The floor is deliberately well below the
   committed baseline (slowest row ~700k events/s, Raft* ~1.05M after
   the Vec/Net.size hot-path fixes; batching only raises those) so only
   a real regression — e.g. reintroducing a quadratic accumulator —
   trips it, not CI noise. *)

let engine_events_floor = 300_000.0

(* What an engine row keeps of its [H.run]: every field the artifact
   records, measured in the row's own process (see [row_in_process]). *)
type engine_row = {
  er_sim_events : int;
  er_wall : float;
  er_ops : int;
  er_throughput_ops : float;
  er_minor_words : float;
  er_promoted_words : float;
  er_violations : int;
}

(* The engine rows in the order they run: every protocol, unbatched and
   at [engine_batch]. *)
let engine_rows =
  List.concat_map
    (fun proto -> [ (proto, (1, 0)); (proto, engine_batch) ])
    [ H.Raft_star; H.Raft_pql; H.Multipaxos; H.Mencius ]

let engine_cfg (proto, (batch_size, batch_delay_us)) =
  run_cfg ~batch_size ~batch_delay_us proto

let engine_row cfg =
  (* Start from an empty minor heap so minor-words/op is comparable
     across rows and runs. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let r = H.run cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let stats =
    Stats.merge
      [ r.H.read_leader; r.H.read_follower; r.H.write_leader; r.H.write_follower ]
  in
  {
    er_sim_events = r.H.sim_events;
    er_wall = wall;
    er_ops = Stats.count stats;
    er_throughput_ops = r.H.throughput_ops;
    er_minor_words = r.H.minor_words;
    er_promoted_words = r.H.promoted_words;
    er_violations = r.H.consistency_violations;
  }

(* Row [i] of [engine_rows], measured in a fresh process of this
   executable (its [--engine-row I] mode, which writes the marshalled
   row to stdout).  A row's promoted words depend on the heap its
   process holds when the row starts, even after [Gc.full_major] or
   [Gc.compact ()]: in one process they moved with the order of the
   rows, and in children forked from the driving process with what the
   driver held.  A fresh process starts every row from the same heap,
   so a row's minor and promoted words are the same in any row order.
   Each row then pays the first-touch page faults that, in one process,
   only the first row paid: about 8% of its events/s (EXPERIMENTS.md,
   "Engine rows in their own processes"). *)
let row_in_process i =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [ Sys.executable_name; "--engine-row"; string_of_int i ]
    @ if !quick then [] else [ "full" ]
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let row : engine_row option =
    try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
  in
  close_in ic;
  match (snd (Unix.waitpid [] pid), row) with
  | Unix.WEXITED 0, Some row -> row
  | _ -> failwith (Fmt.str "engine row %d: its process failed" i)

let fig_engine () =
  Fmt.pr "== engine: sim hot-path microbenchmark (fig9 workload, 50 clients/region) ==@.";
  Fmt.pr "%-14s %6s %12s %8s %14s %9s %10s %10s %10s@." "system" "batch"
    "sim_events" "wall_s" "events/s" "ops" "wall_ops/s" "minorw/op" "promw/op";
  (* (protocol, batch_size, wall-clock ops/s) per row, for the speedup
     summary: batching is the perf optimization under test, so the
     interesting ratio is ops completed per wall second at equal
     simulated duration. *)
  let rows = ref [] in
  List.iteri
    (fun i ((proto, (batch_size, batch_delay_us)) as spec) ->
      let cfg = engine_cfg spec in
      let row = row_in_process i in
      let ops = row.er_ops in
      let wall = row.er_wall in
      let events_per_sec = float_of_int row.er_sim_events /. wall in
      let wall_ops_per_sec = float_of_int ops /. wall in
      let words_per_op = row.er_minor_words /. float_of_int (max 1 ops) in
      let promoted_per_op =
        row.er_promoted_words /. float_of_int (max 1 ops)
      in
      Fmt.pr "%-14s %6d %12d %8.2f %14.0f %9d %10.0f %10.0f %10.2f@."
        (H.protocol_name proto) batch_size row.er_sim_events wall
        events_per_sec ops wall_ops_per_sec words_per_op promoted_per_op;
      assert (row.er_violations = 0);
      (* sanity floor: a hot-path regression fails loudly in CI *)
      assert (events_per_sec >= engine_events_floor);
      rows := (proto, batch_size, wall_ops_per_sec) :: !rows;
      recorded :=
        Json.Obj
          [
            ("protocol", Json.String (H.protocol_name proto));
            ( "config",
              Json.Obj
                [
                  ( "clients_per_region",
                    Json.Int cfg.H.workload.W.clients_per_region );
                  ("read_fraction", Json.Float cfg.H.workload.W.read_fraction);
                  ("duration_s", Json.Int cfg.H.duration_s);
                  ("seed", Json.Int (Int64.to_int cfg.H.seed));
                  ("batch_size", Json.Int batch_size);
                  ("batch_delay_us", Json.Int batch_delay_us);
                ] );
            ("sim_events", Json.Int row.er_sim_events);
            ("wall_s", Json.Float wall);
            ("events_per_sec", Json.Float events_per_sec);
            ("ops", Json.Int ops);
            ("throughput_ops", Json.Float row.er_throughput_ops);
            ("wall_ops_per_sec", Json.Float wall_ops_per_sec);
            ("minor_words_per_op", Json.Float words_per_op);
            ("promoted_words_per_op", Json.Float promoted_per_op);
            ("events_floor", Json.Float engine_events_floor);
          ]
        :: !recorded)
    engine_rows;
  List.iter
    (fun proto ->
      let find b =
        List.find_opt (fun (p, s, _) -> p = proto && s = b) !rows
      in
      match (find 1, find (fst engine_batch)) with
      | Some (_, _, base), Some (_, _, batched) when base > 0.0 ->
          Fmt.pr "  %-14s batching speedup: %.2fx wall ops/s@."
            (H.protocol_name proto) (batched /. base)
      | _ -> ())
    [ H.Raft_star; H.Raft_pql; H.Multipaxos; H.Mencius ]

(* ---- net: wall-clock throughput/latency over the real runtime ----

   Unlike every figure above, this one leaves the simulator: each run
   spawns a 3-node loopback cluster of server.exe processes and drives
   closed-loop clients over real TCP sockets.  Numbers are wall-clock
   ops/s and microseconds, so they measure the transport shell and the
   kernel loopback path, not the simulated WAN. *)

module Driver = Raftpax_netshell.Driver

let fig_net () =
  Fmt.pr "== net: real-network loopback throughput/latency ==@.";
  let protocols =
    if !quick then [ "raft"; "multipaxos" ]
    else [ "raft"; "raft-star"; "raft-ll"; "raft-pql"; "mencius"; "multipaxos" ]
  in
  let client_sweep = if !quick then [ 1; 4 ] else [ 1; 4; 16 ] in
  let duration_s = if !quick then 2.0 else 10.0 in
  let n = 3 in
  List.iter
    (fun protocol_name ->
      List.iter
        (fun clients_per_node ->
          let b =
            Driver.bench_run ~protocol_name ~n ~clients_per_node ~duration_s
              ~seed:7
          in
          Fmt.pr "%-12s clients=%2d %9.1f ops/s  p50=%ams p99=%ams retries=%d@."
            protocol_name (clients_per_node * n) b.Driver.b_throughput_ops
            pp_ms b.Driver.b_p50_us pp_ms b.Driver.b_p99_us b.Driver.b_retries;
          recorded :=
            Json.Obj
              [
                ("protocol", Json.String b.Driver.b_protocol);
                ( "config",
                  Json.Obj
                    [
                      ("nodes", Json.Int b.Driver.b_nodes);
                      ("clients_per_node", Json.Int b.Driver.b_clients);
                      ("duration_s", Json.Float duration_s);
                      ("seed", Json.Int 7);
                    ] );
                ("completed", Json.Int b.Driver.b_completed);
                ("retries", Json.Int b.Driver.b_retries);
                ("throughput_ops", Json.Float b.Driver.b_throughput_ops);
                ("p50_us", Json.Int b.Driver.b_p50_us);
                ("p99_us", Json.Int b.Driver.b_p99_us);
              ]
            :: !recorded)
        client_sweep)
    protocols

(* ---- driver ---- *)

let figures =
  [
    ("fig9a", fun () -> fig9_latency ~which:`Read ());
    ("fig9b", fun () -> fig9_latency ~which:`Write ());
    ("fig9c", fig9c);
    ("fig9d", fig9d);
    ("fig10a", fun () -> fig10_throughput ~value_size:8 ~label:"a" ());
    ("fig10b", fun () -> fig10_throughput ~value_size:4096 ~label:"b" ());
    ("fig10c", fun () -> fig10_latency ~value_size:8 ~label:"c" ());
    ("fig10d", fun () -> fig10_latency ~value_size:4096 ~label:"d" ());
    ("shard", fig_shard);
    ("engine", fig_engine);
    ("netcost", netcost);
    ("net", fig_net);
    ("ablation-lease", ablation_lease_duration);
    ("ablation-pipeline", ablation_pipeline_window);
    ("micro", micro);
  ]

(* "9a" is accepted as shorthand for "fig9a", etc. *)
let normalize target =
  if List.mem_assoc target figures then Some target
  else if List.mem_assoc ("fig" ^ target) figures then Some ("fig" ^ target)
  else None

let strip_trailing_slash dir =
  let n = String.length dir in
  if n > 1 && dir.[n - 1] = '/' then String.sub dir 0 (n - 1) else dir

(* [--engine-row I [full]]: measure row [I] of [engine_rows] alone and
   write it, marshalled, to stdout (see [row_in_process]). *)
let engine_row_mode = function
  | "--engine-row" :: i :: rest ->
      if List.mem "full" rest then quick := false;
      let row = engine_row (engine_cfg (List.nth engine_rows (int_of_string i))) in
      set_binary_mode_out stdout true;
      Marshal.to_channel stdout row [];
      exit 0
  | _ -> ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  engine_row_mode args;
  let rec take_out acc = function
    | [] -> List.rev acc
    | "--out" :: dir :: rest ->
        out_dir := strip_trailing_slash dir;
        take_out acc rest
    | a :: rest when String.length a > 6 && String.sub a 0 6 = "--out=" ->
        out_dir := strip_trailing_slash (String.sub a 6 (String.length a - 6));
        take_out acc rest
    | "--shards" :: m :: rest ->
        shards_override := int_of_string_opt m;
        take_out acc rest
    | a :: rest when String.length a > 9 && String.sub a 0 9 = "--shards=" ->
        shards_override :=
          int_of_string_opt (String.sub a 9 (String.length a - 9));
        take_out acc rest
    | "--batch" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> batch_size_flag := n
        | _ -> ());
        take_out acc rest
    | a :: rest when String.length a > 8 && String.sub a 0 8 = "--batch=" ->
        (match int_of_string_opt (String.sub a 8 (String.length a - 8)) with
        | Some n when n >= 1 -> batch_size_flag := n
        | _ -> ());
        take_out acc rest
    | "--batch-delay" :: us :: rest ->
        (match int_of_string_opt us with
        | Some us when us >= 0 -> batch_delay_flag := us
        | _ -> ());
        take_out acc rest
    | a :: rest
      when String.length a > 14 && String.sub a 0 14 = "--batch-delay=" ->
        (match int_of_string_opt (String.sub a 14 (String.length a - 14)) with
        | Some us when us >= 0 -> batch_delay_flag := us
        | _ -> ());
        take_out acc rest
    | a :: rest -> take_out (a :: acc) rest
  in
  let args = take_out [] args in
  if List.mem "full" args then quick := false;
  let targets = List.filter (fun a -> a <> "full") args in
  let targets = if targets = [] || targets = [ "all" ] then List.map fst figures else targets in
  List.iter
    (fun target ->
      match normalize target with
      | Some target ->
          let f = List.assoc target figures in
          recorded := [];
          let t0 = Unix.gettimeofday () in
          f ();
          if !recorded <> [] then write_artifact ~figure:target !recorded;
          Fmt.pr "   [%s took %.1fs wall]@.@." target (Unix.gettimeofday () -. t0)
      | None ->
          (* Mirror repro's unknown-subcommand gate: a typo'd figure name
             must fail the invocation, not silently run nothing. *)
          Fmt.epr "bench: unknown figure '%s'@." target;
          Fmt.epr
            "usage: main.exe [figure ...] [full] [--out DIR] [--shards M] \
             [--batch N] [--batch-delay US]@.";
          Fmt.epr "figures: %a@."
            Fmt.(list ~sep:sp string)
            (List.map fst figures @ [ "all" ]);
          exit 2)
    targets
