(* The four workloads, each measured in a process of its own.

   [once] is what a child process runs: one end-to-end or traced run of
   one workload, printed as metric lines.  [measure] re-executes the
   ledger for each such run, so no GC or heap state leaks between runs,
   and reduces repeated runs to one row per metric: exact rows must
   agree across runs of one seed, wall rows report their median. *)

open Sims

type mode =
  | Ledger  (** the full ledger: one run, the full TCP sweep *)
  | Smoke  (** reduced sizes, for the test suite *)
  | Bench of float  (** repeat until this many seconds are spent *)

let names = [ "lease-reads"; "sharded-writes"; "failover"; "tcp-loopback" ]

(* Median of repeated constructions of a workload's system, at least
   [setup_reps] of them over at least [setup_min_s] (not in the smoke)
   so the host probe ([Calib]) ticks often enough to tell the host's
   speed over them; run before the measured call so the heap is still
   small. *)
let setup_reps = 1000
let setup_min_s = 0.5

let time_setup ~smoke build =
  let min_s = if smoke then 0.0 else setup_min_s in
  let times, speed =
    Calib.probing ~of_parts:Calib.setup_parts (fun () ->
        let t_start = Clock.now_ns () in
        let rec go n acc =
          if n >= setup_reps && Clock.seconds_since t_start >= min_s then acc
          else begin
            let t0 = Clock.now_ns () in
            ignore (Sys.opaque_identity (build ()));
            go (n + 1) (Clock.seconds_since t0 :: acc)
          end
        in
        go 0 [])
  in
  (Report.median times, speed)

let timed f =
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.seconds_since t0)

(* One measured entry-point call, with the host probe running. *)
let probed f =
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let r, speed = Calib.probing ~of_parts:Calib.run_parts f in
  (r, Clock.seconds_since t0, speed)

(* Allocation and collections across one call. *)
let gc_counted f =
  Gc.compact ();
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Clock.now_ns () in
  let r = f () in
  let wall = Clock.seconds_since t0 in
  (r, wall, Gc.minor_words () -. minor0, (Gc.quick_stat ()).Gc.major_collections - major0)

type run = {
  metrics : Report.metric list;
  problems : string list;
  attempted : int;
  failed : int;
}

let own_rss_mb () = Loopback.peak_rss_mb (Unix.getpid ())

(* The first five rows are the BENCHMARK.json end-to-end set, which
   every workload prints.  Here p50_ms and p99_ms are the simulated
   latencies, also printed under their ledger names, and the two
   CPU-bound timings are scaled to the reference host by the host's
   speed over each ([Calib]); their raw readings follow. *)
let sim_e2e ~ops ~wall_s ~speed ~p50_us ~p99_us ~setup:(setup_s, setup_speed) =
  let ops_per_s = float_of_int ops /. wall_s in
  Report.
    [
      wall "scaled_ops_per_s" "1/s" (ops_per_s /. speed);
      exact "p50_ms" "ms" (ms_of_us p50_us);
      exact "p99_ms" "ms" (ms_of_us p99_us);
      wall "peak_rss_mb" "MB" (own_rss_mb ());
      wall "setup_s" "s" (setup_s *. setup_speed);
      wall "wall_ops_per_s" "1/s" ops_per_s;
      wall "setup_wall_s" "s" setup_s;
      wall "host_speed" "x" speed;
      wall "setup_host_speed" "x" setup_speed;
      exact "sim_p50_ms" "ms" (ms_of_us p50_us);
      exact "sim_p99_ms" "ms" (ms_of_us p99_us);
      count "n" ops;
      wall "peak_heap_mb" "MB" (peak_heap_mb ());
    ]

(* ---- lease-reads: Harness.run, Raft*-PQL ---- *)

let all_ops (r : Harness.result) =
  Stats.merge
    [ r.Harness.read_leader; r.read_follower; r.write_leader; r.write_follower ]

let lease_untraced (r : Harness.result) =
  let all = all_ops r in
  [
    ("ops", Stats.count all);
    ("retries", r.Harness.retries);
    ("sim_events", r.Harness.sim_events);
    ("messages", r.Harness.messages);
    ("p50_us", Stats.percentile_us all 0.50);
    ("p99_us", Stats.percentile_us all 0.99);
  ]

let lease_once ~smoke ~seed =
  let cfg = lease_config ~smoke ~seed ~telemetry:true in
  let setup =
    time_setup ~smoke (fun () ->
        let engine = Engine.create ~seed () in
        let net = Net.create engine ~nodes:(wan_nodes ()) in
        let tel = Telemetry.create ~n:regions () in
        Net.set_metrics net tel.Telemetry.metrics;
        ( Harness.make_instance ~telemetry:tel cfg.Harness.protocol net
            ~leader:(Topology.site_index cfg.Harness.leader_site),
          Workload.create ~seed ~regions cfg.Harness.workload ))
  in
  let r, wall_s, speed = probed (fun () -> Harness.run cfg) in
  let all = all_ops r in
  let ops = Stats.count all in
  {
    metrics =
      sim_e2e ~ops ~wall_s ~speed ~p50_us:(Stats.percentile_us all 0.50)
        ~p99_us:(Stats.percentile_us all 0.99) ~setup
      @ Report.
          [
            exact "sim_tput_ops_s" "1/s" r.Harness.throughput_ops;
            exact "failed_frac" "frac"
              (float_of_int r.Harness.retries /. float_of_int (ops + r.Harness.retries));
            count "sim_events" r.Harness.sim_events;
            count "messages" r.Harness.messages;
          ];
    problems = violations_problem r.Harness.consistency_violations;
    attempted = ops + r.Harness.retries;
    failed = r.Harness.retries;
  }

(* ---- sharded-writes: Shard.run, three heterogeneous groups ---- *)

let shard_all (r : Shard.result) =
  Stats.merge
    (Array.to_list r.Shard.groups
    |> List.concat_map (fun g -> [ g.Shard.g_read; g.Shard.g_write ]))

let shard_ops (r : Shard.result) =
  Array.fold_left (fun acc g -> acc + g.Shard.g_ops) 0 r.Shard.groups

let shard_untraced (r : Shard.result) =
  let all = shard_all r in
  [
    ("ops", shard_ops r);
    ("retries", r.Shard.retries);
    ("messages", r.Shard.messages);
    ("p50_us", Stats.percentile_us all 0.50);
    ("p99_us", Stats.percentile_us all 0.99);
  ]

let sharded_once ~smoke ~seed =
  let cfg = sharded_config ~smoke ~seed ~telemetry:true in
  let setup =
    time_setup ~smoke (fun () ->
        let engine = Engine.create ~seed () in
        let sites = Shard.leader_sites cfg.Shard.placement ~shards:cfg.Shard.shards in
        ( List.init cfg.Shard.shards (fun g ->
              let net = Net.create engine ~nodes:(wan_nodes ()) in
              let tel = Telemetry.create ~n:regions () in
              Net.set_metrics net tel.Telemetry.metrics;
              Harness.make_instance ~telemetry:tel ~batch_size:cfg.Shard.batch_size
                ~batch_delay_us:cfg.Shard.batch_delay_us (Shard.group_protocol cfg g)
                net
                ~leader:(Topology.site_index sites.(g))),
          Workload.create ~seed ~regions cfg.Shard.workload ))
  in
  let r, wall_s, speed = probed (fun () -> Shard.run cfg) in
  let all = shard_all r in
  let ops = shard_ops r in
  {
    metrics =
      sim_e2e ~ops ~wall_s ~speed ~p50_us:(Stats.percentile_us all 0.50)
        ~p99_us:(Stats.percentile_us all 0.99) ~setup
      @ Report.
          [
            exact "sim_tput_ops_s" "1/s" r.Shard.throughput_ops;
            exact "failed_frac" "frac"
              (float_of_int r.Shard.retries /. float_of_int (ops + r.Shard.retries));
            count "messages" r.Shard.messages;
          ];
    problems = violations_problem r.Shard.violations;
    attempted = ops + r.Shard.retries;
    failed = r.Shard.retries;
  }

(* ---- failover: Cluster.make MultiPaxos, leader crash and restart ---- *)

let ol_fields (r : ol_result) =
  [
    ("ops", r.facts.ops);
    ("retries", r.facts.retries);
    ("sim_events", r.facts.sim_events);
    ("messages", r.facts.messages);
    ("p50_us", r.facts.p50_us);
    ("p99_us", r.facts.p99_us);
  ]

let failover_once ~smoke ~seed =
  let o = failover_config ~smoke ~seed in
  let setup =
    time_setup ~smoke (fun () ->
        failover_system ~seed ~telemetry:false ~traced:None)
  in
  let sys = failover_system ~seed ~telemetry:false ~traced:None in
  let r, wall_s, speed = probed (fun () -> run_openloop o sys (Spans.off ())) in
  {
    metrics =
      sim_e2e ~ops:r.facts.ops ~wall_s ~speed ~p50_us:r.facts.p50_us
        ~p99_us:r.facts.p99_us ~setup
      @ Report.
          [
            exact "unavail_ms" "ms" (ms_of_us (Option.value ~default:0 r.unavail_us));
            exact "failed_frac" "frac"
              (float_of_int (r.retried + r.facts.failed) /. float_of_int r.facts.attempted);
            count "retried" r.retried;
            count "unanswered" r.facts.failed;
            count "sim_events" r.facts.sim_events;
            count "messages" r.facts.messages;
          ];
    problems = r.facts.problems;
    attempted = r.facts.attempted;
    failed = r.facts.failed;
  }

(* ---- tcp-loopback: three server.exe (raft) ---- *)

(* The TCP steps: 2k ops/s, then in the full ledger the loaded sweep. *)
let base_rate = 2000
let loaded_rates = [ 8000; 16000; 32000; 48000 ]

let step_rows (st : Loopback.step) =
  let k = Printf.sprintf "%dk" (st.Loopback.rate / 1000) in
  let ms us = float_of_int us /. 1000.0 in
  Report.
    [
      wall ("tcp_p50_ms_at" ^ k) "ms" (ms st.Loopback.p50_us);
      wall ("tcp_p99_ms_at" ^ k) "ms" (ms st.Loopback.p99_us);
      wall ("gen_lag_p99_ms_at" ^ k) "ms" (ms st.Loopback.lag_p99_us);
    ]

let with_cluster (s : Loopback.session) f =
  Fun.protect ~finally:(fun () -> ignore (Loopback.stop s.Loopback.c)) (fun () -> f s)

(* Each session is a fresh cluster: set up (spawn -> READY -> first
   reply on both connections), the 2k step, then replica agreement.
   Which cores the four processes land on holds for a whole session and
   moves the tail by several percent, so the 2k rows are medians over
   sessions.  Agreement is checked before the loaded sweep, which runs
   on the last session's cluster: past about 160k committed ops the
   snapshot reply outgrows the transport's 4 MB send buffer and is
   dropped (README, "Known limits"). *)
let tcp_once ~mode ~seed =
  let t0 = Clock.now_ns () in
  let sessions, loaded, warm_s, drain_s =
    match mode with
    | Ledger -> (3, loaded_rates, 1.0, 1.0)
    | Smoke -> (1, [], 0.5, 1.0)
    | Bench _ -> (4, [], 1.0, 1.0)
  in
  let base_measure_s =
    match mode with
    | Ledger -> 4.0
    | Smoke -> 1.0
    | Bench secs ->
        (* What the budget leaves after each session's set-up, warm-up,
           drain, agreement check and teardown (about 1.5 s). *)
        Float.max 3.0 (secs -. Clock.seconds_since t0 -. (float_of_int sessions *. 1.5))
  in
  let step s rate ~measure_s = Loopback.run_step s ~rate ~warm_s ~measure_s ~drain_s in
  let session i =
    let s, setup_s = Loopback.setup ~n:3 ~seed ~targets:[| 0; 1 |] in
    with_cluster s (fun s ->
        let st = step s base_rate ~measure_s:(base_measure_s /. float_of_int sessions) in
        let rss = Loopback.peak_rss_sum s in
        let problems = Loopback.agreement s in
        let rec sweep = function
          | [] -> []
          | rate :: rest ->
              let st = step s rate ~measure_s:4.0 in
              if Loopback.passes st then st :: sweep rest else [ st ]
        in
        let swept = if i = sessions - 1 && Loopback.passes st then sweep loaded else [] in
        (setup_s, st, rss, problems, swept))
  in
  let runs = List.init sessions session in
  let base = List.map (fun (_, st, _, _, _) -> st) runs in
  let swept = List.concat_map (fun (_, _, _, _, sw) -> sw) runs in
  let med f = Report.median (List.map f runs) in
  let sum f = List.fold_left (fun a st -> a + f st) 0 in
  let answered = sum (fun st -> st.Loopback.answered) base in
  let served_s = List.fold_left (fun a st -> a +. st.Loopback.served_s) 0.0 base in
  let ms name f = Report.wall name "ms" (med (fun (_, st, _, _, _) -> float_of_int (f st)) /. 1000.0) in
  let steps = base @ swept in
  let attempted = sum (fun st -> st.Loopback.measured) steps in
  let failed = sum (fun st -> st.Loopback.unanswered) steps in
  let max_rate =
    List.fold_left
      (fun best st -> if Loopback.passes st then max best st.Loopback.rate else best)
      0
      (if List.for_all Loopback.passes base then steps else [])
  in
  {
    metrics =
      Report.
        [
          (* Open loop at a fixed rate: the throughput is the offered
             rate whatever the host's speed, so it is not scaled. *)
          wall "scaled_ops_per_s" "1/s" (float_of_int answered /. served_s);
          ms "p50_ms" (fun st -> st.Loopback.p50_us);
          ms "p99_ms" (fun st -> st.Loopback.p99_us);
          wall "peak_rss_mb" "MB" (med (fun (_, _, rss, _, _) -> rss));
          wall "setup_s" "s" (med (fun (t, _, _, _, _) -> t));
          wall "wall_ops_per_s" "1/s" (float_of_int answered /. served_s);
          wall "n" "count" (float_of_int answered);
          wall "stolen_s" "s" (List.fold_left (fun a st -> a +. st.Loopback.stolen_s) 0.0 base);
          ms "tcp_p50_ms_at2k" (fun st -> st.Loopback.p50_us);
          ms "tcp_p99_ms_at2k" (fun st -> st.Loopback.p99_us);
          ms "gen_lag_p99_ms_at2k" (fun st -> st.Loopback.lag_p99_us);
        ]
      @ List.concat_map step_rows swept
      @ Report.
          [
            wall "tcp_max_rate_ops_s" "1/s" (float_of_int max_rate);
            wall "failed_frac" "frac" (float_of_int failed /. float_of_int (max 1 attempted));
          ];
    problems = List.concat_map (fun (_, _, _, p, _) -> p) runs;
    attempted;
    failed;
  }

(* ---- traced runs ---- *)

let write_spans ~trace_out ~workload sp =
  match trace_out with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Spans.write sp (Filename.concat dir (workload ^ ".spans.tsv"))

(* One traced measurement: the untraced run with telemetry off and on,
   the traced mirror, then the two replays over what it recorded.  The
   first run in a process pays for growing the heap, which later runs
   reuse (the runtime keeps it mapped), so a discarded run goes first
   and the three compared runs all start warm. *)
let traced ~workload ~trace_out ~seed ~node_lists ~untraced ~mirror =
  ignore (Sys.opaque_identity (untraced ~telemetry:true));
  let _, wall_off_s = timed (fun () -> untraced ~telemetry:false) in
  let u_result, wall_on_s, minor_words, major_collections =
    gc_counted (fun () -> untraced ~telemetry:true)
  in
  let u_fields, u_ops = u_result in
  let sp = Spans.create () and rc = recorder () in
  let f, traced_wall_s = timed (fun () -> mirror sp rc) in
  write_spans ~trace_out ~workload sp;
  let null = Layers.null_replay ~seed ~node_lists rc in
  let codec = Layers.codec_replay rc in
  let u = { Layers.wall_on_s; wall_off_s; minor_words; major_collections; u_ops } in
  {
    metrics = Layers.metrics ~f ~sp ~traced_wall_s ~u ~null ~codec;
    problems = Layers.problems ~f ~untraced:u_fields ~sp ~codec;
    attempted = f.attempted;
    failed = f.failed;
  }

let ops_of fields =
  match List.find_opt (fun (n, _) -> String.equal n "ops") fields with
  | Some (_, v) -> v
  | None -> 0

let with_ops fields = (fields, ops_of fields)

let lease_traced ~smoke ~seed ~trace_out =
  traced ~workload:"lease-reads" ~trace_out ~seed
    ~node_lists:[ wan_nodes () ]
    ~untraced:(fun ~telemetry ->
      with_ops (lease_untraced (Harness.run (lease_config ~smoke ~seed ~telemetry))))
    ~mirror:(mirror_harness (lease_config ~smoke ~seed ~telemetry:true))

let sharded_traced ~smoke ~seed ~trace_out =
  let cfg = sharded_config ~smoke ~seed ~telemetry:true in
  traced ~workload:"sharded-writes" ~trace_out ~seed
    ~node_lists:(List.init cfg.Shard.shards (fun _ -> wan_nodes ()))
    ~untraced:(fun ~telemetry ->
      with_ops (shard_untraced (Shard.run (sharded_config ~smoke ~seed ~telemetry))))
    ~mirror:(mirror_shard cfg)

let openloop_traced ~workload ~o ~system ~node_lists ~seed ~trace_out =
  traced ~workload ~trace_out ~seed ~node_lists
    ~untraced:(fun ~telemetry ->
      let sys = system ~seed ~telemetry ~traced:None in
      with_ops (ol_fields (run_openloop o sys (Spans.off ()))))
    ~mirror:(fun sp rc ->
      let sys = system ~seed ~telemetry:true ~traced:(Some (rc, sp)) in
      (run_openloop o sys sp).facts)

let failover_traced ~smoke ~seed ~trace_out =
  openloop_traced ~workload:"failover" ~o:(failover_config ~smoke ~seed)
    ~system:failover_system ~node_lists:[ wan_nodes () ] ~seed ~trace_out

(* The TCP workload's layers: the sim layers from the in-process twin,
   the transport from a one-node cluster at 2k ops/s and the three-node
   cluster at 16k ops/s (2k in smoke). *)
let tcp_traced ~smoke ~seed ~trace_out =
  let twin =
    let seed = Int64.of_int seed in
    openloop_traced ~workload:"tcp-loopback" ~o:(twin_config ~smoke ~seed)
      ~system:twin_system ~node_lists:[ Shell.nodes_for 3 ] ~seed ~trace_out
  in
  let warm_s, measure_s, loaded = if smoke then (0.5, 1.0, 2000) else (1.0, 4.0, 16000) in
  let single, _ = Loopback.setup ~n:1 ~seed ~targets:[| 0 |] in
  let one =
    with_cluster single (fun s ->
        Loopback.run_step s ~rate:2000 ~warm_s ~measure_s ~drain_s:1.0)
  in
  let s, _ = Loopback.setup ~n:3 ~seed ~targets:[| 0; 1 |] in
  let st, problems =
    with_cluster s (fun s ->
        let st = Loopback.run_step s ~rate:loaded ~warm_s ~measure_s ~drain_s:1.0 in
        (st, Loopback.agreement s))
  in
  let cpu = Array.fold_left ( + ) 0 st.Loopback.cpu_us in
  {
    twin with
    metrics =
      twin.metrics
      @ Report.
          [
            wall "netshell.single_node_p50_ms" "ms"
              (float_of_int one.Loopback.p50_us /. 1000.0);
            wall "netshell.server_cpu_us_per_op" "us"
              (float_of_int cpu /. float_of_int (max 1 st.Loopback.answered));
            wall "netshell.leader_cpu_frac" "frac"
              (float_of_int st.Loopback.cpu_us.(0) /. 1e6 /. st.Loopback.window_s);
            wall "netshell.client_send_us" "us" st.Loopback.send_us;
            wall "netshell.client_recv_us" "us" st.Loopback.recv_us;
            wall "netshell.gen_lag_p99_ms" "ms"
              (float_of_int st.Loopback.lag_p99_us /. 1000.0);
          ];
    problems = twin.problems @ problems;
  }

let once ~workload ~mode ~seed ~traced ~trace_out =
  let smoke = match mode with Smoke -> true | Ledger | Bench _ -> false in
  let seed64 = Int64.of_int seed in
  match (workload, traced) with
  | "lease-reads", false -> lease_once ~smoke ~seed:seed64
  | "lease-reads", true -> lease_traced ~smoke ~seed:seed64 ~trace_out
  | "sharded-writes", false -> sharded_once ~smoke ~seed:seed64
  | "sharded-writes", true -> sharded_traced ~smoke ~seed:seed64 ~trace_out
  | "failover", false -> failover_once ~smoke ~seed:seed64
  | "failover", true -> failover_traced ~smoke ~seed:seed64 ~trace_out
  | "tcp-loopback", false -> tcp_once ~mode ~seed
  | "tcp-loopback", true -> tcp_traced ~smoke ~seed ~trace_out
  | w, _ -> invalid_arg ("unknown workload " ^ w)

(* ---- the child protocol ---- *)

let print_run ~workload r =
  List.iter (fun m -> print_endline (Report.line ~workload m)) r.metrics;
  List.iter (fun p -> print_endline ("problem " ^ p)) r.problems;
  Printf.printf "attempted %d\nfailed %d\n%!" r.attempted r.failed

let parse_run lines =
  let r =
    List.fold_left
      (fun r l ->
        match String.index_opt l ' ' with
        | None -> r
        | Some i -> (
            let key = String.sub l 0 i
            and rest = String.sub l (i + 1) (String.length l - i - 1) in
            match key with
            | "problem" -> { r with problems = rest :: r.problems }
            | "attempted" -> { r with attempted = int_of_string rest }
            | "failed" -> { r with failed = int_of_string rest }
            | _ -> (
                match Report.parse_line l with
                | Some (_, m) -> { r with metrics = m :: r.metrics }
                | None -> r)))
      { metrics = []; problems = []; attempted = 0; failed = 0 }
      lines
  in
  { r with metrics = List.rev r.metrics; problems = List.rev r.problems }

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

let spawn_once args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: "once" :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = read_lines ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let run = parse_run lines in
  match status with
  | Unix.WEXITED 0 -> run
  | Unix.WEXITED c ->
      { run with problems = run.problems @ [ Printf.sprintf "run exited with code %d" c ] }
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      { run with problems = run.problems @ [ Printf.sprintf "run killed by signal %d" s ] }

let reduce ~workload (runs : run list) =
  match runs with
  | [] -> invalid_arg "reduce: no runs"
  | first :: _ ->
      let problems = List.concat_map (fun r -> r.problems) runs in
      let values m = List.filter_map (fun r -> Report.find m.Report.name r.metrics) runs in
      let metrics, disagreements =
        List.fold_left
          (fun (ms, bad) (m : Report.metric) ->
            let vs = List.map (fun (x : Report.metric) -> x.Report.value) (values m) in
            match m.Report.kind with
            | Report.Exact ->
                if List.for_all (fun v -> Float.equal v m.Report.value) vs then (m :: ms, bad)
                else
                  ( m :: ms,
                    Printf.sprintf "%s differs across runs of one seed" m.Report.name :: bad )
            | Report.Wall -> ({ m with Report.value = Report.median vs } :: ms, bad))
          ([], []) first.metrics
      in
      {
        Report.workload;
        correct = List.is_empty problems && List.is_empty disagreements;
        problems = problems @ List.rev disagreements;
        attempted = first.attempted;
        failed = first.failed;
        metrics = List.rev metrics;
      }

(* Runs of one workload: one, or in [Bench] mode as many as fit. *)
let measure ~workload ~mode ~seed ~traced ~trace_out =
  let args =
    [ workload; "--seed"; string_of_int seed ]
    @ (match mode with
      | Ledger -> []
      | Smoke -> [ "--smoke" ]
      | Bench secs -> [ "--seconds"; Report.number secs ])
    @ (if traced then [ "--trace"; "1" ] else [])
    @ match trace_out with Some d -> [ "--trace-out"; d ] | None -> []
  in
  let t0 = Clock.now_ns () in
  let rec go acc =
    let r = spawn_once args in
    let acc = r :: acc in
    match mode with
    | Bench secs
      when Clock.seconds_since t0 < secs
           && (traced || not (String.equal workload "tcp-loopback")) ->
        go acc
    | Bench _ | Ledger | Smoke -> List.rev acc
  in
  reduce ~workload (go [])
