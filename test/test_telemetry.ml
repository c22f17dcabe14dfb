(* Telemetry oracles:

   - determinism: the same (protocol, seed) must produce a byte-identical
     span dump and metric snapshot, both through the kvstore harness and
     through a full nemesis run (whose trace fingerprint now covers the
     METRIC lines);
   - a batch of one: at [batch_size = 1] every command still goes through
     the batch accumulator, which flushes it alone;
   - histogram accuracy: the log-bucketed quantile is within the
     documented bucket error of the exact value;
   - disabled telemetry is free: marking spans and bumping counters on
     the disabled registry allocates nothing;
   - waterfalls account for everything: per request, the sum of phase
     durations (= last mark - first mark) equals the recorded latency;
   - probes cover every replica: a telemetry run leaves non-zero
     protocol counters on all five nodes;
   - probe parity: every core registers a probe for each shared event
     class, modulo reasoned structural exemptions. *)

module Tel = Raftpax_telemetry
module Telemetry = Tel.Telemetry
module Metrics = Tel.Metrics
module Span = Tel.Span
module H = Raftpax_kvstore.Harness
module W = Raftpax_kvstore.Workload
module N = Raftpax_nemesis
module Protocol = Raftpax_kvstore.Protocol
module Sim = Raftpax_sim

let workload =
  {
    W.read_fraction = 0.5;
    conflict_rate = 0.1;
    value_size = 8;
    records = 1000;
    clients_per_region = 2;
    key_dist = W.Uniform;
  }

let traced_run ?(batch_size = 1) ?(batch_delay_us = 0) proto seed =
  H.run
    (H.config ~duration_s:2 ~warmup_s:0 ~cooldown_s:0 ~seed ~tracing:true
       ~batch_size ~batch_delay_us proto workload)

let telemetry_of (r : H.result) =
  match r.H.telemetry with
  | Some tel -> tel
  | None -> Alcotest.fail "tracing run returned no telemetry"

(* ---- determinism ---- *)

(* FNV-1a, 64-bit: a compact, dependency-free digest of a dump. *)
let fnv1a (s : string) =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 1099511628211L)
    s;
  Printf.sprintf "%016Lx" !h

(* Committed digests of the seed-7 metric snapshot and span dump, per
   protocol, at batch sizes 1 and 16.  Comparing a run only against a
   second run would let a refactor that miscounts a probe or drops a
   span mark in both pass; these pin the observable telemetry itself.
   A change that moves them on purpose must say why. *)
let telemetry_golden =
  [
    (H.Raft_pql, 1, ("e829b16e51be6ff5", "a306b05a54b42427"));
    (H.Raft_pql, 16, ("59bde8f5ef14d13f", "cc0a335a858c18a5"));
    (H.Mencius, 1, ("7a9cb48393811e52", "f0bb10379ee672fd"));
    (H.Mencius, 16, ("c0c8d21171c104df", "154ce5ea8622b373"));
    (H.Multipaxos, 1, ("48376d5f23f2a25d", "4995991d656b9343"));
    (H.Multipaxos, 16, ("f711da7ae59f8a6a", "e16072e41fab4748"));
  ]

(* The [batch_flush_cmds] histogram summed over the five replicas:
   (flushes, commands flushed). *)
let flush_totals (tel : Telemetry.t) =
  List.fold_left
    (fun (count, sum) node ->
      let h = Metrics.histogram tel.Telemetry.metrics "batch_flush_cmds" ~node in
      (count + Metrics.hist_count h, sum + Metrics.hist_sum h))
    (0, 0) [ 0; 1; 2; 3; 4 ]

let test_harness_determinism () =
  List.iter
    (fun (proto, batch_size, (snapshot_digest, span_digest)) ->
      let run () =
        telemetry_of
          (traced_run ~batch_size ~batch_delay_us:2_000 proto 7L)
      in
      let a = run () and b = run () in
      let name what =
        Printf.sprintf "%s batch %d %s" (H.protocol_name proto) batch_size what
      in
      Alcotest.(check string)
        (name "metric snapshot")
        (Telemetry.snapshot_string a)
        (Telemetry.snapshot_string b);
      Alcotest.(check string)
        (name "span dump")
        (Span.dump a.Telemetry.spans)
        (Span.dump b.Telemetry.spans);
      Alcotest.(check string)
        (name "metric snapshot digest")
        snapshot_digest
        (fnv1a (Telemetry.snapshot_string a));
      Alcotest.(check string)
        (name "span dump digest")
        span_digest
        (fnv1a (Span.dump a.Telemetry.spans));
      if batch_size = 1 then begin
        let flushes, cmds = flush_totals a in
        Alcotest.(check bool) (name "flushes observed") true (flushes > 0);
        Alcotest.(check int) (name "one command per flush") flushes cmds
      end)
    telemetry_golden

let test_nemesis_determinism () =
  let cfg = N.Nemesis.config ~chaos_steps:5 ~clients:2 N.Cluster.Raft ~seed:11 in
  let a = N.Nemesis.run cfg in
  let b = N.Nemesis.run cfg in
  Alcotest.(check string)
    "trace fingerprint (covers METRIC lines)"
    (N.Trace.fingerprint a.N.Nemesis.trace)
    (N.Trace.fingerprint b.N.Nemesis.trace);
  Alcotest.(check string)
    "metric snapshot"
    (Telemetry.snapshot_string a.N.Nemesis.telemetry)
    (Telemetry.snapshot_string b.N.Nemesis.telemetry)

(* ---- histogram accuracy ---- *)

let test_histogram_quantiles () =
  let m = Metrics.create ~n:1 in
  let h = Metrics.histogram m "lat" ~node:0 in
  (* 1..1000 uniformly: exact p-quantile of the sample is about 1000p *)
  for v = 1 to 1000 do
    Metrics.observe h v
  done;
  Alcotest.(check int) "count" 1000 (Metrics.hist_count h);
  Alcotest.(check int) "sum" 500_500 (Metrics.hist_sum h);
  List.iter
    (fun p ->
      let exact = int_of_float (ceil (p *. 1000.0)) in
      let q = Metrics.quantile h p in
      if q < exact then
        Alcotest.failf "quantile %.2f: %d below exact %d" p q exact;
      if q > 2 * max 1 exact then
        Alcotest.failf "quantile %.2f: %d beyond bucket error of exact %d" p q
          exact)
    [ 0.50; 0.90; 0.99 ]

(* The shift loop [Metrics.bucket_of] replaced: one turn per bit. *)
let bucket_by_shifts v =
  if v < 2 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      incr i
    done;
    min !i 61
  end

let prop_bucket_of =
  QCheck.Test.make ~name:"bucket_of equals the shift loop" ~count:2000
    QCheck.(pair int (int_bound 62))
    (fun (x, k) ->
      (* [x lsr k] spreads the samples over every bit width. *)
      List.for_all
        (fun v -> Metrics.bucket_of v = bucket_by_shifts v)
        [ 0; 1; max_int; min_int; x; x lsr k; 1 lsl k; (1 lsl k) - 1 ])

(* ---- disabled telemetry allocates nothing ---- *)

let test_disabled_zero_alloc () =
  let spans = Span.disabled in
  let m = Metrics.disabled in
  let c = Metrics.counter m "noop" ~node:0 in
  let h = Metrics.histogram m "noop_h" ~node:0 in
  (* warm up so any one-time boxing is out of the measured window *)
  Span.mark spans ~trace:0 ~node:0 ~phase:"p" ~now:0;
  Metrics.inc c;
  Metrics.observe h 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Span.mark spans ~trace:i ~node:0 ~phase:"p" ~now:i;
    Metrics.inc c;
    Metrics.observe h i
  done;
  let delta = Gc.minor_words () -. w0 in
  (* a handful of words come from boxing the Gc counters themselves; real
     per-mark allocation would cost tens of thousands of words *)
  if delta > 100.0 then
    Alcotest.failf "disabled telemetry allocated %.0f minor words" delta

(* ---- waterfalls account for the full latency ---- *)

let test_waterfall_sums () =
  List.iter
    (fun proto ->
      let r = traced_run proto 3L in
      let tel = telemetry_of r in
      if r.H.requests = [] then
        Alcotest.failf "%s: no requests traced" (H.protocol_name proto);
      List.iter
        (fun (req : H.request) ->
          let total = Span.total_us tel.Telemetry.spans ~trace:req.H.trace in
          if total <> req.H.latency_us then
            Alcotest.failf "%s: trace %d phase sum %dus <> latency %dus"
              (H.protocol_name proto) req.H.trace total req.H.latency_us)
        r.H.requests)
    [ H.Raft_pql; H.Raft; H.Mencius; H.Multipaxos ]

(* ---- every replica shows protocol activity ---- *)

let test_counters_all_nodes () =
  let r = traced_run H.Raft_pql 1L in
  let tel = telemetry_of r in
  let m = tel.Telemetry.metrics in
  for node = 0 to 4 do
    if Metrics.counter_value m "commits" ~node = 0 then
      Alcotest.failf "node %d: commits counter is zero" node
  done;
  Alcotest.(check bool)
    "appends flow" true
    (Metrics.counter_value m "appends_sent" ~node:0 > 0
    || Metrics.counter_value m "appends_sent" ~node:1 > 0)

(* ---- probe parity ----

   The three cores register their probes at creation.  A shared event
   class is one event spelled per core (the paper's vocabulary
   translation); each core registers at least one spelling unless the
   table gives the structural reason it cannot.  The probes every core
   has by construction ([commits], [acks_sent], [retransmits]) are
   registered once by the replica base and need no class. *)

let probe_classes =
  [
    ("leader-change-started", [ "elections"; "revocations_started" ], []);
    ( "leader-change-won",
      [ "leader_wins"; "revocations_value"; "revocations_skip" ],
      [] );
    ( "epoch-change",
      [ "term_changes"; "ballot_changes" ],
      [
        ( Protocol.Mencius,
          "slots are positionally owned; revocation advances no term/ballot \
           counter" );
      ] );
    ( "keepalive",
      [ "heartbeats"; "skips_announced" ],
      [
        ( Protocol.Multipaxos,
          "the revocation watchdog reads the failure detector; the runtime \
           sends no keepalive traffic" );
      ] );
    ("replicate-sent", [ "appends_sent"; "accepts_sent" ], []);
    ( "forward",
      [ "forwards" ],
      [
        ( Protocol.Mencius,
          "every replica leads its own slots; there is no leader to redirect \
           to" );
      ] );
  ]

let counter_names proto =
  let engine = Sim.Engine.create ~seed:1L () in
  let net =
    Sim.Net.create engine
      ~nodes:(List.init 3 (fun id -> { Sim.Net.id; site = List.nth Sim.Topology.sites id }))
  in
  let telemetry = Telemetry.create ~n:3 () in
  ignore (Protocol.make ~telemetry proto net ~leader:0 : Protocol.runtime);
  Metrics.counter_names (Telemetry.metrics_of_snapshot (Telemetry.snapshot telemetry))

let cores =
  lazy
    (List.map
       (fun p -> (p, counter_names p))
       [ Protocol.Raft; Protocol.Mencius; Protocol.Multipaxos ])

let test_probe_parity () =
  let cores = Lazy.force cores in
  List.iter
    (fun (cls, aliases, exempt) ->
      List.iter
        (fun (p, names) ->
          if
            (not (List.mem_assoc p exempt))
            && not (List.exists (fun a -> List.mem a names) aliases)
          then
            Alcotest.failf "%s registers no probe for shared event class %s (%s)"
              (Protocol.name p) cls (String.concat "/" aliases))
        cores)
    probe_classes;
  (* Majority vote on names outside the class table: one registered by
     two cores is missing from the third. *)
  let classified = List.concat_map (fun (_, aliases, _) -> aliases) probe_classes in
  List.iter
    (fun name ->
      match List.partition (fun (_, names) -> List.mem name names) cores with
      | [ _; _ ], [ (p, _) ] when not (List.mem name classified) ->
          Alcotest.failf "%s registers no probe %s; the other two cores do"
            (Protocol.name p) name
      | _ -> ())
    (List.sort_uniq String.compare (List.concat_map snd cores))

(* An exemption is a claim that the core cannot register the class; a
   core that gains one of its spellings makes the exemption stale. *)
let test_probe_exemptions () =
  let cores = Lazy.force cores in
  List.iter
    (fun (cls, aliases, exempt) ->
      List.iter
        (fun (p, _reason) ->
          let names = List.assoc p cores in
          match List.filter (fun a -> List.mem a names) aliases with
          | [] -> ()
          | a :: _ ->
              Alcotest.failf "%s is exempt from %s but registers %s"
                (Protocol.name p) cls a)
        exempt)
    probe_classes

let () =
  Alcotest.run "telemetry"
    [
      ( "determinism",
        [
          Alcotest.test_case "harness same-seed" `Quick test_harness_determinism;
          Alcotest.test_case "nemesis same-seed" `Quick test_nemesis_determinism;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          QCheck_alcotest.to_alcotest prop_bucket_of;
          Alcotest.test_case "disabled zero-alloc" `Quick test_disabled_zero_alloc;
          Alcotest.test_case "counters on all nodes" `Quick test_counters_all_nodes;
          Alcotest.test_case "probe parity" `Quick test_probe_parity;
          Alcotest.test_case "probe exemptions" `Quick test_probe_exemptions;
        ] );
      ( "spans",
        [ Alcotest.test_case "waterfall sums" `Quick test_waterfall_sums ] );
    ]
