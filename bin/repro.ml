(* raftpax — command-line front end.

   Subcommands:
     check       model-check a spec's invariants
     refine      check a refinement mapping
     port        run the porting pipeline and its Figure-5 obligations
     simulate    run a protocol under the YCSB-like workload
     trace       per-request span waterfalls from a traced run
     shard       sharded multi-group run with per-group lin oracles
     nemesis     deterministic fault-injection sweep
     mcheck      explicit-state model checking of the real runtimes
     topology    print the WAN model
     net         real-network loopback demo / sim-vs-net cross-check *)

open Cmdliner
open Raftpax_core
module Sim = Raftpax_sim
module KV = Raftpax_kvstore
module Nem = Raftpax_nemesis
module MC = Raftpax_mcheck
module Tel = Raftpax_telemetry

(* ---- shared arguments ---- *)

let cfg_of ~acceptors ~values ~ballots ~indexes =
  {
    Proto_config.acceptors;
    values;
    max_ballot = ballots;
    max_index = indexes;
  }

let acceptors =
  Arg.(value & opt int 3 & info [ "acceptors" ] ~doc:"Number of acceptors.")

let values = Arg.(value & opt int 1 & info [ "values" ] ~doc:"Distinct values.")
let ballots = Arg.(value & opt int 1 & info [ "ballots" ] ~doc:"Max ballot.")
let indexes = Arg.(value & opt int 0 & info [ "indexes" ] ~doc:"Max log index.")

let max_states =
  Arg.(
    value
    & opt int 200_000
    & info [ "max-states" ] ~doc:"Bound on explored states.")

let spec_arg names =
  Arg.(
    required
    & pos 0 (some (enum names)) None
    & info [] ~docv:"SPEC" ~doc:"Which specification.")

(* ---- check ---- *)

let specs cfg =
  [
    ("multipaxos", (Spec_multipaxos.spec cfg, Spec_multipaxos.invariants cfg));
    ("raft-star", (Spec_raft_star.spec cfg, Spec_raft_star.invariants cfg));
    ("raft", (Spec_raft_vanilla.spec cfg, Spec_raft_vanilla.invariants cfg));
    ( "pql",
      ( Port.apply (Opt_pql.delta cfg) (Spec_multipaxos.spec cfg),
        Opt_pql.invariants cfg @ Spec_multipaxos.invariants cfg ) );
    ( "mencius",
      ( Port.apply (Opt_mencius.delta cfg) (Spec_multipaxos.spec cfg),
        Opt_mencius.invariants cfg @ Spec_multipaxos.invariants cfg ) );
  ]

let run_check which acceptors values ballots indexes max_states =
  let cfg = cfg_of ~acceptors ~values ~ballots ~indexes in
  let spec, invariants = List.assoc which (specs cfg) in
  Fmt.pr "checking %s on %d acceptors, %d values, ballots<=%d, indexes<=%d@."
    which acceptors values ballots indexes;
  let r = Explorer.check ~max_states ~invariants spec in
  Fmt.pr "%a@." Explorer.pp_result r;
  match r with Explorer.Pass _ -> 0 | _ -> 1

let check_cmd =
  let which =
    spec_arg
      [
        ("multipaxos", "multipaxos");
        ("raft-star", "raft-star");
        ("raft", "raft");
        ("pql", "pql");
        ("mencius", "mencius");
      ]
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Model-check a protocol spec's invariants.")
    Term.(
      const run_check $ which $ acceptors $ values $ ballots $ indexes
      $ max_states)

(* ---- refine ---- *)

let run_refine which acceptors values ballots indexes max_states =
  let cfg = cfg_of ~acceptors ~values ~ballots ~indexes in
  let low, high, map =
    match which with
    | `Raft_star_paxos ->
        (Spec_raft_star.spec cfg, Spec_multipaxos.spec cfg, Spec_raft_star.to_paxos cfg)
    | `Raft_paxos ->
        ( Spec_raft_vanilla.spec cfg,
          Spec_multipaxos.spec cfg,
          Spec_raft_vanilla.to_paxos cfg )
    | `Log_kv -> (Example_kv.log_store, Example_kv.kv_store, Example_kv.log_to_kv)
  in
  let r = Refinement.check ~max_states ~max_hops:4 ~low ~high ~map () in
  Fmt.pr "%a@." Refinement.pp_result r;
  match r with Refinement.Refines _ -> 0 | _ -> 1

let refine_cmd =
  let which =
    spec_arg
      [
        ("raft-star=>paxos", `Raft_star_paxos);
        ("raft=>paxos", `Raft_paxos);
        ("log=>kv", `Log_kv);
      ]
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Check a refinement mapping (raft=>paxos, the paper's negative \
          result, holds at the default instance and fails from --ballots 2, \
          where a Raft leader keeps its own log and Paxos's BecomeLeader \
          adopts its quorum's entries).")
    Term.(
      const run_refine $ which $ acceptors $ values $ ballots $ indexes
      $ max_states)

(* ---- port ---- *)

let raft_implies = function
  | "IncreaseHighestBallot" -> [ "IncreaseHighestBallot" ]
  | "Phase1a" -> [ "Phase1a" ]
  | "Phase1b" -> [ "Phase1b" ]
  | "BecomeLeader" -> [ "BecomeLeader" ]
  | "ProposeEntries" -> [ "Propose" ]
  | "AcceptEntries" -> [ "Accept" ]
  | _ -> []

let raft_label_map ~b_action ~a_action:_ label =
  match b_action with
  | "ProposeEntries" -> Label.keep [ "a"; "i"; "v" ] label
  | _ -> label

let run_port which acceptors values ballots indexes max_states =
  let cfg = cfg_of ~acceptors ~values ~ballots ~indexes in
  let delta =
    match which with `Pql -> Opt_pql.delta cfg | `Mencius -> Opt_mencius.delta cfg
  in
  let mp = Spec_multipaxos.spec cfg in
  let rs = Spec_raft_star.spec cfg in
  Fmt.pr "delta:@.%a@.@." Delta.pp delta;
  Fmt.pr "1. non-mutating classification:@.";
  (match Port.check_non_mutating ~max_states ~base:mp ~delta () with
  | Refinement.Refines r -> Fmt.pr "   ok (%d states)@." r.checked_states
  | Refinement.Fails (f, _) -> Fmt.pr "   FAILS at %s@." f.b_action);
  Fmt.pr "2. porting to Raft* and checking the Figure-5 obligations:@.";
  let r1, r2 =
    Port.check_ported ~max_states ~max_hops:4 ~low:rs ~high:mp ~delta
      ~map:(Spec_raft_star.to_paxos cfg) ~implies:raft_implies
      ~label_map:raft_label_map ()
  in
  let show name = function
    | Refinement.Refines r -> Fmt.pr "   %s: ok (%d states)@." name r.checked_states
    | Refinement.Fails (f, _) -> Fmt.pr "   %s: FAILS at %s(%s)@." name f.b_action f.b_label
  in
  show "B^D => A^D" r1;
  show "B^D => B  " r2;
  match (r1, r2) with Refinement.Refines _, Refinement.Refines _ -> 0 | _ -> 1

let port_cmd =
  let which = spec_arg [ ("pql", `Pql); ("mencius", `Mencius) ] in
  Cmd.v
    (Cmd.info "port" ~doc:"Port an optimization from MultiPaxos to Raft*.")
    Term.(
      const run_port $ which $ acceptors $ values $ ballots $ indexes
      $ max_states)

(* ---- simulate ---- *)

let harness_protocols =
  List.map (fun p -> (KV.Protocol.cli_name p, p)) KV.Protocol.all

let cli_names = String.concat ", " (List.map fst harness_protocols)

let run_simulate proto duration clients read_pct conflict_pct size leader_site =
  let workload =
    {
      KV.Workload.read_fraction = float_of_int read_pct /. 100.0;
      conflict_rate = float_of_int conflict_pct /. 100.0;
      value_size = size;
      records = 100_000;
      clients_per_region = clients;
      key_dist = KV.Workload.Uniform;
    }
  in
  let leader_site =
    List.find
      (fun s -> String.lowercase_ascii (Sim.Topology.site_name s) = leader_site)
      Sim.Topology.sites
  in
  let cfg =
    KV.Harness.config ~leader_site ~duration_s:duration proto workload
  in
  let r = KV.Harness.run cfg in
  Fmt.pr "%s: %.0f ops/s@." (KV.Harness.protocol_name proto) r.KV.Harness.throughput_ops;
  Fmt.pr "  reads  (leader region):    %a@." Sim.Stats.pp_summary r.KV.Harness.read_leader;
  Fmt.pr "  reads  (follower regions): %a@." Sim.Stats.pp_summary r.KV.Harness.read_follower;
  Fmt.pr "  writes (leader region):    %a@." Sim.Stats.pp_summary r.KV.Harness.write_leader;
  Fmt.pr "  writes (follower regions): %a@." Sim.Stats.pp_summary r.KV.Harness.write_follower;
  Fmt.pr "  retries: %d, consistency violations: %d@." r.KV.Harness.retries
    r.KV.Harness.consistency_violations;
  if r.KV.Harness.consistency_violations = 0 then 0 else 1

let simulate_cmd =
  let proto =
    spec_arg harness_protocols
  in
  let duration =
    Arg.(value & opt int 10 & info [ "duration" ] ~doc:"Seconds of simulated time.")
  in
  let clients =
    Arg.(value & opt int 50 & info [ "clients" ] ~doc:"Clients per region.")
  in
  let read_pct = Arg.(value & opt int 90 & info [ "reads" ] ~doc:"Read percentage.") in
  let conflict_pct =
    Arg.(value & opt int 5 & info [ "conflict" ] ~doc:"Conflict percentage.")
  in
  let size = Arg.(value & opt int 8 & info [ "size" ] ~doc:"Value bytes.") in
  let leader =
    Arg.(value & opt string "oregon" & info [ "leader" ] ~doc:"Leader site.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a protocol on the simulated WAN.")
    Term.(
      const run_simulate $ proto $ duration $ clients $ read_pct $ conflict_pct
      $ size $ leader)

(* ---- trace ---- *)

let run_trace proto seed requests read_pct =
  let workload =
    {
      KV.Workload.read_fraction = float_of_int read_pct /. 100.0;
      conflict_rate = 0.05;
      value_size = 8;
      records = 100_000;
      clients_per_region = 1;
      key_dist = KV.Workload.Uniform;
    }
  in
  let cfg =
    KV.Harness.config ~duration_s:3 ~warmup_s:0 ~cooldown_s:0
      ~seed:(Int64.of_int seed) ~tracing:true proto workload
  in
  let r = KV.Harness.run cfg in
  match r.KV.Harness.telemetry with
  | None ->
      Fmt.epr "internal error: tracing run returned no telemetry@.";
      1
  | Some tel ->
      let spans = tel.Tel.Telemetry.spans in
      let reqs = r.KV.Harness.requests in
      if reqs = [] || Tel.Span.trace_count spans = 0 then begin
        Fmt.epr "no spans recorded — tracing is broken@.";
        1
      end
      else begin
        let shown = List.filteri (fun i _ -> i < requests) reqs in
        let mismatches = ref 0 in
        List.iter
          (fun (req : KV.Harness.request) ->
            let total = Tel.Span.total_us spans ~trace:req.KV.Harness.trace in
            Fmt.pr "@[<v>request %d: %s from region %d, latency %d us@."
              req.KV.Harness.trace
              (if req.KV.Harness.is_read then "read" else "write")
              req.KV.Harness.region req.KV.Harness.latency_us;
            Fmt.pr "%a@]@." (fun ppf () ->
                Tel.Span.pp_waterfall ppf spans ~trace:req.KV.Harness.trace) ();
            if total <> req.KV.Harness.latency_us then begin
              incr mismatches;
              Fmt.pr "  MISMATCH: phase sum %d us <> recorded latency %d us@."
                total req.KV.Harness.latency_us
            end)
          shown;
        Fmt.pr
          "%d requests completed, %d traced spans; %d of %d shown waterfalls \
           sum exactly to their recorded latency@."
          (List.length reqs)
          (Tel.Span.trace_count spans)
          (List.length shown - !mismatches)
          (List.length shown);
        if !mismatches = 0 then 0 else 1
      end

let trace_cmd =
  let proto =
    Arg.(
      value
      & opt (enum harness_protocols) KV.Harness.Raft_pql
      & info [ "protocol" ]
          ~doc:("Protocol to trace (" ^ cli_names ^ ")."))
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let requests =
    Arg.(
      value & opt int 8
      & info [ "requests" ] ~doc:"Number of request waterfalls to print.")
  in
  let read_pct =
    Arg.(value & opt int 50 & info [ "reads" ] ~doc:"Read percentage.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a short traced simulation and print per-request span \
          waterfalls (submit, client hop, append/accept, quorum commit, \
          reply; lease waits and local reads as their own phases).  \
          Verifies that each waterfall's phase durations sum exactly to \
          the request's recorded end-to-end latency; fails if no spans \
          were recorded.")
    Term.(const run_trace $ proto $ seed $ requests $ read_pct)

(* ---- shard ---- *)

let parse_protocols s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.map (fun name ->
         match KV.Protocol.of_name name with
         | Some p -> p
         | None ->
             Fmt.epr "unknown protocol %S (try %s)@." name cli_names;
             exit 2)

let parse_placement s =
  match String.lowercase_ascii s with
  | "round-robin" | "rr" -> KV.Shard.Round_robin
  | "nearest" | "nearest-majority" -> KV.Shard.Nearest_majority
  | site -> (
      match
        List.find_opt
          (fun x -> String.lowercase_ascii (Sim.Topology.site_name x) = site)
          Sim.Topology.sites
      with
      | Some x -> KV.Shard.Fixed x
      | None ->
          Fmt.epr
            "unknown placement %S (try round-robin, nearest-majority, or a \
             site name)@."
            s;
          exit 2)

let run_shard shards protocols placement seed duration clients read_pct
    conflict_pct size replay =
  let workload =
    {
      KV.Workload.read_fraction = float_of_int read_pct /. 100.0;
      conflict_rate = float_of_int conflict_pct /. 100.0;
      value_size = size;
      records = 100_000;
      clients_per_region = clients;
      key_dist = KV.Workload.Uniform;
    }
  in
  let trim = max 0 (min 2 (duration / 3)) in
  let cfg =
    KV.Shard.config
      ~protocols:(parse_protocols protocols)
      ~placement:(parse_placement placement) ~duration_s:duration
      ~warmup_s:trim ~cooldown_s:trim ~seed:(Int64.of_int seed)
      ~telemetry:true ~shards workload
  in
  let r = KV.Shard.run cfg in
  Fmt.pr "%d group(s), placement %s, seed %d: aggregate %.0f ops/s@." shards
    (KV.Shard.placement_name cfg.KV.Shard.placement)
    seed r.KV.Shard.throughput_ops;
  Fmt.pr "%-5s %-14s %-8s %8s %9s %9s %7s %7s %8s %4s@." "group" "protocol"
    "leader" "ops" "committed" "tput" "p50ms" "p99ms" "retries" "viol";
  Array.iteri
    (fun i (g : KV.Shard.group_result) ->
      let stats = Sim.Stats.merge [ g.KV.Shard.g_read; g.KV.Shard.g_write ] in
      Fmt.pr "%-5d %-14s %-8s %8d %9d %9.0f %7.1f %7.1f %8d %4d@." i
        (KV.Harness.protocol_name g.KV.Shard.g_protocol)
        (Sim.Topology.site_name g.KV.Shard.g_leader_site)
        g.KV.Shard.g_ops g.KV.Shard.g_committed g.KV.Shard.g_throughput_ops
        (float_of_int (Sim.Stats.percentile_us stats 0.50) /. 1000.0)
        (float_of_int (Sim.Stats.percentile_us stats 0.99) /. 1000.0)
        g.KV.Shard.g_retries g.KV.Shard.g_violations)
    r.KV.Shard.groups;
  Fmt.pr "retries %d, reads checked %d, lin violations %d@." r.KV.Shard.retries
    r.KV.Shard.reads_checked r.KV.Shard.violations;
  let replay_ok =
    if not replay then true
    else begin
      let r2 = KV.Shard.run cfg in
      let a = KV.Shard.snapshot_string cfg r
      and b = KV.Shard.snapshot_string cfg r2 in
      if String.equal a b then begin
        Fmt.pr "replay: snapshot byte-identical (%d bytes)@." (String.length a);
        true
      end
      else begin
        Fmt.pr "replay: MISMATCH — sharded run is not deterministic@.";
        false
      end
    end
  in
  if r.KV.Shard.violations = 0 && replay_ok then 0 else 1

let shard_cmd =
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Number of consensus groups.")
  in
  let protocols =
    Arg.(
      value
      & opt string "raft-star"
      & info [ "protocols" ]
          ~doc:
            "Comma-separated protocol list, cycled over groups (e.g. \
             raft,mencius,multipaxos for a heterogeneous mix).")
  in
  let placement =
    Arg.(
      value
      & opt string "nearest-majority"
      & info [ "placement" ]
          ~doc:
            "Leader placement: round-robin, nearest-majority, or a site \
             name for fixed placement.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let duration =
    Arg.(value & opt int 6 & info [ "duration" ] ~doc:"Seconds of simulated time.")
  in
  let clients =
    Arg.(value & opt int 50 & info [ "clients" ] ~doc:"Clients per region.")
  in
  let read_pct = Arg.(value & opt int 90 & info [ "reads" ] ~doc:"Read percentage.") in
  let conflict_pct =
    Arg.(value & opt int 5 & info [ "conflict" ] ~doc:"Conflict percentage.")
  in
  let size = Arg.(value & opt int 8 & info [ "size" ] ~doc:"Value bytes.") in
  let replay =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Run the same config twice and require byte-identical canonical \
             snapshots (the sharded determinism gate).")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Seeded sharded run: M consensus groups (heterogeneous protocol \
          mixes allowed) over a hash-partitioned key space, per-group \
          leader placement, cross-shard client routing, per-group \
          linearizability oracles.")
    Term.(
      const run_shard $ shards $ protocols $ placement $ seed $ duration
      $ clients $ read_pct $ conflict_pct $ size $ replay)

(* ---- nemesis ---- *)

let run_nemesis proto_name seed seeds chaos_steps clients dump_trace =
  let protocols =
    if String.lowercase_ascii proto_name = "all" then Nem.Cluster.all_protocols
    else
      match Nem.Cluster.protocol_of_name proto_name with
      | Some p -> [ p ]
      | None ->
          Fmt.epr "unknown protocol %S (try %s, all)@." proto_name cli_names;
          exit 2
  in
  let failed = ref 0 in
  List.iter
    (fun protocol ->
      for s = seed to seed + seeds - 1 do
        let cfg = Nem.Nemesis.config protocol ~seed:s ~chaos_steps ~clients in
        let r = Nem.Nemesis.run cfg in
        Fmt.pr "%a@." Nem.Nemesis.pp_report r;
        if not r.Nem.Nemesis.ok then incr failed;
        if dump_trace then
          List.iter print_endline (Nem.Trace.to_list r.Nem.Nemesis.trace)
      done)
    protocols;
  if !failed = 0 then 0
  else begin
    Fmt.pr "%d failing runs — rerun with the printed seed to replay@." !failed;
    1
  end

let nemesis_cmd =
  let proto =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"PROTOCOL"
          ~doc:("Protocol to torture (" ^ cli_names ^ ", or all)."))
  in
  let seed =
    Arg.(value & opt int 1000 & info [ "seed" ] ~doc:"First seed of the sweep.")
  in
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Number of seeds to run.")
  in
  let chaos_steps =
    Arg.(
      value
      & opt int 30
      & info [ "steps" ] ~doc:"Chaos steps (one fault action per simulated second).")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Closed-loop clients.")
  in
  let dump_trace =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print the full event trace of every run.")
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "Deterministic fault-injection sweep: crash/partition/delay/skew \
          schedules driven by a seed, checked against prefix-agreement and \
          linearizability oracles.  A run is a pure function of (protocol, \
          seed), so any failure replays exactly from its printed seed.")
    Term.(
      const run_nemesis $ proto $ seed $ seeds $ chaos_steps $ clients
      $ dump_trace)

(* ---- mcheck ---- *)

(* What each scenario is supposed to produce.  Clean scenarios must be
   explored to completion with the goal reached and nothing flagged; the
   Mencius mutant must be caught by an invariant violation; the
   MultiPaxos mutant is a liveness bug, so its signature is the goal
   being unreachable under a still-complete search. *)
let mcheck_verdict (r : MC.Checker.result) =
  match r.MC.Checker.r_scenario with
  | "mencius-slot-reuse" ->
      if r.MC.Checker.r_violation <> None then Ok "mutant detected (violation)"
      else Error "mutant NOT detected: expected an invariant violation"
  | "mp-takeover" ->
      if r.MC.Checker.r_violation <> None then
        Error "unexpected safety violation (expected goal-unreachable)"
      else if r.MC.Checker.r_goal_reached then
        Error "mutant NOT detected: goal still reachable"
      else if not r.MC.Checker.r_complete then
        Error "inconclusive: goal unreached but search incomplete"
      else Ok "mutant detected (goal unreachable, search complete)"
  | name when String.length name > 6 && String.sub name 0 6 = "crash-" ->
      (* Crash scopes admit elections, so they never exhaust within a
         sane bound; they are bounded hunts — every visited state still
         passes the invariant library. *)
      if not (MC.Checker.ok r) then Error "unexpected violation"
      else if not r.MC.Checker.r_goal_reached then Error "goal not reached"
      else Ok "bounded exploration, goal reached, no violation"
  | _ ->
      if not (MC.Checker.ok r) then Error "unexpected violation"
      else if not r.MC.Checker.r_goal_reached then Error "goal not reached"
      else if not r.MC.Checker.r_complete then Error "search incomplete"
      else Ok "exhaustive, goal reached, no violation"

let mcheck_scenarios_of_name name =
  let of_kinds kinds =
    List.filter_map
      (fun (n, k) -> if List.mem k kinds then Some n else None)
      MC.Scenario.registry
  in
  match String.lowercase_ascii name with
  | "all" ->
      (* Everything that terminates exhaustively at default bounds: the
         steady scopes plus the mutation pairs.  Crash scopes run by
         name — they are bounded hunts, not exhaustive proofs. *)
      of_kinds [ MC.Scenario.Steady; Mutant ]
  | "clean" -> of_kinds [ MC.Scenario.Steady ]
  | "mutants" -> of_kinds [ MC.Scenario.Mutant ]
  | n -> [ n ]

let run_mcheck name max_states max_depth replay refine =
  if refine || String.lowercase_ascii name = "refine-raft-star" then begin
    let r = MC.Refine.check () in
    Fmt.pr "%a@." MC.Refine.pp_result r;
    if r.MC.Refine.r_ok then 0 else 1
  end
  else
    match replay with
    | Some sched -> (
        match MC.Scenario.by_name name with
        | None ->
            Fmt.epr "unknown scenario %S@." name;
            exit 2
        | Some sc -> (
            let schedule = MC.Model.parse_schedule sched in
            try
              List.iter print_endline (MC.Checker.narrate sc schedule);
              0
            with MC.Model.Stuck why ->
              Fmt.epr "schedule not replayable on %s: %s@." name why;
              2))
    | None ->
        let names = mcheck_scenarios_of_name name in
        let failed = ref 0 in
        List.iter
          (fun n ->
            match MC.Scenario.by_name n with
            | None ->
                Fmt.epr
                  "unknown scenario %S (try one of: %s; or all, clean, \
                   mutants)@."
                  n
                  (String.concat ", " MC.Scenario.names);
                exit 2
            | Some sc ->
                let r = MC.Checker.check ~max_states ~max_depth sc in
                Fmt.pr "%a@." MC.Checker.pp_result r;
                (match mcheck_verdict r with
                | Ok msg -> Fmt.pr "  PASS: %s@." msg
                | Error msg ->
                    incr failed;
                    Fmt.pr "  FAIL: %s@." msg))
          names;
        if !failed = 0 then 0 else 1

let mcheck_cmd =
  let scenario =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Scenario name (steady-<protocol>, crash-<protocol>, \
             mencius-slot-reuse[-clean], mp-takeover[-clean], \
             refine-raft-star) or a group: all, clean, mutants.")
  in
  let max_depth =
    Arg.(
      value
      & opt int 60
      & info [ "max-depth" ] ~doc:"Bound on schedule length past the prefix.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SCHEDULE"
          ~doc:
            "Narrate a schedule (space-separated choice tokens as printed in \
             counterexamples) against the named scenario instead of checking.")
  in
  let refine =
    Arg.(
      value & flag
      & info [ "refine" ]
          ~doc:"Run the implementation-refines-spec check (Raft* against the \
                MultiPaxos spec) instead of invariant checking.")
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Explicit-state model checking of the real protocol runtimes: \
          explore every message-delivery/timeout/crash interleaving at small \
          scope, check safety invariants at every state, and replay minimal \
          counterexample schedules.")
    Term.(
      const run_mcheck $ scenario $ max_states $ max_depth $ replay $ refine)

(* ---- topology ---- *)

let run_topology () =
  Fmt.pr "%-9s" "";
  List.iter (fun s -> Fmt.pr "%9s" (Sim.Topology.site_name s)) Sim.Topology.sites;
  Fmt.pr "@.";
  List.iter
    (fun a ->
      Fmt.pr "%-9s" (Sim.Topology.site_name a);
      List.iter (fun b -> Fmt.pr "%9d" (Sim.Topology.rtt_ms a b)) Sim.Topology.sites;
      Fmt.pr "@.")
    Sim.Topology.sites;
  Fmt.pr "RTT in ms; bandwidth per site: ";
  List.iter
    (fun s ->
      Fmt.pr "%s=%dMB/s "
        (Sim.Topology.site_name s)
        (Sim.Topology.bandwidth_bytes_per_sec s / 1_000_000))
    Sim.Topology.sites;
  Fmt.pr "@.";
  0

let topology_cmd =
  Cmd.v
    (Cmd.info "topology" ~doc:"Print the WAN model.")
    Term.(const run_topology $ const ())

(* ---- net: the real-network runtime ---- *)

let net_cmd =
  let mode =
    Arg.(
      value
      & pos 0 (enum [ ("demo", `Demo); ("crosscheck", `Crosscheck) ]) `Demo
      & info [] ~docv:"MODE" ~doc:"$(b,demo) or $(b,crosscheck).")
  in
  let protocol =
    Arg.(
      value
      & opt string "raft"
      & info [ "protocol" ]
          ~doc:("Protocol (" ^ cli_names ^ ")."))
  in
  let nodes = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Cluster size.") in
  let ops =
    Arg.(value & opt int 1000 & info [ "ops" ] ~doc:"Committed-op target.")
  in
  let clients =
    Arg.(
      value & opt int 4 & info [ "clients" ] ~doc:"Closed-loop clients per node.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Run seed.") in
  let run mode protocol nodes ops clients seed =
    let module Driver = Raftpax_netshell.Driver in
    match mode with
    | `Demo ->
        let r =
          Driver.demo ~protocol_name:protocol ~n:nodes ~ops
            ~clients_per_node:clients ~seed
        in
        Fmt.pr "net demo: %s %d-node loopback cluster@." protocol nodes;
        Fmt.pr "  completed=%d retries=%d throughput=%.1f ops/s@." r.d_completed
          r.d_retries r.d_throughput;
        Array.iter
          (fun (node, committed, snap) ->
            Fmt.pr "  node %d: committed=%d snapshot=%s@." node committed
              (Raftpax_netcore.Snapshot.digest snap))
          r.d_snapshots;
        if r.d_ok then begin
          Fmt.pr "  all replicas agree: byte-identical snapshots@.";
          0
        end
        else begin
          Fmt.pr "  FAILED: snapshot disagreement or op target missed@.";
          1
        end
    | `Crosscheck ->
        let r = Driver.crosscheck ~protocol_name:protocol ~n:nodes ~ops ~seed in
        Fmt.pr "net crosscheck: %s %d-node, %d sequential ops@." protocol nodes
          r.c_ops;
        Fmt.pr "  net snapshot %s / sim snapshot %s@." r.c_net_digest
          r.c_sim_digest;
        if r.c_ok then begin
          Fmt.pr "  identical applied state@.";
          0
        end
        else begin
          Fmt.pr "  FAILED: sim and net applied states differ@.";
          1
        end
  in
  Cmd.v
    (Cmd.info "net"
       ~doc:
         "Real-network runtime: spawn a loopback multi-process cluster over \
          TCP and verify replica convergence (demo), or feed one command \
          stream through both the simulator and the network and assert \
          identical applied state (crosscheck).")
    Term.(const run $ mode $ protocol $ nodes $ ops $ clients $ seed)

let subcommand_names =
  [
    "check"; "refine"; "port"; "simulate"; "trace"; "shard"; "nemesis";
    "mcheck"; "topology"; "net";
  ]

let () =
  (* Friendlier than cmdliner's default for a mistyped subcommand: one
     usage line enumerating every subcommand, exit 2. *)
  (if Array.length Sys.argv > 1 then begin
     let first = Sys.argv.(1) in
     if
       String.length first > 0
       && (not (Char.equal first.[0] '-'))
       && not (List.mem first subcommand_names)
     then begin
       Fmt.epr "raftpax: unknown subcommand '%s'@." first;
       Fmt.epr "usage: repro <%s> [OPTION]...@."
         (String.concat "|" subcommand_names);
       exit 2
     end
   end);
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "raftpax" ~version:"1.0.0"
      ~doc:
        "Paxos/Raft refinement mapping, automatic optimization porting, and \
         the paper's geo-replication evaluation."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            check_cmd;
            refine_cmd;
            port_cmd;
            simulate_cmd;
            trace_cmd;
            shard_cmd;
            nemesis_cmd;
            mcheck_cmd;
            topology_cmd;
            net_cmd;
          ]))
