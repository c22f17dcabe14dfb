(* The nemesis matrix: every protocol faces the same seeded adversary
   (crashes, leader-targeted crashes, partitions, message chaos, clock
   skew), and every run must pass the same oracles — replica prefixes
   agree, acknowledged writes survive, reads are linearizable, and the
   healed cluster commits a fresh write.  A companion test replays a
   seed and demands a byte-identical trace. *)

open Raftpax_nemesis

let seeds = List.init 20 (fun i -> 1000 + i)

let check_report (r : Nemesis.report) =
  if not r.ok then
    Alcotest.failf "%a" Nemesis.pp_report r;
  Alcotest.(check bool) "prefixes agree" true r.prefixes_agree;
  Alcotest.(check int) "no lost writes" 0 r.lost_writes;
  Alcotest.(check int) "no lin violations" 0 (List.length r.violations);
  Alcotest.(check bool) "liveness after heal" true r.liveness_ok

let matrix_case protocol () =
  let total_ops = ref 0 and total_reads = ref 0 and total_faults = ref 0 in
  List.iter
    (fun seed ->
      let r = Nemesis.run (Nemesis.config protocol ~seed) in
      check_report r;
      total_ops := !total_ops + r.ops_completed;
      total_reads := !total_reads + r.reads_checked;
      total_faults := !total_faults + r.faults_injected)
    seeds;
  (* The matrix must actually exercise the system: plenty of completed
     ops, checked reads, and injected faults across the seed bank. *)
  Alcotest.(check bool) "ops completed" true (!total_ops > 20 * List.length seeds);
  Alcotest.(check bool) "reads checked" true (!total_reads > 5 * List.length seeds);
  Alcotest.(check bool) "faults injected" true (!total_faults >= 10 * List.length seeds)

(* The same adversary against batched replication: leader-side batching
   (engine-bench knobs: size 16, 2 ms flush) must not cost a single
   safety verdict anywhere in the matrix.  With 4 closed-loop clients
   batches rarely fill, so the flush timer path — the delicate one,
   where commands sit in the accumulator while crashes land — carries
   most commands. *)
let batched_matrix_case protocol () =
  let total_ops = ref 0 and total_faults = ref 0 in
  List.iter
    (fun seed ->
      let r =
        Nemesis.run
          (Nemesis.config protocol ~seed ~batch_size:16 ~batch_delay_us:2_000)
      in
      check_report r;
      total_ops := !total_ops + r.ops_completed;
      total_faults := !total_faults + r.faults_injected)
    seeds;
  Alcotest.(check bool) "ops completed" true (!total_ops > 20 * List.length seeds);
  Alcotest.(check bool) "faults injected" true
    (!total_faults >= 10 * List.length seeds)

let crashes_only_case protocol () =
  let cfg =
    Nemesis.config protocol ~seed:77 ~chaos_steps:20
      ~actions:Schedule.crashes_only
  in
  check_report (Nemesis.run cfg)

(* Re-running a config must reproduce the identical trace: the trace
   captures faults, client ops, state transitions, and (in this mode)
   every message send, so fingerprint equality means the whole execution
   replayed byte-for-byte. *)
let determinism_case ?actions protocol () =
  let cfg = Nemesis.config protocol ~seed:42 ~chaos_steps:10 ?actions in
  let a = Nemesis.run cfg and b = Nemesis.run cfg in
  Alcotest.(check string)
    "trace fingerprints equal"
    (Trace.fingerprint a.Nemesis.trace)
    (Trace.fingerprint b.Nemesis.trace);
  Alcotest.(check (list string))
    "traces line-identical"
    (Trace.to_list a.Nemesis.trace)
    (Trace.to_list b.Nemesis.trace);
  Alcotest.(check bool) "trace non-trivial" true (Trace.length a.Nemesis.trace > 100)

let seed_sensitivity_case () =
  (* Different seeds must produce different executions — otherwise the
     seed bank is 20 copies of one run. *)
  let run seed =
    Trace.fingerprint
      (Nemesis.run (Nemesis.config Cluster.Raft ~seed ~chaos_steps:10)).Nemesis.trace
  in
  Alcotest.(check bool) "seeds diverge" true (run 1 <> run 2)

let protocol_cases name case =
  List.map
    (fun p ->
      Alcotest.test_case
        (Printf.sprintf "%s %s" (Cluster.protocol_name p) name)
        `Slow (case p))
    Cluster.all_protocols

(* Raft-LL stays out of the full matrix: partitions and message chaos
   break its lease reads (repro nemesis raft-ll --seed 564 --seeds 1;
   ROADMAP, Raft-LL lease scope).  Under crash churn alone it must pass
   every oracle and replay byte-for-byte. *)
let raft_ll_case name case =
  Alcotest.test_case
    (Printf.sprintf "%s %s, crash churn only"
       (Cluster.protocol_name Cluster.Raft_ll)
       name)
    `Slow (case Cluster.Raft_ll)

let groups =
  [
    ("nemesis-matrix", protocol_cases "20-seed matrix" matrix_case);
    ( "nemesis-matrix-batched",
      protocol_cases "20-seed batched matrix" batched_matrix_case );
    ( "crashes-only",
      protocol_cases "crash churn" crashes_only_case
      @ [ raft_ll_case "seed 77" crashes_only_case ] );
    ( "determinism",
      protocol_cases "seed replay" determinism_case
      @ [
          raft_ll_case "seed replay"
            (determinism_case ~actions:Schedule.crashes_only);
        ] );
  ]

(* Every protocol of [Cluster.all_protocols] faces every group above:
   a group built from a hand-written protocol list fails here. *)
let coverage_case () =
  List.iter
    (fun (group, cases) ->
      List.iter
        (fun p ->
          let prefix = Cluster.protocol_name p ^ " " in
          Alcotest.(check bool)
            (Printf.sprintf "%s faces %s" (Cluster.protocol_name p) group)
            true
            (List.exists
               (fun (name, _, _) -> String.starts_with ~prefix name)
               cases))
        Cluster.all_protocols)
    groups

let () =
  Alcotest.run "chaos"
    (groups
    @ [
        ( "seed-bank",
          [
            Alcotest.test_case "seeds diverge" `Quick seed_sensitivity_case;
            Alcotest.test_case "every protocol faces every group" `Quick
              coverage_case;
          ] );
      ])
