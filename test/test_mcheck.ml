(* The model checker against the real runtimes: clean scenarios must be
   explored to completion with the goal reached and nothing flagged; the
   two re-armed PR-1 mutants must be detected — the Mencius slot reuse
   by an invariant violation with a replayable schedule, the MultiPaxos
   missing takeover by the goal becoming unreachable under a
   still-complete search.  A determinism case re-narrates a
   counterexample schedule and demands identical output. *)

module MC = Raftpax_mcheck
module Cluster = Raftpax_nemesis.Cluster

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let scenario name =
  match MC.Scenario.by_name name with
  | Some sc -> sc
  | None -> Alcotest.failf "unknown scenario %s" name

let check ?(max_states = 2_000_000) name =
  MC.Checker.check ~max_states (scenario name)

let assert_clean (r : MC.Checker.result) =
  (match r.r_violation with
  | Some v -> Alcotest.failf "%s: unexpected violation: %s" r.r_scenario v.v_reason
  | None -> ());
  Alcotest.(check bool) "complete" true r.r_complete;
  Alcotest.(check bool) "goal reached" true r.r_goal_reached

let steady_case proto () = assert_clean (check ("steady-" ^ proto))

(* A one-command Raft* scope small enough for the quick suite; the full
   two-command steady space runs in the slow suite and in CI. *)
let raft_star_tiny_case () =
  let sc =
    {
      (MC.Scenario.steady Cluster.Raft_star) with
      MC.Model.sc_name = "raft-star-tiny";
      sc_ops = [ Raftpax_consensus.Types.Put { key = 11; size = 8; write_id = 1 } ];
      sc_targets = [ 0 ];
    }
  in
  let r = MC.Checker.check ~max_states:2_000_000 sc in
  assert_clean r;
  Alcotest.(check bool) "explored more than a handful" true (r.r_states > 50)

let mencius_mutant_case () =
  let r = check "mencius-slot-reuse" in
  match r.r_violation with
  | None -> Alcotest.fail "mutant not detected"
  | Some v ->
      Alcotest.(check bool) "non-empty schedule" true (v.v_schedule <> []);
      Alcotest.(check bool)
        "invariant names the reused slot" true
        (contains v.v_reason "slot")

and mencius_clean_case () = assert_clean (check "mencius-slot-reuse-clean")

let mp_mutant_case () =
  let r = check "mp-takeover" in
  (match r.r_violation with
  | Some v -> Alcotest.failf "unexpected violation: %s" v.v_reason
  | None -> ());
  Alcotest.(check bool) "goal unreachable" false r.r_goal_reached;
  Alcotest.(check bool) "search complete" true r.r_complete

and mp_clean_case () = assert_clean (check "mp-takeover-clean")

(* The counterexample schedule is a complete reproduction recipe: a
   fresh world narrates it to the same trace, and the final state shows
   the same violation. *)
let replay_determinism_case () =
  let r = check "mencius-slot-reuse" in
  match r.r_violation with
  | None -> Alcotest.fail "mutant not detected"
  | Some v ->
      let n1 = MC.Checker.narrate (scenario "mencius-slot-reuse") v.v_schedule in
      let n2 = MC.Checker.narrate (scenario "mencius-slot-reuse") v.v_schedule in
      Alcotest.(check (list string)) "narrations agree" n1 n2;
      Alcotest.(check bool) "trace matches stored" true (n1 = v.v_trace);
      let w = MC.Model.build (scenario "mencius-slot-reuse") in
      List.iter (MC.Model.apply w) v.v_schedule;
      Alcotest.(check bool)
        "violation reproduces" true
        (MC.Model.violation w <> None)

let schedule_roundtrip_case () =
  let r = check "mencius-slot-reuse" in
  match r.r_violation with
  | None -> Alcotest.fail "mutant not detected"
  | Some v ->
      let rendered = MC.Model.render_schedule v.v_schedule in
      Alcotest.(check bool)
        "parses back" true
        (MC.Model.parse_schedule rendered = v.v_schedule)

(* Node-id symmetry reduction: on a scope where the two followers are
   interchangeable, quotienting by the follower swap must shrink the
   visited set strictly — and must not change any verdict.  The clean
   run's counts come from the identical scenario with [sc_symmetry]
   emptied, so the two searches differ only in the fingerprint. *)
let symmetry_case proto () =
  let on = MC.Checker.check ~max_states:2_000_000 (MC.Scenario.steady_sym proto) in
  let off =
    MC.Checker.check ~max_states:2_000_000 (MC.Scenario.steady_sym_off proto)
  in
  assert_clean on;
  assert_clean off;
  Alcotest.(check bool)
    (Printf.sprintf "visited shrank (%d sym vs %d plain)" on.r_states
       off.r_states)
    true
    (on.r_states < off.r_states);
  Alcotest.(check bool) "verdicts agree" true
    (on.r_goal_reached = off.r_goal_reached
    && on.r_complete = off.r_complete)

(* The batched symmetry scope: [batchify] must preserve follower
   interchangeability (it re-routes the batched ops through the
   bootstrap leader), so the quotient still shrinks the batched space
   strictly and changes no verdict. *)
let symmetry_batched_case proto () =
  let scope = MC.Scenario.(batchify (steady_sym proto)) in
  let on = MC.Checker.check ~max_states:2_000_000 scope in
  let off =
    MC.Checker.check ~max_states:2_000_000
      { scope with MC.Model.sc_symmetry = [] }
  in
  assert_clean on;
  assert_clean off;
  Alcotest.(check bool)
    (Printf.sprintf "visited shrank (%d sym vs %d plain)" on.r_states
       off.r_states)
    true
    (on.r_states < off.r_states);
  Alcotest.(check bool) "verdicts agree" true
    (on.r_goal_reached = off.r_goal_reached
    && on.r_complete = off.r_complete)

(* Batching is non-mutating (paper Section 4): arming leader-side
   batching on a clean scope must leave the verdicts untouched —
   exhaustive search, goal reached, nothing flagged — with the flush
   timer and batch accumulators now part of the choice set and the
   fingerprints, so the claim holds over every interleaving of flush
   against delivery and not just one schedule. *)
let steady_batched_case proto () =
  assert_clean
    (MC.Checker.check ~max_states:2_000_000 MC.Scenario.(batchify (steady proto)))

(* Full verdict equivalence on the one protocol whose plain steady
   space is quick-suite cheap: the batched scope must reach exactly the
   unbatched scope's verdict triple. *)
let batched_equivalence_case () =
  let plain =
    MC.Checker.check ~max_states:2_000_000 (MC.Scenario.steady Cluster.Multipaxos)
  in
  let batched =
    MC.Checker.check ~max_states:2_000_000
      MC.Scenario.(batchify (steady Cluster.Multipaxos))
  in
  assert_clean plain;
  assert_clean batched;
  Alcotest.(check bool) "verdict triples agree" true
    (plain.r_goal_reached = batched.r_goal_reached
    && plain.r_complete = batched.r_complete
    && (plain.r_violation = None) = (batched.r_violation = None))

(* Crash scopes are bounded hunts — the crash choice widens every BFS
   layer past exhaustibility — so the batched fault scope must commit
   its batch and flag nothing across the explored region; completeness
   is not demanded. *)
let crash_batched_case proto () =
  let r =
    MC.Checker.check ~max_states:60_000 MC.Scenario.(batchify (crash proto))
  in
  (match r.r_violation with
  | Some v ->
      Alcotest.failf "%s: unexpected violation: %s" r.r_scenario v.v_reason
  | None -> ());
  Alcotest.(check bool) "goal reached" true r.r_goal_reached

let refinement_case () =
  let r = MC.Refine.check () in
  (match r.r_failure with
  | Some f ->
      Alcotest.failf "refinement fails on %s after %s"
        (MC.Model.render_choice f.f_choice)
        (MC.Model.render_schedule f.f_schedule)
  | None -> ());
  Alcotest.(check bool) "walked the runtime space" true (r.r_runtime_states > 100)

(* The invariant library doubles as a sanitizer inside nemesis runs. *)
let nemesis_sanitizer_case () =
  let open Raftpax_nemesis in
  List.iter
    (fun protocol ->
      let cfg = Nemesis.config protocol ~seed:4242 ~chaos_steps:10 in
      let r = Nemesis.run cfg in
      if not r.Nemesis.ok then Alcotest.failf "%a" Nemesis.pp_report r)
    [ Cluster.Raft_star; Cluster.Mencius; Cluster.Multipaxos ]

(* Every name in the registry, and every spelling the CLI docs and CI
   use, resolves through the one family table to its scope. *)
let spellings_case () =
  let resolves name expected =
    match MC.Scenario.by_name name with
    | Some sc -> Alcotest.(check string) name expected sc.MC.Model.sc_name
    | None -> Alcotest.failf "%s does not resolve" name
  in
  List.iter (fun n -> resolves n n) MC.Scenario.names;
  List.iter
    (fun (n, expected) -> resolves n expected)
    [
      ("steady-raft-star", "steady-raft*");
      ("crash-raft-star", "crash-raft*");
      ("steady-mencius", "steady-raft*-mencius");
      ("steady-raft-ll", "steady-raft*-ll");
      ("crash-raft-ll-batched", "crash-raft*-ll-batched");
      ("crash-mencius-batched", "crash-raft*-mencius-batched");
      ("Steady-Sym-Raft-PQL-Batched", "steady-sym-raft*-pql-batched");
    ];
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " rejected") true
        (Option.is_none (MC.Scenario.by_name n)))
    [ "steady-sym-mencius"; "steady-sym-raft-ll" ]

let () =
  Alcotest.run "mcheck"
    [
      ( "registry",
        [ Alcotest.test_case "every spelling resolves" `Quick spellings_case ] );
      ( "clean",
        [
          Alcotest.test_case "raft-star tiny exhaustive" `Quick
            raft_star_tiny_case;
          Alcotest.test_case "steady multipaxos exhaustive" `Quick
            (steady_case "multipaxos");
          Alcotest.test_case "steady raft-star exhaustive" `Slow
            (steady_case "raft-star");
          Alcotest.test_case "steady mencius exhaustive" `Slow
            (steady_case "mencius");
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "raft follower-swap quotient" `Quick
            (symmetry_case Cluster.Raft);
          Alcotest.test_case "multipaxos follower-swap quotient" `Quick
            (symmetry_case Cluster.Multipaxos);
          Alcotest.test_case "raft-star follower-swap quotient" `Slow
            (symmetry_case Cluster.Raft_star);
          Alcotest.test_case "raft-pql follower-swap quotient" `Slow
            (symmetry_case Cluster.Raft_pql);
          Alcotest.test_case "multipaxos batched follower-swap quotient"
            `Quick
            (symmetry_batched_case Cluster.Multipaxos);
          Alcotest.test_case "raft batched follower-swap quotient" `Slow
            (symmetry_batched_case Cluster.Raft);
        ] );
      ( "mutants",
        [
          Alcotest.test_case "mencius slot reuse detected" `Quick
            mencius_mutant_case;
          Alcotest.test_case "mencius clean passes" `Quick mencius_clean_case;
          Alcotest.test_case "mp takeover detected" `Quick mp_mutant_case;
          Alcotest.test_case "mp clean passes" `Quick mp_clean_case;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "replay determinism" `Quick replay_determinism_case;
          Alcotest.test_case "schedule round-trips" `Quick
            schedule_roundtrip_case;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batched steady raft exhaustive" `Quick
            (steady_batched_case Cluster.Raft);
          Alcotest.test_case "batched steady multipaxos exhaustive" `Quick
            (steady_batched_case Cluster.Multipaxos);
          Alcotest.test_case "batched steady mencius exhaustive" `Quick
            (steady_batched_case Cluster.Mencius);
          Alcotest.test_case "batched steady raft-pql exhaustive" `Slow
            (steady_batched_case Cluster.Raft_pql);
          Alcotest.test_case "batched vs plain multipaxos verdicts" `Quick
            batched_equivalence_case;
          Alcotest.test_case "batched crash multipaxos hunt" `Slow
            (crash_batched_case Cluster.Multipaxos);
        ] );
      ( "refinement",
        [ Alcotest.test_case "raft-star refines multipaxos" `Slow refinement_case ] );
      ( "sanitizer",
        [ Alcotest.test_case "nemesis debug invariants" `Quick nemesis_sanitizer_case ] );
    ]
