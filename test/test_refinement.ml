open Raftpax_core
module V = Value
module C = Proto_config

(* ---- Figure 4: the log store refines the KV store ---- *)

let test_log_refines_kv () =
  match
    Refinement.check ~low:Example_kv.log_store ~high:Example_kv.kv_store
      ~map:Example_kv.log_to_kv ()
  with
  | Refinement.Refines report ->
      Alcotest.(check bool) "complete" true report.complete;
      (* Write implies Put, Read implies Get (the paper's example). *)
      let implied b =
        List.assoc b report.action_map |> List.map fst
      in
      (* same-value overwrites are legal stuttering steps, so Write maps to
         Put and sometimes to a stutter *)
      Alcotest.(check bool) "Write => Put" true (List.mem "Put" (implied "Write"));
      Alcotest.(check bool) "Read => Get" true (List.mem "Get" (implied "Read"))
  | Refinement.Fails (f, _) ->
      Alcotest.failf "unexpected failure at %s(%s)" f.b_action f.b_label

let test_broken_mapping_rejected () =
  match
    Refinement.check ~low:Example_kv.log_store ~high:Example_kv.kv_store
      ~map:Example_kv.broken_map ()
  with
  | Refinement.Refines _ -> Alcotest.fail "broken mapping accepted"
  | Refinement.Fails (f, _) ->
      Alcotest.(check string) "fails on a Write" "Write" f.b_action

let test_kv_does_not_refine_log () =
  (* The other direction must fail: Put at a non-contiguous key has no
     counterpart in the log protocol. *)
  match
    Refinement.check ~low:Example_kv.kv_store ~high:Example_kv.log_store
      ~map:(fun s ->
        State.of_list
          [ ("logs", State.get s "table"); ("output", State.get s "output") ])
      ()
  with
  | Refinement.Refines _ -> Alcotest.fail "KV store should not refine the log"
  | Refinement.Fails (f, _) -> Alcotest.(check string) "fails on Put" "Put" f.b_action

(* ---- multi-hop discharge ---- *)

let test_multi_hop () =
  (* A "skipper" that adds 2 refines a unit-step counter only with
     max_hops >= 2. *)
  let counter limit step name =
    let incr =
      Action.make "Incr" (fun s ->
          let x = V.to_int (State.get s "x") in
          if x + step <= limit then
            [ ("", State.set s "x" (V.int (x + step))) ]
          else [])
    in
    Spec.make ~name ~vars:[ "x" ]
      ~init:[ State.of_list [ ("x", V.int 0) ] ]
      [ incr ]
  in
  let low = counter 8 2 "by2" and high = counter 8 1 "by1" in
  (match Refinement.check ~max_hops:1 ~low ~high ~map:Fun.id () with
  | Refinement.Fails _ -> ()
  | Refinement.Refines _ -> Alcotest.fail "single hop should fail");
  match Refinement.check ~max_hops:2 ~low ~high ~map:Fun.id () with
  | Refinement.Refines report ->
      Alcotest.(check (list (pair string int)))
        "two-hop path" [ ("Incr+Incr", 4) ]
        (List.assoc "Incr" report.action_map)
  | Refinement.Fails (f, _) -> Alcotest.failf "2 hops failed at %s" f.b_action

let test_discharge () =
  let high = Example_kv.kv_store in
  let init = List.hd high.Spec.init in
  let s1 = Scenario.step high init ~action:"Put" ~label:"k=0,v=1" in
  (match Refinement.discharge ~high ~max_hops:1 init s1 with
  | Some [ "Put" ] -> ()
  | _ -> Alcotest.fail "expected a one-step Put discharge");
  (match Refinement.discharge ~high ~max_hops:3 init init with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected a stutter");
  (* an unreachable target: table cleared *)
  let impossible = State.set s1 "table" (State.get init "table") in
  let impossible = State.set impossible "output" (V.set [ V.int 1; V.int 2 ]) in
  match Refinement.discharge ~high ~max_hops:3 s1 impossible with
  | None -> ()
  | Some path ->
      Alcotest.failf "unexpected path %s" (String.concat "+" path)

(* ---- the headline result: Raft* refines MultiPaxos (tiny instance) ---- *)

let test_raft_star_refines_multipaxos () =
  let cfg = C.tiny in
  match
    Refinement.check ~max_states:20_000 ~max_hops:4
      ~low:(Spec_raft_star.spec cfg) ~high:(Spec_multipaxos.spec cfg)
      ~map:(Spec_raft_star.to_paxos cfg) ()
  with
  | Refinement.Refines report ->
      (* The machine-checked Figure 3: each Raft* action implies the right
         MultiPaxos action. *)
      let implies b a =
        match List.assoc_opt b report.action_map with
        | Some pairs -> List.mem_assoc a pairs
        | None -> false
      in
      Alcotest.(check bool) "BecomeLeader => BecomeLeader" true
        (implies "BecomeLeader" "BecomeLeader");
      Alcotest.(check bool) "Phase1b => Phase1b" true (implies "Phase1b" "Phase1b");
      Alcotest.(check bool) "AcceptEntries => Accept" true
        (implies "AcceptEntries" "Accept");
      Alcotest.(check bool) "ProposeEntries => Propose" true
        (implies "ProposeEntries" "Propose")
  | Refinement.Fails (f, _) ->
      Alcotest.failf "Raft* should refine MultiPaxos; failed at %s(%s)"
        f.b_action f.b_label

(* ---- the negative result: vanilla Raft's erase step has no Paxos
   counterpart (Section 3's "why Raft cannot be mapped directly") ---- *)

let erase_scenario_cfg =
  { C.acceptors = 3; values = 1; max_ballot = 2; max_index = 2 }

let erase_scenario () =
  let cfg = erase_scenario_cfg in
  let rv = Spec_raft_vanilla.spec cfg in
  let init = List.hd rv.Spec.init in
  let s =
    Scenario.run rv init
      [
        ("IncreaseTerm", "a=0,b=1");
        ("RequestVote", "a=0");
        ("HandleVote", "a=1,b=1");
        ("HandleVote", "a=2,b=1");
        ("BecomeLeader", "a=1,q=12");
        ("ProposeEntries", "a=1,i1=0,i=0,v=1");
        ("AcceptEntries", "a=1,t=1,l=0");
        ("ProposeEntries", "a=1,i1=1,i=1,v=1");
        ("AcceptEntries", "a=1,t=1,l=1");
        ("ProposeEntries", "a=1,i1=2,i=2,v=1");
        ("AcceptEntries", "a=2,t=1,l=0");
        ("AcceptEntries", "a=2,t=1,l=1");
        ("AcceptEntries", "a=2,t=1,l=2");
        ("AcceptEntries", "a=0,t=1,l=0");
        ("IncreaseTerm", "a=2,b=2");
        ("RequestVote", "a=2");
        ("HandleVote", "a=0,b=2");
        ("HandleVote", "a=1,b=2");
        ("BecomeLeader", "a=0,q=01");
        ("ProposeEntries", "a=0,i1=0,i=1,v=1");
      ]
  in
  let s' = Scenario.step rv s ~action:"AcceptEntries" ~label:"a=2,t=2,l=1" in
  (rv, s, s')

let test_vanilla_erase_has_no_counterpart () =
  let cfg = erase_scenario_cfg in
  let _, s, s' = erase_scenario () in
  let mp = Spec_multipaxos.spec cfg in
  let a = Spec_raft_vanilla.to_paxos cfg s in
  let a' = Spec_raft_vanilla.to_paxos cfg s' in
  (* follower 2's accepted value at index 2 vanishes under the mapping *)
  let entry st acc i = V.get (V.get (State.get st "logs") (V.int acc)) (V.int i) in
  Alcotest.(check bool) "had a value" false
    (V.equal (entry a 2 2) Spec_multipaxos.empty_entry);
  Alcotest.(check bool) "erased" true
    (V.equal (entry a' 2 2) Spec_multipaxos.empty_entry);
  match Refinement.discharge ~high:mp ~max_hops:8 a a' with
  | None -> ()
  | Some path ->
      Alcotest.failf "erase step unexpectedly discharged via %s"
        (String.concat "+" path)

(* Once a second ballot exists, the full check finds a vanilla Raft
   transition with no MultiPaxos counterpart: a Raft leader keeps its own
   log, where Paxos's BecomeLeader adopts the highest-ballot entries its
   quorum reported.  The reported trace must be a real run of the low
   spec that ends at the failing state. *)
let test_vanilla_counterexample_trace () =
  let cfg = { C.acceptors = 3; values = 1; max_ballot = 2; max_index = 0 } in
  let low = Spec_raft_vanilla.spec cfg in
  match
    Refinement.check ~max_hops:4 ~low ~high:(Spec_multipaxos.spec cfg)
      ~map:(Spec_raft_vanilla.to_paxos cfg) ()
  with
  | Refinement.Refines _ -> Alcotest.fail "vanilla Raft should not refine MultiPaxos"
  | Refinement.Fails (f, _) ->
      Alcotest.(check bool) "a transition failure" true (f.kind = `Transition);
      Alcotest.(check int) "trace length" 13 (List.length f.b_trace);
      (match f.b_trace with
      | first :: _ ->
          Alcotest.(check string) "opens with Init" "Init" first.Explorer.action;
          Alcotest.(check bool) "at a low init state" true
            (List.exists (State.equal first.Explorer.state) low.Spec.init)
      | [] -> Alcotest.fail "empty trace");
      let is_step (prev : Explorer.step) (next : Explorer.step) =
        List.exists
          (fun (action, label, s') ->
            action = next.action && label = next.label
            && State.equal s' next.state)
          (Spec.successors low prev.state)
      in
      let rec check_steps = function
        | prev :: (next :: _ as rest) ->
            if not (is_step prev next) then
              Alcotest.failf "%s(%s) is not a low step" next.action next.label;
            check_steps rest
        | [ last ] ->
            Alcotest.(check bool) "ends at b_state" true
              (State.equal last.Explorer.state f.b_state)
        | [] -> ()
      in
      check_steps f.b_trace;
      Alcotest.(check bool) "the failing transition is a low step" true
        (is_step
           { action = "Init"; label = ""; state = f.b_state }
           { action = f.b_action; label = f.b_label; state = f.b_state' })

let test_init_failure () =
  (* a map that moves the low init off every high init state *)
  let map s =
    State.set (Example_kv.log_to_kv s) "output" (V.set [ V.int Example_kv.values ])
  in
  match
    Refinement.check ~low:Example_kv.log_store ~high:Example_kv.kv_store ~map ()
  with
  | Refinement.Refines _ -> Alcotest.fail "init image outside the high init accepted"
  | Refinement.Fails (f, _) ->
      Alcotest.(check bool) "an init failure" true (f.kind = `Init);
      Alcotest.(check string) "no action" "" f.b_action;
      Alcotest.(check int) "one-step trace" 1 (List.length f.b_trace);
      Alcotest.(check bool) "the trace is the low init" true
        (List.exists
           (State.equal (List.hd f.b_trace).Explorer.state)
           Example_kv.log_store.Spec.init)

let test_vanilla_keeps_log_matching () =
  (* The same scenario does not break vanilla Raft's own invariant. *)
  let cfg = erase_scenario_cfg in
  let rv, s, s' = erase_scenario () in
  ignore rv;
  Alcotest.(check bool) "log matching before" true
    (Spec_raft_vanilla.inv_log_matching cfg s);
  Alcotest.(check bool) "log matching after" true
    (Spec_raft_vanilla.inv_log_matching cfg s')

let () =
  Alcotest.run "refinement"
    [
      ( "figure-4",
        [
          Alcotest.test_case "log refines kv" `Quick test_log_refines_kv;
          Alcotest.test_case "broken map rejected" `Quick test_broken_mapping_rejected;
          Alcotest.test_case "reverse direction fails" `Quick test_kv_does_not_refine_log;
          Alcotest.test_case "init image checked" `Quick test_init_failure;
        ] );
      ( "multi-hop",
        [
          Alcotest.test_case "hops" `Quick test_multi_hop;
          Alcotest.test_case "discharge" `Quick test_discharge;
        ] );
      ( "raft-star",
        [
          Alcotest.test_case "refines MultiPaxos (tiny)" `Slow
            test_raft_star_refines_multipaxos;
        ] );
      ( "vanilla-raft",
        [
          Alcotest.test_case "erase has no counterpart" `Quick
            test_vanilla_erase_has_no_counterpart;
          Alcotest.test_case "log matching survives" `Quick
            test_vanilla_keeps_log_matching;
          Alcotest.test_case "counterexample trace" `Slow
            test_vanilla_counterexample_trace;
        ] );
    ]
