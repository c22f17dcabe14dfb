module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
open Raftpax_consensus

let mk ?(seed = 42L) ?(leader = 0) () =
  let engine = Engine.create ~seed () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  let net = Net.create engine ~nodes in
  let t = Multipaxos.create ~leader Multipaxos.default_config net in
  Multipaxos.start t;
  (engine, net, t)

let put ?(key = 1) write_id = Types.Put { key; size = 8; write_id }
let run_ms engine ms = Engine.run engine ~until:(Engine.now engine + (ms * 1000))

let test_steady_state_commit () =
  let engine, _, t = mk () in
  let ok = ref 0 in
  for i = 1 to 10 do
    Multipaxos.submit t ~node:(i mod 5) (put ~key:i i) (fun _ -> incr ok)
  done;
  run_ms engine 3000;
  Alcotest.(check int) "all complete" 10 !ok;
  for node = 0 to 4 do
    Alcotest.(check int)
      (Fmt.str "node %d executed all" node)
      10
      (Multipaxos.executed_prefix t ~node)
  done

let test_read_sees_write () =
  let engine, _, t = mk () in
  let seen = ref None in
  Multipaxos.submit t ~node:0 (put ~key:3 33) (fun _ -> ());
  run_ms engine 1000;
  Multipaxos.submit t ~node:2 (Types.Get { key = 3 }) (fun r -> seen := r.Types.value);
  run_ms engine 1000;
  Alcotest.(check (option int)) "read result" (Some 33) !seen

let test_leader_latency_one_round () =
  let engine, _, t = mk () in
  let lat = ref 0 in
  let t0 = Engine.now engine in
  Multipaxos.submit t ~node:0 (put 1) (fun _ -> lat := Engine.now engine - t0);
  run_ms engine 2000;
  (* single phase-2 round at the leader: ~majority RTT *)
  Alcotest.(check bool)
    (Fmt.str "one wan round (%dus)" !lat)
    true
    (!lat > 55_000 && !lat < 90_000)

let test_failover () =
  let engine, _, t = mk () in
  Multipaxos.submit t ~node:0 (put 1) (fun _ -> ());
  run_ms engine 1000;
  Multipaxos.crash t ~node:0;
  run_ms engine 10_000;
  Alcotest.(check bool) "new leader" true (Multipaxos.leader_of t <> 0);
  let ok = ref false in
  let l = Multipaxos.leader_of t in
  Multipaxos.submit t ~node:l (put ~key:2 2) (fun _ -> ok := true);
  run_ms engine 5000;
  Alcotest.(check bool) "progress after failover" true !ok

let test_new_leader_preserves_chosen () =
  let engine, _, t = mk () in
  Multipaxos.submit t ~node:0 (put ~key:8 88) (fun _ -> ());
  run_ms engine 2000;
  Multipaxos.crash t ~node:0;
  run_ms engine 15_000;
  (* after takeover (which re-proposes adopted values), the chosen value
     survives on the new leader *)
  let l = Multipaxos.leader_of t in
  run_ms engine 5000;
  Alcotest.(check (option int)) "value survives" (Some 88)
    (Multipaxos.applied_value t ~node:l ~key:8)

let test_ballots_unique_per_server () =
  (* ballots are round * n + id, so two servers can never collide *)
  let engine, _, t = mk () in
  run_ms engine 100;
  let b0 = Multipaxos.ballot_of t ~node:0 in
  Alcotest.(check int) "bootstrap ballot" 5 b0;
  Multipaxos.crash t ~node:0;
  run_ms engine 10_000;
  let b1 = Multipaxos.ballot_of t ~node:1 in
  Alcotest.(check bool) "takeover ballot higher and distinct" true
    (b1 > b0 && b1 mod 5 = 1)

let test_chosen_counts_propagate () =
  let engine, _, t = mk () in
  for i = 1 to 5 do
    Multipaxos.submit t ~node:0 (put ~key:i i) (fun _ -> ())
  done;
  run_ms engine 3000;
  for node = 0 to 4 do
    Alcotest.(check int)
      (Fmt.str "node %d chose 5" node)
      5
      (Multipaxos.chosen_count t ~node)
  done

let every_message_twice =
  { Net.delay_us = 0; dup_probability = 1.0; drop_probability = 0.0; reorder = false }

(* With three of five acceptors down, the leader's one live peer acks
   every [Accept] twice: a tally that counted deliveries would reach a
   majority of three on that one peer.  A third live acceptor does. *)
let test_duplicate_acks_count_once () =
  let engine, net, t = mk () in
  List.iter (fun node -> Multipaxos.crash t ~node) [ 2; 3; 4 ];
  Net.set_chaos net (Some every_message_twice);
  let ok = ref false in
  Multipaxos.submit t ~node:0 (put 1) (fun _ -> ok := true);
  run_ms engine 8000;
  Alcotest.(check int) "not chosen on one peer's acks" 0
    (Multipaxos.chosen_count t ~node:0);
  Alcotest.(check bool) "no reply" false !ok;
  Multipaxos.restart t ~node:2;
  run_ms engine 8000;
  Alcotest.(check bool) "chosen once a third node acks" true !ok;
  Alcotest.(check int) "executed" 1 (Multipaxos.executed_prefix t ~node:0)

(* A tally has one bit per replica and keeps the sign bit free. *)
let test_tally_width () =
  let net n =
    Net.create (Engine.create ~seed:1L ())
      ~nodes:(List.init n (fun i -> { Net.id = i; site = List.hd Topology.sites }))
  in
  ignore (Multipaxos.create Multipaxos.default_config (net (Sys.int_size - 1)));
  match Multipaxos.create Multipaxos.default_config (net Sys.int_size) with
  | _ -> Alcotest.fail "a cluster wider than a tally was accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "multipaxos_runtime"
    [
      ( "steady-state",
        [
          Alcotest.test_case "commit+execute" `Quick test_steady_state_commit;
          Alcotest.test_case "read" `Quick test_read_sees_write;
          Alcotest.test_case "one-round latency" `Quick test_leader_latency_one_round;
          Alcotest.test_case "learn propagation" `Quick test_chosen_counts_propagate;
        ] );
      ( "failover",
        [
          Alcotest.test_case "takeover" `Quick test_failover;
          Alcotest.test_case "chosen preserved" `Quick test_new_leader_preserves_chosen;
          Alcotest.test_case "ballot uniqueness" `Quick test_ballots_unique_per_server;
        ] );
      ( "ack tally",
        [
          Alcotest.test_case "duplicate acks count once" `Quick
            test_duplicate_acks_count_once;
          Alcotest.test_case "width" `Quick test_tally_width;
        ] );
    ]
