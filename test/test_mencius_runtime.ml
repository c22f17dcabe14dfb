module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
open Raftpax_consensus

let mk ?(seed = 42L) () =
  let engine = Engine.create ~seed () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  let net = Net.create engine ~nodes in
  let t = Mencius.create Mencius.default_config net in
  Mencius.start t;
  (engine, net, t)

let put ?(key = 10) write_id = Types.Put { key; size = 8; write_id }
let hot write_id = Types.Put { key = Mencius.hot_key; size = 8; write_id }

let run_ms engine ms = Engine.run engine ~until:(Engine.now engine + (ms * 1000))

let test_no_forwarding_local_commit () =
  let engine, _, t = mk () in
  let lat = Array.make 5 0 in
  let t0 = Engine.now engine in
  for node = 0 to 4 do
    Mencius.submit t ~node (put ~key:(10 + node) (100 + node)) (fun _ ->
        lat.(node) <- Engine.now engine - t0)
  done;
  run_ms engine 3000;
  (* Every replica commits at roughly its own majority RTT — no 2-RTT
     forwarding penalty anywhere. *)
  Array.iteri
    (fun node l ->
      let bound =
        (Topology.nearest_majority_rtt_ms (Topology.site_of_index node) * 1000)
        + 80_000
      in
      Alcotest.(check bool)
        (Fmt.str "node %d commits at ~own RTT (%dus <= %dus)" node l bound)
        true
        (l > 0 && l <= bound))
    lat

let test_slot_ownership_round_robin () =
  let engine, _, t = mk () in
  for node = 0 to 4 do
    Mencius.submit t ~node (put ~key:(20 + node) (200 + node)) (fun _ -> ())
  done;
  run_ms engine 3000;
  (* all 5 writes committed; everyone agrees on all keys *)
  for node = 0 to 4 do
    for k = 0 to 4 do
      Alcotest.(check (option int))
        (Fmt.str "node %d key %d" node (20 + k))
        (Some (200 + k))
        (Mencius.applied_value t ~node ~key:(20 + k))
    done
  done

let test_skips_fill_gaps () =
  let engine, _, t = mk () in
  (* only node 3 submits: everyone else's interleaved slots get skipped *)
  for i = 1 to 4 do
    Mencius.submit t ~node:3 (put ~key:(30 + i) (300 + i)) (fun _ -> ())
  done;
  run_ms engine 3000;
  Alcotest.(check bool) "skips recorded" true (Mencius.skipped_count t ~node:0 > 0);
  for node = 0 to 4 do
    Alcotest.(check (option int))
      (Fmt.str "node %d sees the last write" node)
      (Some 304)
      (Mencius.applied_value t ~node ~key:34)
  done

let test_conflicting_slower_than_commutative () =
  let run conflicting =
    let engine, _, t = mk () in
    (* background traffic from every region so ordering actually binds *)
    for node = 0 to 4 do
      Mencius.submit t ~node (put ~key:(40 + node) (400 + node)) (fun _ -> ())
    done;
    let lat = ref 0 in
    let t0 = Engine.now engine in
    let op = if conflicting then hot 999 else put ~key:77 999 in
    Mencius.submit t ~node:0 op (fun _ -> lat := Engine.now engine - t0);
    run_ms engine 5000;
    !lat
  in
  let hot_lat = run true and cold_lat = run false in
  Alcotest.(check bool)
    (Fmt.str "conflicting (%dus) >= commutative (%dus)" hot_lat cold_lat)
    true (hot_lat >= cold_lat)

let test_hot_key_total_order () =
  let engine, _, t = mk () in
  let last = ref [] in
  for i = 1 to 10 do
    Mencius.submit t ~node:(i mod 5) (hot (500 + i)) (fun _ -> ())
  done;
  run_ms engine 5000;
  for node = 0 to 4 do
    last := Mencius.applied_value t ~node ~key:Mencius.hot_key :: !last
  done;
  (* all replicas agree on the final hot-key value *)
  (match !last with
  | v :: rest -> List.iter (fun v' -> Alcotest.(check (option int)) "agree" v v') rest
  | [] -> Alcotest.fail "no replicas");
  Alcotest.(check bool) "some write won" true (Option.is_some (List.hd !last))

let test_crash_revocation () =
  let engine, _, t = mk () in
  Mencius.submit t ~node:4 (put ~key:90 900) (fun _ -> ());
  run_ms engine 2000;
  Mencius.crash t ~node:4;
  let ok = ref 0 in
  for i = 1 to 8 do
    Mencius.submit t ~node:(i mod 4) (hot (900 + i)) (fun _ -> incr ok)
  done;
  run_ms engine 30_000;
  Alcotest.(check int) "conflicting writes complete despite the dead owner" 8 !ok

(* A replica claims its first turn (slot 4) while cut off, so its append
   reaches nobody; the lowest live replica revokes the stalled slot into a
   skip.  After the heal the owner learns the skip from a peer's state
   transfer and must drop the op unacknowledged — it was never chosen —
   while its next op completes normally. *)
let test_revoked_own_op_never_acknowledged () =
  let engine, net, t = mk () in
  let cut a b = a <> b && (a = 4 || b = 4) in
  Net.set_partition net (Some cut);
  let revoked_fired = ref 0 in
  Mencius.submit t ~node:4 (put ~key:80 800) (fun _ -> incr revoked_fired);
  for i = 1 to 8 do
    Mencius.submit t ~node:(i mod 4) (put ~key:(80 + i) (800 + i)) (fun _ -> ())
  done;
  let slot4_skipped node =
    List.mem "4:S" (String.split_on_char ' ' (Mencius.dump_slots t ~node))
  in
  run_ms engine 15_000;
  Alcotest.(check bool) "the live majority force-skipped slot 4" true
    (slot4_skipped 0);
  Net.set_partition net None;
  run_ms engine 30_000;
  Alcotest.(check bool) "the owner adopted the skip" true (slot4_skipped 4);
  let next_fired = ref 0 in
  Mencius.submit t ~node:4 (put ~key:89 809) (fun _ -> incr next_fired);
  run_ms engine 30_000;
  Alcotest.(check int) "revoked op never acknowledged" 0 !revoked_fired;
  Alcotest.(check int) "next op completes once" 1 !next_fired;
  Alcotest.(check (option int))
    "next op applied" (Some 809)
    (Mencius.applied_value t ~node:4 ~key:89)

(* Many ops in flight at one replica, across reads, commutative writes
   and the contended key: each callback fires exactly once, with the
   waiting ops replying out of submission order as their slots ready.  A
   first wave of 200 concurrent ops grows the reply-pending queue; a
   second wave of 2000, kept at 16 in flight, slides it many times over. *)
let test_concurrent_ops_reply_once ~batch_size () =
  let engine = Engine.create ~seed:7L () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  let net = Net.create engine ~nodes in
  let params =
    { Types.default_params with batch_size; batch_delay_us = 2_000 }
  in
  let t = Mencius.create { Mencius.default_config with params } net in
  Mencius.start t;
  let wave = 200 and total = 2200 and window = 16 in
  let fired = Array.make total 0 in
  let rec submit i =
    let op =
      match i mod 3 with
      | 0 -> Types.Get { key = 1 + (i mod 7) }
      | 1 -> put ~key:(1 + (i mod 7)) (1000 + i)
      | _ -> hot (1000 + i)
    in
    Mencius.submit t ~node:2 op (fun _ ->
        fired.(i) <- fired.(i) + 1;
        if i >= wave && i + window < total then submit (i + window))
  in
  for i = 0 to wave - 1 do
    submit i
  done;
  (* background traffic at the other replicas keeps every frontier moving *)
  for node = 0 to 4 do
    if node <> 2 then
      Mencius.submit t ~node (put ~key:(20 + node) (2000 + node)) (fun _ -> ())
  done;
  run_ms engine 10_000;
  for i = wave to wave + window - 1 do
    submit i
  done;
  run_ms engine 300_000;
  let wrong = List.filter (fun i -> fired.(i) <> 1) (List.init total Fun.id) in
  Alcotest.(check (list int)) "ops not fired exactly once" [] wrong

let test_restart_rejoins () =
  let engine, _, t = mk () in
  Mencius.crash t ~node:2;
  for i = 1 to 4 do
    Mencius.submit t ~node:(if i mod 5 = 2 then 0 else i mod 5) (put ~key:(50 + i) (600 + i))
      (fun _ -> ())
  done;
  run_ms engine 20_000;
  Mencius.restart t ~node:2;
  let ok = ref false in
  Mencius.submit t ~node:2 (put ~key:60 700) (fun _ -> ok := true);
  run_ms engine 30_000;
  Alcotest.(check bool) "restarted node serves again" true !ok

let test_frontiers_monotone_and_equal_eventually () =
  let engine, _, t = mk () in
  for i = 1 to 20 do
    Mencius.submit t ~node:(i mod 5) (put ~key:i (700 + i)) (fun _ -> ())
  done;
  run_ms engine 5000;
  let f0 = Mencius.commit_frontier t ~node:0 in
  Alcotest.(check bool) "frontier advanced" true (f0 > 0);
  for node = 1 to 4 do
    Alcotest.(check int)
      (Fmt.str "node %d frontier" node)
      f0
      (Mencius.commit_frontier t ~node)
  done

(* The [kw:] section of a replica's dump: its unapplied writes by key. *)
let unapplied_writes t ~node =
  let dump = Mencius.dump_state t ~node in
  let section = List.find (String.starts_with ~prefix:"kw:") (String.split_on_char '|' dump) in
  String.sub section 3 (String.length section - 3)

(* Route [t]'s protocol messages into a queue.  [deliver_where keep]
   delivers the queued messages [keep] selects, leaves the rest queued and
   lets 1 ms of simulated time pass. *)
let capture_wire engine t =
  let wire = Queue.create () in
  Mencius.set_wire t (Some (fun ~src ~dst ~size:_ msg -> Queue.add (src, dst, msg) wire));
  let deliver_where keep =
    let rest = Queue.create () in
    Queue.iter
      (fun ((src, dst, msg) as m) ->
        if keep ~src ~dst then Mencius.deliver t ~node:dst msg else Queue.add m rest)
      wire;
    Queue.clear wire;
    Queue.transfer rest wire;
    run_ms engine 1
  in
  (wire, deliver_where)

(* A commutative read ordered behind a write of its key must not reply
   before that write is applied, even once its own slot is committed and
   every earlier slot is known.  Protocol messages go through a captured
   wire and are delivered by hand:

   - node 0 puts key 5 at slot 0, and only node 1 gets the append;
   - node 1 then reads key 5 at slot 1, and nodes 0 and 2 ack it;
   - at node 1, slot 1 is committed and slot 0 known but not committed.

   The read must wait there, then return the write once slot 0 commits.
   A gate that let it through would answer from the empty store. *)
let test_commutative_read_waits_for_earlier_write () =
  let engine, _, t = mk () in
  let wire, deliver_where = capture_wire engine t in
  Mencius.submit t ~node:0 (put ~key:5 1) (fun _ -> ());
  run_ms engine 1;
  deliver_where (fun ~src ~dst -> src = 0 && dst = 1);
  let read = ref None in
  Mencius.submit t ~node:1 (Types.Get { key = 5 }) (fun r -> read := Some r.Types.value);
  run_ms engine 1;
  deliver_where (fun ~src ~dst -> src = 1 && (dst = 0 || dst = 2));
  deliver_where (fun ~src ~dst -> dst = 1 && (src = 0 || src = 2));
  Alcotest.(check int) "the read's slot is past the known frontier" 2
    (Mencius.known_frontier t ~node:1);
  Alcotest.(check int) "the write is not committed at the reader" 0
    (Mencius.commit_frontier t ~node:1);
  Alcotest.(check string) "the write is pending at the reader" "5=[0]"
    (unapplied_writes t ~node:1);
  Alcotest.(check (option (option int))) "the read waits" None !read;
  while not (Queue.is_empty wire) do
    deliver_where (fun ~src:_ ~dst:_ -> true)
  done;
  Alcotest.(check (option (option int))) "the read returns the write" (Some (Some 1)) !read

(* A revocation poll is a Paxos phase 1 that outranks the owner's own
   append.  Node 1 answers node 0's poll of slot 4, node 4's first turn;
   node 4's append to that slot then arrives and must be refused and left
   unacked, or node 4 could commit a value the revocation decides to
   skip.  Node 2, which promised nothing, holds and acks the same append. *)
let test_promise_refuses_owner_append () =
  let engine, _, t = mk () in
  let wire, deliver_where = capture_wire engine t in
  Mencius.deliver t ~node:1 (Mencius.MRevoke { from = 0; inst = 4 });
  Mencius.submit t ~node:4 (put ~key:70 700) (fun _ -> ());
  run_ms engine 1;
  deliver_where (fun ~src ~dst -> src = 4 && (dst = 1 || dst = 2));
  let acked_by node =
    Queue.fold
      (fun acc (src, dst, msg) ->
        acc
        || src = node && dst = 4
           && match msg with Mencius.MAck _ -> true | _ -> false)
      false wire
  in
  let slot4 node =
    List.nth (String.split_on_char ' ' (Mencius.dump_slots t ~node)) 4
  in
  Alcotest.(check bool) "the promised replica does not ack" false (acked_by 1);
  Alcotest.(check string) "the promised replica leaves the slot open" "4:U!"
    (slot4 1);
  Alcotest.(check bool) "an unpromised replica acks" true (acked_by 2);
  Alcotest.(check string) "an unpromised replica holds the value" "4:V(w700)!"
    (slot4 2)

(* A read held back by a write remembers that write, and must drop it
   when the write is revoked, even while an earlier slot still holds the
   applied prefix back.  At node 1, by hand-delivered messages:

   - slot 0: node 0's write of key 7, never committed;
   - slot 2: node 2's write of key 5, not committed;
   - slot 6: node 1's read of key 5, committed;
   - slot 11: node 1's own later write of key 5, so the key still has an
     unapplied write once slot 2 is gone.

   A revocation's skip of slot 2 must release the read, which answers
   from the empty store. *)
let test_read_released_when_its_write_is_revoked () =
  let engine, _, t = mk () in
  let _, deliver_where = capture_wire engine t in
  Mencius.submit t ~node:0 (put ~key:7 1) (fun _ -> ());
  run_ms engine 1;
  deliver_where (fun ~src ~dst -> src = 0 && dst = 1);
  Mencius.submit t ~node:2 (put ~key:5 2) (fun _ -> ());
  run_ms engine 1;
  deliver_where (fun ~src ~dst -> src = 2 && dst = 1);
  let read = ref None in
  Mencius.submit t ~node:1 (Types.Get { key = 5 }) (fun r -> read := Some r.Types.value);
  run_ms engine 1;
  for _ = 1 to 2 do
    deliver_where (fun ~src ~dst -> src = 1 && dst <> 2);
    deliver_where (fun ~src ~dst -> dst = 1 && src <> 2)
  done;
  Mencius.submit t ~node:1 (put ~key:5 3) (fun _ -> ());
  run_ms engine 1;
  Alcotest.(check string) "node 1's slots"
    "0:V(w1)! 1:S 2:V(w2)! 3:S 4:S 5:S 6:G 7:U! 8:U! 9:U! 10:U! 11:V(w3)!"
    (Mencius.dump_slots t ~node:1);
  Alcotest.(check int) "the read's slot is known" 7 (Mencius.known_frontier t ~node:1);
  Alcotest.(check (option (option int))) "the read waits" None !read;
  Mencius.deliver t ~node:1 (Mencius.MSkipForce { inst = 2 });
  run_ms engine 1;
  Alcotest.(check int) "slot 0 still holds the prefix" 0
    (Mencius.commit_frontier t ~node:1);
  Alcotest.(check (option (option int))) "the read returns" (Some None) !read

(* Crashes, restarts and a force-skipped write, with reads of the same
   keys throughout: once every replica has caught up, none holds an
   unapplied write. *)
let test_unapplied_writes_drain_under_churn () =
  let engine, net, t = mk () in
  let fired = ref 0 in
  let submit i node =
    let key = 1 + (i mod 5) in
    let op = if i mod 2 = 0 then Types.Get { key } else put ~key (3000 + i) in
    Mencius.submit t ~node op (fun _ -> incr fired)
  in
  let wave first node_of =
    for i = first to first + 19 do
      submit i (node_of i)
    done
  in
  wave 0 (fun i -> i mod 5);
  run_ms engine 100;
  Mencius.crash t ~node:3;
  wave 20 (fun i -> if i mod 5 = 3 then 0 else i mod 5);
  run_ms engine 5_000;
  (* Node 4's write reaches nobody, so its slot is revoked into a skip;
     node 4 holds it as an unapplied write until the heal. *)
  Net.set_partition net (Some (fun a b -> a <> b && (a = 4 || b = 4)));
  let revoked_fired = ref 0 in
  Mencius.submit t ~node:4 (put ~key:9 4000) (fun _ -> incr revoked_fired);
  wave 40 (fun i -> i mod 3);
  run_ms engine 15_000;
  Alcotest.(check bool) "the cut-off write is pending at its owner" true
    (List.exists
       (String.starts_with ~prefix:"9=")
       (String.split_on_char ';' (unapplied_writes t ~node:4)));
  Mencius.restart t ~node:3;
  Net.set_partition net None;
  wave 60 (fun i -> i mod 5);
  run_ms engine 60_000;
  Alcotest.(check int) "every other op completed" 80 !fired;
  Alcotest.(check int) "the cut-off write was revoked" 0 !revoked_fired;
  Alcotest.(check (option int)) "and never applied" None
    (Mencius.applied_value t ~node:4 ~key:9);
  let frontier = Mencius.commit_frontier t ~node:0 in
  for node = 0 to 4 do
    Alcotest.(check int) (Fmt.str "node %d caught up" node) frontier
      (Mencius.commit_frontier t ~node);
    Alcotest.(check string) (Fmt.str "node %d kw" node) "" (unapplied_writes t ~node)
  done

let prop_mencius_consistency =
  QCheck.Test.make ~name:"harness finds no stale reads (mencius)" ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      let open Raftpax_kvstore in
      let wl =
        {
          Workload.read_fraction = 0.5;
          conflict_rate = 0.5;
          value_size = 8;
          records = 50;
          clients_per_region = 3;
          key_dist = Workload.Uniform;
        }
      in
      let cfg =
        Harness.config ~duration_s:4 ~warmup_s:1 ~cooldown_s:1
          ~seed:(Int64.of_int seed) Harness.Mencius wl
      in
      let r = Harness.run cfg in
      (* no committed-order oracle for Mencius in the harness, but the
         closed loop must terminate without retries *)
      r.Harness.retries = 0)

let every_message_twice =
  { Net.delay_us = 0; dup_probability = 1.0; drop_probability = 0.0; reorder = false }

(* With three of five replicas down, node 0's one live peer acks every
   append to node 0's turn twice: a tally that counted deliveries would
   reach a majority of three on that one peer.  A third live replica
   does. *)
let test_duplicate_acks_count_once () =
  let engine, net, t = mk () in
  List.iter (fun node -> Mencius.crash t ~node) [ 2; 3; 4 ];
  Net.set_chaos net (Some every_message_twice);
  Mencius.submit t ~node:0 (put 1) (fun _ -> ());
  run_ms engine 8000;
  Alcotest.(check int) "turn 0 not committed on one peer's acks" 0
    (Mencius.commit_frontier t ~node:0);
  Mencius.restart t ~node:2;
  run_ms engine 8000;
  Alcotest.(check bool) "committed once a third node acks" true
    (Mencius.commit_frontier t ~node:0 >= 1)

(* A tally has one bit per replica and keeps the sign bit free. *)
let test_tally_width () =
  let net n =
    Net.create (Engine.create ~seed:1L ())
      ~nodes:(List.init n (fun i -> { Net.id = i; site = List.hd Topology.sites }))
  in
  ignore (Mencius.create Mencius.default_config (net (Sys.int_size - 1)));
  match Mencius.create Mencius.default_config (net Sys.int_size) with
  | _ -> Alcotest.fail "a cluster wider than a tally was accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "mencius_runtime"
    [
      ( "steady-state",
        [
          Alcotest.test_case "local commit" `Quick test_no_forwarding_local_commit;
          Alcotest.test_case "round robin" `Quick test_slot_ownership_round_robin;
          Alcotest.test_case "skips" `Quick test_skips_fill_gaps;
          Alcotest.test_case "conflict ordering" `Quick test_conflicting_slower_than_commutative;
          Alcotest.test_case "hot key order" `Quick test_hot_key_total_order;
          Alcotest.test_case "frontiers" `Quick test_frontiers_monotone_and_equal_eventually;
          Alcotest.test_case "200 concurrent ops reply once" `Quick
            (test_concurrent_ops_reply_once ~batch_size:1);
          Alcotest.test_case "200 concurrent ops reply once, batched" `Quick
            (test_concurrent_ops_reply_once ~batch_size:16);
          Alcotest.test_case "commutative read waits for earlier write" `Quick
            test_commutative_read_waits_for_earlier_write;
          Alcotest.test_case "read released when its write is revoked" `Quick
            test_read_released_when_its_write_is_revoked;
        ] );
      ( "failures",
        [
          Alcotest.test_case "revocation" `Quick test_crash_revocation;
          Alcotest.test_case "restart" `Quick test_restart_rejoins;
          Alcotest.test_case "revoked own op never acknowledged" `Quick
            test_revoked_own_op_never_acknowledged;
          Alcotest.test_case "a promise refuses the owner's append" `Quick
            test_promise_refuses_owner_append;
          Alcotest.test_case "duplicate acks count once" `Quick
            test_duplicate_acks_count_once;
          Alcotest.test_case "tally width" `Quick test_tally_width;
          Alcotest.test_case "unapplied writes drain under churn" `Quick
            test_unapplied_writes_drain_under_churn;
        ] );
      ( "consistency",
        List.map QCheck_alcotest.to_alcotest [ prop_mencius_consistency ] );
    ]
