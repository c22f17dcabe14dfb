module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
open Raftpax_consensus

let mk ?(seed = 42L) config =
  let engine = Engine.create ~seed () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  let net = Net.create engine ~nodes in
  let t = Raft.create config net in
  Raft.start t;
  (engine, net, t)

let put ?(key = 1) ?(size = 8) write_id = Types.Put { key; size; write_id }

let run_and_wait engine ~ms = Engine.run engine ~until:(Engine.now engine + (ms * 1000))

(* ---- replication and commit ---- *)

let test_commit_reaches_all () =
  let engine, _, t = mk (Raft.raft_star ~leader:0 ()) in
  let ok = ref 0 in
  for i = 1 to 10 do
    Raft.submit t ~node:(i mod 5) (put ~key:i i) (fun _ -> incr ok)
  done;
  run_and_wait engine ~ms:3000;
  Alcotest.(check int) "all committed" 10 !ok;
  for node = 0 to 4 do
    for key = 1 to 10 do
      Alcotest.(check (option int))
        (Fmt.str "node %d key %d" node key)
        (Some key)
        (Raft.applied_value t ~node ~key)
    done
  done

let test_latency_shape () =
  let engine, _, t = mk (Raft.raft_star ~leader:0 ()) in
  let leader_lat = ref 0 and seoul_lat = ref 0 in
  let t0 = Engine.now engine in
  Raft.submit t ~node:0 (put 1) (fun _ -> leader_lat := Engine.now engine - t0);
  Raft.submit t ~node:4 (put 2) (fun _ -> seoul_lat := Engine.now engine - t0);
  run_and_wait engine ~ms:2000;
  (* Oregon leader commits in ~1 majority RTT (60ms); Seoul pays the
     forwarding trip on top. *)
  Alcotest.(check bool) "leader ~60-100ms" true
    (!leader_lat > 55_000 && !leader_lat < 110_000);
  Alcotest.(check bool) "seoul slower than leader" true (!seoul_lat > !leader_lat)

let test_read_returns_latest_write () =
  let engine, _, t = mk (Raft.raft ~leader:0 ()) in
  let seen = ref None in
  Raft.submit t ~node:0 (put ~key:7 41) (fun _ -> ());
  run_and_wait engine ~ms:1000;
  Raft.submit t ~node:0 (put ~key:7 42) (fun _ -> ());
  run_and_wait engine ~ms:1000;
  Raft.submit t ~node:3 (Types.Get { key = 7 }) (fun r -> seen := r.Types.value);
  run_and_wait engine ~ms:1000;
  Alcotest.(check (option int)) "latest write" (Some 42) !seen

(* ---- elections ---- *)

let test_election_from_cold_start () =
  let engine, _, t = mk (Raft.raft_star ()) in
  run_and_wait engine ~ms:8000;
  match Raft.leader_of t with
  | Some l ->
      Alcotest.(check bool) "a leader exists" true (l >= 0 && l < 5);
      let ok = ref false in
      Raft.submit t ~node:2 (put 1) (fun _ -> ok := true);
      run_and_wait engine ~ms:3000;
      Alcotest.(check bool) "cluster serves requests" true !ok
  | None -> Alcotest.fail "no leader elected"

let test_leader_crash_failover () =
  let engine, _, t = mk (Raft.raft_star ~leader:0 ()) in
  let ok = ref false in
  Raft.submit t ~node:1 (put 1) (fun _ -> ok := true);
  run_and_wait engine ~ms:2000;
  Alcotest.(check bool) "initial op" true !ok;
  Raft.crash t ~node:0;
  run_and_wait engine ~ms:10_000;
  (match Raft.leader_of t with
  | Some l -> Alcotest.(check bool) "new leader is not 0" true (l <> 0)
  | None -> Alcotest.fail "no new leader");
  let ok2 = ref false in
  let new_leader = Option.get (Raft.leader_of t) in
  Raft.submit t ~node:new_leader (put ~key:2 2) (fun _ -> ok2 := true);
  run_and_wait engine ~ms:3000;
  Alcotest.(check bool) "progress after failover" true !ok2

let test_crashed_node_catches_up () =
  let engine, _, t = mk (Raft.raft_star ~leader:0 ()) in
  Raft.crash t ~node:4;
  for i = 1 to 5 do
    Raft.submit t ~node:0 (put ~key:i i) (fun _ -> ())
  done;
  run_and_wait engine ~ms:3000;
  Alcotest.(check (option int)) "node 4 behind" None (Raft.applied_value t ~node:4 ~key:3);
  Raft.restart t ~node:4;
  run_and_wait engine ~ms:3000;
  for i = 1 to 5 do
    Alcotest.(check (option int))
      (Fmt.str "caught up on %d" i)
      (Some i)
      (Raft.applied_value t ~node:4 ~key:i)
  done

let test_minority_partition_stalls_then_recovers () =
  let engine, net, t = mk (Raft.raft_star ~leader:0 ()) in
  (* leader plus one follower cut off: no quorum on the leader side *)
  Net.set_partition net
    (Some (fun a b -> (a <= 1 && b >= 2) || (b <= 1 && a >= 2)));
  let ok = ref false in
  Raft.submit t ~node:0 (put 1) (fun _ -> ok := true);
  run_and_wait engine ~ms:4000;
  Alcotest.(check bool) "no commit without quorum" false !ok;
  (* the majority side elects its own leader meanwhile *)
  run_and_wait engine ~ms:8000;
  (match Raft.leader_of t with
  | Some l -> Alcotest.(check bool) "majority-side leader" true (l >= 2)
  | None -> Alcotest.fail "majority side should have elected");
  Net.set_partition net None;
  run_and_wait engine ~ms:15_000;
  (* The in-flight op was submitted to a deposed leader: Raft may lose it
     (clients retry in practice).  A fresh op must commit, and the old
     leader must have stepped down. *)
  let ok2 = ref false in
  Raft.submit t ~node:0 (put ~key:2 2) (fun _ -> ok2 := true);
  run_and_wait engine ~ms:10_000;
  Alcotest.(check bool) "fresh op commits after heal" true !ok2;
  Alcotest.(check (option int)) "applied cluster-wide" (Some 2)
    (Raft.applied_value t ~node:4 ~key:2)

let test_terms_monotonic () =
  let engine, _, t = mk (Raft.raft_star ~leader:0 ()) in
  let before = Raft.term_of t ~node:0 in
  Raft.crash t ~node:0;
  run_and_wait engine ~ms:10_000;
  Raft.restart t ~node:0;
  run_and_wait engine ~ms:5000;
  Alcotest.(check bool) "term advanced" true (Raft.term_of t ~node:0 > before)

(* ---- log convergence across flavors ---- *)

let logs_converge t =
  let reference = Raft.log_entries t ~node:0 in
  let commit = Raft.commit_index t ~node:0 in
  List.for_all
    (fun node ->
      let log = Raft.log_entries t ~node in
      let prefix l = List.filteri (fun i _ -> i <= commit) l in
      prefix log = prefix reference)
    [ 1; 2; 3; 4 ]

let test_log_convergence_vanilla_and_star () =
  List.iter
    (fun config ->
      let engine, _, t = mk config in
      for i = 1 to 20 do
        Raft.submit t ~node:(i mod 5) (put ~key:i i) (fun _ -> ())
      done;
      run_and_wait engine ~ms:1000;
      Raft.crash t ~node:0;
      run_and_wait engine ~ms:10_000;
      for i = 21 to 30 do
        Raft.submit t ~node:(i mod 4 + 1) (put ~key:i i) (fun _ -> ())
      done;
      run_and_wait engine ~ms:10_000;
      Raft.restart t ~node:0;
      run_and_wait engine ~ms:10_000;
      Alcotest.(check bool) "committed prefixes equal" true (logs_converge t))
    [ Raft.raft ~leader:0 (); Raft.raft_star ~leader:0 () ]

(* ---- leases ---- *)

let test_ll_reads_local_at_leader_only () =
  let engine, _, t = mk (Raft.raft_ll ~leader:0 ()) in
  (* warm the lease *)
  Raft.submit t ~node:0 (put 1) (fun _ -> ());
  run_and_wait engine ~ms:1000;
  let t0 = Engine.now engine in
  let leader_read = ref 0 and follower_read = ref 0 in
  Raft.submit t ~node:0 (Types.Get { key = 1 }) (fun _ ->
      leader_read := Engine.now engine - t0);
  Raft.submit t ~node:1 (Types.Get { key = 1 }) (fun _ ->
      follower_read := Engine.now engine - t0);
  run_and_wait engine ~ms:2000;
  Alcotest.(check bool) "leader read is local (<5ms)" true (!leader_read < 5_000);
  Alcotest.(check bool) "follower read pays the WAN" true (!follower_read > 40_000)

let test_pql_reads_local_everywhere () =
  let engine, _, t = mk (Raft.raft_pql ~leader:0 ()) in
  Raft.submit t ~node:0 (put 1) (fun _ -> ());
  run_and_wait engine ~ms:2000;
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Fmt.str "lease active at %d" node)
        true
        (Raft.lease_active t ~node))
    [ 0; 1; 2; 3; 4 ];
  let lat = Array.make 5 0 in
  let t0 = Engine.now engine in
  for node = 0 to 4 do
    Raft.submit t ~node (Types.Get { key = 1 }) (fun _ ->
        lat.(node) <- Engine.now engine - t0)
  done;
  run_and_wait engine ~ms:2000;
  Array.iteri
    (fun node l ->
      Alcotest.(check bool) (Fmt.str "node %d local read" node) true (l < 5_000))
    lat

let test_pql_read_waits_for_conflicting_write () =
  let engine, _, t = mk (Raft.raft_pql ~leader:0 ()) in
  Raft.submit t ~node:0 (put ~key:5 1) (fun _ -> ());
  run_and_wait engine ~ms:2000;
  (* now issue a write and, immediately after the follower has seen the
     append but before commit, a local read on the same key *)
  let read_value = ref None and read_done_at = ref 0 in
  let write_done_at = ref 0 in
  let t0 = Engine.now engine in
  Raft.submit t ~node:0 (put ~key:5 2) (fun _ ->
      write_done_at := Engine.now engine - t0);
  (* Ohio (node 1) sees the append after ~25ms; read at 30ms *)
  Engine.schedule engine ~delay:30_000 (fun () ->
      Raft.submit t ~node:1 (Types.Get { key = 5 }) (fun r ->
          read_value := r.Types.value;
          read_done_at := Engine.now engine - t0));
  run_and_wait engine ~ms:3000;
  Alcotest.(check (option int)) "read sees the new write" (Some 2) !read_value;
  Alcotest.(check bool) "read waited for the commit" true (!read_done_at > 35_000)

(* The [kw:] section of a replica's dump: each key's last log write. *)
let last_writes t ~node =
  let dump = Raft.dump_state t ~node in
  let section =
    List.find (String.starts_with ~prefix:"kw:") (String.split_on_char '|' dump)
  in
  String.sub section 3 (String.length section - 3)

(* Only quorum-lease reads consult the per-key last write, so Raft,
   Raft* and Raft-LL never record one. *)
let test_last_writes_only_under_pql () =
  List.iter
    (fun (name, config) ->
      let engine, _, t = mk config in
      for i = 1 to 6 do
        Raft.submit t ~node:(i mod 5) (put ~key:i i) (fun _ -> ())
      done;
      Raft.submit t ~node:2 (Types.Get { key = 1 }) (fun _ -> ());
      run_and_wait engine ~ms:3000;
      for node = 0 to 4 do
        Alcotest.(check (option int))
          (Fmt.str "%s node %d applied" name node)
          (Some 6)
          (Raft.applied_value t ~node ~key:6);
        Alcotest.(check string) (Fmt.str "%s node %d kw" name node) ""
          (last_writes t ~node)
      done)
    [
      ("raft", Raft.raft ~leader:0 ());
      ("raft*", Raft.raft_star ~leader:0 ());
      ("raft-ll", Raft.raft_ll ~leader:0 ());
    ]

(* Raft*-PQL records each write's log index at the leader, which appends
   it, and at every follower, which accepts it; a local read at either
   waits until that index commits. *)
let test_pql_reads_wait_at_leader_and_follower () =
  let engine, _, t = mk (Raft.raft_pql ~leader:0 ()) in
  Raft.submit t ~node:0 (put ~key:5 1) (fun _ -> ());
  run_and_wait engine ~ms:2000;
  let t0 = Engine.now engine in
  let write_done_at = ref 0 in
  Raft.submit t ~node:0 (put ~key:5 2) (fun _ ->
      write_done_at := Engine.now engine - t0);
  let reads = Array.make 2 (None, 0) in
  (* the leader has appended the write by 10 ms, Ohio (node 1) by 30 ms *)
  List.iteri
    (fun i (node, delay) ->
      Engine.schedule engine ~delay (fun () ->
          Raft.submit t ~node (Types.Get { key = 5 }) (fun r ->
              reads.(i) <- (r.Types.value, Engine.now engine - t0))))
    [ (0, 10_000); (1, 30_000) ];
  run_and_wait engine ~ms:3000;
  Array.iteri
    (fun node (value, at) ->
      Alcotest.(check (option int)) (Fmt.str "node %d reads the write" node)
        (Some 2) value;
      Alcotest.(check bool)
        (Fmt.str "node %d read (%dus) waited for the commit (%dus)" node at
           !write_done_at)
        true (at >= !write_done_at))
    reads;
  for node = 0 to 4 do
    Alcotest.(check string) (Fmt.str "node %d kw" node) "5=2" (last_writes t ~node)
  done

let test_pql_write_waits_for_all_holders () =
  let engine, _, t = mk (Raft.raft_pql ~leader:0 ()) in
  run_and_wait engine ~ms:1000;
  let star_lat = ref 0 and pql_lat = ref 0 in
  let t0 = Engine.now engine in
  Raft.submit t ~node:0 (put 1) (fun _ -> pql_lat := Engine.now engine - t0);
  run_and_wait engine ~ms:2000;
  let engine2, _, t2 = mk (Raft.raft_star ~leader:0 ()) in
  let t1 = Engine.now engine2 in
  Raft.submit t2 ~node:0 (put 1) (fun _ -> star_lat := Engine.now engine2 - t1);
  run_and_wait engine2 ~ms:2000;
  Alcotest.(check bool)
    (Fmt.str "pql write (%dus) slower than raft* (%dus)" !pql_lat !star_lat)
    true (!pql_lat > !star_lat)

let test_pql_lease_expiry_unblocks_writes () =
  let params = Types.default_params in
  let lease_us = params.Types.lease_duration_us
  and renew_us = params.Types.lease_renew_us in
  let engine, net, t = mk (Raft.raft_pql ~leader:0 ()) in
  run_and_wait engine ~ms:1000;
  (* Seoul dies holding leases: writes must stall until its lease expires,
     then commit with the majority. *)
  let crashed_at = Engine.now engine in
  Raft.crash t ~node:4;
  (* One renewal period: every grantor has sent its last grant to the
     dead holder, so no lease it holds outlives [t0 + lease_us]. *)
  Engine.run engine ~until:(crashed_at + renew_us);
  let t0 = Engine.now engine in
  let done_at = ref (-1) in
  Raft.submit t ~node:0 (put 1) (fun _ -> done_at := Engine.now engine);
  run_and_wait engine ~ms:500;
  Alcotest.(check int) "blocked on the dead holder" (-1) !done_at;
  (* The write's majority acks are in.  Cut the leader off so no later
     ack re-runs the commit check: only the armed retry can unblock it. *)
  Net.set_partition net (Some (fun a b -> a <> b && (a = 0 || b = 0)));
  run_and_wait engine ~ms:5000;
  Alcotest.(check bool) "write commits" true (!done_at > 0);
  (* The last grant the holder confirmed is at most one renewal period
     older than the crash. *)
  Alcotest.(check bool)
    (Fmt.str "blocked until the holder's lease expired (%dms after crash)"
       ((!done_at - crashed_at) / 1000))
    true
    (!done_at > crashed_at + lease_us - renew_us);
  Alcotest.(check bool)
    (Fmt.str "committed within a lease plus a heartbeat (%dms)"
       ((!done_at - t0) / 1000))
    true
    (!done_at - t0 <= lease_us + params.Types.heartbeat_interval_us)

(* Every ack that reaches a leader while a lease holder lags finds commit
   blocked; the leader must keep one armed re-check for that, not one per
   ack, or the event queue grows with the run. *)
let test_pql_pending_events_bounded () =
  let engine, _, t = mk (Raft.raft_pql ~leader:0 ()) in
  let rng = Sim.Rng.create 7L in
  let end_us = 10_000_000 in
  let writes = ref 0 in
  let rec client node () =
    if Engine.now engine < end_us then begin
      let key = Sim.Rng.int rng 1000 in
      let op =
        if Sim.Rng.int rng 10 = 0 then begin
          incr writes;
          put ~key !writes
        end
        else Types.Get { key }
      in
      Raft.submit t ~node op (fun _ -> client node ())
    end
  in
  for node = 0 to 4 do
    for _ = 1 to 20 do
      client node ()
    done
  done;
  let peak = ref 0 in
  let rec sample () =
    peak := max !peak (Engine.pending engine);
    if Engine.now engine < end_us then Engine.schedule engine ~delay:10_000 sample
  in
  sample ();
  Engine.run engine ~until:end_us;
  Alcotest.(check bool) "writes were issued" true (!writes > 100);
  Alcotest.(check bool)
    (Fmt.str "pending peak %d below 2000" !peak)
    true (!peak < 2000)

(* ---- consistency across random schedules (property) ---- *)

let prop_no_stale_reads =
  QCheck.Test.make ~name:"harness finds no stale reads" ~count:6
    QCheck.(int_range 1 1000)
    (fun seed ->
      let open Raftpax_kvstore in
      let wl =
        {
          Workload.read_fraction = 0.7;
          conflict_rate = 0.3;
          value_size = 8;
          records = 100;
          clients_per_region = 4;
          key_dist = Workload.Uniform;
        }
      in
      let cfg =
        Harness.config ~duration_s:4 ~warmup_s:1 ~cooldown_s:1
          ~seed:(Int64.of_int seed) Harness.Raft_pql wl
      in
      let r = Harness.run cfg in
      r.Harness.consistency_violations = 0)

let () =
  Alcotest.run "raft_runtime"
    [
      ( "replication",
        [
          Alcotest.test_case "commit reaches all" `Quick test_commit_reaches_all;
          Alcotest.test_case "latency shape" `Quick test_latency_shape;
          Alcotest.test_case "read latest" `Quick test_read_returns_latest_write;
        ] );
      ( "elections",
        [
          Alcotest.test_case "cold start" `Quick test_election_from_cold_start;
          Alcotest.test_case "leader crash" `Quick test_leader_crash_failover;
          Alcotest.test_case "catch up" `Quick test_crashed_node_catches_up;
          Alcotest.test_case "partition" `Quick test_minority_partition_stalls_then_recovers;
          Alcotest.test_case "terms monotonic" `Quick test_terms_monotonic;
          Alcotest.test_case "log convergence" `Quick test_log_convergence_vanilla_and_star;
        ] );
      ( "leases",
        [
          Alcotest.test_case "LL local at leader" `Quick test_ll_reads_local_at_leader_only;
          Alcotest.test_case "PQL local everywhere" `Quick test_pql_reads_local_everywhere;
          Alcotest.test_case "PQL read waits" `Quick test_pql_read_waits_for_conflicting_write;
          Alcotest.test_case "PQL reads wait at leader and follower" `Quick
            test_pql_reads_wait_at_leader_and_follower;
          Alcotest.test_case "last writes only under PQL" `Quick
            test_last_writes_only_under_pql;
          Alcotest.test_case "PQL write waits" `Quick test_pql_write_waits_for_all_holders;
          Alcotest.test_case "PQL lease expiry" `Quick test_pql_lease_expiry_unblocks_writes;
          Alcotest.test_case "PQL pending events bounded" `Quick
            test_pql_pending_events_bounded;
        ] );
      ( "consistency",
        List.map QCheck_alcotest.to_alcotest [ prop_no_stale_reads ] );
    ]
