module C = Raftpax_consensus
module Types = C.Types
module Net = Raftpax_sim.Net
module Cluster = Raftpax_nemesis.Cluster
module Protocol = Raftpax_kvstore.Protocol

let put key write_id = Types.Put { key; size = 8; write_id }
let get key = Types.Get { key }

(* Exploration needs path-independent timer deadlines: the election
   jitter draw advances a per-server RNG on every timer reset, so two
   interleavings reaching the same logical state would carry different
   pending deadlines and never merge in the visited set.  Collapsing the
   jitter window to a point makes the draw always return 0 without
   touching the runtime code. *)
let det_params =
  {
    Types.default_params with
    election_timeout_max_us = Types.default_params.election_timeout_min_us;
  }

let raft_config_for protocol =
  let det (c : C.Raft.config) = Some { c with params = det_params } in
  match protocol with
  | Cluster.Raft -> det (C.Raft.raft ~leader:0 ())
  | Cluster.Raft_star -> det (C.Raft.raft_star ~leader:0 ())
  | Cluster.Raft_ll -> det (C.Raft.raft_ll ~leader:0 ())
  | Cluster.Raft_pql -> det (C.Raft.raft_pql ~leader:0 ())
  | Cluster.Mencius | Cluster.Multipaxos -> None

(* Steady (crash-free) Raft scopes are about the replication and read
   paths.  Firing an election timer there opens a full election's worth
   of extra interleavings (candidate, votes, possible new leader), and a
   lease fire opens the whole grant/renewal conversation; either
   multiplies the space a hundredfold.  Heartbeat fires stay in — they
   interleave retransmission with replication, which is the interesting
   steady-state timing.  The crash scenarios, which are about leader
   loss, allow every timer; so does nemesis, which covers the lease
   paths with the same invariant library as a sanitizer. *)
let steady_fire_filter = function
  | Cluster.Raft | Cluster.Raft_star | Cluster.Raft_ll | Cluster.Raft_pql ->
      Some (fun ~node:_ ~label -> label = "heartbeat")
  | Cluster.Mencius | Cluster.Multipaxos -> None

let base ?fire_filter ?(symmetry = []) name protocol ~ops ~targets
    ~timer_budget ~crash_budget =
  {
    Model.sc_name = name;
    sc_protocol = protocol;
    sc_ops = ops;
    sc_targets = targets;
    sc_nodes = 3;
    sc_timer_budget = timer_budget;
    sc_crash_budget = crash_budget;
    sc_raft_config = raft_config_for protocol;
    sc_mencius_config = None;
    sc_multipaxos_config = None;
    sc_fire_filter = fire_filter;
    sc_policy = None;
    sc_symmetry = symmetry;
  }

(* ---- policy helpers ---- *)

(* First nonempty link in (src, dst) order whose delivery the policy
   allows.  Policies steer by withholding links, never by inventing
   choices the model would not offer. *)
let next_delivery ?(blocked = fun ~src:_ ~dst:_ -> false) w =
  let n = (Model.cluster w).Cluster.n in
  let found = ref None in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if
        Model.queue_info w ~src ~dst <> []
        && not (blocked ~src ~dst)
      then found := Some (Model.Deliver (src, dst))
    done
  done;
  !found

let dump_has_token w ~node tok =
  let dump = (Model.cluster w).Cluster.dump ~node in
  List.mem tok (String.split_on_char ' ' dump)

(* ---- clean scenarios ---- *)

(* "steady-raft*-pql": the family prefix, then the display name. *)
let scope_name prefix protocol =
  prefix ^ String.lowercase_ascii (Cluster.protocol_name protocol)

(* A write then a read of the same key, submitted at two different
   replicas: exercises replication, forwarding, commit, the reply path
   and (under PQL) the lease-grant and commit-waited local read.  One
   timer fire lets heartbeats / watchdogs / lease renewals interleave
   anywhere. *)
let steady protocol =
  base ?fire_filter:(steady_fire_filter protocol)
    (scope_name "steady-" protocol) protocol
    ~ops:[ put 11 1; get 11 ]
    ~targets:[ 0; 1 ] ~timer_budget:1 ~crash_budget:0

(* The symmetry variant routes the whole workload through the bootstrap
   leader, which makes the two followers indistinguishable: nothing in
   the scenario (targets, fire filter, budgets) mentions node 1 or 2
   individually, so states that differ only by swapping the followers'
   roles are one orbit and {!Model.fingerprint} collapses them.  Mencius
   is excluded — its slot ownership ([inst mod n]) bakes node ids into
   slot numbers, so no renaming of follower state can be faithful. *)
let steady_sym protocol =
  base
    ?fire_filter:(steady_fire_filter protocol)
    ~symmetry:[ 1; 2 ] (scope_name "steady-sym-" protocol) protocol
    ~ops:[ put 11 1; get 11 ]
    ~targets:[ 0; 0 ] ~timer_budget:1 ~crash_budget:0

(* Same scope with the reduction off, for the test that asserts the
   quotient shrinks the visited set without changing any verdict. *)
let steady_sym_off protocol =
  { (steady_sym protocol) with Model.sc_symmetry = [] }

let sym_protocols =
  [ Cluster.Raft; Cluster.Raft_star; Cluster.Raft_pql; Cluster.Multipaxos ]

(* The crash variant adds one crash anywhere plus restarts; with two
   timer fires an election can complete after a leader crash. *)
let crash protocol =
  base (scope_name "crash-" protocol) protocol
    ~ops:[ put 11 1; get 11 ]
    ~targets:[ 0; 1 ] ~timer_budget:2 ~crash_budget:1

(* ---- batched variants ---- *)

(* The same scopes with leader-side command batching armed (batch size 2,
   1 us flush delay): batching is the paper's Section-4 non-mutating
   optimization, so the checker must reach exactly the verdicts of the
   unbatched scope while the flush timer and the batch accumulators join
   the choice set and the state fingerprint.

   Batching only touches the write path, so the batched scopes replace
   the read with a second write — two puts submitted at two replicas —
   and steady scopes narrow the fire filter to the flush timers alone:
   heartbeat/watchdog/lease interleavings are the unbatched scopes' job,
   and admitting them under the larger budget multiplies the space
   without testing anything batching-specific.  The model submits ops
   sequentially (the next only after the previous ack), so every command
   is a lone size-2 batch that ships only when its flush timer fires:
   the timer budget grows by one fire per op.  Crash scopes admit the
   flush timers plus the protocol's failure-recovery timer (Raft's
   election, Mencius'/MultiPaxos' watchdog) so leader loss, recovery and
   batched replication interleave, and carry a single write — the
   crash/restart/recovery choices widen every search layer so much that
   a two-op goal sits beyond any sane state bound; one op still drives a
   crash into an armed accumulator and a flush after recovery.  They are
   bounded hunts, not exhaustive proofs.

   PQL is the exception in the crash scope: its quorum-lease handshake
   puts the write's ack several message rounds deeper than the other
   protocols', beyond what a blind bounded search reaches.  A policy
   prefix commits the batched write deterministically (greedy delivery,
   firing the flush timer when the batch is all that's left), then hands
   the post-commit state to exploration for the crash/recovery hunt. *)
let batchify sc =
  let batch (p : Types.params) = { p with batch_size = 2; batch_delay_us = 1 } in
  let protocol = sc.Model.sc_protocol in
  {
    sc with
    Model.sc_name = sc.Model.sc_name ^ "-batched";
    sc_ops =
      (if sc.Model.sc_crash_budget = 0 then [ put 11 1; put 12 2 ]
       else [ put 11 1 ]);
    sc_targets =
      (* Symmetry scopes route every op through the bootstrap leader:
         a target of 1 would distinguish the followers and break the
         orbit argument that makes the reduction sound. *)
      (if sc.Model.sc_crash_budget > 0 then [ 0 ]
       else if sc.Model.sc_symmetry <> [] then [ 0; 0 ]
       else [ 0; 1 ]);
    sc_timer_budget =
      (sc.Model.sc_timer_budget + if sc.Model.sc_crash_budget = 0 then 2 else 1);
    sc_raft_config =
      Option.map
        (fun (c : C.Raft.config) -> { c with params = batch c.params })
        sc.Model.sc_raft_config;
    sc_mencius_config =
      (match protocol with
      | Cluster.Mencius ->
          let c = C.Mencius.default_config in
          Some { c with params = batch c.C.Mencius.params }
      | _ -> sc.Model.sc_mencius_config);
    sc_multipaxos_config =
      (match protocol with
      | Cluster.Multipaxos ->
          let c = C.Multipaxos.default_config in
          Some { c with params = batch c.C.Multipaxos.params }
      | _ -> sc.Model.sc_multipaxos_config);
    sc_fire_filter =
      (if sc.Model.sc_crash_budget = 0 then
         Some (fun ~node:_ ~label -> label = "flush")
       else
         let recovery =
           match protocol with
           | Cluster.Raft | Cluster.Raft_star | Cluster.Raft_ll
           | Cluster.Raft_pql ->
               "election"
           | Cluster.Mencius | Cluster.Multipaxos -> "watchdog"
         in
         Some (fun ~node:_ ~label -> label = "flush" || label = recovery));
    sc_policy =
      (if sc.Model.sc_crash_budget > 0 && protocol = Cluster.Raft_pql then (
         (* Stop BEFORE the goal: a prefix that already acks the write
            would short-circuit the checker's exploration entirely.
            Drain the lease-establishment traffic, put the batched
            append on the wire, then hand over to the search. *)
         let fired = ref false in
         Some
           (fun w ->
             if !fired then None
             else
               match next_delivery w with
               | Some d -> Some d
               | None ->
                   fired := true;
                   Some (Model.Fire (0, "flush", 0))))
       else sc.Model.sc_policy);
  }

(* ---- mutation smoke scenarios ---- *)

(* Mencius slot reuse after revocation (the PR-1 bug, re-armed by
   [bug_slot_reuse]).  The scripted policy steers into the triggering
   region: node 2's slot 2 gets revoked into a committed skip while
   node 2 still has a command waiting in its inbox.  Route:

   - A@0, B@1 commit normally; C@1 lands in slot 4 but its append to
     node 2 is withheld (the (1,2) link is blocked after the two
     messages B needed), so every commit frontier stalls at slot 2;
   - D's submission at node 2 is withheld entirely (the (2,2) link);
   - node 0's watchdog fires twice: the first arms the stall detector,
     the second starts a revocation of slot 2; nobody saw a value, so
     the majority answer forces slot 2 to a committed skip everywhere.

   Exploration then delivers D's submission: the clean runtime advances
   [next_own] past the decided slot and proposes D at slot 5; the mutant
   proposes D straight into the committed skip, and the committed-slot
   agreement invariant fails within one choice. *)
let mencius_slot_reuse ~mutant () =
  let delivered_12 = ref 0 in
  let fires = ref 0 in
  let blocked ~src ~dst =
    (src = 2 && dst = 2) || (src = 1 && dst = 2 && !delivered_12 >= 2)
  in
  let policy w =
    match next_delivery ~blocked w with
    | Some (Model.Deliver (1, 2) as d) ->
        incr delivered_12;
        Some d
    | Some d -> Some d
    | None ->
        if dump_has_token w ~node:2 "2:S" then None
        else if !fires < 6 then begin
          incr fires;
          Some (Model.Fire (0, "watchdog", 0))
        end
        else None
  in
  {
    (base
       (if mutant then "mencius-slot-reuse" else "mencius-slot-reuse-clean")
       Cluster.Mencius
       ~ops:[ put 11 1; put 12 2; put 13 3; put 14 4 ]
       ~targets:[ 0; 1; 1; 2 ] ~timer_budget:1 ~crash_budget:0)
    with
    sc_mencius_config =
      Some { C.Mencius.default_config with bug_slot_reuse = mutant };
    sc_policy = Some policy;
  }

(* MultiPaxos missing takeover from a restarted leader (the PR-1 bug,
   re-armed by [bug_no_takeover_after_restart]).  The policy commits one
   command, then crash-restarts the bootstrap leader, which comes back
   live but demoted — the cluster is leaderless with nobody down.  The
   second command, submitted at node 1, can only commit if node 0's
   watchdog notices the demoted leader and re-runs Phase 1.  The clean
   runtime reaches the all-acked goal; under the mutant the watchdog
   only reacts to a *down* leader, the forward loop collapses into a
   fingerprint cycle, and the goal is unreachable with [complete]
   still true — which is the detection. *)
let mp_takeover ~mutant () =
  let crashed = ref false in
  let policy w =
    if Model.acked w < 1 then next_delivery w
    else
      match next_delivery ~blocked:(fun ~src ~dst -> src = 1 && dst = 1) w with
      | Some d -> Some d
      | None ->
          if not !crashed then begin
            crashed := true;
            Some (Model.Crash 0)
          end
          else if Net.node_down (Model.net w) 0 then Some (Model.Restart 0)
          else None
  in
  {
    (base
       (if mutant then "mp-takeover" else "mp-takeover-clean")
       Cluster.Multipaxos
       ~ops:[ put 11 1; put 12 2 ]
       ~targets:[ 0; 1 ] ~timer_budget:2 ~crash_budget:0)
    with
    sc_multipaxos_config =
      Some
        {
          C.Multipaxos.default_config with
          bug_no_takeover_after_restart = mutant;
        };
    sc_policy = Some policy;
  }

(* ---- refinement scope ---- *)

(* The runtime exploration the refinement checker walks: Raft* with the
   bootstrap leader, two writes through both the direct and the
   forwarded path, and zero fault budgets — the scope where every
   runtime transition must project to legal Spec_multipaxos steps (see
   {!Refine} and DESIGN.md for why elections stay out of scope). *)
let refinement () =
  base "refine-raft-star" Cluster.Raft_star
    ~ops:[ put 11 1; put 12 2 ]
    ~targets:[ 0; 1 ] ~timer_budget:0 ~crash_budget:0

(* ---- registry ---- *)

type kind = Steady | Crash | Mutant | Refine

(* A registered scope: the spellings [by_name] accepts, the first being
   its [sc_name], and a builder, because scenario values hold single-use
   policy state. *)
type entry = { kind : kind; spellings : string list; make : unit -> Model.scenario }

(* The unbatched families: steady and crash over [protocols], the
   symmetry scopes over {!sym_protocols}.  Every family gets its batched
   twin in [scopes], so a base scope cannot exist without one. *)
let unbatched protocols =
  let family kind prefix make ps =
    List.map
      (fun p ->
        {
          kind;
          spellings = [ scope_name prefix p; prefix ^ Protocol.cli_name p ];
          make = (fun () -> make p);
        })
      ps
  in
  family Steady "steady-" steady protocols
  @ family Steady "steady-sym-" steady_sym sym_protocols
  @ family Crash "crash-" crash protocols

let batched e =
  {
    e with
    spellings = List.map (fun n -> n ^ "-batched") e.spellings;
    make = (fun () -> batchify (e.make ()));
  }

let mutants =
  let entry kind name make = { kind; spellings = [ name ]; make } in
  [
    entry Mutant "mencius-slot-reuse" (mencius_slot_reuse ~mutant:true);
    entry Mutant "mencius-slot-reuse-clean" (mencius_slot_reuse ~mutant:false);
    entry Mutant "mp-takeover" (mp_takeover ~mutant:true);
    entry Mutant "mp-takeover-clean" (mp_takeover ~mutant:false);
    entry Refine "refine-raft-star" refinement;
  ]

let scopes protocols =
  let unbatched = unbatched protocols in
  unbatched @ List.map batched unbatched @ mutants

(* [names] lists the chaos-matrix protocols; [by_name] also accepts
   Raft-LL's steady and crash scopes. *)
let registry =
  List.map (fun e -> (List.hd e.spellings, e.kind)) (scopes Cluster.all_protocols)

let names = List.map fst registry

let by_name name =
  let name = String.lowercase_ascii name in
  Option.map
    (fun e -> e.make ())
    (List.find_opt (fun e -> List.mem name e.spellings) (scopes Protocol.all))
