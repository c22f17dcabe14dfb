module Core = Raftpax_core
module V = Core.Value
module State = Core.State
module Spec = Core.Spec
module Proto_config = Core.Proto_config
module C = Raftpax_consensus
module Cluster = Raftpax_nemesis.Cluster

(* Implementation-refines-spec at small scope: every transition of the
   Raft* runtime must project, through the paper's Figure-3 state
   mapping, to a legal sequence of Spec_multipaxos steps (or a stutter).

   The projection keeps the variables the runtime actually realizes —
   highestBallot (currentTerm), isLeader (role = Leader), logTail and
   logs (entries with their Raft* ballot field) — and abstracts the
   message soup (msgs1a/msgs1b/votes/proposedValues), which the runtime
   represents differently.  A runtime state therefore corresponds to a
   *set* of candidate spec states sharing its core projection, and the
   check is a forward simulation over candidate sets: a transition is
   discharged if some candidate can reach, in at most [max_hops] spec
   steps, a state whose core matches the runtime successor.

   Scope (see {!Scenario.refinement} and DESIGN.md): bootstrap leader,
   zero fault budgets.  Runtime elections are out of scope — the spec's
   Phase1b requires [bal > highestBallot], so the acceptor that raised
   its own ballot can never answer its own prepare, while
   [BecomeLeader] only accepts quorums containing the candidate; the
   runtime candidate, by contrast, votes for itself.  The spec-level
   Raft* => MultiPaxos refinement covers elections because both specs
   share that initiator-never-leads structure; at runtime the
   correspondence holds on the replication path, which is what this
   checker walks. *)

type failure = {
  f_schedule : Model.choice list;
  f_choice : Model.choice;
  f_core : string;  (** unreachable target projection *)
}

type result = {
  r_ok : bool;
  r_runtime_states : int;
  r_checked_transitions : int;
  r_spec_states_touched : int;
  r_failure : failure option;
}

(* ---- the core projection ---- *)

let value_of_cmd = function None -> 1 (* noop *) | Some id -> id + 2

let core_of_peeks (peeks : C.Raft.peek array) cfg =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun a (pk : C.Raft.peek) ->
      Buffer.add_string buf
        (Printf.sprintf "a%d:hb%d,l%b,tail%d,[" a pk.C.Raft.pk_term
           pk.C.Raft.pk_is_leader
           (List.length pk.C.Raft.pk_log - 1));
      List.iteri
        (fun i (e : C.Raft.peek_entry) ->
          if i <= cfg.Proto_config.max_index then
            Buffer.add_string buf
              (Printf.sprintf "(%d,%d);" e.C.Raft.pe_ballot
                 (value_of_cmd e.C.Raft.pe_cmd)))
        pk.C.Raft.pk_log;
      Buffer.add_string buf "] ")
    peeks;
  Buffer.contents buf

let core_of_state cfg s =
  let buf = Buffer.create 256 in
  List.iter
    (fun a ->
      let hb = V.to_int (V.get (State.get s "highestBallot") (V.int a)) in
      let l = V.to_bool (V.get (State.get s "isLeader") (V.int a)) in
      let tail = V.to_int (V.get (State.get s "logTail") (V.int a)) in
      let log = V.get (State.get s "logs") (V.int a) in
      Buffer.add_string buf (Printf.sprintf "a%d:hb%d,l%b,tail%d,[" a hb l tail);
      List.iter
        (fun i ->
          match V.to_tuple (V.get log (V.int i)) with
          | [ b; v ] when V.to_int b >= 0 && i <= tail ->
              Buffer.add_string buf
                (Printf.sprintf "(%d,%s);" (V.to_int b) (V.to_string v))
          | _ -> ())
        (Proto_config.indexes cfg);
      Buffer.add_string buf "] ")
    (Proto_config.acceptor_ids cfg);
  Buffer.contents buf

let runtime_core cfg w =
  match (Model.cluster w).Cluster.raft_peek with
  | None -> invalid_arg "Refine: not a Raft-family cluster"
  | Some peek ->
      core_of_peeks
        (Array.init (Model.cluster w).Cluster.n (fun node -> peek ~node))
        cfg

(* ---- spec-side search ---- *)

let state_key s =
  String.concat "|"
    (List.map (fun (v, x) -> v ^ "=" ^ V.to_string x) (State.to_list s))

(* All spec states within [max_hops] steps of [from] whose core matches
   [core]; intermediate states may project anywhere (the runtime batches
   several spec steps into one handler).  Memoized: the same candidate
   is asked about the same target over and over across runtime paths. *)
let reach_matching spec cfg ~memo ~touched ~max_hops ~core from =
  let key = (state_key from, core) in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
      let matches =
        Seq.fold_left
          (fun acc (_, s) ->
            incr touched;
            if core_of_state cfg s = core then State.Set.add s acc else acc)
          State.Set.empty
          (Core.Explorer.within spec ~max_hops from)
      in
      Hashtbl.replace memo key matches;
      matches

(* ---- bootstrap ---- *)

(* The runtime boots with node 0 already elected at term 1 holding the
   noop entry; the spec must earn that state.  The discharge is the
   directed seven-step opening in which node 1 *initiates* the election
   node 0 wins (the only shape the spec allows — see the module
   comment): IncreaseHighestBallot(1), Phase1a(1), Phase1b(0),
   Phase1b(2), BecomeLeader(0, {0,2}), then Propose and Accept of the
   noop at index 0. *)
let bootstrap_steps =
  [
    ("IncreaseHighestBallot", "a=1,b=1");
    ("Phase1a", "a=1");
    ("Phase1b", "a=0,b=1");
    ("Phase1b", "a=2,b=1");
    ("BecomeLeader", "a=0,q=02");
    ("Propose", "a=0,i=0,v=1");
    ("Accept", "a=0,i=0,b=1,v=1");
  ]

(* ---- the product exploration ---- *)

let check ?(max_hops = 4) ?(max_states = 20_000) () =
  let sc = Scenario.refinement () in
  let ncmds = List.length sc.Model.sc_ops in
  let cfg =
    {
      Proto_config.acceptors = 3;
      values = 1 + ncmds;  (* noop plus one per command *)
      max_ballot = 1;
      max_index = ncmds;  (* noop at 0, one slot per command *)
    }
  in
  let spec = Core.Spec_multipaxos.spec cfg in
  let memo = Hashtbl.create 256 in
  let touched = ref 0 in
  let checked = ref 0 in
  let states = ref 0 in
  let failure = ref None in
  let w0 = Model.build sc in
  let core0 = runtime_core cfg w0 in
  let s0 = Core.Scenario.run spec (List.hd spec.Spec.init) bootstrap_steps in
  if core_of_state cfg s0 <> core0 then
    invalid_arg
      (Printf.sprintf
         "Refine: bootstrap projection mismatch@ spec=%s@ runtime=%s"
         (core_of_state cfg s0) core0);
  (* visited: runtime fingerprint -> candidate sets already explored
     there.  Candidate sets from different paths to the same runtime
     state must NOT be unioned (the simulation is per-path); instead a
     new set is skipped only when some explored set subsumes it. *)
  let visited : (string, State.Set.t list) Hashtbl.t = Hashtbl.create 256 in
  let subsumed fp cands =
    match Hashtbl.find_opt visited fp with
    | None -> false
    | Some sets -> List.exists (fun s -> State.Set.subset cands s) sets
  in
  let remember fp cands =
    let sets = Option.value ~default:[] (Hashtbl.find_opt visited fp) in
    Hashtbl.replace visited fp (cands :: sets)
  in
  let frontier = Queue.create () in
  remember (Model.fingerprint w0) (State.Set.singleton s0);
  incr states;
  Queue.push ([], State.Set.singleton s0) frontier;
  while !failure = None && not (Queue.is_empty frontier) && !states < max_states
  do
    let rev_suffix, cands = Queue.pop frontier in
    let w = Checker.replay sc [] rev_suffix in
    let cs = Model.choices w in
    List.iter
      (fun c ->
        if !failure = None then begin
          let w' = Checker.replay sc [] rev_suffix in
          Model.apply w' c;
          incr checked;
          let core' = runtime_core cfg w' in
          let cands' =
            State.Set.fold
              (fun s acc ->
                State.Set.union acc
                  (reach_matching spec cfg ~memo ~touched ~max_hops ~core:core'
                     s))
              cands State.Set.empty
          in
          if State.Set.is_empty cands' then
            failure :=
              Some
                {
                  f_schedule = List.rev (c :: rev_suffix);
                  f_choice = c;
                  f_core = core';
                }
          else begin
            let fp = Model.fingerprint w' in
            if not (subsumed fp cands') then begin
              remember fp cands';
              incr states;
              Queue.push (c :: rev_suffix, cands') frontier
            end
          end
        end)
      cs
  done;
  {
    r_ok = !failure = None;
    r_runtime_states = !states;
    r_checked_transitions = !checked;
    r_spec_states_touched = !touched;
    r_failure = !failure;
  }

let pp_result ppf r =
  match r.r_failure with
  | None ->
      Fmt.pf ppf
        "refinement ok: %d runtime states, %d transitions discharged, %d spec \
         states searched"
        r.r_runtime_states r.r_checked_transitions r.r_spec_states_touched
  | Some f ->
      Fmt.pf ppf
        "@[<v>refinement FAILS: no spec path matches the runtime \
         projection@,after: %s@,on: %s@,target core: %s@]"
        (Model.render_schedule f.f_schedule)
        (Model.render_choice f.f_choice) f.f_core
