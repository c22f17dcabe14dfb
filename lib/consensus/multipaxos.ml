module Net = Raftpax_sim.Net
module Engine = Raftpax_sim.Engine
module Cpu = Raftpax_sim.Cpu
module Telemetry = Raftpax_telemetry.Telemetry
module Metrics = Raftpax_telemetry.Metrics
module Span = Raftpax_telemetry.Span

type config = {
  params : Types.params;
  takeover_timeout_us : int;
  bug_no_takeover_after_restart : bool;
      (** test-only mutation: the watchdog only takes over from a *down*
          leader, re-introducing the pre-fix livelock where a restarted
          leader comes back as a non-leader and nobody ever runs Phase 1.
          The model checker's mutation smoke test asserts this is caught
          (as goal unreachability under an exhaustively explored scope). *)
}

let default_config =
  {
    params = Types.default_params;
    takeover_timeout_us = 3_000_000;
    bug_no_takeover_after_restart = false;
  }

type msg =
  | Prepare of { bal : int; from : int }
  | PrepareOk of {
      bal : int;
      from : int;
      accepted : (int * int * Types.cmd option) list;
          (** (instance, ballot, value) for every accepted instance *)
    }
  | Accept of {
      bal : int;
      from : int;
      items : (int * Types.cmd option) list;
          (** (instance, value) per command: one item unbatched, a whole
            flushed batch otherwise — one frame, CPU charge and ack *)
    }
  | AcceptOk of { bal : int; from : int; insts : int list }
  | Learn of { items : (int * Types.cmd option) list }
  | Forward of Types.cmd
  | Complete of { cmd_id : int; reply : Types.reply }

type server_probes = {
  pr_elections : Metrics.counter;  (** phase-1 rounds started *)
  pr_leader_wins : Metrics.counter;
  pr_ballot_changes : Metrics.counter;
  pr_accepts : Metrics.counter;  (** Accept broadcasts sent (per peer msg) *)
  pr_forwards : Metrics.counter;
}

let make_probes m ~node =
  let c name = Metrics.counter m name ~node in
  {
    pr_elections = c "elections";
    pr_leader_wins = c "leader_wins";
    pr_ballot_changes = c "ballot_changes";
    pr_accepts = c "accepts_sent";
    pr_forwards = c "forwards";
  }

type server = {
  id : int;
  mutable ballot : int;  (** highest ballot seen *)
  mutable is_leader : bool;
  mutable leader_hint : int;
  log : Types.cmd option option Log.t;
      (** per instance: the accepted value ([None] = nothing accepted,
          [Some None] = a noop) and ballot, the chosen flag, and the
          leader's tally of the peers that acked it *)
  mutable next_inst : int;  (** leader: next free instance *)
  mutable executed : int;  (** prefix [0..executed) applied to the store *)
  prepare_oks : (int, int) Hashtbl.t;  (** voter -> 1 (set) *)
  gathered : (int * int * Types.cmd option) Vec.t;
  proposed_cmds : Itbl.t;
      (** cmd ids this leader already assigned an instance (a set: the
          values are unused); a duplicated [Forward] must not occupy a
          second instance *)
  (* leader side: instances assigned but whose Accept broadcast is held
     for the current batch *)
  mutable pending_batch : (int * Types.cmd option) list;  (** reversed *)
  mutable last_leader_sign : int;
  mutable down : bool;
  pr : server_probes;
  node : Replica.node;
}

type t = {
  config : config;
  net : Net.t;
  engine : Engine.t;
  n : int;
  servers : server array;
  base : msg Replica.t;
  spans : Span.t;
}

let majority t = (t.n / 2) + 1
let p t = t.config.params

(* An [AcceptOk] is charged an 8-byte instance index per item. *)
let msg_size t = function
  | Prepare _ -> (p t).msg_header_bytes
  | AcceptOk { insts; _ } -> (p t).msg_header_bytes + (8 * List.length insts)
  | PrepareOk { accepted; _ } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, _, c) ->
            acc + match c with Some c -> Types.op_size c.Types.op | None -> 8)
          0 accepted
  | Accept { items; _ } | Learn { items } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, c) ->
            acc + match c with Some c -> Types.op_size c.Types.op | None -> 8)
          0 items
  | Forward cmd -> (p t).msg_header_bytes + Types.op_size cmd.Types.op
  | Complete _ -> (p t).reply_bytes

(* Accept [cmd] at instance [i], growing the log to hold it. *)
let accept srv i ~bal cmd =
  Log.ensure srv.log i;
  Log.set_ballot srv.log i bal;
  Log.set srv.log i (Some cmd)

(* Every accepted (instance, ballot, value), by descending instance. *)
let accepted srv =
  let acc = ref [] in
  Log.iteri
    (fun i v ->
      let b = Log.ballot srv.log i in
      match v with
      | Some c when b >= 0 -> acc := (i, b, c) :: !acc
      | Some _ | None -> ())
    srv.log;
  !acc

(* The value an instance is chosen or re-proposed with. *)
let value_at srv i = match Log.get srv.log i with Some c -> c | None -> None

(* Ballots are globally unique per server: b = round * n + id. *)
let next_ballot t srv = ((srv.ballot / t.n) + 1) * t.n + srv.id

(* Symmetry renaming: because a ballot encodes its proposer's id in its
   low digits, renaming node ids means renaming ballots too — keep the
   round, map the id.  Negative ballots (the "nothing accepted" marker)
   carry no id. *)
let rename_ballot rename ~n b = if b < 0 then b else (b / n * n) + rename (b mod n)

let render_msg ?(rename = Fun.id) ~n = function
  | Prepare { bal; from } ->
      Printf.sprintf "Prepare(b%d f%d)" (rename_ballot rename ~n bal)
        (rename from)
  | PrepareOk { bal; from; accepted } ->
      Printf.sprintf "PrepareOk(b%d f%d [%s])"
        (rename_ballot rename ~n bal)
        (rename from)
        (String.concat ";"
           (List.map
              (fun (i, b, c) ->
                Printf.sprintf "%d:b%d:%s" i
                  (rename_ballot rename ~n b)
                  (Types.render_cmd_opt ~rename c))
              (List.sort
                 (fun (i1, b1, _) (i2, b2, _) ->
                   if i1 <> i2 then Int.compare i1 i2 else Int.compare b1 b2)
                 accepted)))
  | Accept { bal; from; items } ->
      Printf.sprintf "Accept(b%d f%d [%s])"
        (rename_ballot rename ~n bal)
        (rename from)
        (String.concat ";"
           (List.map
              (fun (i, c) ->
                Printf.sprintf "%d:%s" i (Types.render_cmd_opt ~rename c))
              items))
  | AcceptOk { bal; from; insts } ->
      Printf.sprintf "AcceptOk(b%d f%d [%s])"
        (rename_ballot rename ~n bal)
        (rename from)
        (String.concat ";" (List.map string_of_int insts))
  | Learn { items } ->
      Printf.sprintf "Learn([%s])"
        (String.concat ";"
           (List.map
              (fun (i, c) ->
                Printf.sprintf "%d:%s" i (Types.render_cmd_opt ~rename c))
              items))
  | Forward cmd -> "Forward(" ^ Types.render_cmd ~rename cmd ^ ")"
  | Complete { cmd_id; reply } -> Replica.render_complete cmd_id reply

let send t ~src ~dst msg = Replica.send t.base ~src ~dst msg
let broadcast t srv msg = Replica.broadcast t.base ~src:srv.id msg

(* Execute the decided prefix in order. *)
let rec execute t srv =
  while Log.chosen srv.log srv.executed do
    Metrics.inc srv.node.commits;
    (match Log.get srv.log srv.executed with
    | Some (Some cmd) -> Replica.commit t.base srv.node ~reply:srv.is_leader cmd
    | Some None | None -> ());
    srv.executed <- srv.executed + 1
  done

(* Record a decision without executing; callers run one [execute] walk
   per delivered batch instead of per instance. *)
and choose srv i cmd =
  Log.ensure srv.log i;
  if not (Log.chosen srv.log i) then begin
    Log.choose srv.log i;
    Log.set srv.log i (Some cmd);
    true
  end
  else false

(* [choose] every item in order; true if any was new. *)
and choose_all srv = function
  | [] -> false
  | (i, cmd) :: rest ->
      let fresh = choose srv i cmd in
      choose_all srv rest || fresh

(* ---- phase 2 ---- *)

and propose t srv (cmd : Types.cmd) =
  Cpu.exec srv.node.cpu ~cost_us:(p t).cpu_leader_op_us (fun () ->
      if srv.is_leader && not srv.down && Itbl.mem srv.proposed_cmds cmd.id
      then () (* duplicate Forward: already has an instance *)
      else if srv.is_leader && not srv.down then begin
        Itbl.replace srv.proposed_cmds cmd.id 0;
        let i = srv.next_inst in
        srv.next_inst <- i + 1;
        accept srv i ~bal:srv.ballot (Some cmd);
        Log.open_tally srv.log i;
        Span.mark t.spans ~trace:cmd.id ~node:srv.id ~phase:"append"
          ~now:(Engine.now t.engine);
        (* The instance is fully set up above; only its Accept broadcast
           is held back until the batch flushes. *)
        srv.pending_batch <- (i, Some cmd) :: srv.pending_batch;
        Replica.hold t.base srv.node
      end
      else if not srv.down then begin
        Metrics.inc srv.pr.pr_forwards;
        send t ~src:srv.id ~dst:srv.leader_hint (Forward cmd)
      end)

(* Release the accumulated batch (the base's flush hook): one Accept
   broadcast for (instance, value) pairs the leader has already accepted
   itself — a lone replica is its own majority. *)
and flush_accepts t srv =
  let items = List.rev srv.pending_batch in
  srv.pending_batch <- [];
  Metrics.add srv.pr.pr_accepts (t.n - 1);
  broadcast t srv (Accept { bal = srv.ballot; from = srv.id; items });
  if t.n = 1 && choose_all srv items then execute t srv

(* ---- phase 1 ---- *)

and start_phase1 t srv =
  Metrics.inc srv.pr.pr_elections;
  Metrics.inc srv.pr.pr_ballot_changes;
  srv.ballot <- next_ballot t srv;
  srv.is_leader <- false;
  Hashtbl.reset srv.prepare_oks;
  Vec.clear srv.gathered;
  broadcast t srv (Prepare { bal = srv.ballot; from = srv.id })

and become_leader t srv =
  Metrics.inc srv.pr.pr_leader_wins;
  srv.is_leader <- true;
  srv.leader_hint <- srv.id;
  (* A batch held when leadership was lost refers to instances of the old
     reign; drop it (the origin's retry resubmits the commands). *)
  srv.pending_batch <- [];
  Replica.drop_batch srv.node;
  (* Adopt the highest-ballot accepted value per instance; re-propose each
     adopted instance at our ballot so it can be chosen. *)
  let best = Hashtbl.create 64 in
  let adopt (i, b, c) =
    match Hashtbl.find_opt best i with
    | Some (b', _) when b' >= b -> ()
    | _ -> Hashtbl.replace best i (b, c)
  in
  Vec.iter adopt srv.gathered;
  (* Include our own accepted values. *)
  List.iter adopt (accepted srv);
  let max_i = Hashtbl.fold (fun i _ acc -> max i acc) best (-1) in
  srv.next_inst <- max_i + 1;
  Log.ensure srv.log max_i;
  for i = 0 to max_i do
    if not (Log.chosen srv.log i) then begin
      let value =
        match Hashtbl.find_opt best i with Some (_, c) -> c | None -> None
      in
      accept srv i ~bal:srv.ballot value;
      Log.open_tally srv.log i;
      Metrics.add srv.pr.pr_accepts (t.n - 1);
      broadcast t srv
        (Accept { bal = srv.ballot; from = srv.id; items = [ (i, value) ] })
    end
  done

(* ---- handling ---- *)

and handle t srv msg =
  if not srv.down then
    match msg with
    | Forward cmd ->
        Span.mark t.spans ~trace:cmd.id ~node:srv.id ~phase:"forward"
          ~now:(Engine.now t.engine);
        propose t srv cmd
    | Complete { cmd_id; reply } ->
        Replica.complete t.base ~node:srv.id cmd_id reply
    | Prepare { bal; from } ->
        if bal > srv.ballot then begin
          Metrics.inc srv.pr.pr_ballot_changes;
          srv.ballot <- bal;
          srv.is_leader <- false;
          srv.leader_hint <- from;
          srv.last_leader_sign <- Engine.now t.engine;
          send t ~src:srv.id ~dst:from
            (PrepareOk { bal; from = srv.id; accepted = accepted srv })
        end
    | PrepareOk { bal; from; accepted } ->
        if bal = srv.ballot && not srv.is_leader then begin
          Hashtbl.replace srv.prepare_oks from 1;
          List.iter (Vec.push srv.gathered) accepted;
          if Hashtbl.length srv.prepare_oks + 1 >= majority t then
            become_leader t srv
        end
    | Accept { bal; from; items } ->
        if bal >= srv.ballot then begin
          if bal > srv.ballot then Metrics.inc srv.pr.pr_ballot_changes;
          srv.ballot <- bal;
          if from <> srv.id then srv.is_leader <- false;
          srv.leader_hint <- from;
          srv.last_leader_sign <- Engine.now t.engine;
          (* One CPU charge and one ack for the whole list; the walk is
             bounded by the leader's batch_size. *)
          let k = (List.length items [@perf.allow "length-in-hot-path"]) in
          Cpu.exec srv.node.cpu ~cost_us:(max 1 (k * (p t).cpu_follower_op_us))
            (fun () ->
              if not srv.down then begin
                let insts = accept_items srv bal items in
                Metrics.inc srv.node.acks_sent;
                send t ~src:srv.id ~dst:from
                  (AcceptOk { bal; from = srv.id; insts })
              end)
        end
    | AcceptOk { bal; from; insts } ->
        if bal = srv.ballot && srv.is_leader then begin
          match Log.tally srv.log ~majority:(majority t) ~from insts with
          | [] -> ()
          | chosen ->
              let items = List.map (fun i -> (i, value_at srv i)) chosen in
              (* One execute walk and one Learn broadcast per ack. *)
              execute t srv;
              broadcast t srv (Learn { items })
        end
    | Learn { items } -> if choose_all srv items then execute t srv

(* Accept every (instance, value) at [bal]; the instances, in order. *)
and accept_items srv bal = function
  | [] -> []
  | (i, cmd) :: rest ->
      accept srv i ~bal cmd;
      i :: accept_items srv bal rest

(* Leader-failure watchdog: lowest live replica takes over.  The same
   tick is the leader's repair timer: an [Accept] or its [AcceptOk]s can
   be lost, leaving an instance unchosen forever and stalling [execute]
   at the gap, so the leader re-broadcasts every unchosen instance below
   its frontier (acceptors re-accept idempotently). *)
and watchdog t srv =
  Engine.schedule t.engine ~node:srv.id ~label:"watchdog"
    ~delay:t.config.takeover_timeout_us (fun () ->
      if not srv.down then begin
        let now = Engine.now t.engine in
        let leader = t.servers.(srv.leader_hint) in
        let lowest_live =
          let rec find i =
            if i >= t.n || not t.servers.(i).down then i else find (i + 1)
          in
          find 0
        in
        if srv.is_leader then
          for i = srv.executed to srv.next_inst - 1 do
            Log.ensure srv.log i;
            if not (Log.chosen srv.log i) then begin
              let cmd = value_at srv i in
              accept srv i ~bal:srv.ballot cmd;
              if Log.acks srv.log i = Log.no_tally then Log.open_tally srv.log i;
              Metrics.inc srv.node.retransmits;
              Metrics.add srv.pr.pr_accepts (t.n - 1);
              broadcast t srv
                (Accept
                   { bal = srv.ballot; from = srv.id; items = [ (i, cmd) ] })
            end
          done
        else if
          (leader.down
          || ((not t.config.bug_no_takeover_after_restart)
             && not leader.is_leader))
          (* a restarted leader comes back as a non-leader: the cluster
             is leaderless even though nobody is down *)
          && srv.id = lowest_live
          && now - srv.last_leader_sign >= t.config.takeover_timeout_us
        then start_phase1 t srv
      end;
      watchdog t srv)

let create ?(telemetry = Telemetry.disabled) ?(leader = 0) config net =
  let engine = Net.engine net in
  let n = Net.size net in
  Log.check_tally_width ~who:"Multipaxos.create" n;
  let base = Replica.create ~telemetry ~params:config.params net in
  let servers =
    Array.init n (fun id ->
        {
          id;
          ballot = 0;
          is_leader = false;
          leader_hint = leader;
          log = Log.create None;
          next_inst = 0;
          executed = 0;
          prepare_oks = Hashtbl.create 8;
          gathered = Vec.create ();
          proposed_cmds = Itbl.create ();
          pending_batch = [];
          last_leader_sign = 0;
          down = false;
          pr = make_probes telemetry.Telemetry.metrics ~node:id;
          node = Replica.node base id;
        })
  in
  let t =
    { config; net; engine; n; servers; base; spans = telemetry.Telemetry.spans }
  in
  Replica.bind base
    {
      size = msg_size t;
      render = (fun rename msg -> render_msg ~rename ~n msg);
      complete = (fun cmd_id reply -> Complete { cmd_id; reply });
      handle = (fun dst msg -> handle t servers.(dst) msg);
      client = (fun node cmd -> propose t servers.(node) cmd);
      live = (fun id -> servers.(id).is_leader && not servers.(id).down);
      flush = (fun id -> flush_accepts t servers.(id));
    };
  (* Bootstrap: the configured leader owns ballot [leader] (its own id in
     round 0 is unique) and is pre-elected, exactly as if Phase 1 ran. *)
  let l = t.servers.(leader) in
  l.ballot <- leader + n (* round 1 ballot, unique to this server *);
  l.is_leader <- true;
  Array.iter (fun srv -> if srv.id <> leader then srv.ballot <- l.ballot) servers;
  t

let start t = Array.iter (fun srv -> watchdog t srv) t.servers

let submit_id t ~node op k = Replica.submit_id t.base ~node op k
let submit t ~node op k = ignore (submit_id t ~node op k)

(* ---- network-shell hooks ---- *)

let set_wire t f = Replica.set_wire t.base f
let deliver t ~node msg = handle t t.servers.(node) msg
let set_cmd_ids t ~base ~stride = Replica.set_cmd_ids t.base ~base ~stride

let leader_of t =
  let best = ref 0 in
  Array.iter
    (fun srv ->
      if srv.is_leader && not srv.down then
        if not t.servers.(!best).is_leader || srv.ballot > t.servers.(!best).ballot
        then best := srv.id)
    t.servers;
  !best

let ballot_of t ~node = t.servers.(node).ballot

let chosen_count t ~node =
  let log = t.servers.(node).log in
  let c = ref 0 in
  Log.iteri (fun i _ -> if Log.chosen log i then incr c) log;
  !c

let executed_prefix t ~node = t.servers.(node).executed

let committed_ops t ~node =
  let srv = t.servers.(node) in
  List.filter_map
    (fun i ->
      match Log.get srv.log i with
      | Some (Some cmd) -> Some cmd.Types.op
      | Some None | None -> None)
    (List.init srv.executed Fun.id)
let applied_value t ~node ~key = Replica.applied_value t.base ~node ~key

let crash t ~node =
  t.servers.(node).down <- true;
  Net.set_node_down t.net node true

let restart t ~node =
  let srv = t.servers.(node) in
  srv.down <- false;
  Net.set_node_down t.net node false;
  srv.is_leader <- false;
  srv.pending_batch <- [];
  Replica.drop_batch srv.node

(* ---- model-checker inspection hooks ---- *)

let dump_state ?(rename = Fun.id) t ~node =
  let srv = t.servers.(node) in
  let rb = rename_ballot rename ~n:t.n in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "b%d %s h%d ni%d ex%d sg%d %s|" (rb srv.ballot)
    (if srv.is_leader then "L" else "F")
    (rename srv.leader_hint) srv.next_inst srv.executed srv.last_leader_sign
    (if srv.down then "D" else "U");
  Log.iteri
    (fun i v ->
      add "%d:%s%s;" (rb (Log.ballot srv.log i))
        (match v with None -> "_" | Some c -> Types.render_cmd_opt ~rename c)
        (if Log.chosen srv.log i then "!" else ""))
    srv.log;
  add "%s" (Replica.render_store srv.node);
  (* keyed by voter node id: sort after renaming, or two symmetric
     states would render their voter sets in different orders *)
  add "|po:%s"
    (String.concat ";"
       (List.sort String.compare
          (Hashtbl.fold
             (fun k _ acc -> string_of_int (rename k) :: acc)
             srv.prepare_oks [])));
  add "|g:%s"
    (String.concat ";"
       (List.sort String.compare
          (List.map
             (fun (i, b, c) ->
               Printf.sprintf "%d:b%d:%s" i (rb b)
                 (Types.render_cmd_opt ~rename c))
             (Vec.to_list srv.gathered))));
  add "|ao:%s"
    (Replica.render_tallies ~rename ~n:t.n srv.log);
  add "|pc:%s"
    (String.concat ";"
       (List.map string_of_int (Itbl.sorted_keys srv.proposed_cmds)));
  (* The held batch is real protocol state the checker must distinguish. *)
  add "|pb:%s"
    (String.concat ";"
       (List.rev_map
          (fun (i, c) ->
            Printf.sprintf "%d:%s" i (Types.render_cmd_opt ~rename c))
          srv.pending_batch));
  Buffer.contents buf

(* Highest ballot seen, the executed prefix and the chosen count only
   ever grow. *)
let mono_view t ~node =
  let srv = t.servers.(node) in
  [| srv.ballot; srv.executed; chosen_count t ~node |]

let invariant_violation t =
  let violation = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt
  in
  (* Chosen-instance agreement: two replicas that both consider an
     instance chosen must hold the same value (this also makes the
     executed prefixes consistent, since execution requires chosen). *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a.id < b.id then
            let upto = min (Log.length a.log) (Log.length b.log) - 1 in
            for i = 0 to upto do
              let va = Log.get a.log i and vb = Log.get b.log i in
              if Log.chosen a.log i && Log.chosen b.log i then
                let id_of = function
                  | Some (Some c) -> Some c.Types.id
                  | Some None | None -> None
                in
                if id_of va <> id_of vb then
                  fail "chosen-agreement: nodes %d,%d instance %d: %s vs %s"
                    a.id b.id i
                    (match va with Some c -> Types.render_cmd_opt c | None -> "_")
                    (match vb with Some c -> Types.render_cmd_opt c | None -> "_")
            done)
        t.servers)
    t.servers;
  (* A command must not be chosen at two different instances. *)
  let placed = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      Log.iteri
        (fun i v ->
          match v with
          | Some (Some c) when Log.chosen s.log i -> (
              match Hashtbl.find_opt placed c.Types.id with
              | Some j when j <> i ->
                  fail "dup-command: %s chosen at instances %d and %d"
                    (Types.render_cmd c) j i
              | _ -> Hashtbl.replace placed c.Types.id i)
          | _ -> ())
        s.log)
    t.servers;
  !violation
