module Net = Raftpax_sim.Net
module Engine = Raftpax_sim.Engine
module Cpu = Raftpax_sim.Cpu
module Rng = Raftpax_sim.Rng
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

type inst = {
  mutable accepted_bal : int;
  mutable accepted_cmd : Types.cmd option option;
      (** [None] = nothing accepted; [Some c] = accepted (c = None is noop) *)
  mutable chosen : bool;
}

type msg =
  | Prepare of { bal : int; from : int }
  | PrepareOk of {
      bal : int;
      from : int;
      accepted : (int * int * Types.cmd option) list;
          (** (instance, ballot, value) for every accepted instance *)
    }
  | Accept of { bal : int; from : int; inst : int; cmd : Types.cmd option }
  | AcceptOk of { bal : int; from : int; inst : int }
  | Learn of { inst : int; cmd : Types.cmd option }
  | AcceptMulti of {
      bal : int;
      from : int;
      items : (int * Types.cmd option) list;
          (** one flushed leader batch: (instance, value) per command —
            a single frame, CPU charge and ack instead of one each *)
    }
  | AcceptOkMulti of { bal : int; from : int; insts : int list }
  | LearnMulti of { items : (int * Types.cmd option) list }
  | Forward of Types.cmd
  | Complete of { cmd_id : int; reply : Types.reply }

type server_probes = {
  pr_elections : Metrics.counter;  (** phase-1 rounds started *)
  pr_leader_wins : Metrics.counter;
  pr_ballot_changes : Metrics.counter;
  pr_accepts : Metrics.counter;  (** Accept broadcasts sent (per peer msg) *)
  pr_acks : Metrics.counter;  (** AcceptOk replies sent *)
  pr_retransmits : Metrics.counter;  (** watchdog re-broadcasts of unchosen *)
  pr_forwards : Metrics.counter;
  pr_commits : Metrics.counter;  (** instances executed *)
  pr_batch_cmds : Metrics.histogram;
      (** commands per leader-side flush; batched path only *)
}

let make_probes m ~node =
  let c name = Metrics.counter m name ~node in
  {
    pr_elections = c "elections";
    pr_leader_wins = c "leader_wins";
    pr_ballot_changes = c "ballot_changes";
    pr_accepts = c "accepts_sent";
    pr_acks = c "acks_sent";
    pr_retransmits = c "retransmits";
    pr_forwards = c "forwards";
    pr_commits = c "commits";
    pr_batch_cmds = Metrics.histogram m "batch_flush_cmds" ~node;
  }

type server = {
  id : int;
  mutable ballot : int;  (** highest ballot seen *)
  mutable is_leader : bool;
  mutable leader_hint : int;
  insts : inst Vec.t;
  mutable next_inst : int;  (** leader: next free instance *)
  mutable executed : int;  (** prefix [0..executed) applied to store *)
  store : (int, int) Hashtbl.t;
  prepare_oks : (int, int) Hashtbl.t;  (** voter -> 1 (set) *)
  gathered : (int * int * Types.cmd option) Vec.t;
  accept_oks : (int, bool array) Hashtbl.t;
      (** instance -> which peers acked (per-sender, so duplicate
          deliveries under fault injection cannot double-count) *)
  waiters : (int, Types.cmd) Hashtbl.t;  (** instance -> originating cmd *)
  proposed_cmds : (int, unit) Hashtbl.t;
      (** cmd ids this leader already assigned an instance; a duplicated
          [Forward] must not occupy a second instance *)
  (* command batching (leader side, batch_size > 1 only): instances
     assigned but whose Accept broadcast is held for the current batch *)
  mutable pending_batch : (int * Types.cmd option) list;  (** reversed *)
  mutable pending_count : int;
  mutable flush_pending : bool;  (** a flush timer is armed *)
  mutable last_leader_sign : int;
  mutable down : bool;
  cpu : Cpu.t;
  rng : Rng.t;
  pr : server_probes;
}

type t = {
  config : config;
  net : Net.t;
  engine : Engine.t;
  n : int;
  servers : server array;
  completions : (int, Types.reply -> unit) Hashtbl.t;
  mutable next_cmd_id : int;
  mutable cmd_id_stride : int;
  mutable wire : (src:int -> dst:int -> size:int -> msg -> unit) option;
      (** network-shell hook: when set, cross-replica messages are handed
          to the transport instead of the simulated {!Net} *)
  spans : Span.t;
}

let majority t = (t.n / 2) + 1
let p t = t.config.params

let msg_size t = function
  | Prepare _ | AcceptOk _ -> (p t).msg_header_bytes
  | PrepareOk { accepted; _ } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, _, c) ->
            acc + match c with Some c -> Types.op_size c.Types.op | None -> 8)
          0 accepted
  | Accept { cmd; _ } | Learn { cmd; _ } -> (
      (p t).msg_header_bytes
      + match cmd with Some c -> Types.op_size c.Types.op | None -> 8)
  | AcceptMulti { items; _ } | LearnMulti { items } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, c) ->
            acc + match c with Some c -> Types.op_size c.Types.op | None -> 8)
          0 items
  | AcceptOkMulti { insts; _ } ->
      (p t).msg_header_bytes + (8 * List.length insts)
  | Forward cmd -> (p t).msg_header_bytes + Types.op_size cmd.Types.op
  | Complete _ -> (p t).reply_bytes

let ensure srv i =
  while Vec.length srv.insts <= i do
    Vec.push srv.insts { accepted_bal = -1; accepted_cmd = None; chosen = false }
  done

let inst srv i =
  ensure srv i;
  Vec.get srv.insts i

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
  | Accept { bal; from; inst; cmd } ->
      Printf.sprintf "Accept(b%d f%d i%d %s)"
        (rename_ballot rename ~n bal)
        (rename from) inst
        (Types.render_cmd_opt ~rename cmd)
  | AcceptOk { bal; from; inst } ->
      Printf.sprintf "AcceptOk(b%d f%d i%d)"
        (rename_ballot rename ~n bal)
        (rename from) inst
  | Learn { inst; cmd } ->
      Printf.sprintf "Learn(i%d %s)" inst (Types.render_cmd_opt ~rename cmd)
  | AcceptMulti { bal; from; items } ->
      Printf.sprintf "AcceptMulti(b%d f%d [%s])"
        (rename_ballot rename ~n bal)
        (rename from)
        (String.concat ";"
           (List.map
              (fun (i, c) ->
                Printf.sprintf "%d:%s" i (Types.render_cmd_opt ~rename c))
              items))
  | AcceptOkMulti { bal; from; insts } ->
      Printf.sprintf "AcceptOkMulti(b%d f%d [%s])"
        (rename_ballot rename ~n bal)
        (rename from)
        (String.concat ";" (List.map string_of_int insts))
  | LearnMulti { items } ->
      Printf.sprintf "LearnMulti([%s])"
        (String.concat ";"
           (List.map
              (fun (i, c) ->
                Printf.sprintf "%d:%s" i (Types.render_cmd_opt ~rename c))
              items))
  | Forward cmd -> "Forward(" ^ Types.render_cmd ~rename cmd ^ ")"
  | Complete { cmd_id; reply } ->
      Printf.sprintf "Complete(c%d v%s)" cmd_id
        (match reply.Types.value with
        | None -> "-"
        | Some v -> string_of_int v)

let rec send t ~src ~dst msg =
  match t.wire with
  | Some wire when src <> dst -> wire ~src ~dst ~size:(msg_size t msg) msg
  | _ ->
      Net.send t.net ~src ~dst ~size:(msg_size t msg)
        ~info:(fun rename -> render_msg ~rename ~n:t.n msg)
        (fun () -> handle t t.servers.(dst) msg)

and broadcast t srv msg =
  Array.iter
    (fun peer -> if peer.id <> srv.id then send t ~src:srv.id ~dst:peer.id msg)
    t.servers

and complete_at_origin t srv (cmd : Types.cmd) reply =
  send t ~src:srv.id ~dst:cmd.Types.origin
    (Complete { cmd_id = cmd.Types.id; reply })

(* Execute the decided prefix in order. *)
and execute t srv =
  let len = Vec.length srv.insts in
  let continue = ref true in
  while !continue && srv.executed < len do
    let it = Vec.get srv.insts srv.executed in
    if it.chosen then begin
      Metrics.inc srv.pr.pr_commits;
      (match it.accepted_cmd with
      | Some (Some ({ op = Types.Put { key; write_id; _ }; _ } as cmd)) ->
          Hashtbl.replace srv.store key write_id;
          if srv.is_leader then begin
            Span.mark t.spans ~trace:cmd.id ~node:srv.id ~phase:"quorum_commit"
              ~now:(Engine.now t.engine);
            complete_at_origin t srv cmd { Types.value = None }
          end
      | Some (Some ({ op = Types.Get { key }; _ } as cmd)) ->
          if srv.is_leader then begin
            Span.mark t.spans ~trace:cmd.id ~node:srv.id ~phase:"quorum_commit"
              ~now:(Engine.now t.engine);
            complete_at_origin t srv cmd
              { Types.value = Hashtbl.find_opt srv.store key }
          end
      | Some None | None -> ());
      srv.executed <- srv.executed + 1
    end
    else continue := false
  done

(* Record a decision without executing; callers run one [execute] walk
   per delivered batch instead of per instance. *)
and choose srv i cmd =
  let it = inst srv i in
  if not it.chosen then begin
    it.chosen <- true;
    it.accepted_cmd <- Some cmd;
    true
  end
  else false

and mark_chosen t srv i cmd = if choose srv i cmd then execute t srv

(* ---- phase 2 ---- *)

and propose t srv (cmd : Types.cmd) =
  Cpu.exec srv.cpu ~cost_us:(p t).cpu_leader_op_us (fun () ->
      if srv.is_leader && not srv.down && Hashtbl.mem srv.proposed_cmds cmd.id
      then () (* duplicate Forward: already has an instance *)
      else if srv.is_leader && not srv.down then begin
        Hashtbl.replace srv.proposed_cmds cmd.id ();
        let i = srv.next_inst in
        srv.next_inst <- i + 1;
        let it = inst srv i in
        it.accepted_bal <- srv.ballot;
        it.accepted_cmd <- Some (Some cmd);
        Hashtbl.replace srv.accept_oks i (Array.make t.n false);
        Hashtbl.replace srv.waiters i cmd;
        Span.mark t.spans ~trace:cmd.id ~node:srv.id ~phase:"append"
          ~now:(Engine.now t.engine);
        if (p t).batch_size <= 1 then begin
          Metrics.add srv.pr.pr_accepts (t.n - 1);
          broadcast t srv
            (Accept
               { bal = srv.ballot; from = srv.id; inst = i; cmd = Some cmd });
          if t.n = 1 then begin
            mark_chosen t srv i (Some cmd)
          end
        end
        else begin
          (* Batched: the instance is fully set up above; only its Accept
             broadcast is held back until the batch flushes. *)
          srv.pending_batch <- (i, Some cmd) :: srv.pending_batch;
          srv.pending_count <- srv.pending_count + 1;
          if srv.pending_count >= (p t).batch_size then flush_accepts t srv
          else if not srv.flush_pending then begin
            srv.flush_pending <- true;
            Engine.schedule t.engine ~node:srv.id ~label:"flush"
              ~delay:(max 1 (p t).batch_delay_us) (fun () ->
                srv.flush_pending <- false;
                if srv.is_leader && (not srv.down) && srv.pending_count > 0
                then flush_accepts t srv)
          end
        end
      end
      else if not srv.down then begin
        Metrics.inc srv.pr.pr_forwards;
        send t ~src:srv.id ~dst:srv.leader_hint (Forward cmd)
      end)

(* Release the accumulated batch: one AcceptMulti broadcast carries
   every held (instance, value) pair. *)
and flush_accepts t srv =
  let items = List.rev srv.pending_batch in
  Metrics.observe srv.pr.pr_batch_cmds srv.pending_count;
  srv.pending_batch <- [];
  srv.pending_count <- 0;
  Metrics.add srv.pr.pr_accepts (t.n - 1);
  broadcast t srv (AcceptMulti { bal = srv.ballot; from = srv.id; items });
  if t.n = 1 then begin
    let any = ref false in
    List.iter (fun (i, cmd) -> if choose srv i cmd then any := true) items;
    if !any then execute t srv
  end

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
  srv.pending_count <- 0;
  (* Adopt the highest-ballot accepted value per instance; re-propose each
     adopted instance at our ballot so it can be chosen. *)
  let best = Hashtbl.create 64 in
  Vec.iter
    (fun (i, b, c) ->
      match Hashtbl.find_opt best i with
      | Some (b', _) when b' >= b -> ()
      | _ -> Hashtbl.replace best i (b, c))
    srv.gathered;
  (* Include our own accepted values. *)
  Vec.iteri
    (fun i it ->
      if it.accepted_bal >= 0 then
        match Hashtbl.find_opt best i with
        | Some (b', _) when b' >= it.accepted_bal -> ()
        | _ -> (
            match it.accepted_cmd with
            | Some c -> Hashtbl.replace best i (it.accepted_bal, c)
            | None -> ()))
    srv.insts;
  let max_i = Hashtbl.fold (fun i _ acc -> max i acc) best (-1) in
  srv.next_inst <- max_i + 1;
  for i = 0 to max_i do
    let it = inst srv i in
    if not it.chosen then begin
      let value =
        match Hashtbl.find_opt best i with Some (_, c) -> c | None -> None
      in
      it.accepted_bal <- srv.ballot;
      it.accepted_cmd <- Some value;
      Hashtbl.replace srv.accept_oks i (Array.make t.n false);
      Metrics.add srv.pr.pr_accepts (t.n - 1);
      broadcast t srv
        (Accept { bal = srv.ballot; from = srv.id; inst = i; cmd = value })
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
    | Complete { cmd_id; reply } -> (
        match Hashtbl.find_opt t.completions cmd_id with
        | Some k ->
            Hashtbl.remove t.completions cmd_id;
            Span.mark t.spans ~trace:cmd_id ~node:srv.id ~phase:"reply"
              ~now:(Engine.now t.engine);
            k reply
        | None -> ())
    | Prepare { bal; from } ->
        if bal > srv.ballot then begin
          Metrics.inc srv.pr.pr_ballot_changes;
          srv.ballot <- bal;
          srv.is_leader <- false;
          srv.leader_hint <- from;
          srv.last_leader_sign <- Engine.now t.engine;
          let accepted = ref [] in
          Vec.iteri
            (fun i it ->
              if it.accepted_bal >= 0 then
                match it.accepted_cmd with
                | Some c -> accepted := (i, it.accepted_bal, c) :: !accepted
                | None -> ())
            srv.insts;
          send t ~src:srv.id ~dst:from
            (PrepareOk { bal; from = srv.id; accepted = !accepted })
        end
    | PrepareOk { bal; from; accepted } ->
        if bal = srv.ballot && not srv.is_leader then begin
          Hashtbl.replace srv.prepare_oks from 1;
          List.iter (Vec.push srv.gathered) accepted;
          if Hashtbl.length srv.prepare_oks + 1 >= majority t then
            become_leader t srv
        end
    | Accept { bal; from; inst = i; cmd } ->
        if bal >= srv.ballot then begin
          if bal > srv.ballot then Metrics.inc srv.pr.pr_ballot_changes;
          srv.ballot <- bal;
          if from <> srv.id then srv.is_leader <- false;
          srv.leader_hint <- from;
          srv.last_leader_sign <- Engine.now t.engine;
          Cpu.exec srv.cpu ~cost_us:(p t).cpu_follower_op_us (fun () ->
              if not srv.down then begin
                let it = inst srv i in
                it.accepted_bal <- bal;
                it.accepted_cmd <- Some cmd;
                Metrics.inc srv.pr.pr_acks;
                send t ~src:srv.id ~dst:from (AcceptOk { bal; from = srv.id; inst = i })
              end)
        end
    | AcceptOk { bal; from; inst = i } ->
        if bal = srv.ballot && srv.is_leader then begin
          match Hashtbl.find_opt srv.accept_oks i with
          | None -> ()
          | Some acked ->
              acked.(from) <- true;
              let count =
                Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 acked
              in
              if count + 1 >= majority t && not (inst srv i).chosen then begin
                let cmd =
                  match (inst srv i).accepted_cmd with Some c -> c | None -> None
                in
                mark_chosen t srv i cmd;
                broadcast t srv (Learn { inst = i; cmd })
              end
        end
    | Learn { inst = i; cmd } -> mark_chosen t srv i cmd
    | AcceptMulti { bal; from; items } ->
        if bal >= srv.ballot then begin
          if bal > srv.ballot then Metrics.inc srv.pr.pr_ballot_changes;
          srv.ballot <- bal;
          if from <> srv.id then srv.is_leader <- false;
          srv.leader_hint <- from;
          srv.last_leader_sign <- Engine.now t.engine;
          (* One CPU charge and one ack for the whole batch; the walk is
             bounded by the leader's batch_size. *)
          let k = (List.length items [@perf.allow "length-in-hot-path"]) in
          Cpu.exec srv.cpu ~cost_us:(max 1 (k * (p t).cpu_follower_op_us))
            (fun () ->
              if not srv.down then begin
                List.iter
                  (fun (i, cmd) ->
                    let it = inst srv i in
                    it.accepted_bal <- bal;
                    it.accepted_cmd <- Some cmd)
                  items;
                Metrics.inc srv.pr.pr_acks;
                send t ~src:srv.id ~dst:from
                  (AcceptOkMulti
                     { bal; from = srv.id; insts = List.map fst items })
              end)
        end
    | AcceptOkMulti { bal; from; insts } ->
        if bal = srv.ballot && srv.is_leader then begin
          let newly = ref [] in
          List.iter
            (fun i ->
              match Hashtbl.find_opt srv.accept_oks i with
              | None -> ()
              | Some acked ->
                  acked.(from) <- true;
                  let count =
                    Array.fold_left
                      (fun acc b -> if b then acc + 1 else acc)
                      0 acked
                  in
                  if count + 1 >= majority t && not (inst srv i).chosen then begin
                    let cmd =
                      match (inst srv i).accepted_cmd with
                      | Some c -> c
                      | None -> None
                    in
                    if choose srv i cmd then newly := (i, cmd) :: !newly
                  end)
            insts;
          if !newly <> [] then begin
            (* One execute walk and one Learn broadcast per acked batch. *)
            execute t srv;
            broadcast t srv (LearnMulti { items = List.rev !newly })
          end
        end
    | LearnMulti { items } ->
        let any = ref false in
        List.iter (fun (i, cmd) -> if choose srv i cmd then any := true) items;
        if !any then execute t srv

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
            let it = inst srv i in
            if not it.chosen then begin
              let cmd =
                match it.accepted_cmd with Some c -> c | None -> None
              in
              it.accepted_bal <- srv.ballot;
              it.accepted_cmd <- Some cmd;
              if not (Hashtbl.mem srv.accept_oks i) then
                Hashtbl.replace srv.accept_oks i (Array.make t.n false);
              Metrics.inc srv.pr.pr_retransmits;
              Metrics.add srv.pr.pr_accepts (t.n - 1);
              broadcast t srv
                (Accept { bal = srv.ballot; from = srv.id; inst = i; cmd })
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
  let servers =
    Array.init n (fun id ->
        let cpu = Cpu.create engine in
        Cpu.set_metrics cpu telemetry.Telemetry.metrics ~node:id;
        {
          id;
          ballot = 0;
          is_leader = false;
          leader_hint = leader;
          insts = Vec.create ();
          next_inst = 0;
          executed = 0;
          store = Hashtbl.create 16;
          prepare_oks = Hashtbl.create 8;
          gathered = Vec.create ();
          accept_oks = Hashtbl.create 16;
          waiters = Hashtbl.create 16;
          proposed_cmds = Hashtbl.create 16;
          pending_batch = [];
          pending_count = 0;
          flush_pending = false;
          last_leader_sign = 0;
          down = false;
          cpu;
          rng = Rng.split (Engine.rng engine);
          pr = make_probes telemetry.Telemetry.metrics ~node:id;
        })
  in
  let t =
    {
      config;
      net;
      engine;
      n;
      servers;
      completions = Hashtbl.create 16;
      next_cmd_id = 0;
      cmd_id_stride = 1;
      wire = None;
      spans = telemetry.Telemetry.spans;
    }
  in
  (* Bootstrap: the configured leader owns ballot [leader] (its own id in
     round 0 is unique) and is pre-elected, exactly as if Phase 1 ran. *)
  let l = t.servers.(leader) in
  l.ballot <- leader + n (* round 1 ballot, unique to this server *);
  l.is_leader <- true;
  Array.iter (fun srv -> if srv.id <> leader then srv.ballot <- l.ballot) servers;
  t

let start t = Array.iter (fun srv -> watchdog t srv) t.servers

let submit_id t ~node op k =
  let id = t.next_cmd_id in
  t.next_cmd_id <- id + t.cmd_id_stride;
  Hashtbl.replace t.completions id k;
  let cmd =
    { Types.id; op; origin = node; submitted_us = Engine.now t.engine }
  in
  Span.mark t.spans ~trace:id ~node ~phase:"submit" ~now:(Engine.now t.engine);
  Net.send t.net ~src:node ~dst:node
    ~size:((p t).msg_header_bytes + Types.op_size op)
    ~info:(fun rename -> "Submit(" ^ Types.render_cmd ~rename cmd ^ ")")
    (fun () ->
      Span.mark t.spans ~trace:id ~node ~phase:"client_hop"
        ~now:(Engine.now t.engine);
      propose t t.servers.(node) cmd);
  id

let submit t ~node op k = ignore (submit_id t ~node op k)

(* ---- network-shell hooks ---- *)

let set_wire t f = t.wire <- f
let deliver t ~node msg = handle t t.servers.(node) msg

let set_cmd_ids t ~base ~stride =
  t.next_cmd_id <- base;
  t.cmd_id_stride <- stride

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
  let c = ref 0 in
  Vec.iteri (fun _ it -> if it.chosen then incr c) t.servers.(node).insts;
  !c

let executed_prefix t ~node = t.servers.(node).executed

let committed_ops t ~node =
  let srv = t.servers.(node) in
  List.filter_map
    (fun i ->
      match (Vec.get srv.insts i).accepted_cmd with
      | Some (Some cmd) -> Some cmd.Types.op
      | Some None | None -> None)
    (List.init srv.executed Fun.id)
let applied_value t ~node ~key = Hashtbl.find_opt t.servers.(node).store key

let crash t ~node =
  t.servers.(node).down <- true;
  Net.set_node_down t.net node true

let restart t ~node =
  let srv = t.servers.(node) in
  srv.down <- false;
  Net.set_node_down t.net node false;
  srv.is_leader <- false;
  srv.pending_batch <- [];
  srv.pending_count <- 0

(* ---- model-checker inspection hooks ---- *)

let dump_state ?(rename = Fun.id) t ~node =
  let srv = t.servers.(node) in
  let rb = rename_ballot rename ~n:t.n in
  let permuted a =
    let b = Array.copy a in
    Array.iteri (fun i v -> b.(rename i) <- v) a;
    b
  in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "b%d %s h%d ni%d ex%d sg%d %s|" (rb srv.ballot)
    (if srv.is_leader then "L" else "F")
    (rename srv.leader_hint) srv.next_inst srv.executed srv.last_leader_sign
    (if srv.down then "D" else "U");
  Vec.iteri
    (fun _ it ->
      add "%d:%s%s;" (rb it.accepted_bal)
        (match it.accepted_cmd with
        | None -> "_"
        | Some c -> Types.render_cmd_opt ~rename c)
        (if it.chosen then "!" else ""))
    srv.insts;
  let tbl name tbl render =
    let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    add "|%s:%s" name
      (String.concat ";"
         (List.map render
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) items)))
  in
  let mask a =
    String.concat ""
      (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))
  in
  tbl "st" srv.store (fun (k, v) -> Printf.sprintf "%d=%d" k v);
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
  tbl "ao" srv.accept_oks (fun (i, a) ->
      Printf.sprintf "%d=%s" i (mask (permuted a)));
  tbl "wt" srv.waiters (fun (i, c) ->
      Printf.sprintf "%d:%s" i (Types.render_cmd ~rename c));
  tbl "pc" srv.proposed_cmds (fun (i, ()) -> string_of_int i);
  (* Batched runs only: the held batch is real protocol state the checker
     must distinguish.  Unbatched fingerprints stay byte-identical. *)
  if (p t).batch_size > 1 then
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
  let chosen = ref 0 in
  Vec.iteri (fun _ it -> if it.chosen then incr chosen) srv.insts;
  [| srv.ballot; srv.executed; !chosen |]

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
            let upto = min (Vec.length a.insts) (Vec.length b.insts) - 1 in
            for i = 0 to upto do
              let ia = Vec.get a.insts i and ib = Vec.get b.insts i in
              if ia.chosen && ib.chosen then
                let id_of it =
                  match it.accepted_cmd with
                  | Some (Some c) -> Some c.Types.id
                  | Some None | None -> None
                in
                if id_of ia <> id_of ib then
                  fail "chosen-agreement: nodes %d,%d instance %d: %s vs %s"
                    a.id b.id i
                    (match ia.accepted_cmd with
                    | Some c -> Types.render_cmd_opt c
                    | None -> "_")
                    (match ib.accepted_cmd with
                    | Some c -> Types.render_cmd_opt c
                    | None -> "_")
            done)
        t.servers)
    t.servers;
  (* A command must not be chosen at two different instances. *)
  let placed = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      Vec.iteri
        (fun i it ->
          match it.accepted_cmd with
          | Some (Some c) when it.chosen -> (
              match Hashtbl.find_opt placed c.Types.id with
              | Some j when j <> i ->
                  fail "dup-command: %s chosen at instances %d and %d"
                    (Types.render_cmd c) j i
              | _ -> Hashtbl.replace placed c.Types.id i)
          | _ -> ())
        s.insts)
    t.servers;
  !violation
