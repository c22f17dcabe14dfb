module Net = Raftpax_sim.Net
module Engine = Raftpax_sim.Engine
module Cpu = Raftpax_sim.Cpu
module Rng = Raftpax_sim.Rng
module Telemetry = Raftpax_telemetry.Telemetry
module Metrics = Raftpax_telemetry.Metrics
module Span = Raftpax_telemetry.Span

type config = {
  params : Types.params;
  revoke_timeout_us : int;
  bug_slot_reuse : bool;
      (** test-only mutation: re-introduce the pre-fix behaviour where a
          replica proposes into its next own turn without checking that
          the slot was decided (force-skipped) while it sat idle.  The
          model checker's mutation smoke test asserts this is caught. *)
}

let default_config =
  {
    params = Types.default_params;
    revoke_timeout_us = 3_000_000;
    bug_slot_reuse = false;
  }

let hot_key = 0

type slot = Unknown | Value of Types.cmd | Skip

type revocation = { seen : bool array; mutable found : Types.cmd option }
(* per-sender, so duplicate deliveries under fault injection cannot
   double-count toward the majority *)

type msg =
  | MAppend of { from : int; inst : int; cmd : Types.cmd }
  | MAck of { from : int; inst : int }
  | MSkip of { from : int; first : int; upto : int }
      (** [from]'s turns in [[first, upto)] are no-ops.  The range is
          explicit — "every slot of mine you haven't seen" would be
          unsound for a receiver that missed an append while down or
          partitioned. *)
  | MCommit of { inst : int }
  | MRevoke of { from : int; inst : int }
      (** simplified recovery: the designated revoker polls the cluster
          about a dead replica's slot *)
  | MRevStatus of { from : int; inst : int; value : Types.cmd option }
  | MSkipForce of { inst : int }
      (** revoker decision: the slot is a no-op *)
  | MCatchup of { from : int }
      (** a restarted replica asks a peer for its slot state *)
  | MState of {
      slots : (int * bool * Types.cmd option * bool) list;
          (** (instance, is_skip, value, committed) for every decided or
              known slot *)
    }
  | MAppendMulti of {
      from : int;
      items : (int * Types.cmd) list;
          (** one flushed batch of the sender's own turns — a single
            frame, CPU charge and ack instead of one each *)
    }
  | MAckMulti of { from : int; insts : int list }
  | MCommitMulti of { insts : int list }
  | Complete of { cmd_id : int; reply : Types.reply }

type server_probes = {
  pr_appends : Metrics.counter;  (** MAppend messages sent *)
  pr_acks : Metrics.counter;  (** MAck replies sent *)
  pr_skips_announced : Metrics.counter;  (** MSkip broadcasts *)
  pr_slots_skipped : Metrics.counter;  (** slots locally decided as Skip *)
  pr_commits : Metrics.counter;  (** slots past the commit frontier *)
  pr_revocations_started : Metrics.counter;
  pr_revocations_value : Metrics.counter;  (** resolved by re-proposal *)
  pr_revocations_skip : Metrics.counter;  (** resolved by force-skip *)
  pr_catchups : Metrics.counter;  (** MCatchup requests sent *)
  pr_retransmits : Metrics.counter;  (** own-append re-broadcasts *)
  pr_batch_cmds : Metrics.histogram;
      (** commands per flushed own-turn batch; batched path only *)
}

let make_probes m ~node =
  let c name = Metrics.counter m name ~node in
  {
    pr_appends = c "appends_sent";
    pr_acks = c "acks_sent";
    pr_skips_announced = c "skips_announced";
    pr_slots_skipped = c "slots_skipped";
    pr_commits = c "commits";
    pr_revocations_started = c "revocations_started";
    pr_revocations_value = c "revocations_value";
    pr_revocations_skip = c "revocations_skip";
    pr_catchups = c "catchups";
    pr_retransmits = c "retransmits";
    pr_batch_cmds = Metrics.histogram m "batch_flush_cmds" ~node;
  }

type server = {
  id : int;
  slots : slot Vec.t;
  committed : bool Vec.t;
  mutable next_own : int;
  mutable known_frontier : int;  (** all slots < this are Value or Skip *)
  mutable commit_frontier : int;  (** all slots < this are committed *)
  acks : (int, bool array) Hashtbl.t;  (** own instance -> acked peers *)
  revocations : (int, revocation) Hashtbl.t;
  promised : (int, unit) Hashtbl.t;
      (** slots whose revocation poll we answered: the poll is a Paxos
          phase 1, so afterwards the owner's own (ballot-0) append must
          be refused or the revocation's decision could lose the race *)
  store : (int, int) Hashtbl.t;
  key_writes : (int, int list ref) Hashtbl.t;
      (** slots known to carry a write of each key — what a commutative
          read must see applied before replying early *)
  mutable applied : int;  (** slots < this applied to [store] *)
  mutable waiting : (int * Types.cmd) list;  (** (slot, cmd) awaiting reply *)
  mutable recovering : bool;
  mutable buffered : Types.cmd list;  (** submissions queued during recovery *)
  (* command batching (batch_size > 1 only): own turns claimed but whose
     MAppend broadcast is held for the current batch *)
  mutable pending_batch : (int * Types.cmd) list;  (** reversed *)
  mutable pending_count : int;
  mutable flush_pending : bool;  (** a flush timer is armed *)
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

(* Revocations are protocol-internal work with no client command, so they
   trace under a negative id derived from the slot: slot [i] revokes as
   trace [-(i + 1)]. *)
let revoke_trace inst = -(inst + 1)

let majority t = (t.n / 2) + 1
let p t = t.config.params

let msg_size t = function
  | MAppend { cmd; _ } -> (p t).msg_header_bytes + Types.op_size cmd.Types.op
  | MRevStatus { value; _ } ->
      (p t).msg_header_bytes
      + (match value with Some c -> Types.op_size c.Types.op | None -> 0)
  | MAck _ | MSkip _ | MCommit _ | MRevoke _ | MSkipForce _ | MCatchup _ ->
      (p t).msg_header_bytes
  | MState { slots } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, _, cmd, _) ->
            acc
            + 8
            + match cmd with Some c -> Types.op_size c.Types.op | None -> 0)
          0 slots
  | MAppendMulti { items; _ } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, c) -> acc + 8 + Types.op_size c.Types.op)
          0 items
  | MAckMulti { insts; _ } | MCommitMulti { insts } ->
      (p t).msg_header_bytes + (8 * List.length insts)
  | Complete _ -> (p t).reply_bytes

(* ---- slot bookkeeping ---- *)

let ensure srv inst =
  while Vec.length srv.slots <= inst do
    Vec.push srv.slots Unknown;
    Vec.push srv.committed false
  done

let slot srv inst =
  if inst < Vec.length srv.slots then Vec.get srv.slots inst else Unknown

let is_committed srv inst =
  inst < Vec.length srv.committed && Vec.get srv.committed inst

(* Record a slot's value, remembering write positions per key.  Only the
   Unknown -> Value transition calls this, so each write slot is recorded
   once. *)
let set_value srv inst (cmd : Types.cmd) =
  Vec.set srv.slots inst (Value cmd);
  match cmd.op with
  | Types.Put { key; _ } ->
      let cell =
        match Hashtbl.find_opt srv.key_writes key with
        | Some cell -> cell
        | None ->
            let cell = ref [] in
            Hashtbl.replace srv.key_writes key cell;
            cell
      in
      cell := inst :: !cell
  | Types.Get _ -> ()

(* A commutative read at [inst] may reply from the applied store only once
   every known earlier write of its key has been applied; otherwise it
   could return a value older than an already-acknowledged write (the
   fault-injection harness caught exactly this under churn). *)
let commutative_read_safe srv ~key ~inst =
  match Hashtbl.find_opt srv.key_writes key with
  | None -> true
  | Some slots ->
      (* A write below [applied] stays applied forever ([applied] is
         monotone), so prune such slots instead of re-scanning the key's
         full write history on every check: each write is dropped exactly
         once and the live list holds only unapplied writes. *)
      if List.exists (fun j -> j < srv.applied) !slots then
        slots := List.filter (fun j -> j >= srv.applied) !slots;
      List.for_all (fun j -> j >= inst) !slots

let owner t inst = inst mod t.n

let conflicting (cmd : Types.cmd) = Types.key_of cmd.op = hot_key

(* [rename] is the checker's symmetry renaming.  Note Mencius slot
   ownership is positional ([owner t inst = inst mod n]), so node ids are
   load-bearing in slot numbers themselves; symmetry scopes therefore
   never include Mencius, and the renaming here only keeps the interface
   uniform with the other protocols. *)
let render_msg ?(rename = Fun.id) = function
  | MAppend { from; inst; cmd } ->
      Printf.sprintf "MAppend(f%d i%d %s)" (rename from) inst
        (Types.render_cmd ~rename cmd)
  | MAck { from; inst } -> Printf.sprintf "MAck(f%d i%d)" (rename from) inst
  | MSkip { from; first; upto } ->
      Printf.sprintf "MSkip(f%d %d..%d)" (rename from) first upto
  | MCommit { inst } -> Printf.sprintf "MCommit(i%d)" inst
  | MRevoke { from; inst } ->
      Printf.sprintf "MRevoke(f%d i%d)" (rename from) inst
  | MRevStatus { from; inst; value } ->
      Printf.sprintf "MRevStatus(f%d i%d %s)" (rename from) inst
        (Types.render_cmd_opt ~rename value)
  | MSkipForce { inst } -> Printf.sprintf "MSkipForce(i%d)" inst
  | MCatchup { from } -> Printf.sprintf "MCatchup(f%d)" (rename from)
  | MState { slots } ->
      Printf.sprintf "MState([%s])"
        (String.concat ";"
           (List.map
              (fun (inst, is_skip, cmd, committed) ->
                Printf.sprintf "%d:%s%s%s" inst
                  (if is_skip then "S" else "")
                  (match cmd with
                  | Some c -> Types.render_cmd ~rename c
                  | None -> "")
                  (if committed then "!" else ""))
              (List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) slots)))
  | MAppendMulti { from; items } ->
      Printf.sprintf "MAppendMulti(f%d [%s])" (rename from)
        (String.concat ";"
           (List.map
              (fun (i, c) ->
                Printf.sprintf "%d:%s" i (Types.render_cmd ~rename c))
              items))
  | MAckMulti { from; insts } ->
      Printf.sprintf "MAckMulti(f%d [%s])" (rename from)
        (String.concat ";" (List.map string_of_int insts))
  | MCommitMulti { insts } ->
      Printf.sprintf "MCommitMulti([%s])"
        (String.concat ";" (List.map string_of_int insts))
  | Complete { cmd_id; reply } ->
      Printf.sprintf "Complete(c%d v%s)" cmd_id
        (match reply.Types.value with
        | None -> "-"
        | Some v -> string_of_int v)

(* ---- dispatch ---- *)

let rec send t ~src ~dst msg =
  match t.wire with
  | Some wire when src <> dst -> wire ~src ~dst ~size:(msg_size t msg) msg
  | _ ->
      Net.send t.net ~src ~dst ~size:(msg_size t msg)
        ~info:(fun rename -> render_msg ~rename msg)
        (fun () -> handle t t.servers.(dst) msg)

and broadcast t srv msg =
  Array.iter
    (fun peer -> if peer.id <> srv.id then send t ~src:srv.id ~dst:peer.id msg)
    t.servers

and complete_at_origin t srv (cmd : Types.cmd) reply =
  send t ~src:srv.id ~dst:cmd.Types.origin
    (Complete { cmd_id = cmd.Types.id; reply })

(* ---- frontiers, application, replies ---- *)

and advance_frontiers t srv =
  let len = Vec.length srv.slots in
  while
    srv.known_frontier < len && slot srv srv.known_frontier <> Unknown
  do
    srv.known_frontier <- srv.known_frontier + 1
  done;
  while
    srv.commit_frontier < len
    && is_committed srv srv.commit_frontier
    && slot srv srv.commit_frontier <> Unknown
  do
    Metrics.inc srv.pr.pr_commits;
    srv.commit_frontier <- srv.commit_frontier + 1
  done;
  (* Apply in slot order as the committed prefix grows. *)
  while srv.applied < srv.commit_frontier do
    (match slot srv srv.applied with
    | Value { op = Put { key; write_id; _ }; _ } ->
        Hashtbl.replace srv.store key write_id
    | Value { op = Get _; _ } | Skip | Unknown -> ());
    srv.applied <- srv.applied + 1
  done;
  try_reply t srv

and try_reply t srv =
  (* A waiting op whose slot no longer holds it was revoked into a skip:
     never acknowledge it — the client will retry as a fresh op. *)
  let still_ours (inst, (cmd : Types.cmd)) =
    match slot srv inst with
    | Value held -> held.Types.id = cmd.Types.id
    | Skip | Unknown -> false
  in
  let entry_ready (inst, (cmd : Types.cmd)) =
    if conflicting cmd then srv.commit_frontier > inst
    else
      is_committed srv inst
      && srv.known_frontier > inst
      &&
      match cmd.op with
      | Types.Get { key } -> commutative_read_safe srv ~key ~inst
      | Types.Put _ -> true
  in
  (* This runs after every message; most deliveries ready nothing, so
     check without allocating before rebuilding the waiting list. *)
  if
    srv.waiting <> []
    && List.exists
         (fun e -> (not (still_ours e)) || entry_ready e)
         srv.waiting
  then begin
    let ready, waiting =
      List.partition entry_ready (List.filter still_ours srv.waiting)
    in
    srv.waiting <- waiting;
    List.iter
      (fun (inst, (cmd : Types.cmd)) ->
        Span.mark t.spans ~trace:cmd.Types.id ~node:srv.id
          ~phase:"quorum_commit" ~now:(Engine.now t.engine);
        let value =
          match cmd.op with
          | Types.Get { key } ->
              (* Reads ordered at their slot: contended reads applied in
                 slot order see the applied store; commutative reads see
                 their key's applied state, untouched by concurrent
                 ops. *)
              ignore inst;
              Hashtbl.find_opt srv.store key
          | Types.Put _ -> None
        in
        complete_at_origin t srv cmd { Types.value })
      ready
  end

(* Mark [who]'s unused turns in [[start, upto)] as skips.  Skips by the
   slot owner are decided immediately (coordinated-Paxos): an owner only
   ever claims turns at or past its own monotone proposal frontier, so
   the claim cannot cover a slot it actually used. *)
and apply_skips t srv ~who ~start ~upto =
  ensure srv upto;
  let changed = ref false in
  let first_turn =
    (* smallest slot ≥ start owned by [who] *)
    let r = who mod t.n in
    let q = (max 0 (start - r) + t.n - 1) / t.n in
    (q * t.n) + r
  in
  let inst = ref first_turn in
  while !inst < upto do
    if slot srv !inst = Unknown then begin
      Vec.set srv.slots !inst Skip;
      Vec.set srv.committed !inst true;
      Metrics.inc srv.pr.pr_slots_skipped;
      changed := true
    end;
    inst := !inst + t.n
  done;
  !changed

(* The replica skips its own pending turns once it sees the instance space
   move past them, telling everyone. *)
and skip_own_turns t srv ~upto =
  if srv.next_own < upto then begin
    let first = srv.next_own in
    ignore (apply_skips t srv ~who:srv.id ~start:first ~upto);
    let first_own_after =
      let r = srv.id mod t.n in
      let q = (upto - r + t.n - 1) / t.n in
      (q * t.n) + r
    in
    srv.next_own <- max srv.next_own first_own_after;
    Metrics.inc srv.pr.pr_skips_announced;
    broadcast t srv (MSkip { from = srv.id; first; upto })
  end

(* ---- message handling ---- *)

and handle t srv msg =
  if not srv.down then
    match msg with
    | Complete { cmd_id; reply } -> (
        match Hashtbl.find_opt t.completions cmd_id with
        | Some k ->
            Hashtbl.remove t.completions cmd_id;
            Span.mark t.spans ~trace:cmd_id ~node:srv.id ~phase:"reply"
              ~now:(Engine.now t.engine);
            k reply
        | None -> ())
    | MAppend { from; inst; cmd } ->
        Cpu.exec srv.cpu ~cost_us:(p t).cpu_follower_op_us (fun () ->
            if not srv.down then begin
              ensure srv inst;
              let refused =
                from = owner t inst && Hashtbl.mem srv.promised inst
              in
              (match slot srv inst with
              | Unknown when not refused -> set_value srv inst cmd
              | _ -> ());
              skip_own_turns t srv ~upto:inst;
              (* Ack only if we actually hold this value: a promised or
                 force-skipped slot must not count toward the sender's
                 majority, or it could commit a value a revocation
                 concurrently decided to skip. *)
              (match slot srv inst with
              | Value held when held.Types.id = cmd.Types.id ->
                  Metrics.inc srv.pr.pr_acks;
                  send t ~src:srv.id ~dst:from (MAck { from = srv.id; inst })
              | _ -> ());
              advance_frontiers t srv
            end)
    | MAck { from; inst } -> (
        match Hashtbl.find_opt srv.acks inst with
        | None -> ()
        | Some acked ->
            acked.(from) <- true;
            let count =
              Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 acked
            in
            if count + 1 >= majority t && not (is_committed srv inst) then begin
              ensure srv inst;
              Vec.set srv.committed inst true;
              broadcast t srv (MCommit { inst });
              advance_frontiers t srv
            end)
    | MSkip { from; first; upto } ->
        if apply_skips t srv ~who:from ~start:first ~upto then
          advance_frontiers t srv
    | MCommit { inst } ->
        ensure srv inst;
        (* The commit flag may race ahead of the append carrying the value;
           the frontier waits for both. *)
        Vec.set srv.committed inst true;
        advance_frontiers t srv
    | MRevoke { from; inst } ->
        ensure srv inst;
        Hashtbl.replace srv.promised inst ();
        let value =
          match slot srv inst with Value cmd -> Some cmd | Unknown | Skip -> None
        in
        send t ~src:srv.id ~dst:from (MRevStatus { from = srv.id; inst; value })
    | MRevStatus { from; inst; value } -> (
        match Hashtbl.find_opt srv.revocations inst with
        | None -> ()
        | Some pending ->
            pending.seen.(from) <- true;
            (match (pending.found, value) with
            | None, Some _ -> pending.found <- value
            | _ -> ());
            let replies =
              Array.fold_left
                (fun acc b -> if b then acc + 1 else acc)
                0 pending.seen
            in
            if replies + 1 >= majority t then begin
              Hashtbl.remove srv.revocations inst;
              match pending.found with
              | Some cmd ->
                  (* Someone saw the owner's value: re-propose it under the
                     revoker's ownership so it can still commit. *)
                  Metrics.inc srv.pr.pr_revocations_value;
                  Span.mark t.spans ~trace:(revoke_trace inst) ~node:srv.id
                    ~phase:"revoke_value" ~now:(Engine.now t.engine);
                  ensure srv inst;
                  if slot srv inst = Unknown then set_value srv inst cmd;
                  Hashtbl.replace srv.acks inst (Array.make t.n false);
                  Metrics.add srv.pr.pr_appends (t.n - 1);
                  broadcast t srv (MAppend { from = srv.id; inst; cmd });
                  advance_frontiers t srv
              | None ->
                  (* Nobody in a majority saw it, and their [MRevoke]
                     promises block the owner from committing it later, so
                     the skip decision is final — it overrides any value
                     copy that straggles in. *)
                  Metrics.inc srv.pr.pr_revocations_skip;
                  Metrics.inc srv.pr.pr_slots_skipped;
                  Span.mark t.spans ~trace:(revoke_trace inst) ~node:srv.id
                    ~phase:"revoke_skip" ~now:(Engine.now t.engine);
                  Vec.set srv.slots inst Skip;
                  Vec.set srv.committed inst true;
                  broadcast t srv (MSkipForce { inst });
                  advance_frontiers t srv
            end)
    | MSkipForce { inst } ->
        ensure srv inst;
        (* The revocation's decision is final (see MRevStatus): even a
           slot we hold as Value becomes a skip — the promise quorum
           proves that value never reached a majority. *)
        Vec.set srv.slots inst Skip;
        Vec.set srv.committed inst true;
        advance_frontiers t srv
    | MCatchup { from } ->
        let slots = ref [] in
        Vec.iteri
          (fun inst s ->
            match s with
            | Unknown -> ()
            | Skip -> slots := (inst, true, None, is_committed srv inst) :: !slots
            | Value cmd ->
                slots := (inst, false, Some cmd, is_committed srv inst) :: !slots)
          srv.slots;
        send t ~src:srv.id ~dst:from (MState { slots = !slots })
    | MState { slots } ->
        List.iter
          (fun (inst, is_skip, cmd, committed) ->
            ensure srv inst;
            (match (slot srv inst, is_skip, cmd) with
            | Unknown, true, _ -> Vec.set srv.slots inst Skip
            | Unknown, false, Some cmd -> set_value srv inst cmd
            (* A committed snapshot slot overrides a local undecided one:
               we missed the deciding broadcast (force-skip or append). *)
            | Value _, true, _ when committed && not (is_committed srv inst)
              ->
                Vec.set srv.slots inst Skip
            | Skip, false, Some cmd when committed && not (is_committed srv inst)
              ->
                set_value srv inst cmd
            | _ -> ());
            if committed then Vec.set srv.committed inst true)
          slots;
        (* Our own unused turns inside the transferred region are dead:
           skip them and restart proposing after the region. *)
        while
          srv.next_own < Vec.length srv.slots
          && slot srv srv.next_own <> Unknown
        do
          srv.next_own <- srv.next_own + t.n
        done;
        advance_frontiers t srv;
        if srv.recovering then begin
          srv.recovering <- false;
          let queued = List.rev srv.buffered in
          srv.buffered <- [];
          List.iter (fun cmd -> start_own_slot t srv cmd) queued
        end
    | MAppendMulti { from; items } ->
        (* One CPU charge, one own-turn skip walk and one ack for the
           whole batch; bounded by the sender's batch_size. *)
        let k = (List.length items [@perf.allow "length-in-hot-path"]) in
        Cpu.exec srv.cpu ~cost_us:(max 1 (k * (p t).cpu_follower_op_us))
          (fun () ->
            if not srv.down then begin
              let held = ref [] in
              let max_inst = ref (-1) in
              List.iter
                (fun (inst, (cmd : Types.cmd)) ->
                  ensure srv inst;
                  if inst > !max_inst then max_inst := inst;
                  let refused =
                    from = owner t inst && Hashtbl.mem srv.promised inst
                  in
                  (match slot srv inst with
                  | Unknown when not refused -> set_value srv inst cmd
                  | _ -> ());
                  match slot srv inst with
                  | Value held_cmd when held_cmd.Types.id = cmd.Types.id ->
                      held := inst :: !held
                  | _ -> ())
                items;
              if !max_inst >= 0 then skip_own_turns t srv ~upto:!max_inst;
              if !held <> [] then begin
                Metrics.inc srv.pr.pr_acks;
                send t ~src:srv.id ~dst:from
                  (MAckMulti { from = srv.id; insts = List.rev !held })
              end;
              advance_frontiers t srv
            end)
    | MAckMulti { from; insts } ->
        let newly = ref [] in
        List.iter
          (fun inst ->
            match Hashtbl.find_opt srv.acks inst with
            | None -> ()
            | Some acked ->
                acked.(from) <- true;
                let count =
                  Array.fold_left
                    (fun acc b -> if b then acc + 1 else acc)
                    0 acked
                in
                if count + 1 >= majority t && not (is_committed srv inst)
                then begin
                  ensure srv inst;
                  Vec.set srv.committed inst true;
                  newly := inst :: !newly
                end)
          insts;
        if !newly <> [] then begin
          (* One commit broadcast and one frontier walk per acked batch. *)
          broadcast t srv (MCommitMulti { insts = List.rev !newly });
          advance_frontiers t srv
        end
    | MCommitMulti { insts } ->
        List.iter
          (fun inst ->
            ensure srv inst;
            Vec.set srv.committed inst true)
          insts;
        advance_frontiers t srv

(* Frontier watchdog: if the committed prefix stalls on a dead replica's
   slot, the lowest live replica revokes it with no-ops. *)
and watchdog t srv =
  if not srv.down then begin
    let stuck = srv.commit_frontier in
    Engine.schedule t.engine ~node:srv.id ~label:"watchdog"
      ~delay:t.config.revoke_timeout_us (fun () ->
        if
          (not srv.down)
          && srv.commit_frontier = stuck
          && stuck < Vec.length srv.slots
        then begin
          (* A stall usually means we missed a broadcast (append, skip or
             commit) while down or cut off: ask the peers first. *)
          Metrics.inc srv.pr.pr_catchups;
          broadcast t srv (MCatchup { from = srv.id });
          (match slot srv stuck with
          | Value cmd when owner t stuck = srv.id && not (is_committed srv stuck)
            ->
              (* Our own append lost its acks in transit: retransmit.
                 [MAck] replies dedupe through the per-sender flag array. *)
              if not (Hashtbl.mem srv.acks stuck) then
                Hashtbl.replace srv.acks stuck (Array.make t.n false);
              Metrics.inc srv.pr.pr_retransmits;
              Metrics.add srv.pr.pr_appends (t.n - 1);
              broadcast t srv (MAppend { from = srv.id; inst = stuck; cmd })
          | _ -> ());
          if owner t stuck <> srv.id && srv.id = lowest_live t then begin
            (* Poll the cluster about the blocking slot before deciding. *)
            if not (Hashtbl.mem srv.revocations stuck) then begin
              Metrics.inc srv.pr.pr_revocations_started;
              Span.mark t.spans ~trace:(revoke_trace stuck) ~node:srv.id
                ~phase:"revoke_start" ~now:(Engine.now t.engine);
              Hashtbl.replace srv.revocations stuck
                {
                  seen = Array.make t.n false;
                  found =
                    (match slot srv stuck with Value c -> Some c | _ -> None);
                }
            end;
            (* Re-broadcast even when a poll is already pending: the earlier
               round's messages may have been dropped, and [seen] dedupes
               the replies. *)
            broadcast t srv (MRevoke { from = srv.id; inst = stuck })
          end
        end;
        watchdog t srv)
  end
  else
    Engine.schedule t.engine ~node:srv.id ~label:"watchdog"
      ~delay:t.config.revoke_timeout_us (fun () -> watchdog t srv)

and lowest_live t =
  let rec find i = if i >= t.n || not t.servers.(i).down then i else find (i + 1) in
  find 0

(* Claim the next free own turn for [cmd] and set up its local state —
   everything but the broadcast, which batching may hold back. *)
and claim_own_slot t srv (cmd : Types.cmd) =
  (* Our turn may have been revoked (force-skipped) while we sat on it;
     proposing into a decided slot would overwrite the decision.  Advance
     to the first turn nobody has touched. *)
  if not t.config.bug_slot_reuse then
    while
      srv.next_own < Vec.length srv.slots
      && (slot srv srv.next_own <> Unknown || is_committed srv srv.next_own)
    do
      srv.next_own <- srv.next_own + t.n
    done;
  let inst = srv.next_own in
  srv.next_own <- inst + t.n;
  ensure srv inst;
  set_value srv inst cmd;
  Hashtbl.replace srv.acks inst (Array.make t.n false);
  srv.waiting <- (inst, cmd) :: srv.waiting;
  Span.mark t.spans ~trace:cmd.Types.id ~node:srv.id ~phase:"append"
    ~now:(Engine.now t.engine);
  inst

and start_own_slot t srv (cmd : Types.cmd) =
  let inst = claim_own_slot t srv cmd in
  Metrics.add srv.pr.pr_appends (t.n - 1);
  broadcast t srv (MAppend { from = srv.id; inst; cmd });
  if t.n = 1 then Vec.set srv.committed inst true;
  advance_frontiers t srv

(* Release the accumulated batch: one MAppendMulti broadcast carries
   every held (turn, command) pair. *)
and flush_appends t srv =
  let items = List.rev srv.pending_batch in
  Metrics.observe srv.pr.pr_batch_cmds srv.pending_count;
  srv.pending_batch <- [];
  srv.pending_count <- 0;
  Metrics.add srv.pr.pr_appends (t.n - 1);
  broadcast t srv (MAppendMulti { from = srv.id; items });
  if t.n = 1 then
    List.iter (fun (inst, _) -> Vec.set srv.committed inst true) items;
  advance_frontiers t srv

(* ---- construction and client interface ---- *)

let create ?(telemetry = Telemetry.disabled) config net =
  let engine = Net.engine net in
  let n = Net.size net in
  let servers =
    Array.init n (fun id ->
        let cpu = Cpu.create engine in
        Cpu.set_metrics cpu telemetry.Telemetry.metrics ~node:id;
        {
          id;
          slots = Vec.create ();
          committed = Vec.create ();
          next_own = id;
          known_frontier = 0;
          commit_frontier = 0;
          acks = Hashtbl.create 16;
          revocations = Hashtbl.create 8;
          promised = Hashtbl.create 8;
          store = Hashtbl.create 16;
          key_writes = Hashtbl.create 16;
          applied = 0;
          waiting = [];
          recovering = false;
          buffered = [];
          pending_batch = [];
          pending_count = 0;
          flush_pending = false;
          down = false;
          cpu;
          rng = Rng.split (Engine.rng engine);
          pr = make_probes telemetry.Telemetry.metrics ~node:id;
        })
  in
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

let start t = Array.iter (fun srv -> watchdog t srv) t.servers

let submit_cmd t srv (cmd : Types.cmd) =
  Cpu.exec srv.cpu ~cost_us:(p t).cpu_leader_op_us (fun () ->
      if not srv.down then
        if srv.recovering then srv.buffered <- cmd :: srv.buffered
        else if (p t).batch_size <= 1 then start_own_slot t srv cmd
        else begin
          (* Batched: the turn is claimed now; only its broadcast is held
             back until the batch flushes. *)
          let inst = claim_own_slot t srv cmd in
          srv.pending_batch <- (inst, cmd) :: srv.pending_batch;
          srv.pending_count <- srv.pending_count + 1;
          if srv.pending_count >= (p t).batch_size then flush_appends t srv
          else if not srv.flush_pending then begin
            srv.flush_pending <- true;
            Engine.schedule t.engine ~node:srv.id ~label:"flush"
              ~delay:(max 1 (p t).batch_delay_us) (fun () ->
                srv.flush_pending <- false;
                if
                  (not srv.down) && (not srv.recovering)
                  && srv.pending_count > 0
                then flush_appends t srv)
          end
        end)

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
      submit_cmd t t.servers.(node) cmd);
  id

let submit t ~node op k = ignore (submit_id t ~node op k)

(* ---- network-shell hooks ---- *)

let set_wire t f = t.wire <- f
let deliver t ~node msg = handle t t.servers.(node) msg

let set_cmd_ids t ~base ~stride =
  t.next_cmd_id <- base;
  t.cmd_id_stride <- stride

let commit_frontier t ~node = t.servers.(node).commit_frontier

let committed_ops t ~node =
  let srv = t.servers.(node) in
  List.filter_map
    (fun i ->
      match slot srv i with
      | Value cmd -> Some cmd.Types.op
      | Skip | Unknown -> None)
    (List.init srv.commit_frontier Fun.id)
let known_frontier t ~node = t.servers.(node).known_frontier
let applied_value t ~node ~key = Hashtbl.find_opt t.servers.(node).store key
let slot_count t ~node = Vec.length t.servers.(node).slots

let skipped_count t ~node =
  let srv = t.servers.(node) in
  let c = ref 0 in
  Vec.iteri (fun _ s -> if s = Skip then incr c) srv.slots;
  !c

let dump_slots t ~node =
  let srv = t.servers.(node) in
  let buf = Buffer.create 256 in
  Vec.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ':';
      (match s with
      | Value { op = Types.Put { write_id; _ }; _ } ->
          Buffer.add_string buf (Printf.sprintf "V(w%d)" write_id)
      | Value { op = Types.Get _; _ } -> Buffer.add_string buf "G"
      | Skip -> Buffer.add_string buf "S"
      | Unknown -> Buffer.add_string buf "U");
      if not (is_committed srv i) then Buffer.add_char buf '!')
    srv.slots;
  Buffer.contents buf

(* ---- model-checker inspection hooks ---- *)

let dump_state ?(rename = Fun.id) t ~node =
  let srv = t.servers.(node) in
  let permuted a =
    let b = Array.copy a in
    Array.iteri (fun i v -> b.(rename i) <- v) a;
    b
  in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "no%d kf%d cf%d ap%d %s%s|" srv.next_own srv.known_frontier
    srv.commit_frontier srv.applied
    (if srv.down then "D" else "U")
    (if srv.recovering then "R" else "");
  add "%s" (dump_slots t ~node);
  let tbl name tbl render =
    let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    add "|%s:%s" name
      (String.concat ";"
         (List.map render
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) items)))
  in
  let mask a =
    String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))
  in
  tbl "ak" srv.acks (fun (i, a) ->
      Printf.sprintf "%d=%s" i (mask (permuted a)));
  tbl "rv" srv.revocations (fun (i, r) ->
      Printf.sprintf "%d=%s/%s" i
        (mask (permuted r.seen))
        (Types.render_cmd_opt ~rename r.found));
  tbl "pm" srv.promised (fun (i, ()) -> string_of_int i);
  tbl "st" srv.store (fun (k, v) -> Printf.sprintf "%d=%d" k v);
  tbl "kw" srv.key_writes (fun (k, cell) ->
      Printf.sprintf "%d=[%s]" k
        (String.concat ","
           (List.map string_of_int (List.sort Int.compare !cell))));
  add "|wt:%s"
    (String.concat ";"
       (List.sort String.compare
          (List.map
             (fun (i, c) ->
               Printf.sprintf "%d:%s" i (Types.render_cmd ~rename c))
             srv.waiting)));
  add "|bf:%s"
    (String.concat ","
       (List.map (fun (c : Types.cmd) -> string_of_int c.id) srv.buffered));
  (* Batched runs only: the held batch is real protocol state the checker
     must distinguish.  Unbatched fingerprints stay byte-identical. *)
  if (p t).batch_size > 1 then
    add "|pb:%s"
      (String.concat ";"
         (List.rev_map
            (fun (i, (c : Types.cmd)) -> Printf.sprintf "%d:c%d" i c.id)
            srv.pending_batch));
  Buffer.contents buf

(* Frontiers, the applied prefix, the own-turn cursor and the number of
   committed slots only ever grow. *)
let mono_view t ~node =
  let srv = t.servers.(node) in
  let committed_count = ref 0 in
  Vec.iteri (fun _ b -> if b then incr committed_count) srv.committed;
  [|
    srv.known_frontier;
    srv.commit_frontier;
    srv.applied;
    srv.next_own;
    !committed_count;
  |]

let invariant_violation t =
  let violation = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt
  in
  (* Committed-slot agreement (covers skip-soundness): once two replicas
     have a slot committed and decided, they must agree on Skip vs Value
     and on the value's identity.  A slot can be committed while still
     Unknown locally (the commit flag races ahead of the value), which is
     not a disagreement. *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a.id < b.id then
            let upto = min (Vec.length a.slots) (Vec.length b.slots) - 1 in
            for i = 0 to upto do
              if is_committed a i && is_committed b i then
                match (slot a i, slot b i) with
                | Value ca, Value cb when ca.Types.id <> cb.Types.id ->
                    fail "slot-agreement: nodes %d,%d slot %d: %s vs %s" a.id
                      b.id i (Types.render_cmd ca) (Types.render_cmd cb)
                | Value c, Skip | Skip, Value c ->
                    fail
                      "skip-soundness: nodes %d,%d slot %d committed as both \
                       %s and Skip"
                      a.id b.id i (Types.render_cmd c)
                | _ -> ()
            done)
        t.servers)
    t.servers;
  (* No command may occupy two different committed slots anywhere. *)
  let placed = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      Vec.iteri
        (fun i sl ->
          match sl with
          | Value cmd when is_committed s i -> (
              match Hashtbl.find_opt placed cmd.Types.id with
              | Some j when j <> i ->
                  fail "dup-command: %s committed at slots %d and %d"
                    (Types.render_cmd cmd) j i
              | _ -> Hashtbl.replace placed cmd.Types.id i)
          | _ -> ())
        s.slots)
    t.servers;
  !violation

let crash t ~node =
  t.servers.(node).down <- true;
  Net.set_node_down t.net node true

let restart t ~node =
  let srv = t.servers.(node) in
  srv.down <- false;
  Net.set_node_down t.net node false;
  (* A batch held across the crash is dropped: its claimed turns stay
     locally Value-and-uncommitted, and the frontier watchdog's own-append
     retransmission (or a peer's revocation) decides them. *)
  srv.pending_batch <- [];
  srv.pending_count <- 0;
  (* Re-learn decided slots (and our dead turns) from the peers before
     proposing again. *)
  srv.recovering <- true;
  broadcast t srv (MCatchup { from = node })
