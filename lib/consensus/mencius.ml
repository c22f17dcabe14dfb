module Net = Raftpax_sim.Net
module Engine = Raftpax_sim.Engine
module Cpu = Raftpax_sim.Cpu
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

(* A replica's own ops awaiting their reply, in ascending slot order: the
   live entries are [[head, tail)] of two parallel arrays.  Own turns are
   claimed in increasing order, so pushing at the tail keeps the order.
   Every entry still holds its slot: a revoked op is evicted where its
   slot is overwritten with a skip. *)
type waiting = {
  mutable w_inst : int array;
  mutable w_cmd : Types.cmd array;
  mutable head : int;
  mutable tail : int;
}

(* Filler for the unused cells of [w_cmd]; never read. *)
let no_cmd =
  { Types.id = -1; op = Types.Get { key = 0 }; origin = -1; submitted_us = 0 }

type msg =
  | MAppend of {
      from : int;
      items : (int * Types.cmd) list;
          (** (turn, command) per command: one item unbatched, a whole
            flushed batch of the sender's own turns otherwise — one
            frame, CPU charge and ack *)
    }
  | MAck of { from : int; insts : int list }
  | MSkip of { from : int; first : int; upto : int }
      (** [from]'s turns in [[first, upto)] are no-ops.  The range is
          explicit — "every slot of mine you haven't seen" would be
          unsound for a receiver that missed an append while down or
          partitioned. *)
  | MCommit of { insts : int list }
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
  | Complete of { cmd_id : int; reply : Types.reply }

type server_probes = {
  pr_appends : Metrics.counter;  (** MAppend messages sent *)
  pr_skips_announced : Metrics.counter;  (** MSkip broadcasts *)
  pr_slots_skipped : Metrics.counter;  (** slots locally decided as Skip *)
  pr_revocations_started : Metrics.counter;
  pr_revocations_value : Metrics.counter;  (** resolved by re-proposal *)
  pr_revocations_skip : Metrics.counter;  (** resolved by force-skip *)
  pr_catchups : Metrics.counter;  (** MCatchup requests sent *)
}

let make_probes m ~node =
  let c name = Metrics.counter m name ~node in
  {
    pr_appends = c "appends_sent";
    pr_skips_announced = c "skips_announced";
    pr_slots_skipped = c "slots_skipped";
    pr_revocations_started = c "revocations_started";
    pr_revocations_value = c "revocations_value";
    pr_revocations_skip = c "revocations_skip";
    pr_catchups = c "catchups";
  }

type server = {
  id : int;
  slots : slot Vec.t;
  committed : bool Vec.t;
  mutable next_own : int;
  mutable known_frontier : int;  (** all slots < this are Value or Skip *)
  mutable commit_frontier : int;  (** all slots < this are committed *)
  acks : int Vec.t;
      (** per slot, the tally of peers that acked our append to it (see
          {!Replica.no_tally}); grown with [slots] *)
  revocations : (int, revocation) Hashtbl.t;
  promised : bool Vec.t;
      (** per slot, whether we answered its revocation poll: the poll is
          a Paxos phase 1, so afterwards the owner's own (ballot-0)
          append must be refused or the revocation's decision could lose
          the race; grown only up to the last slot polled, so a run
          without revocations keeps it empty *)
  key_writes : (int, int list ref) Hashtbl.t;
      (** the unapplied slots that hold a write of each key — what a
          commutative read must see applied before replying early *)
  mutable applied : int;  (** slots < this applied to the base's store *)
  waiting : waiting;  (** own ops awaiting their reply, by slot *)
  mutable recovering : bool;
  mutable buffered : Types.cmd list;  (** submissions queued during recovery *)
  (* own turns claimed but whose MAppend broadcast is held for the
     current batch *)
  mutable pending_batch : (int * Types.cmd) list;  (** reversed *)
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

(* Revocations are protocol-internal work with no client command, so they
   trace under a negative id derived from the slot: slot [i] revokes as
   trace [-(i + 1)]. *)
let revoke_trace inst = -(inst + 1)

let majority t = (t.n / 2) + 1
let p t = t.config.params

(* [MAppend], [MAck] and [MCommit] are charged an 8-byte slot index per
   item. *)
let msg_size t = function
  | MAppend { items; _ } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, c) -> acc + 8 + Types.op_size c.Types.op)
          0 items
  | MAck { insts; _ } | MCommit { insts } ->
      (p t).msg_header_bytes + (8 * List.length insts)
  | MRevStatus { value; _ } ->
      (p t).msg_header_bytes
      + (match value with Some c -> Types.op_size c.Types.op | None -> 0)
  | MSkip _ | MRevoke _ | MSkipForce _ | MCatchup _ ->
      (p t).msg_header_bytes
  | MState { slots } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, _, cmd, _) ->
            acc
            + 8
            + match cmd with Some c -> Types.op_size c.Types.op | None -> 0)
          0 slots
  | Complete _ -> (p t).reply_bytes

(* ---- slot bookkeeping ---- *)

let ensure srv inst =
  while Vec.length srv.slots <= inst do
    Vec.push srv.slots Unknown;
    Vec.push srv.committed false;
    Vec.push srv.acks Replica.no_tally
  done

let slot srv inst =
  if inst < Vec.length srv.slots then Vec.get srv.slots inst else Unknown

let is_committed srv inst =
  inst < Vec.length srv.committed && Vec.get srv.committed inst

(* Record a slot's value, remembering write positions per key.  Only a
   slot that is not a Value yet gets one, so each write slot is recorded
   once while it holds the write. *)
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

(* Drop write slot [inst] of [key]: it was applied, or overwritten with a
   skip.  A key with no unapplied write leaves the table, so the table
   holds only writes in flight. *)
let forget_write srv key inst =
  match Hashtbl.find_opt srv.key_writes key with
  | None -> ()
  | Some cell -> (
      match List.filter (fun j -> j <> inst) !cell with
      | [] -> Hashtbl.remove srv.key_writes key
      | rest -> cell := rest)

(* A commutative read at [inst] may reply from the applied store only once
   every known earlier write of its key has been applied; otherwise it
   could return a value older than an already-acknowledged write (the
   fault-injection harness caught exactly this under churn). *)
let commutative_read_safe srv ~key ~inst =
  match Hashtbl.find_opt srv.key_writes key with
  | None -> true
  | Some slots -> List.for_all (fun j -> j >= inst) !slots

let owner t inst = inst mod t.n

(* The highest turn among [items], or [acc] if none is higher. *)
let rec last_turn acc = function
  | [] -> acc
  | (inst, _) :: rest -> last_turn (max acc inst) rest

let rec mark_committed srv = function
  | [] -> ()
  | inst :: rest ->
      ensure srv inst;
      Vec.set srv.committed inst true;
      mark_committed srv rest

let conflicting (cmd : Types.cmd) = Types.key_of cmd.op = hot_key

(* ---- the reply-pending queue ---- *)

let[@perf.hot] push_waiting q inst cmd =
  if q.tail = Array.length q.w_inst then begin
    let live = q.tail - q.head in
    if q.tail = 0 || 2 * live > q.tail then begin
      (* Doubling growth, only once live entries fill more than half the
         array: the copy amortises to O(1) per push. *)
      let cap = max 16 (2 * q.tail) in
      let w_inst = (Array.make cap 0 [@perf.allow "alloc-in-handler"])
      and w_cmd = (Array.make cap no_cmd [@perf.allow "alloc-in-handler"]) in
      Array.blit q.w_inst q.head w_inst 0 live;
      Array.blit q.w_cmd q.head w_cmd 0 live;
      q.w_inst <- w_inst;
      q.w_cmd <- w_cmd
    end
    else begin
      (* Otherwise slide the live entries down to the front in place. *)
      Array.blit q.w_inst q.head q.w_inst 0 live;
      Array.blit q.w_cmd q.head q.w_cmd 0 live
    end;
    q.head <- 0;
    q.tail <- live
  end;
  q.w_inst.(q.tail) <- inst;
  q.w_cmd.(q.tail) <- cmd;
  q.tail <- q.tail + 1

(* Drop the op waiting on own slot [inst], if any: its slot was just
   overwritten with a skip, so it must never be acknowledged — the client
   retries it as a fresh op. *)
let evict_waiting q inst =
  let lo = ref q.head and hi = ref q.tail in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if q.w_inst.(mid) < inst then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i < q.tail && q.w_inst.(i) = inst then begin
    Array.blit q.w_inst q.head q.w_inst (q.head + 1) (i - q.head);
    Array.blit q.w_cmd q.head q.w_cmd (q.head + 1) (i - q.head);
    q.head <- q.head + 1
  end

(* A revocation's final decision: slot [inst] is a committed skip. *)
let force_skip srv inst =
  (match slot srv inst with
  | Value { op = Types.Put { key; _ }; _ } -> forget_write srv key inst
  | Value { op = Types.Get _; _ } | Skip | Unknown -> ());
  Vec.set srv.slots inst Skip;
  Vec.set srv.committed inst true;
  evict_waiting srv.waiting inst

(* Whether the op waiting on slot [inst] may reply.  Either branch needs
   [inst < known_frontier] ([commit_frontier <= known_frontier]). *)
let entry_ready srv inst (cmd : Types.cmd) =
  if conflicting cmd then srv.commit_frontier > inst
  else
    is_committed srv inst
    && srv.known_frontier > inst
    &&
    match cmd.op with
    | Types.Get { key } -> commutative_read_safe srv ~key ~inst
    | Types.Put _ -> true

(* [rename] is the checker's symmetry renaming.  Note Mencius slot
   ownership is positional ([owner t inst = inst mod n]), so node ids are
   load-bearing in slot numbers themselves; symmetry scopes therefore
   never include Mencius, and the renaming here only keeps the interface
   uniform with the other protocols. *)
let render_msg ?(rename = Fun.id) = function
  | MAppend { from; items } ->
      Printf.sprintf "MAppend(f%d [%s])" (rename from)
        (String.concat ";"
           (List.map
              (fun (i, c) ->
                Printf.sprintf "%d:%s" i (Types.render_cmd ~rename c))
              items))
  | MAck { from; insts } ->
      Printf.sprintf "MAck(f%d [%s])" (rename from)
        (String.concat ";" (List.map string_of_int insts))
  | MSkip { from; first; upto } ->
      Printf.sprintf "MSkip(f%d %d..%d)" (rename from) first upto
  | MCommit { insts } ->
      Printf.sprintf "MCommit([%s])"
        (String.concat ";" (List.map string_of_int insts))
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
  | Complete { cmd_id; reply } -> Replica.render_complete cmd_id reply

(* ---- dispatch ---- *)

let send t ~src ~dst msg = Replica.send t.base ~src ~dst msg
let broadcast t srv msg = Replica.broadcast t.base ~src:srv.id msg
let complete_at_origin t srv cmd v = Replica.reply t.base ~src:srv.id cmd v

(* ---- frontiers, application, replies ---- *)

let rec advance_frontiers t srv =
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
    Metrics.inc srv.node.commits;
    srv.commit_frontier <- srv.commit_frontier + 1
  done;
  (* Apply in slot order as the committed prefix grows. *)
  while srv.applied < srv.commit_frontier do
    (match slot srv srv.applied with
    | Value { op = Put { key; write_id; _ }; _ } ->
        Replica.apply srv.node ~key write_id;
        forget_write srv key srv.applied
    | Value { op = Get _; _ } | Skip | Unknown -> ());
    srv.applied <- srv.applied + 1
  done;
  try_reply t srv

and[@perf.hot] try_reply t srv =
  (* This runs after every message.  Only an op below [known_frontier]
     can be ready, so most deliveries stop at the head; otherwise walk
     that prefix newest-first, reply to each ready op and slide the rest
     up against the untouched suffix.  Replies leave in descending slot
     order, and [entry_ready] runs on every op in the prefix.  Replying
     mid-walk is safe: [send] never delivers synchronously, and readiness
     reads nothing a send writes. *)
  let q = srv.waiting in
  if q.head < q.tail && q.w_inst.(q.head) < srv.known_frontier then begin
    let stop = ref q.head in
    while !stop < q.tail && q.w_inst.(!stop) < srv.known_frontier do
      incr stop
    done;
    let keep = ref !stop in
    for i = !stop - 1 downto q.head do
      let inst = q.w_inst.(i) and cmd = q.w_cmd.(i) in
      if entry_ready srv inst cmd then begin
        Span.mark t.spans ~trace:cmd.Types.id ~node:srv.id
          ~phase:"quorum_commit" ~now:(Engine.now t.engine);
        let value =
          match cmd.op with
          | Types.Get { key } ->
              (* Reads ordered at their slot: contended reads applied in
                 slot order see the applied store; commutative reads see
                 their key's applied state, untouched by concurrent
                 ops. *)
              Replica.read srv.node ~key
          | Types.Put _ -> None
        in
        complete_at_origin t srv cmd { Types.value }
      end
      else begin
        decr keep;
        if !keep <> i then begin
          q.w_inst.(!keep) <- inst;
          q.w_cmd.(!keep) <- cmd
        end
      end
    done;
    q.head <- !keep;
    if q.head = q.tail then begin
      q.head <- 0;
      q.tail <- 0
    end
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
    | Complete { cmd_id; reply } ->
        Replica.complete t.base ~node:srv.id cmd_id reply
    | MAppend { from; items } ->
        (* One CPU charge, one own-turn skip walk and one ack for the
           whole list; bounded by the sender's batch_size. *)
        let k = (List.length items [@perf.allow "length-in-hot-path"]) in
        Cpu.exec srv.node.cpu ~cost_us:(max 1 (k * (p t).cpu_follower_op_us))
          (fun () ->
            if not srv.down then begin
              let held = hold_appends t srv from items in
              skip_own_turns t srv ~upto:(last_turn (-1) items);
              (* Ack only the turns we actually hold: a promised or
                 force-skipped slot must not count toward the sender's
                 majority, or it could commit a value a revocation
                 concurrently decided to skip. *)
              if held <> [] then begin
                Metrics.inc srv.node.acks_sent;
                send t ~src:srv.id ~dst:from
                  (MAck { from = srv.id; insts = held })
              end;
              advance_frontiers t srv
            end)
    | MAck { from; insts } -> (
        match tally_acks t srv from insts with
        | [] -> ()
        | newly ->
            (* One commit broadcast and one frontier walk per ack. *)
            broadcast t srv (MCommit { insts = newly });
            advance_frontiers t srv)
    | MSkip { from; first; upto } ->
        if apply_skips t srv ~who:from ~start:first ~upto then
          advance_frontiers t srv
    | MCommit { insts } ->
        (* The commit flag may race ahead of the append carrying the value;
           the frontier waits for both. *)
        mark_committed srv insts;
        advance_frontiers t srv
    | MRevoke { from; inst } ->
        ensure srv inst;
        while Vec.length srv.promised <= inst do
          Vec.push srv.promised false
        done;
        Vec.set srv.promised inst true;
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
                  Vec.set srv.acks inst 0;
                  Metrics.add srv.pr.pr_appends (t.n - 1);
                  broadcast t srv
                    (MAppend { from = srv.id; items = [ (inst, cmd) ] });
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
                  force_skip srv inst;
                  broadcast t srv (MSkipForce { inst });
                  advance_frontiers t srv
            end)
    | MSkipForce { inst } ->
        ensure srv inst;
        (* The revocation's decision is final (see MRevStatus): even a
           slot we hold as Value becomes a skip — the promise quorum
           proves that value never reached a majority. *)
        force_skip srv inst;
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
                force_skip srv inst
            | Skip, false, Some cmd when committed && not (is_committed srv inst)
              ->
                set_value srv inst cmd
            | (Unknown | Value _ | Skip), _, _ -> ());
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
          List.iter (fun cmd -> hold_own_slot t srv cmd) queued
        end

(* Record each appended (turn, command) unless the turn is taken or
   promised to a revocation; the turns now holding their command, in
   order. *)
and hold_appends t srv from = function
  | [] -> []
  | (inst, (cmd : Types.cmd)) :: rest -> (
      ensure srv inst;
      let refused =
        from = owner t inst
        && inst < Vec.length srv.promised
        && Vec.get srv.promised inst
      in
      (match slot srv inst with
      | Unknown when not refused -> set_value srv inst cmd
      | Unknown | Value _ | Skip -> ());
      match slot srv inst with
      | Value held when held.Types.id = cmd.Types.id ->
          inst :: hold_appends t srv from rest
      | Unknown | Value _ | Skip -> hold_appends t srv from rest)

(* Count [from]'s ack of each own turn and commit those reaching a
   majority; the newly committed turns, in ack order. *)
and tally_acks t srv from = function
  | [] -> []
  | inst :: rest when inst >= Vec.length srv.acks ->
      (* a slot past the log's end has no tally *)
      tally_acks t srv from rest
  | inst :: rest ->
      let acks = Vec.get srv.acks inst in
      if acks = Replica.no_tally then tally_acks t srv from rest
      else begin
        let acks = acks lor (1 lsl from) in
        Vec.set srv.acks inst acks;
        if Replica.popcount acks + 1 >= majority t && not (is_committed srv inst)
        then begin
          Vec.set srv.committed inst true;
          inst :: tally_acks t srv from rest
        end
        else tally_acks t srv from rest
      end

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
                 [MAck] replies dedupe through the per-peer tally. *)
              if Vec.get srv.acks stuck = Replica.no_tally then
                Vec.set srv.acks stuck 0;
              Metrics.inc srv.node.retransmits;
              Metrics.add srv.pr.pr_appends (t.n - 1);
              broadcast t srv
                (MAppend { from = srv.id; items = [ (stuck, cmd) ] })
          | Unknown | Value _ | Skip -> ());
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
                    (match slot srv stuck with
                     | Value c -> Some c
                     | Unknown | Skip -> None);
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

(* Claim the next free own turn for [cmd] and set up its local state;
   only the broadcast is held back until the batch flushes. *)
and hold_own_slot t srv (cmd : Types.cmd) =
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
  Vec.set srv.acks inst 0;
  push_waiting srv.waiting inst cmd;
  Span.mark t.spans ~trace:cmd.Types.id ~node:srv.id ~phase:"append"
    ~now:(Engine.now t.engine);
  srv.pending_batch <- (inst, cmd) :: srv.pending_batch;
  Replica.hold t.base srv.node

(* Release the accumulated batch (the base's flush hook): one MAppend
   broadcast for claimed own turns — a lone replica is its own majority. *)
and flush_appends t srv =
  let items = List.rev srv.pending_batch in
  srv.pending_batch <- [];
  Metrics.add srv.pr.pr_appends (t.n - 1);
  broadcast t srv (MAppend { from = srv.id; items });
  if t.n = 1 then
    List.iter (fun (inst, _) -> Vec.set srv.committed inst true) items;
  advance_frontiers t srv

let submit_cmd t srv (cmd : Types.cmd) =
  Cpu.exec srv.node.cpu ~cost_us:(p t).cpu_leader_op_us (fun () ->
      if not srv.down then
        if srv.recovering then srv.buffered <- cmd :: srv.buffered
        else hold_own_slot t srv cmd)

(* ---- construction and client interface ---- *)

let create ?(telemetry = Telemetry.disabled) config net =
  let engine = Net.engine net in
  let n = Net.size net in
  Replica.check_tally_width ~who:"Mencius.create" n;
  let base = Replica.create ~telemetry ~params:config.params net in
  let servers =
    Array.init n (fun id ->
        {
          id;
          slots = Vec.create ();
          committed = Vec.create ();
          next_own = id;
          known_frontier = 0;
          commit_frontier = 0;
          acks = Vec.create ();
          revocations = Hashtbl.create 8;
          promised = Vec.create ();
          key_writes = Hashtbl.create 16;
          applied = 0;
          waiting = { w_inst = [||]; w_cmd = [||]; head = 0; tail = 0 };
          recovering = false;
          buffered = [];
          pending_batch = [];
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
      render = (fun rename msg -> render_msg ~rename msg);
      complete = (fun cmd_id reply -> Complete { cmd_id; reply });
      handle = (fun dst msg -> handle t servers.(dst) msg);
      client = (fun node cmd -> submit_cmd t servers.(node) cmd);
      live =
        (fun id -> (not servers.(id).down) && not servers.(id).recovering);
      flush = (fun id -> flush_appends t servers.(id));
    };
  t

let start t = Array.iter (fun srv -> watchdog t srv) t.servers

let submit_id t ~node op k = Replica.submit_id t.base ~node op k
let submit t ~node op k = ignore (submit_id t ~node op k)

(* ---- network-shell hooks ---- *)

let set_wire t f = Replica.set_wire t.base f
let deliver t ~node msg = handle t t.servers.(node) msg
let set_cmd_ids t ~base ~stride = Replica.set_cmd_ids t.base ~base ~stride

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
let applied_value t ~node ~key = Replica.applied_value t.base ~node ~key
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
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "no%d kf%d cf%d ap%d %s%s|" srv.next_own srv.known_frontier
    srv.commit_frontier srv.applied
    (if srv.down then "D" else "U")
    (if srv.recovering then "R" else "");
  add "%s" (dump_slots t ~node);
  let tbl name tbl render =
    add "|%s:%s" name
      (String.concat ";" (List.map render (Replica.sorted_bindings tbl)))
  in
  let mask = Replica.mask ~rename in
  add "|ak:%s"
    (Replica.render_tallies ~rename ~n:t.n (fun f -> Vec.iteri f srv.acks));
  tbl "rv" srv.revocations (fun (i, r) ->
      Printf.sprintf "%d=%s/%s" i
        (mask r.seen)
        (Types.render_cmd_opt ~rename r.found));
  let promised = ref [] in
  Vec.iteri
    (fun i p -> if p then promised := string_of_int i :: !promised)
    srv.promised;
  add "|pm:%s" (String.concat ";" (List.rev !promised));
  add "%s" (Replica.render_store srv.node);
  tbl "kw" srv.key_writes (fun (k, cell) ->
      Printf.sprintf "%d=[%s]" k
        (String.concat ","
           (List.map string_of_int (List.sort Int.compare !cell))));
  add "|wt:%s"
    (String.concat ";"
       (List.sort String.compare
          (List.init (srv.waiting.tail - srv.waiting.head) (fun k ->
               let i = srv.waiting.head + k in
               Printf.sprintf "%d:%s" srv.waiting.w_inst.(i)
                 (Types.render_cmd ~rename srv.waiting.w_cmd.(i))))));
  add "|bf:%s"
    (String.concat ","
       (List.map (fun (c : Types.cmd) -> string_of_int c.id) srv.buffered));
  (* The held batch is real protocol state the checker must distinguish. *)
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
                | (Unknown | Value _ | Skip), _ -> ()
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
          | Unknown | Value _ | Skip -> ())
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
  Replica.drop_batch srv.node;
  (* Re-learn decided slots (and our dead turns) from the peers before
     proposing again. *)
  srv.recovering <- true;
  broadcast t srv (MCatchup { from = node })
