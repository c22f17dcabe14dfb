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
   live entries are [[head, tail)] of three parallel arrays.  Own turns are
   claimed in increasing order, so pushing at the tail keeps the order.
   Every entry still holds its slot: a revoked op is evicted where its
   slot is overwritten with a skip. *)
type waiting = {
  mutable w_inst : int array;
  mutable w_cmd : Types.cmd array;
  mutable w_block : int array;
      (** for a commutative read, the earlier write of its key that last
          held it back ([-1] before the first check) *)
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
  log : slot Log.t;
      (** per slot: its value, the committed flag, the tally of peers that
          acked our append to it, and as its ballot whether we answered
          its revocation poll ({!promised}) *)
  mutable next_own : int;
  mutable known_frontier : int;  (** all slots < this are Value or Skip *)
  mutable commit_frontier : int;  (** all slots < this are committed *)
  revocations : (int, revocation) Hashtbl.t;
  mutable unapplied_writes : int array;
      (** per bucket of keys ({!write_bucket}), the number of slots at or
          past [applied] that hold a write of a key in the bucket: a
          commutative read scans for an earlier write of its key only
          when its bucket's count is nonzero.  Empty until the first
          write is counted, so building a replica allocates none of it. *)
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

(* A revocation poll is a Paxos phase 1 at this ballot, which outranks
   the owner's own ballot-0 append: a slot whose poll we answered holds
   it, and the owner's append to it must be refused or the revocation's
   decision could lose the race.  Only a poll writes the ballot column,
   so a run without revocations never allocates it. *)
let revoke_ballot = 1
let promised srv inst = Log.ballot srv.log inst >= revoke_ballot

let held_cmd srv inst =
  match Log.get srv.log inst with Value c -> Some c | Unknown | Skip -> None

(* [unapplied_writes] is a counting filter over 2^10 buckets, indexed by
   a Fibonacci hash of the key.  Invariant: a bucket counts exactly the
   slots at or past [applied] that hold [Value (Put key)] for a key in
   the bucket.  Once allocated it never grows, and keeping it is an array
   increment. *)
let write_buckets_bits = 10

let[@inline] write_bucket key =
  (key * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - write_buckets_bits)

(* Add [delta] to the count of the write [s] holds at slot [inst], if it
   is one the invariant counts. *)
let count_write srv inst s delta =
  match s with
  | Value { op = Types.Put { key; _ }; _ } when inst >= srv.applied ->
      if Array.length srv.unapplied_writes = 0 then
        srv.unapplied_writes <- Array.make (1 lsl write_buckets_bits) 0;
      let b = write_bucket key in
      srv.unapplied_writes.(b) <- srv.unapplied_writes.(b) + delta
  | Value { op = Types.Put _ | Types.Get _; _ } | Skip | Unknown -> ()

(* Overwrite slot [inst], keeping the write counts.  Every write of a slot
   goes through here. *)
let set_slot srv inst s =
  count_write srv inst (Log.get srv.log inst) (-1);
  Log.set srv.log inst s;
  count_write srv inst s 1

let set_value srv inst cmd = set_slot srv inst (Value cmd)

let holds_write srv ~key inst =
  match Log.get srv.log inst with
  | Value { op = Types.Put { key = k; _ }; _ } -> k = key
  | Value { op = Types.Get _; _ } | Skip | Unknown -> false

(* The first slot in [[from, upto)] that holds a write of [key], or -1. *)
let rec first_write srv ~key from upto =
  if from >= upto then -1
  else if holds_write srv ~key from then from
  else first_write srv ~key (from + 1) upto

(* A commutative read may reply from the applied store only once every
   known earlier write of its key has been applied; otherwise it could
   return a value older than an already-acknowledged write (the
   fault-injection harness caught exactly this under churn).  A zero
   count in the read's bucket clears it without touching the slots.
   Otherwise the read, waiting as entry [i] of [q], scans the unapplied
   slots and remembers in [w_block] the write it found: while that write
   is still unapplied the read stays blocked without another scan, so a
   read held behind a stalled slot costs one probe per message, not a
   walk over every unapplied slot. *)
let commutative_read_safe srv q i ~key =
  Array.length srv.unapplied_writes = 0
  || srv.unapplied_writes.(write_bucket key) = 0
  ||
  let j = q.w_block.(i) in
  if j >= srv.applied && holds_write srv ~key j then false
  else begin
    let j = first_write srv ~key srv.applied q.w_inst.(i) in
    q.w_block.(i) <- j;
    j < 0
  end

let owner t inst = inst mod t.n

(* The highest turn among [items], or [acc] if none is higher. *)
let rec last_turn acc = function
  | [] -> acc
  | (inst, _) :: rest -> last_turn (max acc inst) rest

let rec mark_committed srv = function
  | [] -> ()
  | inst :: rest ->
      Log.ensure srv.log inst;
      Log.choose srv.log inst;
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
      and w_cmd = (Array.make cap no_cmd [@perf.allow "alloc-in-handler"])
      and w_block = (Array.make cap 0 [@perf.allow "alloc-in-handler"]) in
      Array.blit q.w_inst q.head w_inst 0 live;
      Array.blit q.w_cmd q.head w_cmd 0 live;
      Array.blit q.w_block q.head w_block 0 live;
      q.w_inst <- w_inst;
      q.w_cmd <- w_cmd;
      q.w_block <- w_block
    end
    else begin
      (* Otherwise slide the live entries down to the front in place. *)
      Array.blit q.w_inst q.head q.w_inst 0 live;
      Array.blit q.w_cmd q.head q.w_cmd 0 live;
      Array.blit q.w_block q.head q.w_block 0 live
    end;
    q.head <- 0;
    q.tail <- live
  end;
  q.w_inst.(q.tail) <- inst;
  q.w_cmd.(q.tail) <- cmd;
  q.w_block.(q.tail) <- -1;
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
    Array.blit q.w_block q.head q.w_block (q.head + 1) (i - q.head);
    q.head <- q.head + 1
  end

(* A revocation's final decision: slot [inst] is a committed skip. *)
let force_skip srv inst =
  set_slot srv inst Skip;
  Log.choose srv.log inst;
  evict_waiting srv.waiting inst

(* Whether the op waiting as entry [i] of [srv.waiting], on slot [inst],
   may reply.  Either branch needs [inst < known_frontier]
   ([commit_frontier <= known_frontier]). *)
let entry_ready srv i inst (cmd : Types.cmd) =
  if conflicting cmd then srv.commit_frontier > inst
  else
    Log.chosen srv.log inst
    && srv.known_frontier > inst
    &&
    match cmd.op with
    | Types.Get { key } -> commutative_read_safe srv srv.waiting i ~key
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

(* ---- frontiers, application, replies ---- *)

let rec advance_frontiers t srv =
  let log = srv.log in
  while Log.get log srv.known_frontier <> Unknown do
    srv.known_frontier <- srv.known_frontier + 1
  done;
  while
    Log.chosen log srv.commit_frontier
    && Log.get log srv.commit_frontier <> Unknown
  do
    Metrics.inc srv.node.commits;
    srv.commit_frontier <- srv.commit_frontier + 1
  done;
  (* Apply in slot order as the committed prefix grows. *)
  while srv.applied < srv.commit_frontier do
    let s = Log.get srv.log srv.applied in
    (match s with
    | Value { op = Put { key; write_id; _ }; _ } ->
        Replica.apply srv.node ~key write_id
    | Value { op = Get _; _ } | Skip | Unknown -> ());
    count_write srv srv.applied s (-1);
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
      if entry_ready srv i inst cmd then
        (* Reads ordered at their slot: contended reads applied in slot
           order see the applied store; commutative reads see their key's
           applied state, untouched by concurrent ops. *)
        Replica.answer t.base srv.node cmd
      else begin
        decr keep;
        if !keep <> i then begin
          q.w_inst.(!keep) <- inst;
          q.w_cmd.(!keep) <- cmd;
          q.w_block.(!keep) <- q.w_block.(i)
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
  Log.ensure srv.log upto;
  let changed = ref false in
  let first_turn =
    (* smallest slot ≥ start owned by [who] *)
    let r = who mod t.n in
    let q = (max 0 (start - r) + t.n - 1) / t.n in
    (q * t.n) + r
  in
  let inst = ref first_turn in
  while !inst < upto do
    if Log.get srv.log !inst = Unknown then begin
      set_slot srv !inst Skip;
      Log.choose srv.log !inst;
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
        match Log.tally srv.log ~majority:(majority t) ~from insts with
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
        Log.ensure srv.log inst;
        Log.set_ballot srv.log inst revoke_ballot;
        send t ~src:srv.id ~dst:from
          (MRevStatus { from = srv.id; inst; value = held_cmd srv inst })
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
                  Log.ensure srv.log inst;
                  if Log.get srv.log inst = Unknown then set_value srv inst cmd;
                  Log.open_tally srv.log inst;
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
        Log.ensure srv.log inst;
        (* The revocation's decision is final (see MRevStatus): even a
           slot we hold as Value becomes a skip — the promise quorum
           proves that value never reached a majority. *)
        force_skip srv inst;
        advance_frontiers t srv
    | MCatchup { from } ->
        let slots = ref [] in
        Log.iteri
          (fun inst s ->
            let committed = Log.chosen srv.log inst in
            match s with
            | Unknown -> ()
            | Skip -> slots := (inst, true, None, committed) :: !slots
            | Value cmd -> slots := (inst, false, Some cmd, committed) :: !slots)
          srv.log;
        send t ~src:srv.id ~dst:from (MState { slots = !slots })
    | MState { slots } ->
        List.iter
          (fun (inst, is_skip, cmd, committed) ->
            Log.ensure srv.log inst;
            let committed_here = Log.chosen srv.log inst in
            (match (Log.get srv.log inst, is_skip, cmd) with
            | Unknown, true, _ -> set_slot srv inst Skip
            | Unknown, false, Some cmd -> set_value srv inst cmd
            (* A committed snapshot slot overrides a local undecided one:
               we missed the deciding broadcast (force-skip or append). *)
            | Value _, true, _ when committed && not committed_here ->
                force_skip srv inst
            | Skip, false, Some cmd when committed && not committed_here ->
                set_value srv inst cmd
            | (Unknown | Value _ | Skip), _, _ -> ());
            if committed then Log.choose srv.log inst)
          slots;
        (* Our own unused turns inside the transferred region are dead:
           skip them and restart proposing after the region. *)
        while Log.get srv.log srv.next_own <> Unknown do
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
      Log.ensure srv.log inst;
      let refused = from = owner t inst && promised srv inst in
      (match Log.get srv.log inst with
      | Unknown when not refused -> set_value srv inst cmd
      | Unknown | Value _ | Skip -> ());
      match Log.get srv.log inst with
      | Value held when held.Types.id = cmd.Types.id ->
          inst :: hold_appends t srv from rest
      | Unknown | Value _ | Skip -> hold_appends t srv from rest)

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
          && stuck < Log.length srv.log
        then begin
          (* A stall usually means we missed a broadcast (append, skip or
             commit) while down or cut off: ask the peers first. *)
          Metrics.inc srv.pr.pr_catchups;
          broadcast t srv (MCatchup { from = srv.id });
          (match Log.get srv.log stuck with
          | Value cmd when owner t stuck = srv.id && not (Log.chosen srv.log stuck)
            ->
              (* Our own append lost its acks in transit: retransmit.
                 [MAck] replies dedupe through the per-peer tally. *)
              if Log.acks srv.log stuck = Log.no_tally then
                Log.open_tally srv.log stuck;
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
                  found = held_cmd srv stuck;
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
      Log.get srv.log srv.next_own <> Unknown || Log.chosen srv.log srv.next_own
    do
      srv.next_own <- srv.next_own + t.n
    done;
  let inst = srv.next_own in
  srv.next_own <- inst + t.n;
  Log.ensure srv.log inst;
  set_value srv inst cmd;
  Log.open_tally srv.log inst;
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
    List.iter (fun (inst, _) -> Log.choose srv.log inst) items;
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
  Log.check_tally_width ~who:"Mencius.create" n;
  let base = Replica.create ~telemetry ~params:config.params net in
  let servers =
    Array.init n (fun id ->
        {
          id;
          log = Log.create Unknown;
          next_own = id;
          known_frontier = 0;
          commit_frontier = 0;
          revocations = Hashtbl.create 8;
          unapplied_writes = [||];
          applied = 0;
          waiting =
            { w_inst = [||]; w_cmd = [||]; w_block = [||]; head = 0; tail = 0 };
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
      match Log.get srv.log i with
      | Value cmd -> Some cmd.Types.op
      | Skip | Unknown -> None)
    (List.init srv.commit_frontier Fun.id)
let known_frontier t ~node = t.servers.(node).known_frontier
let applied_value t ~node ~key = Replica.applied_value t.base ~node ~key
let slot_count t ~node = Log.length t.servers.(node).log

let skipped_count t ~node =
  let srv = t.servers.(node) in
  let c = ref 0 in
  Log.iteri (fun _ s -> if s = Skip then incr c) srv.log;
  !c

let dump_slots t ~node =
  let srv = t.servers.(node) in
  let buf = Buffer.create 256 in
  Log.iteri
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
      if not (Log.chosen srv.log i) then Buffer.add_char buf '!')
    srv.log;
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
    (Replica.render_tallies ~rename ~n:t.n srv.log);
  tbl "rv" srv.revocations (fun (i, r) ->
      Printf.sprintf "%d=%s/%s" i
        (mask r.seen)
        (Types.render_cmd_opt ~rename r.found));
  let pm = ref [] in
  for i = Log.length srv.log - 1 downto 0 do
    if promised srv i then pm := string_of_int i :: !pm
  done;
  add "|pm:%s" (String.concat ";" !pm);
  add "%s" (Replica.render_store srv.node);
  (* The unapplied write slots of each key, rebuilt from the slots. *)
  let writes = Hashtbl.create 8 in
  for i = Log.length srv.log - 1 downto srv.applied do
    match Log.get srv.log i with
    | Value { op = Types.Put { key; _ }; _ } ->
        Hashtbl.replace writes key
          (i :: Option.value ~default:[] (Hashtbl.find_opt writes key))
    | Value { op = Types.Get _; _ } | Skip | Unknown -> ()
  done;
  tbl "kw" writes (fun (k, insts) ->
      Printf.sprintf "%d=[%s]" k (String.concat "," (List.map string_of_int insts)));
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
  Log.iteri
    (fun i _ -> if Log.chosen srv.log i then incr committed_count)
    srv.log;
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
            let upto = min (Log.length a.log) (Log.length b.log) - 1 in
            for i = 0 to upto do
              if Log.chosen a.log i && Log.chosen b.log i then
                match (Log.get a.log i, Log.get b.log i) with
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
      Log.iteri
        (fun i sl ->
          match sl with
          | Value cmd when Log.chosen s.log i -> (
              match Hashtbl.find_opt placed cmd.Types.id with
              | Some j when j <> i ->
                  fail "dup-command: %s committed at slots %d and %d"
                    (Types.render_cmd cmd) j i
              | _ -> Hashtbl.replace placed cmd.Types.id i)
          | Unknown | Value _ | Skip -> ())
        s.log)
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
