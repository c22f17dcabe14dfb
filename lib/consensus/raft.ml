module Net = Raftpax_sim.Net
module Engine = Raftpax_sim.Engine
module Cpu = Raftpax_sim.Cpu
module Rng = Raftpax_sim.Rng
module Telemetry = Raftpax_telemetry.Telemetry
module Metrics = Raftpax_telemetry.Metrics
module Span = Raftpax_telemetry.Span

type flavor = Vanilla | Star
type read_mode = Log_read | Leader_lease | Quorum_lease

type config = {
  flavor : flavor;
  read_mode : read_mode;
  params : Types.params;
  initial_leader : int option;
}

let raft ?leader () =
  {
    flavor = Vanilla;
    read_mode = Log_read;
    params = Types.default_params;
    initial_leader = leader;
  }

let raft_star ?leader () = { (raft ?leader ()) with flavor = Star }

let raft_ll ?leader () =
  { (raft ?leader ()) with flavor = Star; read_mode = Leader_lease }

let raft_pql ?leader () =
  { (raft ?leader ()) with flavor = Star; read_mode = Quorum_lease }

type role = Follower | Candidate | Leader

(* One handle per probe per node, registered at creation: updating a probe
   on the hot path is a field increment, and against a disabled registry
   every handle is the shared dummy. *)
type server_probes = {
  pr_elections : Metrics.counter;
  pr_leader_wins : Metrics.counter;
  pr_term_changes : Metrics.counter;
  pr_heartbeats : Metrics.counter;
  pr_appends : Metrics.counter;
  pr_forwards : Metrics.counter;
  pr_lease_grants : Metrics.counter;
  pr_lease_renewals : Metrics.counter;
  pr_lease_confirms : Metrics.counter;
  pr_local_reads : Metrics.counter;
  pr_lease_waits : Metrics.counter;
}

let make_probes m ~node =
  let c name = Metrics.counter m name ~node in
  {
    pr_elections = c "elections";
    pr_leader_wins = c "leader_wins";
    pr_term_changes = c "term_changes";
    pr_heartbeats = c "heartbeats";
    pr_appends = c "appends_sent";
    pr_forwards = c "forwards";
    pr_lease_grants = c "lease_grants";
    pr_lease_renewals = c "lease_renewals";
    pr_lease_confirms = c "lease_confirms";
    pr_local_reads = c "local_reads";
    pr_lease_waits = c "lease_waits";
  }

type msg =
  | RequestVote of { term : int; cand : int; last_idx : int; last_term : int }
  | Vote of {
      term : int;
      from : int;
      granted : bool;
      extras : (int * Types.entry * int) list;
          (** Raft*: (index, entry, ballot) beyond the candidate's log *)
    }
  | Append of {
      term : int;
      leader : int;
      prev_idx : int;
      prev_term : int;
      entries : (Types.entry * int) list;  (** entry with its ballot *)
      commit : int;
    }
  | Ack of {
      term : int;
      from : int;
      success : bool;
      match_idx : int;
      holders : (int * int) list;
          (** quorum-lease mode: (holder, deadline) leases granted by the
              acker and still valid — the paper's Figure-13 appendOK
              attachment *)
    }
  | Forward of Types.cmd
  | Complete of { cmd_id : int; reply : Types.reply }
  | Grant of { from : int; deadline : int; grantor_last : int }
  | GrantConfirm of { from : int; deadline : int }
      (** the holder activated the grant; renewals require it, so a dead
          holder stops being renewed and its last lease simply expires *)
      (** a lease only activates at the holder once its log reaches the
          grantor's log length at grant time — otherwise a freshly-granted
          replica could serve reads missing values the grantor already
          acknowledged *)

type server = {
  id : int;
  mutable term : int;
  mutable voted_for : int option;
  mutable role : role;
  mutable leader_hint : int;
  log : (Types.entry * int) Log.t;
  mutable commit_index : int;
  mutable last_applied : int;
  key_last_write : Itbl.t;
      (** the log index of each key's last write; kept under
          [Quorum_lease] only, the one mode whose reads consult it *)
  appended_cmds : Itbl.t;
      (** cmd ids this leader already appended (a set: the values are
          unused); a duplicated or re-routed [Forward] must not enter the
          log twice *)
  (* leader bookkeeping *)
  next_index : int array;
  match_index : int array;
  frontier : int array;
      (** scratch for {!quorum_frontier}: the match indexes sorted, so the
          per-ack commit scan allocates nothing *)
  inflight : int array;  (* in-flight append batches per follower *)
  votes : bool array;
  vote_extras : (int * Types.entry * int) Vec.t;
  follower_last_ack : int array;
  mutable leader_lease_until : int;
  (* quorum leases *)
  grant_from : int array;  (** deadline of the active lease p granted me *)
  mutable pending_grants : (int * int * int) list;
      (** (grantor, deadline, required log length) not yet activated *)
  my_grants : int array;  (** deadline of the lease I granted to p *)
  confirmed_grants : int array;
      (** deadline of the last grant p confirmed activating *)
  peer_grants : int array array;
      (** [peer_grants.(x).(h)]: deadline of the lease x reported granting
          to h in its latest ack (leader-side bookkeeping) *)
  mutable pending_reads : (int * (unit -> unit)) list;
      (** quorum-lease reads blocked on the commit index, newest first:
          (threshold, serve) *)
  mutable verified_term : int;
  mutable verified_to : int;
      (** Raft* only: the highest log index known to match the log of the
          leader of [verified_term] — the prefix this follower may safely
          commit through.  Raft's prev-term consistency check cannot
          serve: extra-entry adoption lets two logs agree at an index
          while disagreeing below it, so matching at [prev] no longer
          attests the prefix.  Reset to [commit_index] when a first batch
          of a newer term arrives; extended only by batches that overlap
          it ([prev_idx <= verified_to]). *)
  mutable flush_to : int;
      (** replication tip (leader side): the highest log index released
          to {!send_batch}.  Entries above it are appended but still
          accumulating into the current batch. *)
  mutable election_timer : Engine.timer option;
  mutable election_deadline : int;
      (** virtual time the current election timeout expires; the armed
          timer re-arms itself while the deadline keeps moving, so a
          reset is a field write instead of a cancel + reschedule *)
  mutable commit_retry : Engine.timer option;
  mutable commit_retry_at : int;
      (** the one armed quorum-lease commit re-check and the virtual time
          it was asked for; a blocked commit re-arms it only when it
          needs an earlier one *)
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

(* ---- message sizes ---- *)

(* [Types.batch_bytes] over an [Append]'s entries, read in place from the
   (entry, ballot) pairs. *)
let rec entries_bytes params acc = function
  | [] -> acc
  | (e, _) :: rest -> entries_bytes params (acc + Types.entry_bytes params e) rest

let msg_size t = function
  | RequestVote _ -> (p t).msg_header_bytes
  | Vote { extras; _ } ->
      (p t).msg_header_bytes
      + List.fold_left
          (fun acc (_, e, _) -> acc + Types.entry_bytes (p t) e)
          0 extras
  | Append { entries; _ } ->
      (p t).msg_header_bytes + entries_bytes (p t) 0 entries
  | Ack { holders; _ } -> (p t).msg_header_bytes + (16 * List.length holders)
  | Forward cmd -> (p t).msg_header_bytes + Types.op_size cmd.Types.op
  | Complete _ -> (p t).reply_bytes
  | Grant _ | GrantConfirm _ -> (p t).msg_header_bytes

(* ---- canonical message rendering (model-checker fingerprints) ----

   [rename] maps node ids to their canonical images (symmetry
   reduction); every id-valued field — candidate, leader, sender, lease
   holder, command origin — goes through it.  Terms, indexes, per-entry
   ballots and deadlines carry no node ids in Raft, so they pass
   through untouched. *)

let render_msg ?(rename = Fun.id) = function
  | RequestVote { term; cand; last_idx; last_term } ->
      Printf.sprintf "RequestVote(t%d c%d li%d lt%d)" term (rename cand)
        last_idx last_term
  | Vote { term; from; granted; extras } ->
      Printf.sprintf "Vote(t%d f%d %b [%s])" term (rename from) granted
        (String.concat ";"
           (List.map
              (fun (i, e, b) ->
                Printf.sprintf "%d:%s/b%d" i (Types.render_entry ~rename e) b)
              extras))
  | Append { term; leader; prev_idx; prev_term; entries; commit } ->
      Printf.sprintf "Append(t%d l%d p%d/%d c%d [%s])" term (rename leader)
        prev_idx prev_term commit
        (String.concat ";"
           (List.map
              (fun (e, b) ->
                Printf.sprintf "%s/b%d" (Types.render_entry ~rename e) b)
              entries))
  | Ack { term; from; success; match_idx; holders } ->
      Printf.sprintf "Ack(t%d f%d %b m%d [%s])" term (rename from) success
        match_idx
        (String.concat ";"
           (List.map
              (fun (h, d) -> Printf.sprintf "%d@%d" (rename h) d)
              holders))
  | Forward cmd -> "Forward(" ^ Types.render_cmd ~rename cmd ^ ")"
  | Complete { cmd_id; reply } -> Replica.render_complete cmd_id reply
  | Grant { from; deadline; grantor_last } ->
      Printf.sprintf "Grant(f%d d%d gl%d)" (rename from) deadline grantor_last
  | GrantConfirm { from; deadline } ->
      Printf.sprintf "GrantConfirm(f%d d%d)" (rename from) deadline

(* ---- log helpers ---- *)

(* What the log reads as past its end: term -1 precedes every term. *)
let no_entry = ({ Types.term = -1; cmd = None }, -1)
let last_index srv = Log.length srv.log - 1
let term_at srv i = if i < 0 then -1 else (fst (Log.get srv.log i)).Types.term

(* Only a quorum-lease read consults [key_last_write] (Figure 13), so the
   other read modes leave it empty and their log writes skip the probes. *)
let note_write t srv idx (e : Types.entry) =
  if t.config.read_mode = Quorum_lease then
    match e.cmd with
    | Some { op = Put { key; _ }; _ } ->
        if idx > Itbl.find_or srv.key_last_write key ~default:(-1) then
          Itbl.replace srv.key_last_write key idx
    | Some { op = Get _; _ } | None -> ()

let send t ~src ~dst msg = Replica.send t.base ~src ~dst msg
let broadcast t srv msg = Replica.broadcast t.base ~src:srv.id msg

(* ---- commit and lease scans ----

   These run on every ack, append or read, so they are loops over the
   server's arrays and the message's lists: none of them allocates
   beyond the value it returns. *)

(* Highest index replicated on a majority: the majority-th largest match
   index, with the leader standing at its own last index.  The indexes are
   sorted in the [frontier] scratch array by insertion sort (n is the
   cluster size, a handful). *)
let quorum_frontier t srv =
  let xs = srv.frontier in
  Array.blit srv.match_index 0 xs 0 t.n;
  xs.(srv.id) <- last_index srv;
  for i = 1 to t.n - 1 do
    let x = xs.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && xs.(!j) > x do
      xs.(!j + 1) <- xs.(!j);
      decr j
    done;
    xs.(!j + 1) <- x
  done;
  xs.(t.n - majority t)

(* Figure 13's LeaderLearn: the holder set is the union of the leases
   granted by every commit-quorum member (reported in their acks) and by
   the leader itself; each such holder must have acknowledged the entry
   before it commits.  Returns the smallest match index among the holders
   required at [m] ([max_int] when unconstrained): [m] commits iff that
   bound is [>= m], and when it is not, no index in its gap can commit
   either (a holder required at [m] stays required below it), so the scan
   may jump straight to the bound. *)
let holders_min_match t srv ~now m =
  match t.config.read_mode with
  | Quorum_lease ->
      let bound = ref max_int in
      for h = 0 to t.n - 1 do
        if h <> srv.id && srv.my_grants.(h) >= now then
          bound := Int.min !bound srv.match_index.(h)
      done;
      for x = 0 to t.n - 1 do
        if x <> srv.id && srv.match_index.(x) >= m then begin
          let row = srv.peer_grants.(x) in
          for h = 0 to t.n - 1 do
            if h <> srv.id && row.(h) >= now then
              bound := Int.min !bound srv.match_index.(h)
          done
        end
      done;
      !bound
  | Log_read | Leader_lease -> max_int

(* The earliest deadline among the still-valid leases the leader knows
   of, its own grants and those its peers reported ([max_int] if none). *)
let earliest_valid_lease t srv ~now =
  let earliest = ref max_int in
  for x = -1 to t.n - 1 do
    let row = if x < 0 then srv.my_grants else srv.peer_grants.(x) in
    for h = 0 to t.n - 1 do
      let d = row.(h) in
      if d >= now && d < !earliest then earliest := d
    done
  done;
  !earliest

let quorum_lease_active t srv =
  let now = Engine.now t.engine in
  let valid = ref 1 (* self-grant *) in
  for i = 0 to t.n - 1 do
    if i <> srv.id && srv.grant_from.(i) >= now then incr valid
  done;
  !valid >= majority t

let refresh_leader_lease t srv =
  let now = Engine.now t.engine in
  let fresh = ref 1 in
  for i = 0 to t.n - 1 do
    if
      i <> srv.id
      && srv.follower_last_ack.(i) >= now - (2 * (p t).heartbeat_interval_us)
    then incr fresh
  done;
  if !fresh >= majority t then begin
    if srv.leader_lease_until < now then Metrics.inc srv.pr.pr_lease_grants
    else Metrics.inc srv.pr.pr_lease_renewals;
    srv.leader_lease_until <- now + (p t).election_timeout_min_us
  end

(* The (holder, deadline) leases this server has granted and that are
   still valid — attached to acks in quorum-lease mode (Figure 13).
   Consed in ascending holder order, so the list reads in descending
   holder id. *)
let my_valid_grants t srv =
  if t.config.read_mode <> Quorum_lease then []
  else begin
    let now = Engine.now t.engine in
    let acc = ref [] in
    for h = 0 to t.n - 1 do
      let deadline = srv.my_grants.(h) in
      if h <> srv.id && deadline >= now then acc := (h, deadline) :: !acc
    done;
    !acc
  end

(* An ack's holder leases merged into the leader's row for the acker. *)
let rec merge_holders row = function
  | [] -> ()
  | (h, deadline) :: rest ->
      if deadline > row.(h) then row.(h) <- deadline;
      merge_holders row rest

(* Whether a commit through [ci] releases any blocked read. *)
let rec any_ready ci = function
  | [] -> false
  | (threshold, _) :: rest -> ci >= threshold || any_ready ci rest

(* The log's copy of an accepted (entry, ballot) pair.  Raft*: every
   entry in an accepted batch is re-accepted at the replicating leader's
   term (spec AcceptEntries rewrites logBallot to [term]
   unconditionally) — not just the matching-term slots.  A commit-quorum
   member must hold the committed entry at a ballot at least the
   committing term, or a later election's highest-ballot adoption could
   prefer a stale competing entry carried at a higher wire ballot.  The
   received pair itself unless that raises its ballot, so the log shares
   the message's tuple. *)
let stored t ~term ((entry, bal) as e) =
  if t.config.flavor = Star && bal < term then (entry, term) else e

(* ---- applying committed entries ---- *)

let rec apply_committed t srv =
  while srv.last_applied < srv.commit_index do
    srv.last_applied <- srv.last_applied + 1;
    Metrics.inc srv.node.commits;
    let entry, _bal = Log.get srv.log srv.last_applied in
    (match entry.Types.cmd with
    | Some cmd -> Replica.commit t.base srv.node ~reply:(srv.role = Leader) cmd
    | None -> ())
  done;
  (* Wake local reads blocked on the commit index (quorum-lease mode).
     Most commits release none, so a scan that allocates nothing gates
     the partition — as does an empty list, the common case on every
     append outside quorum-lease runs. *)
  if any_ready srv.commit_index srv.pending_reads then begin
    let ready, blocked =
      List.partition (fun (threshold, _) -> srv.commit_index >= threshold) srv.pending_reads
    in
    srv.pending_reads <- blocked;
    List.iter (fun (_, serve) -> serve ()) ready
  end

(* ---- leases ---- *)

and leader_lease_valid t srv =
  srv.role = Leader && Engine.now t.engine <= srv.leader_lease_until

(* ---- replication (leader side) ---- *)

and send_batch t srv peer =
  let next = srv.next_index.(peer) in
  let entries = ref [] in
  for i = srv.flush_to downto next do
    entries := Log.get srv.log i :: !entries
  done;
  let entries = !entries in
  srv.inflight.(peer) <- srv.inflight.(peer) + 1;
  Metrics.inc srv.pr.pr_appends;
  (* Optimistic next-index: pipeline further batches without waiting. *)
  srv.next_index.(peer) <- max srv.next_index.(peer) (srv.flush_to + 1);
  send t ~src:srv.id ~dst:peer
    (Append
       {
         term = srv.term;
         leader = srv.id;
         prev_idx = next - 1;
         prev_term = term_at srv (next - 1);
         entries;
         commit = srv.commit_index;
       })

and maybe_replicate t srv =
  if srv.role = Leader then
    for peer = 0 to t.n - 1 do
      if
        peer <> srv.id
        && srv.inflight.(peer) < (p t).pipeline_window
        && srv.next_index.(peer) <= srv.flush_to
      then send_batch t srv peer
    done

(* Release the accumulated batch to replication: the base's flush hook.
   One call replicates every command appended since the previous flush
   as a single Append per follower (one wire frame, one follower CPU
   charge, one apply_committed walk and one Ack at the other end). *)
and flush_batch t srv =
  if srv.flush_to < last_index srv then begin
    srv.flush_to <- last_index srv;
    maybe_replicate t srv
  end

and advance_commit t srv =
  if srv.role = Leader then begin
    let now = Engine.now t.engine in
    (* [quorum_match m] holds iff [m <= quorum_frontier] (match counts are
       monotone downward), so the commit scan can start there instead of
       probing every in-flight index from the log tip — with hundreds of
       closed-loop clients the tip-to-commit gap is the outstanding-op
       count, and this runs once per ack. *)
    (* 5.4.2: only an entry of the current term commits by counting
       replicas, but committing it commits the whole prefix (inherited
       old-term entries included) — so scan downward for the highest
       committable index. *)
    let new_commit = ref srv.commit_index in
    let blocked_on_holder = ref false in
    let m = ref (min (last_index srv) (quorum_frontier t srv)) in
    while !m > srv.commit_index && !new_commit = srv.commit_index do
      if term_at srv !m = srv.term then begin
        let bound = holders_min_match t srv ~now !m in
        if bound >= !m then new_commit := !m
        else begin
          blocked_on_holder := true;
          m := min (!m - 1) bound
        end
      end
      else decr m
    done;
    if !new_commit > srv.commit_index then begin
      srv.commit_index <- !new_commit;
      apply_committed t srv
    end;
    if !blocked_on_holder then
      (* A lease holder is behind (possibly down): retry when the earliest
         blocking lease expires. *)
      let earliest = earliest_valid_lease t srv ~now in
      if earliest < max_int then arm_commit_retry t srv ~at:(earliest + 1)
  end

(* Every ack that arrives while a holder lags lands in a blocked
   [advance_commit] asking for the same re-check, and so does every
   retry that fires before the lease expires.  One armed timer per
   server serves them all: it is replaced only by a strictly earlier
   request, and firing clears it before re-checking, so a still-blocked
   commit arms the next one.  The model checker sees the same single
   timer: its fingerprint lists each held timer with its time, which is
   [commit_retry_at]. *)
and arm_commit_retry t srv ~at =
  if srv.commit_retry = None || at < srv.commit_retry_at then begin
    Option.iter Engine.cancel srv.commit_retry;
    srv.commit_retry_at <- at;
    srv.commit_retry <-
      Some
        (Engine.schedule_cancellable t.engine ~node:srv.id
           ~label:"commit-retry" ~delay:(at - Engine.now t.engine) (fun () ->
             srv.commit_retry <- None;
             if srv.role = Leader && not srv.down then advance_commit t srv))
  end

(* ---- client operations ---- *)

and serve_local_read t srv (cmd : Types.cmd) =
  Metrics.inc srv.pr.pr_local_reads;
  Cpu.exec srv.node.cpu ~cost_us:(p t).cpu_read_op_us (fun () ->
      if not srv.down then begin
        let key = Types.key_of cmd.op in
        Span.mark t.spans ~trace:cmd.id ~node:srv.id ~phase:"local_read"
          ~now:(Engine.now t.engine);
        Replica.reply t.base ~src:srv.id cmd
          { Types.value = Replica.read srv.node ~key }
      end)

and append_cmd t srv (cmd : Types.cmd) =
  let extra =
    match (t.config.read_mode, cmd.op) with
    | Quorum_lease, Put _ -> (p t).cpu_pql_commit_extra_us
    | (Log_read | Leader_lease), _ | Quorum_lease, Get _ -> 0
  in
  Cpu.exec srv.node.cpu ~cost_us:((p t).cpu_leader_op_us + extra) (fun () ->
      if srv.role = Leader && not srv.down && Itbl.mem srv.appended_cmds cmd.id
      then () (* duplicate Forward: already in the log *)
      else if srv.role = Leader && not srv.down then begin
        Itbl.replace srv.appended_cmds cmd.id 0;
        let entry = { Types.term = srv.term; cmd = Some cmd } in
        Log.push srv.log (entry, srv.term);
        note_write t srv (last_index srv) entry;
        Span.mark t.spans ~trace:cmd.id ~node:srv.id ~phase:"append"
          ~now:(Engine.now t.engine);
        Replica.hold t.base srv.node;
        if t.n = 1 then begin
          srv.match_index.(srv.id) <- last_index srv;
          srv.commit_index <- last_index srv;
          apply_committed t srv
        end
      end
      else if not srv.down then begin
        (* Leadership moved while queued: forward to wherever we believe
           the leader is. *)
        Metrics.inc srv.pr.pr_forwards;
        send t ~src:srv.id ~dst:srv.leader_hint (Forward cmd)
      end)

and handle_client t srv (cmd : Types.cmd) =
  if not srv.down then
    match cmd.op with
    | Get { key } -> (
        match t.config.read_mode with
        | Quorum_lease when quorum_lease_active t srv ->
            (* Figure 13: wait until every log entry that writes the key is
               committed, then read locally. *)
            let threshold = Itbl.find_or srv.key_last_write key ~default:(-1) in
            if srv.commit_index >= threshold then serve_local_read t srv cmd
            else begin
              Metrics.inc srv.pr.pr_lease_waits;
              srv.pending_reads <-
                ( threshold,
                  fun () ->
                    (* The wake ends the lease-wait span; the local read's
                       CPU time is its own phase. *)
                    Span.mark t.spans ~trace:cmd.id ~node:srv.id
                      ~phase:"lease_wait" ~now:(Engine.now t.engine);
                    serve_local_read t srv cmd )
                :: srv.pending_reads
            end
        | Leader_lease when leader_lease_valid t srv ->
            serve_local_read t srv cmd
        | Log_read | Leader_lease | Quorum_lease ->
            if srv.role = Leader then append_cmd t srv cmd
            else begin
              Metrics.inc srv.pr.pr_forwards;
              send t ~src:srv.id ~dst:srv.leader_hint (Forward cmd)
            end)
    | Put _ ->
        if srv.role = Leader then append_cmd t srv cmd
        else begin
          Metrics.inc srv.pr.pr_forwards;
          send t ~src:srv.id ~dst:srv.leader_hint (Forward cmd)
        end

(* ---- elections ---- *)

and reset_election_timer t srv =
  if srv.down then begin
    match srv.election_timer with
    | Some timer ->
        Engine.cancel timer;
        srv.election_timer <- None
    | None -> ()
  end
  else begin
    let span =
      (p t).election_timeout_min_us
      + Rng.int srv.node.rng
          (max 1 ((p t).election_timeout_max_us - (p t).election_timeout_min_us))
    in
    if Engine.is_manual t.engine then begin
      (* Model-checking mode: each held timer is an explicit choice whose
         firing must start an election, so a reset stays a fresh event. *)
      (match srv.election_timer with
      | Some timer -> Engine.cancel timer
      | None -> ());
      srv.election_timer <-
        Some
          (Engine.schedule_cancellable t.engine ~node:srv.id ~label:"election"
             ~delay:span (fun () ->
               if (not srv.down) && srv.role <> Leader then start_election t srv))
    end
    else begin
      (* Simulation mode: a follower resets this timer on every append,
         so cancelling and rescheduling here is two heap operations per
         replicated message.  Instead push the deadline forward and let
         the single armed timer re-arm itself until it catches up. *)
      srv.election_deadline <- Engine.now t.engine + span;
      if srv.election_timer = None then arm_election_timer t srv ~delay:span
    end
  end

and arm_election_timer t srv ~delay =
  srv.election_timer <-
    Some
      (Engine.schedule_cancellable t.engine ~node:srv.id ~label:"election"
         ~delay (fun () ->
           srv.election_timer <- None;
           if not srv.down then begin
             let remaining = srv.election_deadline - Engine.now t.engine in
             if remaining > 0 then arm_election_timer t srv ~delay:remaining
             else if srv.role <> Leader then start_election t srv
           end))

and start_election t srv =
  Metrics.inc srv.pr.pr_elections;
  Metrics.inc srv.pr.pr_term_changes;
  srv.term <- srv.term + 1;
  srv.role <- Candidate;
  srv.voted_for <- Some srv.id;
  Array.fill srv.votes 0 t.n false;
  srv.votes.(srv.id) <- true;
  Vec.clear srv.vote_extras;
  reset_election_timer t srv;
  broadcast t srv
    (RequestVote
       {
         term = srv.term;
         cand = srv.id;
         last_idx = last_index srv;
         last_term = term_at srv (last_index srv);
       })

and candidate_up_to_date srv ~last_idx ~last_term =
  let my_last = last_index srv in
  let my_term = term_at srv my_last in
  last_term > my_term || (last_term = my_term && last_idx >= my_last)

and become_leader t srv =
  Metrics.inc srv.pr.pr_leader_wins;
  srv.role <- Leader;
  srv.leader_hint <- srv.id;
  (* Raft*: adopt the safe (highest-ballot) extra entries the voters sent
     for the slots beyond our log. *)
  (if t.config.flavor = Star then
     let best = Hashtbl.create 8 in
     Vec.iter
       (fun (idx, entry, bal) ->
         if idx > last_index srv then
           match Hashtbl.find_opt best idx with
           | Some (_, b) when b >= bal -> ()
           | _ -> Hashtbl.replace best idx (entry, bal))
       srv.vote_extras;
     let rec adopt idx =
       match Hashtbl.find_opt best idx with
       | Some (entry, bal) ->
           Log.push srv.log (entry, bal);
           note_write t srv (last_index srv) entry;
           adopt (idx + 1)
       | None -> ()
     in
     adopt (last_index srv + 1));
  (* A fresh no-op lets the new term commit inherited entries (5.4.2). *)
  Log.push srv.log ({ Types.term = srv.term; cmd = None }, srv.term);
  Array.iteri (fun i _ -> srv.next_index.(i) <- last_index srv) srv.next_index;
  Array.fill srv.match_index 0 t.n (-1);
  Array.fill srv.inflight 0 t.n 0;
  srv.match_index.(srv.id) <- last_index srv;
  (* The no-op (and any adopted extras) ship immediately: batching only
     holds back client commands between flushes. *)
  srv.flush_to <- last_index srv;
  Replica.drop_batch srv.node;
  Array.iter
    (fun peer -> if peer.id <> srv.id then send_batch t srv peer.id)
    t.servers;
  heartbeat_loop t srv srv.term

and heartbeat_loop t srv term =
  if srv.role = Leader && srv.term = term && not srv.down then begin
    let now = Engine.now t.engine in
    Metrics.inc srv.pr.pr_heartbeats;
    Array.iter
      (fun peer ->
        if peer.id <> srv.id then
          if srv.inflight.(peer.id) = 0 then send_batch t srv peer.id
          else if
            (* A link with in-flight batches but no ack for a long time is
               stale (peer crashed or partitioned): reset the window and
               probe so it can resynchronise when it comes back. *)
            srv.follower_last_ack.(peer.id)
            < now - (5 * (p t).heartbeat_interval_us)
          then begin
            srv.inflight.(peer.id) <- 0;
            Metrics.inc srv.node.retransmits;
            send_batch t srv peer.id
          end)
      t.servers;
    Engine.schedule t.engine ~node:srv.id ~label:"heartbeat"
      ~delay:(p t).heartbeat_interval_us (fun () -> heartbeat_loop t srv term)
  end

(* ---- message handling ---- *)

and step_down t srv term =
  if term > srv.term then Metrics.inc srv.pr.pr_term_changes;
  srv.term <- term;
  srv.role <- Follower;
  srv.voted_for <- None;
  reset_election_timer t srv

and handle t srv msg =
  if not srv.down then
    match msg with
    | Forward cmd ->
        Span.mark t.spans ~trace:cmd.id ~node:srv.id ~phase:"forward"
          ~now:(Engine.now t.engine);
        handle_client t srv cmd
    | Complete { cmd_id; reply } ->
        Replica.complete t.base ~node:srv.id cmd_id reply
    | Grant { from; deadline; grantor_last } ->
        if last_index srv >= grantor_last then begin
          srv.grant_from.(from) <- max srv.grant_from.(from) deadline;
          Metrics.inc srv.pr.pr_lease_confirms;
          send t ~src:srv.id ~dst:from (GrantConfirm { from = srv.id; deadline })
        end
        else
          srv.pending_grants <-
            (from, deadline, grantor_last) :: srv.pending_grants
    | GrantConfirm { from; deadline } ->
        srv.confirmed_grants.(from) <- max srv.confirmed_grants.(from) deadline
    | RequestVote { term; cand; last_idx; last_term } ->
        if term > srv.term then step_down t srv term;
        let granted =
          term = srv.term
          && (match srv.voted_for with None -> true | Some v -> v = cand)
          && candidate_up_to_date srv ~last_idx ~last_term
        in
        if granted then begin
          srv.voted_for <- Some cand;
          reset_election_timer t srv
        end;
        let extras =
          if t.config.flavor = Star && granted then
            List.init
              (max 0 (last_index srv - last_idx))
              (fun k ->
                let idx = last_idx + 1 + k in
                let entry, bal = Log.get srv.log idx in
                (idx, entry, bal))
          else []
        in
        send t ~src:srv.id ~dst:cand (Vote { term = srv.term; from = srv.id; granted; extras })
    | Vote { term; from; granted; extras } ->
        if term > srv.term then step_down t srv term
        else if srv.role = Candidate && term = srv.term && granted then begin
          srv.votes.(from) <- true;
          List.iter (Vec.push srv.vote_extras) extras;
          let count = Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 srv.votes in
          if count >= majority t then become_leader t srv
        end
    | Append { term; leader; entries; _ } ->
        if term < srv.term then begin
          Metrics.inc srv.node.acks_sent;
          send t ~src:srv.id ~dst:leader
            (Ack
               {
                 term = srv.term;
                 from = srv.id;
                 success = false;
                 match_idx = -1;
                 holders = my_valid_grants t srv;
               })
        end
        else begin
          if term > srv.term || srv.role <> Follower then step_down t srv term;
          srv.leader_hint <- leader;
          reset_election_timer t srv;
          (* Wire batches are bounded by [max_batch]; the walk is the
             same O(batch) the accept loop pays anyway. *)
          let k = (List.length entries [@perf.allow "length-in-hot-path"]) in
          let cost = max 1 (k * (p t).cpu_follower_op_us) in
          (* The consistency check runs in processing order (inside the CPU
             queue): an earlier batch's log write may still be queued, and
             checking against the stale log would reject valid batches. *)
          Cpu.exec srv.node.cpu ~cost_us:cost (fun () -> accept_append t srv msg k)
        end
    | Ack { term; from; success; match_idx; holders } ->
        if term > srv.term then step_down t srv term
        else if srv.role = Leader then begin
          srv.inflight.(from) <- max 0 (srv.inflight.(from) - 1);
          srv.follower_last_ack.(from) <- Engine.now t.engine;
          merge_holders srv.peer_grants.(from) holders;
          refresh_leader_lease t srv;
          if success then begin
            srv.match_index.(from) <- max srv.match_index.(from) match_idx;
            srv.next_index.(from) <-
              max srv.next_index.(from) (srv.match_index.(from) + 1);
            advance_commit t srv
          end
          else begin
            Metrics.inc srv.node.retransmits;
            srv.next_index.(from) <- max 0 (match_idx + 1)
          end;
          maybe_replicate t srv
        end

(* The follower's side of an [Append], run when its CPU charge is done:
   the message itself is the closure's one payload. *)
and accept_append t srv msg k =
  match msg with
  | Append { term; leader; prev_idx; prev_term; entries; commit } ->
      if not srv.down then begin
        (* Raft*'s acceptor rules.  Vanilla needs only the prev-term
           consistency check: truncation preserves log matching, so
           agreement at [prev] attests the whole prefix.  Star overwrites
           point-wise and never truncates, which voids both halves of that
           argument:

           - a batch ending below our log end would leave a stale old-term
             suffix whose tip no longer reflects the log content, breaking
             the up-to-date vote check ([would_shorten], spec
             AcceptEntries's [l_index >= last_index]);
           - extra-entry adoption lets the new leader's log agree with ours
             at [prev] while disagreeing below it, so a batch anchored past
             our verified frontier could make [min commit match_idx] commit
             a never-replicated stale gap ([unverified_gap]).

           A rejection reports the frontier so the leader's back-off
           resends a batch overlapping it, which then extends the frontier
           — one extra round trip per leader change, after which pipelined
           batches stay contiguous. *)
        if t.config.flavor = Star && term > srv.verified_term then begin
          srv.verified_term <- term;
          srv.verified_to <- srv.commit_index
        end;
        let stale = t.config.flavor = Star && term < srv.term in
        let would_shorten =
          t.config.flavor = Star && prev_idx + k < last_index srv
        in
        let unverified_gap = t.config.flavor = Star && prev_idx > srv.verified_to in
        if
          stale || would_shorten || unverified_gap
          || not (prev_idx < 0 || term_at srv prev_idx = prev_term)
        then begin
          Metrics.inc srv.node.acks_sent;
          send t ~src:srv.id ~dst:leader
            (Ack
               {
                 term = srv.term;
                 from = srv.id;
                 success = false;
                 match_idx =
                   (if t.config.flavor = Star then srv.verified_to
                    else srv.commit_index);
                 holders = my_valid_grants t srv;
               })
        end
        else begin
          accept_entries t srv ~term (prev_idx + 1) entries;
          let match_idx = prev_idx + k in
          if t.config.flavor = Star then
            srv.verified_to <- max srv.verified_to match_idx;
          srv.commit_index <- max srv.commit_index (min commit match_idx);
          apply_committed t srv;
          activate_pending_grants t srv;
          Metrics.inc srv.node.acks_sent;
          send t ~src:srv.id ~dst:leader
            (Ack
               {
                 term = srv.term;
                 from = srv.id;
                 success = true;
                 match_idx;
                 holders = my_valid_grants t srv;
               })
        end
      end
  | RequestVote _ | Vote _ | Ack _ | Forward _ | Complete _ | Grant _
  | GrantConfirm _ ->
      ()

(* Runs on every accepted [Append]; with no grant waiting there is
   nothing to partition. *)
and activate_pending_grants t srv =
  if srv.pending_grants <> [] then begin
    let ready, waiting =
      List.partition
        (fun (_, _, required) -> last_index srv >= required)
        srv.pending_grants
    in
    srv.pending_grants <- waiting;
    List.iter
      (fun (from, deadline, _) ->
        srv.grant_from.(from) <- max srv.grant_from.(from) deadline;
        Metrics.inc srv.pr.pr_lease_confirms;
        send t ~src:srv.id ~dst:from (GrantConfirm { from = srv.id; deadline }))
      ready
  end

(* Log reconciliation.  Vanilla erases the conflicting suffix; Raft*
   overwrites the replicated range (rewriting ballots) and never shortens
   the log.  [accept_entries t srv ~term i entries] writes [entries] from
   index [i] on. *)
and accept_entries t srv ~term i = function
  | [] -> ()
  | (((entry : Types.entry), _) as e) :: rest ->
      if i > last_index srv then begin
        Log.push srv.log (stored t ~term e);
        note_write t srv i entry
      end
      else begin
        let existing, _ = Log.get srv.log i in
        if existing.Types.term <> entry.Types.term then begin
          (match t.config.flavor with
          | Vanilla -> Log.truncate srv.log i
          | Star -> ());
          if i > last_index srv then Log.push srv.log (stored t ~term e)
          else Log.set srv.log i (stored t ~term e);
          note_write t srv i entry
        end
        else if t.config.flavor = Star then Log.set srv.log i (stored t ~term e)
      end;
      accept_entries t srv ~term (i + 1) rest

(* ---- lease renewal loop (quorum-lease mode) ---- *)

let rec lease_loop t srv =
  if not srv.down then begin
    let deadline = Engine.now t.engine + (p t).lease_duration_us in
    let now = Engine.now t.engine in
    let grantor_last = last_index srv in
    Array.iter
      (fun peer ->
        (* We are bound by any grant from the moment it is sent — even to
           a crashed holder, until it expires.  Renewal therefore requires
           the holder to have confirmed the previous grant: a dead holder
           stalls writes for at most one lease duration. *)
        if
          peer.id <> srv.id
          && (srv.my_grants.(peer.id) < now
             || srv.confirmed_grants.(peer.id) >= srv.my_grants.(peer.id))
        then begin
          if srv.my_grants.(peer.id) < now then
            Metrics.inc srv.pr.pr_lease_grants
          else Metrics.inc srv.pr.pr_lease_renewals;
          srv.my_grants.(peer.id) <- max srv.my_grants.(peer.id) deadline;
          send t ~src:srv.id ~dst:peer.id
            (Grant { from = srv.id; deadline; grantor_last })
        end)
      t.servers
  end;
  Engine.schedule t.engine ~node:srv.id ~label:"lease"
    ~delay:(p t).lease_renew_us (fun () -> lease_loop t srv)

(* ---- construction ---- *)

let create ?(telemetry = Telemetry.disabled) config net =
  let engine = Net.engine net in
  let n = Net.size net in
  let base = Replica.create ~telemetry ~params:config.params net in
  let servers =
    Array.init n (fun id ->
        {
          id;
          term = 0;
          voted_for = None;
          role = Follower;
          leader_hint = 0;
          log = Log.create no_entry;
          commit_index = -1;
          last_applied = -1;
          key_last_write = Itbl.create ();
          appended_cmds = Itbl.create ();
          next_index = Array.make n 0;
          match_index = Array.make n (-1);
          frontier = Array.make n 0;
          inflight = Array.make n 0;
          votes = Array.make n false;
          vote_extras = Vec.create ();
          follower_last_ack = Array.make n min_int;
          leader_lease_until = min_int;
          grant_from = Array.make n min_int;
          pending_grants = [];
          my_grants = Array.make n min_int;
          confirmed_grants = Array.make n min_int;
          peer_grants = Array.make_matrix n n min_int;
          pending_reads = [];
          flush_to = -1;
          verified_term = 0;
          verified_to = -1;
          election_timer = None;
          election_deadline = 0;
          commit_retry = None;
          commit_retry_at = 0;
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
      client = (fun node cmd -> handle_client t servers.(node) cmd);
      live = (fun id -> servers.(id).role = Leader && not servers.(id).down);
      flush = (fun id -> flush_batch t servers.(id));
    };
  (match config.initial_leader with
  | Some l ->
      Array.iter
        (fun srv ->
          srv.term <- 1;
          srv.leader_hint <- l)
        servers;
      let leader = servers.(l) in
      leader.role <- Leader;
      Log.push leader.log ({ Types.term = 1; cmd = None }, 1);
      leader.flush_to <- 0;
      leader.match_index.(l) <- 0;
      Array.iteri (fun i _ -> leader.next_index.(i) <- 0) leader.next_index;
      leader.next_index.(l) <- 1
  | None -> ());
  t

let start t =
  Array.iter
    (fun srv ->
      if srv.role = Leader then heartbeat_loop t srv srv.term
      else reset_election_timer t srv;
      if t.config.read_mode = Quorum_lease then lease_loop t srv)
    t.servers

let submit_id t ~node op k = Replica.submit_id t.base ~node op k
let submit t ~node op k = ignore (submit_id t ~node op k)

(* ---- network-shell hooks ---- *)

let set_wire t f = Replica.set_wire t.base f
let deliver t ~node msg = handle t t.servers.(node) msg
let set_cmd_ids t ~base ~stride = Replica.set_cmd_ids t.base ~base ~stride

let leader_of t =
  let found = ref None in
  Array.iter
    (fun srv ->
      if srv.role = Leader && not srv.down then
        match !found with
        | None -> found := Some srv.id
        | Some other ->
            (* Two leaders can transiently coexist at different terms; the
               higher term wins as "the" leader. *)
            if srv.term > t.servers.(other).term then found := Some srv.id)
    t.servers;
  !found

let term_of t ~node = t.servers.(node).term
let commit_index t ~node = t.servers.(node).commit_index
let log_length t ~node = Log.length t.servers.(node).log

let applied_value t ~node ~key = Replica.applied_value t.base ~node ~key

let log_entries t ~node =
  List.map fst (Log.to_list t.servers.(node).log)

let committed_ops t ~node =
  let srv = t.servers.(node) in
  List.filter_map
    (fun i ->
      Option.map (fun (c : Types.cmd) -> c.op) (fst (Log.get srv.log i)).Types.cmd)
    (List.init (min srv.commit_index (last_index srv) + 1) Fun.id)

let lease_active t ~node = quorum_lease_active t t.servers.(node)

let crash t ~node =
  let srv = t.servers.(node) in
  srv.down <- true;
  Net.set_node_down t.net node true;
  (match srv.election_timer with Some timer -> Engine.cancel timer | None -> ());
  srv.election_timer <- None

let restart t ~node =
  let srv = t.servers.(node) in
  srv.down <- false;
  Net.set_node_down t.net node false;
  srv.role <- Follower;
  Array.fill srv.inflight 0 t.n 0;
  Replica.drop_batch srv.node;
  srv.pending_reads <- [];
  Array.fill srv.grant_from 0 t.n min_int;
  srv.pending_grants <- [];
  Array.fill srv.my_grants 0 t.n min_int;
  Array.fill srv.confirmed_grants 0 t.n min_int;
  Array.iter (fun row -> Array.fill row 0 t.n min_int) srv.peer_grants;
  reset_election_timer t srv;
  if t.config.read_mode = Quorum_lease then lease_loop t srv

(* ---- model-checker inspection hooks ---- *)

let role_char = function Follower -> 'F' | Candidate -> 'C' | Leader -> 'L'

let sorted_ints l = List.sort Int.compare l

let dump_state ?(rename = Fun.id) t ~node =
  let srv = t.servers.(node) in
  let permuted a = Replica.permuted ~rename a in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "t%d v%s %c h%d ci%d la%d %s|" srv.term
    (match srv.voted_for with
    | None -> "-"
    | Some v -> string_of_int (rename v))
    (role_char srv.role) (rename srv.leader_hint) srv.commit_index
    srv.last_applied
    (if srv.down then "D" else "U");
  Log.iteri
    (fun _ (e, b) -> add "%s/b%d;" (Types.render_entry ~rename e) b)
    srv.log;
  add "%s" (Replica.render_store srv.node);
  add "|kw:%s" (Itbl.render srv.key_last_write);
  add "|ap:%s"
    (String.concat ","
       (List.map string_of_int (Itbl.sorted_keys srv.appended_cmds)));
  let ints name a =
    add "|%s:%s" name
      (String.concat "," (Array.to_list (Array.map string_of_int a)))
  in
  ints "ni" (permuted srv.next_index);
  ints "mi" (permuted srv.match_index);
  ints "if" (permuted srv.inflight);
  add "|vt:%s" (Replica.mask ~rename srv.votes);
  add "|vx:%s"
    (String.concat ";"
       (List.sort String.compare
          (List.map
             (fun (i, e, b) ->
               Printf.sprintf "%d:%s/b%d" i (Types.render_entry ~rename e) b)
             (Vec.to_list srv.vote_extras))));
  ints "fa" (permuted srv.follower_last_ack);
  add "|ll:%d" srv.leader_lease_until;
  ints "gf" (permuted srv.grant_from);
  add "|pg:%s"
    (String.concat ";"
       (List.sort String.compare
          (List.map
             (fun (f, d, r) -> Printf.sprintf "%d@%d>%d" (rename f) d r)
             srv.pending_grants)));
  ints "mg" (permuted srv.my_grants);
  ints "cg" (permuted srv.confirmed_grants);
  Array.iter (fun row -> ints "pr" (permuted row)) (permuted srv.peer_grants);
  add "|rd:%s"
    (String.concat ","
       (List.map string_of_int
          (sorted_ints (List.map fst srv.pending_reads))));
  (* The accumulator is real protocol state the checker must distinguish. *)
  add "|fl:%d,%d,%b" srv.flush_to srv.node.held srv.node.flush_armed;
  Buffer.contents buf

type peek_entry = { pe_term : int; pe_ballot : int; pe_cmd : int option }

type peek = {
  pk_term : int;
  pk_is_leader : bool;
  pk_commit : int;
  pk_log : peek_entry list;
}

let peek t ~node =
  let srv = t.servers.(node) in
  {
    pk_term = srv.term;
    pk_is_leader = (srv.role = Leader);
    pk_commit = srv.commit_index;
    pk_log =
      List.map
        (fun ((e : Types.entry), b) ->
          {
            pe_term = e.term;
            pe_ballot = b;
            pe_cmd = Option.map (fun (c : Types.cmd) -> c.id) e.cmd;
          })
        (Log.to_list srv.log);
  }

(* Components that must never decrease along any execution.  The log
   block (length, then per-index ballots) is append-only under Raft*
   only, so vanilla exposes just term and commit index. *)
let mono_view t ~node =
  let srv = t.servers.(node) in
  match t.config.flavor with
  | Vanilla -> [| srv.term; srv.commit_index |]
  | Star ->
      let len = Log.length srv.log in
      Array.init (3 + len) (fun i ->
          if i = 0 then srv.term
          else if i = 1 then srv.commit_index
          else if i = 2 then len
          else snd (Log.get srv.log (i - 3)))

let entry_eq (e1 : Types.entry) (e2 : Types.entry) =
  e1.term = e2.term
  && Option.map (fun (c : Types.cmd) -> c.id) e1.cmd
     = Option.map (fun (c : Types.cmd) -> c.id) e2.cmd

let invariant_violation t =
  let violation = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
  (* Election Safety: at most one leader per term (persisted state, so
     crashed servers' stale roles count too: a second leader in the same
     term would be a safety bug even if the first is currently down). *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if
            a.id < b.id && a.role = Leader && b.role = Leader
            && a.term = b.term
          then fail "election-safety: nodes %d and %d both lead term %d" a.id b.id a.term)
        t.servers)
    t.servers;
  (* Log Matching (per-index form, valid for both flavors): same creation
     term at an index implies the same entry.  Vanilla additionally
     guarantees equal prefixes below a matching index. *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a.id < b.id then
            let upto = min (last_index a) (last_index b) in
            for i = 0 to upto do
              let ea, _ = Log.get a.log i and eb, _ = Log.get b.log i in
              if ea.Types.term = eb.Types.term && not (entry_eq ea eb) then
                fail "log-matching: nodes %d,%d index %d term %d: %s vs %s"
                  a.id b.id i ea.Types.term (Types.render_entry ea)
                  (Types.render_entry eb);
              if
                t.config.flavor = Vanilla
                && ea.Types.term = eb.Types.term
                && i > 0
              then begin
                let pa, _ = Log.get a.log (i - 1)
                and pb, _ = Log.get b.log (i - 1) in
                if not (entry_eq pa pb) then
                  fail
                    "log-matching-prefix: nodes %d,%d differ at %d below a \
                     term match at %d"
                    a.id b.id (i - 1) i
              end
            done)
        t.servers)
    t.servers;
  (* Leader Completeness, checkable form: a live leader holding the
     globally maximal term must contain every entry any server has
     committed (anything committed was chosen at a term <= that max). *)
  let max_term = Array.fold_left (fun acc s -> max acc s.term) 0 t.servers in
  Array.iter
    (fun l ->
      if l.role = Leader && (not l.down) && l.term = max_term then
        Array.iter
          (fun s ->
            for i = 0 to s.commit_index do
              if i > last_index l then
                fail "leader-completeness: leader %d (term %d) misses committed index %d of node %d"
                  l.id l.term i s.id
              else
                let el, _ = Log.get l.log i and es, _ = Log.get s.log i in
                if not (entry_eq el es) then
                  fail "leader-completeness: leader %d disagrees with node %d at committed index %d"
                    l.id s.id i
            done)
          t.servers)
    t.servers;
  (* State-Machine Safety: commonly committed prefixes are identical. *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a.id < b.id then
            for i = 0 to min a.commit_index b.commit_index do
              let ea, _ = Log.get a.log i and eb, _ = Log.get b.log i in
              if not (entry_eq ea eb) then
                fail "state-machine-safety: nodes %d,%d disagree at committed index %d"
                  a.id b.id i
            done)
        t.servers)
    t.servers;
  (* The Raft* per-entry ballot field: never below the entry's creation
     term (vanilla degenerates to equality). *)
  Array.iter
    (fun s ->
      Log.iteri
        (fun i (e, b) ->
          let bad =
            match t.config.flavor with
            | Vanilla -> b <> e.Types.term
            | Star -> b < e.Types.term
          in
          if bad then
            fail "ballot-field: node %d index %d ballot %d vs term %d" s.id i
              b e.Types.term)
        s.log)
    t.servers;
  !violation
