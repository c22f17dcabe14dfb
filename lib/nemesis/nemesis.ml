module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Rng = Sim.Rng
module Topology = Sim.Topology
module Types = Raftpax_consensus.Types
module Itbl = Raftpax_consensus.Itbl
module Lin_check = Raftpax_kvstore.Lin_check
module Telemetry = Raftpax_telemetry.Telemetry

type config = {
  protocol : Cluster.protocol;
  seed : int;
  chaos_steps : int;
  clients : int;
  read_pct : int;
  hot_pct : int;
  capture_messages : bool;
  debug_invariants : bool;
  actions : Schedule.action list;
  batch_size : int;
  batch_delay_us : int;
}

let config ?(chaos_steps = 30) ?(clients = 4) ?(read_pct = 50) ?(hot_pct = 30)
    ?(capture_messages = true) ?(debug_invariants = true)
    ?(actions = Schedule.default) ?(batch_size = 1) ?(batch_delay_us = 0)
    protocol ~seed =
  {
    protocol;
    seed;
    chaos_steps;
    clients;
    read_pct;
    hot_pct;
    capture_messages;
    debug_invariants;
    actions;
    batch_size;
    batch_delay_us;
  }

type report = {
  cfg : config;
  ok : bool;
  failures : string list;
  trace : Trace.t;
  ops_completed : int;
  reads_checked : int;
  violations : Lin_check.violation list;
  faults_injected : int;
  liveness_ok : bool;
  prefixes_agree : bool;
  lost_writes : int;
  telemetry : Telemetry.t;
}

(* The shared contended key is Mencius' hot key, so the run exercises its
   conflicting path; each client additionally owns a private key, which
   respects the commutativity contract (concurrent writes to a private
   key only arise from that client's own abandoned attempts). *)
let hot_key = Raftpax_consensus.Mencius.hot_key
let private_key client = 10 + client
let probe_key = 999

let step_interval_us = 1_000_000
let retry_timeout_us = 8_000_000
let settle_us = 25_000_000
let probe_window_us = 20_000_000
let poll_interval_us = 500_000

let pp_op ppf (op : Types.op) =
  match op with
  | Types.Put { key; write_id; _ } -> Fmt.pf ppf "put k=%d id=%d" key write_id
  | Types.Get { key } -> Fmt.pf ppf "get k=%d" key

let is_prefix ~of_:longer shorter =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a, y :: b -> x = y && go a b
  in
  go shorter longer

let run cfg =
  let engine = Engine.create ~seed:(Int64.of_int cfg.seed) () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  let net = Net.create engine ~nodes in
  let telemetry =
    Telemetry.create ~tracing:true ~n:(List.length nodes) ()
  in
  Net.set_metrics net telemetry.Telemetry.metrics;
  let cluster =
    Cluster.make ~telemetry ~batch_size:cfg.batch_size
      ~batch_delay_us:cfg.batch_delay_us cfg.protocol net
  in
  let n = cluster.Cluster.n in
  let trace = Trace.create () in
  if cfg.capture_messages then
    Net.set_monitor net
      (Some
         (fun ~now ~src ~dst ~size ~dropped ->
           Trace.record trace ~now
             (Printf.sprintf "MSG %d->%d size=%d%s" src dst size
                (if dropped then " dropped" else ""))));
  let nemesis_rng = Rng.create (Int64.of_int ((cfg.seed * 1_000_003) + 17)) in
  let workload_rng = Rng.create (Int64.of_int ((cfg.seed * 7919) + 1)) in
  let ctx = Schedule.make_ctx engine net cluster ~rng:nemesis_rng ~trace in
  let chaos_end = cfg.chaos_steps * step_interval_us in
  let probe_start = chaos_end + settle_us in
  let final_end = probe_start + probe_window_us in

  (* ---- closed-loop clients ---- *)
  let events = ref [] in
  let ops_completed = ref 0 in
  let next_write_id = ref 0 in
  let fresh_write_id () =
    incr next_write_id;
    !next_write_id
  in
  let rec client_loop client rng () =
    if Engine.now engine < chaos_end then begin
      let key =
        if Rng.int rng 100 < cfg.hot_pct then hot_key else private_key client
      in
      let op =
        if Rng.int rng 100 < cfg.read_pct then Types.Get { key }
        else Types.Put { key; size = 8; write_id = fresh_write_id () }
      in
      attempt client rng op
    end
  and attempt client rng op =
    (* A retried write is a fresh write (new id): the abandoned attempt
       may still commit, but unacknowledged writes impose no constraint
       on the linearizability oracle. *)
    let node = Rng.int rng n in
    let started = Engine.now engine in
    let finished = ref false in
    Trace.record trace ~now:started
      (Fmt.str "OP submit client=%d node=%d %a" client node pp_op op);
    let timeout =
      Engine.schedule_cancellable ~kind:Engine.Exact engine
        ~delay:retry_timeout_us (fun () ->
          if not !finished then begin
            finished := true;
            if Engine.now engine < chaos_end then
              let op =
                match op with
                | Types.Get _ -> op
                | Types.Put { key; size; _ } ->
                    Types.Put { key; size; write_id = fresh_write_id () }
              in
              attempt client rng op
          end)
    in
    cluster.Cluster.submit ~node op (fun reply ->
        if not !finished then begin
          finished := true;
          Engine.cancel timeout;
          let now = Engine.now engine in
          incr ops_completed;
          (match op with
          | Types.Get { key } ->
              events :=
                Lin_check.Read { key; started_us = started; returned = reply.Types.value }
                :: !events;
              Trace.record trace ~now
                (Fmt.str "OP done client=%d %a -> %a" client pp_op op
                   Fmt.(option ~none:(any "none") int)
                   reply.Types.value)
          | Types.Put { key; write_id; _ } ->
              events :=
                Lin_check.Write_complete { write_id; key; at_us = now } :: !events;
              Trace.record trace ~now
                (Fmt.str "OP done client=%d %a" client pp_op op));
          client_loop client rng ()
        end)
  in
  for client = 0 to cfg.clients - 1 do
    let rng = Rng.split workload_rng in
    let jitter = Rng.int workload_rng 100_000 in
    Engine.schedule ~kind:Engine.Exact engine ~delay:jitter
      (client_loop client rng)
  done;

  (* ---- chaos steps, one per simulated second ---- *)
  for k = 1 to cfg.chaos_steps do
    Engine.schedule ~kind:Engine.Exact engine ~delay:(k * step_interval_us)
      (fun () -> Schedule.step ctx cfg.actions)
  done;

  (* ---- state-transition probe: poll digests, trace changes.  When
     [debug_invariants] is on (the default) the same poll also runs the
     runtime's cluster-wide invariant library as a continuous sanitizer:
     every chaos seed doubles as an invariant-checking run. *)
  let last_digest = Array.make n "" in
  let invariant_failures = ref [] in
  let rec poll () =
    let now = Engine.now engine in
    for node = 0 to n - 1 do
      let d = cluster.Cluster.digest ~node in
      if d <> last_digest.(node) then begin
        last_digest.(node) <- d;
        Trace.record trace ~now (Printf.sprintf "STATE node=%d %s" node d)
      end
    done;
    (if cfg.debug_invariants then
       match cluster.Cluster.invariant () with
       | None -> ()
       | Some v ->
           if not (List.mem v !invariant_failures) then begin
             invariant_failures := v :: !invariant_failures;
             Trace.record trace ~now (Printf.sprintf "INVARIANT %s" v)
           end);
    if now < final_end then
      Engine.schedule ~kind:Engine.Exact engine ~delay:poll_interval_us poll
  in
  poll ();

  Engine.run engine ~until:chaos_end;
  Schedule.heal ctx;
  Engine.run engine ~until:probe_start;

  (* ---- liveness probe: a fresh write must commit on the healed
     cluster; like a real client it retries, because a single submission
     can die with a stale leader. *)
  let liveness_ok = ref false in
  let attempts = ref 0 in
  let rec probe () =
    if (not !liveness_ok) && !attempts < 6 then begin
      incr attempts;
      let node =
        match cluster.Cluster.leader_hint () with
        | Some l -> l
        | None -> Rng.int nemesis_rng n
      in
      let op =
        Types.Put { key = probe_key; size = 8; write_id = fresh_write_id () }
      in
      Trace.record trace ~now:(Engine.now engine)
        (Fmt.str "PROBE node=%d %a" node pp_op op);
      cluster.Cluster.submit ~node op (fun _ ->
          if not !liveness_ok then begin
            liveness_ok := true;
            Trace.record trace ~now:(Engine.now engine) "PROBE ok"
          end);
      Engine.schedule ~kind:Engine.Exact engine ~delay:3_000_000 probe
    end
  in
  probe ();
  Engine.run engine ~until:final_end;

  (* ---- safety oracles ---- *)
  let orders = List.init n (fun node -> cluster.Cluster.committed_ops ~node) in
  let longest =
    List.fold_left
      (fun best o -> if List.length o > List.length best then o else best)
      [] orders
  in
  let prefixes_agree = List.for_all (is_prefix ~of_:longest) orders in
  let divergence_detail () =
    String.concat "; "
      (List.concat
         (List.mapi
            (fun node o ->
              if is_prefix ~of_:longest o then []
              else
                let rec first_diff i a b =
                  match (a, b) with
                  | x :: a, y :: b when x = y -> first_diff (i + 1) a b
                  | x :: _, y :: _ ->
                      Fmt.str "node %d pos %d: %a vs %a" node i pp_op x pp_op y
                  | _ :: _, [] ->
                      Fmt.str "node %d pos %d: op past longest order" node i
                  | [], _ -> Fmt.str "node %d: ?" node
                in
                [ first_diff 0 o longest ])
            orders))
  in
  let acked_writes =
    List.filter_map
      (function
        | Lin_check.Write_complete { write_id; _ } -> Some write_id
        | Lin_check.Read _ -> None)
      !events
  in
  let committed_ids = Itbl.create () in
  List.iter
    (function
      | Types.Put { write_id; _ } -> Itbl.replace committed_ids write_id 0
      | Types.Get _ -> ())
    longest;
  let lost_writes =
    List.length
      (List.filter (fun id -> Option.is_none (Itbl.find_opt committed_ids id)) acked_writes)
  in
  let lin = Lin_check.check ~committed_order:longest (List.rev !events) in
  let failures =
    List.concat
      [
        (if !liveness_ok then [] else [ "liveness: post-heal write never committed" ]);
        (if prefixes_agree then []
         else
           [
             "safety: committed prefixes diverge across replicas ("
             ^ divergence_detail () ^ ")";
           ]);
        (if lost_writes = 0 then []
         else [ Printf.sprintf "safety: %d acknowledged writes lost" lost_writes ]);
        List.rev_map
          (fun v -> Printf.sprintf "invariant: %s" v)
          !invariant_failures;
        List.map
          (fun v -> Fmt.str "linearizability: %a" Lin_check.pp_violation v)
          lin.Lin_check.violations;
      ]
  in
  if failures <> [] then
    for node = 0 to n - 1 do
      Trace.record trace ~now:(Engine.now engine)
        (Printf.sprintf "DUMP node=%d %s" node (cluster.Cluster.dump ~node))
    done;
  (* Metric snapshot lines close the trace: they are a pure function of
     the seeded run, so they are covered by the fingerprint determinism
     oracle like every other event. *)
  let snapshot_lines =
    Fmt.str "%a" Telemetry.pp_snapshot (Telemetry.snapshot telemetry)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  List.iter
    (fun line ->
      Trace.record trace ~now:(Engine.now engine) ("METRIC " ^ line))
    snapshot_lines;
  {
    cfg;
    ok = failures = [];
    failures;
    trace;
    ops_completed = !ops_completed;
    reads_checked = lin.Lin_check.reads_checked;
    violations = lin.Lin_check.violations;
    faults_injected = ctx.Schedule.faults;
    liveness_ok = !liveness_ok;
    prefixes_agree;
    lost_writes;
    telemetry;
  }

let pp_report ppf r =
  Fmt.pf ppf "%-13s seed=%-6d %s: %d ops, %d reads checked, %d faults fp=%s"
    (Cluster.protocol_name r.cfg.protocol)
    r.cfg.seed
    (if r.ok then "ok" else "FAIL")
    r.ops_completed r.reads_checked r.faults_injected
    (Trace.fingerprint r.trace);
  if not r.ok then begin
    Fmt.pf ppf "@.";
    List.iter (fun f -> Fmt.pf ppf "  %s@." f) r.failures;
    Fmt.pf ppf "--- telemetry snapshot of the failing seed ---@.";
    Fmt.pf ppf "%a@." Telemetry.pp_snapshot (Telemetry.snapshot r.telemetry);
    Fmt.pf ppf "--- trace tail (replay: same protocol + seed) ---@.";
    Trace.pp ~limit:60 ppf r.trace
  end
