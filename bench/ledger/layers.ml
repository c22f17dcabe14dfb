(* Per-layer numbers from one traced run: span self times, the
   telemetry counters the runtimes already keep, and two ablations
   replayed from what the run recorded.

   - Null replay: every recorded send, at its recorded time, through a
     fresh Engine and Net whose deliveries only charge a fixed Cpu.exec —
     the cost of the simulator's machinery with no protocol above it.
   - Codec replay: the sampled hooked messages encoded the way the TCP
     transport frames them, then decoded; every message must come back
     byte-identical. *)

open Sims

let null_cost_us = 1

type null = {
  null_msgs : int;
  null_events : int;
  null_total_ns : int;
  null_dispatch_ns : int;  (** the replay's own engine time, sends excluded *)
}

let null_replay ~seed ~(node_lists : Net.node list list) (rc : recorder) =
  let engine = Engine.create ~seed () in
  let nets = Array.of_list (List.map (fun nodes -> Net.create engine ~nodes) node_lists) in
  let cpus =
    Array.map (fun net -> Array.init (Net.size net) (fun _ -> Cpu.create engine)) nets
  in
  let sends = rc.sends in
  let k = Vec.length sends / 2 in
  let sp = Spans.create () in
  let rec feed i () =
    let now = Engine.now engine in
    let i = ref i in
    while !i < k && Vec.get sends (2 * !i) <= now do
      let p = Vec.get sends ((2 * !i) + 1) in
      let dst = p land 0xff
      and src = (p lsr 8) land 0xff
      and net = (p lsr 16) land 0xff
      and size = p lsr 24 in
      Spans.enter sp Spans.Null_send ~trace:(-1);
      Net.send nets.(net) ~src ~dst ~size (fun () ->
          Cpu.exec cpus.(net).(dst) ~cost_us:null_cost_us ignore);
      Spans.leave sp;
      incr i
    done;
    if !i < k then
      Engine.schedule engine ~kind:Engine.Exact
        ~delay:(Vec.get sends (2 * !i) - now)
        (feed !i)
  in
  if k > 0 then
    Engine.schedule engine ~kind:Engine.Exact ~delay:(Vec.get sends 0) (feed 0);
  Spans.enter sp Spans.Null_run ~trace:(-1);
  Engine.run_all engine;
  Spans.leave sp;
  {
    null_msgs = k;
    null_events = Engine.events_executed engine;
    null_total_ns = Spans.total_ns sp Spans.Null_run;
    null_dispatch_ns = Spans.self_ns sp Spans.Null_run;
  }

type codec = {
  frames : int;
  encode_ns : int;
  decode_ns : int;
  frame_bytes : int;
  minor_words : float;
  mismatched : int;
}

let codec_replay (rc : recorder) =
  let n = Vec.length rc.msgs in
  let w = Codec.writer_sized 4096 in
  let encoded = Array.make n "" in
  let decoded = Array.make n Wire.Snapshot_req in
  let ok = Array.make n false in
  let minor0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  for i = 0 to n - 1 do
    let src, dst, msg = Vec.get rc.msgs i in
    Wire.encode_frame_into w (Wire.Peer_msg { src; dst; msg });
    encoded.(i) <- Framing.encode_writer w
  done;
  let t1 = Clock.now_ns () in
  let reasm = Framing.reassembler () in
  for i = 0 to n - 1 do
    match Framing.feed reasm encoded.(i) with
    | Ok [ payload ] -> (
        match Wire.decode_frame payload with
        | Ok f ->
            decoded.(i) <- f;
            ok.(i) <- true
        | Error _ -> ())
    | Ok _ | Error _ -> ()
  done;
  let t2 = Clock.now_ns () in
  let minor_words = Gc.minor_words () -. minor0 in
  let mismatched = ref 0 and bytes = ref 0 in
  for i = 0 to n - 1 do
    bytes := !bytes + String.length encoded.(i);
    Wire.encode_frame_into w decoded.(i);
    if not (ok.(i) && String.equal (Framing.encode_writer w) encoded.(i)) then
      incr mismatched
  done;
  {
    frames = n;
    encode_ns = t1 - t0;
    decode_ns = t2 - t1;
    frame_bytes = !bytes;
    minor_words;
    mismatched = !mismatched;
  }

(* ---- telemetry readers (summed or maxed over replicas and groups) ---- *)

(* Folds [g] over every replica of every registry. *)
let fold_replicas (f : facts) g init =
  List.fold_left
    (fun acc (tel : Telemetry.t) ->
      let a = ref acc in
      for node = 0 to f.n_nodes - 1 do
        a := g !a tel.Telemetry.metrics ~node
      done;
      !a)
    init f.tels

let counter_sum f name =
  fold_replicas f (fun acc m ~node -> acc + Metrics.counter_value m name ~node) 0

(* Mean over every replica's samples.  The histograms' quantiles are
   power-of-two bucket bounds, too coarse to show a shift. *)
let hist_mean f name =
  let sum, cnt =
    fold_replicas f
      (fun (s, c) m ~node ->
        let h = Metrics.histogram m name ~node in
        (s + Metrics.hist_sum h, c + Metrics.hist_count h))
      (0, 0)
  in
  if cnt = 0 then 0.0 else float_of_int sum /. float_of_int cnt

let busiest_busy_frac (f : facts) =
  fold_replicas f
    (fun acc m ~node ->
      let busy = Metrics.counter_value m "cpu_busy_us" ~node in
      Float.max acc (float_of_int busy /. float_of_int f.duration_us))
    0.0

(* An unbatched runtime records no flushes: one command per instance. *)
let cmds_per_batch f =
  match hist_mean f "batch_flush_cmds" with 0.0 -> 1.0 | m -> m

(* ---- the untraced runs a traced measurement is set against ---- *)

type untraced = {
  wall_on_s : float;  (** telemetry on: the end-to-end configuration *)
  wall_off_s : float;
  minor_words : float;
  major_collections : int;
  u_ops : int;
}

let per_op v (f : facts) = float_of_int v /. float_of_int (max 1 f.ops)

let metrics ~(f : facts) ~sp ~traced_wall_s ~(u : untraced) ~(null : null)
    ~(codec : codec) =
  let open Report in
  let engine_self = Spans.self_ns sp Spans.Engine_run in
  let frames = max 1 codec.frames in
  [
    exact "engine.events_per_op" "count" (per_op f.sim_events f);
    count "engine.pending_peak" f.pending_peak;
    wall "engine.self_ns_per_event" "ns"
      (float_of_int engine_self /. float_of_int (max 1 f.sim_events));
    exact "net.msgs_per_op" "count" (per_op f.messages f);
    exact "net.bytes_per_op" "B" (per_op f.bytes f);
    wall "net.send_ns" "ns" (Spans.mean_self_ns sp Spans.Net_send);
    exact "net.queue_mean_us" "us" (hist_mean f "net_queue_us");
    exact "cpu.busiest_busy_frac" "frac" (busiest_busy_frac f);
    exact "cpu.queue_mean_us" "us" (hist_mean f "cpu_queue_us");
    wall "simcore.null_ns_per_msg" "ns"
      (float_of_int null.null_total_ns /. float_of_int (max 1 null.null_msgs));
    (* Engine.run's self time beyond what the null replay's machinery
       costs per event, scaled to the traced run's event count. *)
    wall "consensus.self_s_per_kop" "s"
      ((float_of_int engine_self
       -. (float_of_int null.null_dispatch_ns /. float_of_int (max 1 null.null_events)
          *. float_of_int f.sim_events))
      /. 1e9
      /. (float_of_int (max 1 f.ops) /. 1000.0));
    wall "consensus.submit_ns" "ns" (Spans.mean_self_ns sp Spans.Submit);
    wall "consensus.deliver_ns" "ns" (Spans.mean_self_ns sp Spans.Deliver);
    exact "consensus.cmds_per_batch" "count" (cmds_per_batch f);
    exact "consensus.local_read_frac" "frac"
      (float_of_int (counter_sum f "local_reads") /. float_of_int (max 1 f.reads));
    count "consensus.elections" (counter_sum f "elections");
    count "consensus.retransmits" (counter_sum f "retransmits");
    wall "kvstore.next_op_ns" "ns" (Spans.mean_self_ns sp Spans.Next_op);
    wall "kvstore.reply_ns" "ns" (Spans.mean_self_ns sp Spans.Reply);
    wall "kvstore.lin_check_s" "s"
      (float_of_int (Spans.total_ns sp Spans.Lin_check) /. 1e9);
    wall "kvstore.report_s" "s" (float_of_int (Spans.total_ns sp Spans.Report) /. 1e9);
    wall "telemetry.cost_frac" "frac" ((u.wall_on_s -. u.wall_off_s) /. u.wall_off_s);
    exact "gc.minor_words_per_op" "words"
      (u.minor_words /. float_of_int (max 1 u.u_ops));
    count "gc.major_collections" u.major_collections;
    wall "netcore.encode_ns" "ns" (float_of_int codec.encode_ns /. float_of_int frames);
    wall "netcore.decode_ns" "ns" (float_of_int codec.decode_ns /. float_of_int frames);
    exact "netcore.bytes_per_frame" "B"
      (float_of_int codec.frame_bytes /. float_of_int frames);
    exact "netcore.words_per_frame" "words" (codec.minor_words /. float_of_int frames);
    wall "trace.overhead_frac" "frac" ((traced_wall_s -. u.wall_on_s) /. u.wall_on_s);
    count "trace.ops" f.ops;
  ]

(* The checks a traced run must pass besides the workload's own. *)
let problems ~(f : facts) ~(untraced : (string * int) list) ~sp ~(codec : codec) =
  let own =
    [
      ("ops", f.ops);
      ("retries", f.retries);
      ("sim_events", f.sim_events);
      ("messages", f.messages);
      ("p50_us", f.p50_us);
      ("p99_us", f.p99_us);
    ]
  in
  let mismatches =
    List.filter_map
      (fun (name, v) ->
        match List.find_opt (fun (n, _) -> String.equal n name) own with
        | Some (_, t) when t <> v ->
            Some
              (Printf.sprintf "traced %s %d differs from the untraced run's %d" name
                 t v)
        | Some _ | None -> None)
      untraced
  in
  let codec_problem =
    if codec.mismatched > 0 then
      [ Printf.sprintf "codec replay changed %d of %d messages" codec.mismatched codec.frames ]
    else []
  in
  (* Self times telescope, so they must account for the independently
     timed Engine.run + oracle + report interval. *)
  let self_s = float_of_int (Spans.self_sum_ns sp) /. 1e9 in
  let attribution =
    if Float.abs (self_s -. f.oracle_wall_s) > 0.02 *. f.oracle_wall_s then
      [
        Printf.sprintf "span self times sum to %.3fs, the traced interval took %.3fs"
          self_s f.oracle_wall_s;
      ]
    else []
  in
  f.problems @ mismatches @ codec_problem @ attribution
