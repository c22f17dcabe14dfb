(* In-memory spans around the calls the ledger makes into each layer.

   A span has a name, start, end, parent and trace id (the command id,
   or -1 for work not tied to one command).  Spans nest strictly — they
   are opened and closed around synchronous calls — so each layer's self
   time (its span's duration minus the part its children cover) is
   aggregated online, per name, as spans close.  Holding every span of a
   multi-million-op run would cost hundreds of MB, so only a
   deterministic sample is kept for [--trace-out]: every span of each
   64th command id, every 1024th span without a command, and every root
   span. *)

type name =
  | Engine_run
  | Next_op
  | Submit
  | Reply
  | Net_send
  | Deliver
  | Lin_check
  | Report
  | Null_run
  | Null_send

(* Indexed by [index]. *)
let names =
  [|
    "engine.run";
    "kvstore.next_op";
    "consensus.submit";
    "kvstore.reply";
    "net.send";
    "consensus.deliver";
    "kvstore.lin_check";
    "kvstore.report";
    "null.run";
    "null.send";
  |]

let index = function
  | Engine_run -> 0
  | Next_op -> 1
  | Submit -> 2
  | Reply -> 3
  | Net_send -> 4
  | Deliver -> 5
  | Lin_check -> 6
  | Report -> 7
  | Null_run -> 8
  | Null_send -> 9

let max_depth = 64

type t = {
  on : bool;
  count : int array;
  total : int array;  (** ns *)
  self : int array;  (** ns *)
  stk_name : int array;
  stk_start : int array;
  stk_child : int array;  (** ns covered by closed children *)
  stk_id : int array;
  stk_trace : int array;
  mutable depth : int;
  mutable next_id : int;
  kept : int Raftpax_consensus.Vec.t;
      (** sampled spans, six ints each: id, parent, name, trace, start, end *)
}

let make on =
  let k = Array.length names in
  {
    on;
    count = Array.make k 0;
    total = Array.make k 0;
    self = Array.make k 0;
    stk_name = Array.make max_depth 0;
    stk_start = Array.make max_depth 0;
    stk_child = Array.make max_depth 0;
    stk_id = Array.make max_depth 0;
    stk_trace = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    kept = Raftpax_consensus.Vec.create ();
  }

let create () = make true

(* A recorder whose probes only test [on]: the untraced runs of the
   ledger's own drivers pass this one. *)
let off () = make false

let enter t name ~trace =
  if t.on then begin
    let d = t.depth in
    if d = max_depth then failwith "Spans.enter: nesting too deep";
    t.stk_name.(d) <- index name;
    t.stk_child.(d) <- 0;
    t.stk_id.(d) <- t.next_id;
    t.stk_trace.(d) <- trace;
    t.next_id <- t.next_id + 1;
    t.depth <- d + 1;
    t.stk_start.(d) <- Clock.now_ns ()
  end

let keep t d stop =
  let trace = t.stk_trace.(d) in
  let id = t.stk_id.(d) in
  if d = 0 || (trace >= 0 && trace land 63 = 0) || (trace < 0 && id land 1023 = 0)
  then begin
    let v = t.kept in
    Raftpax_consensus.Vec.push v id;
    Raftpax_consensus.Vec.push v (if d = 0 then -1 else t.stk_id.(d - 1));
    Raftpax_consensus.Vec.push v t.stk_name.(d);
    Raftpax_consensus.Vec.push v trace;
    Raftpax_consensus.Vec.push v t.stk_start.(d);
    Raftpax_consensus.Vec.push v stop
  end

let close t =
  let stop = Clock.now_ns () in
  let d = t.depth - 1 in
  if d < 0 then failwith "Spans.leave: no open span";
  t.depth <- d;
  let dur = stop - t.stk_start.(d) in
  let name = t.stk_name.(d) in
  t.count.(name) <- t.count.(name) + 1;
  t.total.(name) <- t.total.(name) + dur;
  t.self.(name) <- t.self.(name) + dur - t.stk_child.(d);
  if d > 0 then t.stk_child.(d - 1) <- t.stk_child.(d - 1) + dur;
  keep t d stop

let leave t = if t.on then close t

(* Close the innermost span, naming its command: [submit] learns the
   command id only when it returns. *)
let leave_trace t trace =
  if t.on then begin
    t.stk_trace.(t.depth - 1) <- trace;
    close t
  end

let count t name = t.count.(index name)
let total_ns t name = t.total.(index name)
let self_ns t name = t.self.(index name)

let mean_self_ns t name =
  let c = count t name in
  if c = 0 then 0.0 else float_of_int (self_ns t name) /. float_of_int c

let self_sum_ns t = Array.fold_left ( + ) 0 t.self

(* Tab-separated, one sampled span per line, in closing order. *)
let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\ttrace\tstart_ns\tend_ns\n";
  let v = t.kept in
  let get = Raftpax_consensus.Vec.get v in
  for s = 0 to (Raftpax_consensus.Vec.length v / 6) - 1 do
    let b = s * 6 in
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" (get b)
      (get (b + 1))
      names.(get (b + 2))
      (get (b + 3))
      (get (b + 4))
      (get (b + 5))
  done;
  close_out oc
