module Net = Raftpax_sim.Net
module Engine = Raftpax_sim.Engine
module Cpu = Raftpax_sim.Cpu
module Rng = Raftpax_sim.Rng
module Telemetry = Raftpax_telemetry.Telemetry
module Metrics = Raftpax_telemetry.Metrics
module Span = Raftpax_telemetry.Span

type node = {
  id : int;
  cpu : Cpu.t;
  rng : Rng.t;
  commits : Metrics.counter;
  acks_sent : Metrics.counter;
  retransmits : Metrics.counter;
  batch_cmds : Metrics.histogram;
  store : Itbl.t;
  mutable held : int;
  mutable flush_armed : bool;
  mutable flush_timer : unit -> unit;
}

type 'msg hooks = {
  size : 'msg -> int;
  render : (int -> int) -> 'msg -> string;
  complete : int -> Types.reply -> 'msg;
  handle : int -> 'msg -> unit;
  client : int -> Types.cmd -> unit;
  live : int -> bool;
  flush : int -> unit;
}

type 'msg t = {
  net : Net.t;
  engine : Engine.t;
  spans : Span.t;
  params : Types.params;
  nodes : node array;
  completions : (Types.reply -> unit) Pending.t;
  mutable next_cmd_id : int;
  mutable cmd_id_stride : int;
  mutable wire : (src:int -> dst:int -> size:int -> 'msg -> unit) option;
  mutable hooks : 'msg hooks;
  mutable client_hop : int -> Types.cmd -> unit;
      (** the submit hop's handler, built once in [create] *)
}

(* Placeholder until the core binds: a core's hooks close over the core,
   which holds the base, so the base exists first. *)
let unbound () =
  let fail _ = invalid_arg "Replica: used before bind" in
  let fail2 _ = fail in
  { size = fail; render = fail2; complete = fail2; handle = fail2;
    client = fail2; live = fail; flush = fail }

(* ---- command batching ---- *)

let flush b nd =
  Metrics.observe nd.batch_cmds nd.held;
  nd.held <- 0;
  b.hooks.flush nd.id

let hold b nd =
  nd.held <- nd.held + 1;
  if nd.held >= b.params.batch_size then flush b nd
  else if not nd.flush_armed then begin
    nd.flush_armed <- true;
    Engine.schedule b.engine ~node:nd.id ~label:"flush"
      ~delay:(max 1 b.params.batch_delay_us) nd.flush_timer
  end

let drop_batch nd = nd.held <- 0

(* ---- client hop ---- *)

(* The client-to-colocated-replica hop delivers the [cmd] to its origin
   replica, [node]. *)
let client_hop b node (cmd : Types.cmd) =
  Span.mark b.spans ~trace:cmd.id ~node ~phase:"client_hop"
    ~now:(Engine.now b.engine);
  b.hooks.client node cmd

let render_submit rename cmd = "Submit(" ^ Types.render_cmd ~rename cmd ^ ")"

(* ---- construction ---- *)

(* The completion table's free value: [complete] tells an absent command
   by this closure's identity. *)
let no_completion (_ : Types.reply) = ()

let create ?(telemetry = Telemetry.disabled) ~params net =
  let engine = Net.engine net in
  let m = telemetry.Telemetry.metrics in
  let nodes =
    Array.init (Net.size net) (fun id ->
        let cpu = Cpu.create engine in
        Cpu.set_metrics cpu m ~node:id;
        let c name = Metrics.counter m name ~node:id in
        {
          id;
          cpu;
          rng = Rng.split (Engine.rng engine);
          commits = c "commits";
          acks_sent = c "acks_sent";
          retransmits = c "retransmits";
          batch_cmds = Metrics.histogram m "batch_flush_cmds" ~node:id;
          store = Itbl.create ();
          held = 0;
          flush_armed = false;
          flush_timer = ignore;
        })
  in
  let b =
    {
      net;
      engine;
      spans = telemetry.Telemetry.spans;
      params;
      nodes;
      completions = Pending.create ~empty:no_completion;
      next_cmd_id = 0;
      cmd_id_stride = 1;
      wire = None;
      hooks = unbound ();
      client_hop = (fun _ _ -> ());
    }
  in
  b.client_hop <- client_hop b;
  Array.iter
    (fun nd ->
      nd.flush_timer <-
        (fun () ->
          nd.flush_armed <- false;
          if b.hooks.live nd.id && nd.held > 0 then flush b nd))
    nodes;
  b

let bind b hooks = b.hooks <- hooks
let node b id = b.nodes.(id)

(* ---- dispatch ---- *)

let send b ~src ~dst msg =
  match b.wire with
  | Some wire when src <> dst -> wire ~src ~dst ~size:(b.hooks.size msg) msg
  | _ ->
      Net.post b.net ~src ~dst ~size:(b.hooks.size msg)
        ~render:b.hooks.render ~handle:b.hooks.handle msg

let broadcast b ~src msg =
  for dst = 0 to Array.length b.nodes - 1 do
    if dst <> src then send b ~src ~dst msg
  done

let set_wire b f = b.wire <- f

(* ---- client commands ---- *)

let set_cmd_ids b ~base ~stride =
  b.next_cmd_id <- base;
  b.cmd_id_stride <- stride

let submit_id b ~node op k =
  let id = b.next_cmd_id in
  b.next_cmd_id <- id + b.cmd_id_stride;
  Pending.replace b.completions id k;
  let cmd =
    { Types.id; op; origin = node; submitted_us = Engine.now b.engine }
  in
  Span.mark b.spans ~trace:id ~node ~phase:"submit" ~now:(Engine.now b.engine);
  Net.post b.net ~src:node ~dst:node
    ~size:(b.params.msg_header_bytes + Types.op_size op)
    ~render:render_submit ~handle:b.client_hop cmd;
  id

let reply b ~src (cmd : Types.cmd) reply =
  send b ~src ~dst:cmd.origin (b.hooks.complete cmd.id reply)

let render_complete cmd_id (reply : Types.reply) =
  Printf.sprintf "Complete(c%d v%s)" cmd_id
    (match reply.value with None -> "-" | Some v -> string_of_int v)

let complete b ~node cmd_id reply =
  let k = Pending.take b.completions cmd_id in
  (* [no_completion]: a duplicate completion after a leader change *)
  if k != no_completion then begin
    Span.mark b.spans ~trace:cmd_id ~node ~phase:"reply"
      ~now:(Engine.now b.engine);
    k reply
  end

(* ---- applied state ---- *)

let apply nd ~key value = Itbl.replace nd.store key value
let read nd ~key = Itbl.find_opt nd.store key
let applied_value b ~node ~key = read b.nodes.(node) ~key

let answer b nd (cmd : Types.cmd) =
  Span.mark b.spans ~trace:cmd.id ~node:nd.id ~phase:"quorum_commit"
    ~now:(Engine.now b.engine);
  match cmd.op with
  | Get { key } -> reply b ~src:nd.id cmd { Types.value = read nd ~key }
  | Put _ -> reply b ~src:nd.id cmd { Types.value = None }

let commit b nd ~reply (cmd : Types.cmd) =
  (match cmd.op with
  | Put { key; write_id; _ } -> apply nd ~key write_id
  | Get _ -> ());
  if reply then answer b nd cmd

(* ---- model-checker fingerprints ---- *)

let permuted ~rename a =
  let b = Array.copy a in
  Array.iteri (fun i v -> b.(rename i) <- v) a;
  b

let mask ~rename a =
  String.concat ""
    (Array.to_list
       (Array.map (fun b -> if b then "1" else "0") (permuted ~rename a)))

let render_tallies ~rename ~n log =
  let open_ = ref [] in
  for i = Log.length log - 1 downto 0 do
    let acks = Log.acks log i in
    if acks <> Log.no_tally then
      open_ :=
        Printf.sprintf "%d=%s" i
          (mask ~rename (Array.init n (fun p -> acks land (1 lsl p) <> 0)))
        :: !open_
  done;
  String.concat ";" !open_

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let render_store nd = "|st:" ^ Itbl.render nd.store
