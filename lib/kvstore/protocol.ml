module C = Raftpax_consensus
module Types = C.Types
module Net = Raftpax_sim.Net
module Wire = Raftpax_netcore.Wire

type t = Raft | Raft_star | Raft_ll | Raft_pql | Mencius | Multipaxos

let all = [ Raft; Raft_star; Raft_ll; Raft_pql; Mencius; Multipaxos ]

let name = function
  | Raft -> "Raft"
  | Raft_star -> "Raft*"
  | Raft_ll -> "Raft*-LL"
  | Raft_pql -> "Raft*-PQL"
  | Mencius -> "Raft*-Mencius"
  | Multipaxos -> "MultiPaxos"

let cli_name = function
  | Raft -> "raft"
  | Raft_star -> "raft-star"
  | Raft_ll -> "raft-ll"
  | Raft_pql -> "raft-pql"
  | Mencius -> "mencius"
  | Multipaxos -> "multipaxos"

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt
    (fun p -> String.lowercase_ascii (name p) = s || cli_name p = s)
    all

(* Mencius's skip announcement ("my slots below [upto] you haven't seen
   a value for are dead") is unsound if it can overtake such a value. *)
let fifo_required = function
  | Mencius -> true
  | Raft | Raft_star | Raft_ll | Raft_pql | Multipaxos -> false

type runtime = {
  submit : node:int -> Types.op -> (Types.reply -> unit) -> unit;
  submit_id : node:int -> Types.op -> (Types.reply -> unit) -> int;
  crash : node:int -> unit;
  restart : node:int -> unit;
  leader_hint : unit -> int option;
  committed_ops : node:int -> Types.op list;
  digest : node:int -> string;
  dump : node:int -> string;
  state : rename:(int -> int) -> node:int -> string;
  mono : node:int -> int array;
  invariant : unit -> string option;
  raft_peek : (node:int -> C.Raft.peek) option;
  set_wire :
    (src:int -> dst:int -> size:int -> Wire.protocol_msg -> unit) option ->
    unit;
  deliver : node:int -> Wire.protocol_msg -> unit;
  set_cmd_ids : base:int -> stride:int -> unit;
}

let render_op = function
  | Types.Put { write_id; _ } -> Printf.sprintf "V(w%d)" write_id
  | Types.Get _ -> "G"

(* A core's outgoing-message hook behind the {!Wire} envelope. *)
let wrap set_wire inj hook =
  set_wire
    (Option.map (fun f ~src ~dst ~size m -> f ~src ~dst ~size (inj m)) hook)

let make ?telemetry ?(batch_size = 1) ?(batch_delay_us = 0) ?raft_config
    ?mencius_config ?multipaxos_config protocol net ~leader =
  (* At size 1 the params are passed through untouched: a config's own
     params (mcheck's -batched scopes set their batch knobs there) are
     kept unless the caller asks for batching. *)
  let batched (p : Types.params) =
    if batch_size <= 1 then p else { p with Types.batch_size; batch_delay_us }
  in
  match protocol with
  | Raft | Raft_star | Raft_ll | Raft_pql ->
      let cfg =
        match (raft_config, protocol) with
        | Some cfg, _ -> cfg
        | None, Raft -> C.Raft.raft ~leader ()
        | None, Raft_star -> C.Raft.raft_star ~leader ()
        | None, Raft_ll -> C.Raft.raft_ll ~leader ()
        | None, _ -> C.Raft.raft_pql ~leader ()
      in
      let r =
        C.Raft.create ?telemetry
          { cfg with C.Raft.params = batched cfg.C.Raft.params }
          net
      in
      C.Raft.start r;
      {
        submit = C.Raft.submit r;
        submit_id = C.Raft.submit_id r;
        crash = C.Raft.crash r;
        restart = C.Raft.restart r;
        leader_hint = (fun () -> C.Raft.leader_of r);
        committed_ops = C.Raft.committed_ops r;
        digest =
          (fun ~node ->
            Printf.sprintf "term=%d commit=%d log=%d%s"
              (C.Raft.term_of r ~node)
              (C.Raft.commit_index r ~node)
              (C.Raft.log_length r ~node)
              (if C.Raft.leader_of r = Some node then " leader" else ""));
        dump =
          (fun ~node ->
            let commit = C.Raft.commit_index r ~node in
            String.concat " "
              (List.mapi
                 (fun i (e : Types.entry) ->
                   Printf.sprintf "%d:%s%s" i
                     (match e.Types.cmd with
                     | Some c -> render_op c.Types.op
                     | None -> "-")
                     (if i > commit then "!" else ""))
                 (C.Raft.log_entries r ~node)));
        state = (fun ~rename ~node -> C.Raft.dump_state ~rename r ~node);
        mono = C.Raft.mono_view r;
        invariant = (fun () -> C.Raft.invariant_violation r);
        raft_peek = Some (C.Raft.peek r);
        set_wire = wrap (C.Raft.set_wire r) (fun m -> Wire.Raft_msg m);
        deliver =
          (fun ~node -> function
            | Wire.Raft_msg m -> C.Raft.deliver r ~node m
            | Wire.Mencius_msg _ | Wire.Multipaxos_msg _ -> ());
        set_cmd_ids = C.Raft.set_cmd_ids r;
      }
  | Mencius ->
      let cfg =
        Option.value ~default:C.Mencius.default_config mencius_config
      in
      let m =
        C.Mencius.create ?telemetry
          { cfg with C.Mencius.params = batched cfg.C.Mencius.params }
          net
      in
      C.Mencius.start m;
      {
        submit = C.Mencius.submit m;
        submit_id = C.Mencius.submit_id m;
        crash = C.Mencius.crash m;
        restart = C.Mencius.restart m;
        leader_hint = (fun () -> None);
        committed_ops = C.Mencius.committed_ops m;
        digest =
          (fun ~node ->
            Printf.sprintf "commit=%d known=%d slots=%d skips=%d"
              (C.Mencius.commit_frontier m ~node)
              (C.Mencius.known_frontier m ~node)
              (C.Mencius.slot_count m ~node)
              (C.Mencius.skipped_count m ~node));
        dump = C.Mencius.dump_slots m;
        state = (fun ~rename ~node -> C.Mencius.dump_state ~rename m ~node);
        mono = C.Mencius.mono_view m;
        invariant = (fun () -> C.Mencius.invariant_violation m);
        raft_peek = None;
        set_wire = wrap (C.Mencius.set_wire m) (fun x -> Wire.Mencius_msg x);
        deliver =
          (fun ~node -> function
            | Wire.Mencius_msg msg -> C.Mencius.deliver m ~node msg
            | Wire.Raft_msg _ | Wire.Multipaxos_msg _ -> ());
        set_cmd_ids = C.Mencius.set_cmd_ids m;
      }
  | Multipaxos ->
      let cfg =
        Option.value ~default:C.Multipaxos.default_config multipaxos_config
      in
      let mp =
        C.Multipaxos.create ?telemetry ~leader
          { cfg with C.Multipaxos.params = batched cfg.C.Multipaxos.params }
          net
      in
      C.Multipaxos.start mp;
      {
        submit = C.Multipaxos.submit mp;
        submit_id = C.Multipaxos.submit_id mp;
        crash = C.Multipaxos.crash mp;
        restart = C.Multipaxos.restart mp;
        leader_hint = (fun () -> Some (C.Multipaxos.leader_of mp));
        committed_ops = C.Multipaxos.committed_ops mp;
        digest =
          (fun ~node ->
            Printf.sprintf "ballot=%d chosen=%d executed=%d%s"
              (C.Multipaxos.ballot_of mp ~node)
              (C.Multipaxos.chosen_count mp ~node)
              (C.Multipaxos.executed_prefix mp ~node)
              (if C.Multipaxos.leader_of mp = node then " leader" else ""));
        dump =
          (fun ~node ->
            String.concat " "
              (List.mapi
                 (fun i op -> Printf.sprintf "%d:%s" i (render_op op))
                 (C.Multipaxos.committed_ops mp ~node)));
        state = (fun ~rename ~node -> C.Multipaxos.dump_state ~rename mp ~node);
        mono = C.Multipaxos.mono_view mp;
        invariant = (fun () -> C.Multipaxos.invariant_violation mp);
        raft_peek = None;
        set_wire =
          wrap (C.Multipaxos.set_wire mp) (fun m -> Wire.Multipaxos_msg m);
        deliver =
          (fun ~node -> function
            | Wire.Multipaxos_msg m -> C.Multipaxos.deliver mp ~node m
            | Wire.Raft_msg _ | Wire.Mencius_msg _ -> ());
        set_cmd_ids = C.Multipaxos.set_cmd_ids mp;
      }
