module C = Raftpax_consensus
module Types = C.Types
module Net = Raftpax_sim.Net

type protocol = Raft | Raft_star | Raft_pql | Mencius | Multipaxos

let all_protocols = [ Raft; Raft_star; Raft_pql; Mencius; Multipaxos ]

let protocol_name = function
  | Raft -> "Raft"
  | Raft_star -> "Raft*"
  | Raft_pql -> "Raft*-PQL"
  | Mencius -> "Raft*-Mencius"
  | Multipaxos -> "MultiPaxos"

let protocol_of_name s =
  match String.lowercase_ascii s with
  | "raft" -> Some Raft
  | "raft*" | "raft-star" -> Some Raft_star
  | "raft*-pql" | "raft-pql" | "pql" -> Some Raft_pql
  | "raft*-mencius" | "mencius" -> Some Mencius
  | "multipaxos" -> Some Multipaxos
  | _ -> None

type t = {
  protocol : protocol;
  n : int;
  fifo_required : bool;
  submit : node:int -> Types.op -> (Types.reply -> unit) -> unit;
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
}

(* Mencius (per its paper) assumes FIFO channels: its skip protocol
   reads "every slot of mine below [upto] that you haven't seen a value
   for is dead", which is only sound if values can't arrive after the
   skip announcement.  Raft and MultiPaxos tolerate arbitrary reordering
   (prev-index/term checks, ballots). *)
let fifo_required = function
  | Mencius -> true
  | Raft | Raft_star | Raft_pql | Multipaxos -> false

let make ?telemetry ?(batch_size = 1) ?(batch_delay_us = 0) ?raft_config
    ?mencius_config ?multipaxos_config protocol net =
  let n = Net.size net in
  (* At size 1 the params are passed through untouched, so an unbatched
     cluster is byte-identical to one built before batching existed. *)
  let batched (p : Types.params) =
    if batch_size <= 1 then p else { p with Types.batch_size; batch_delay_us }
  in
  match protocol with
  | Raft | Raft_star | Raft_pql ->
      let cfg =
        match raft_config with
        | Some cfg -> cfg
        | None -> (
            match protocol with
            | Raft -> C.Raft.raft ~leader:0 ()
            | Raft_star -> C.Raft.raft_star ~leader:0 ()
            | _ -> C.Raft.raft_pql ~leader:0 ())
      in
      let cfg = { cfg with C.Raft.params = batched cfg.C.Raft.params } in
      let r = C.Raft.create ?telemetry cfg net in
      C.Raft.start r;
      {
        protocol;
        n;
        fifo_required = fifo_required protocol;
        submit = (fun ~node op k -> C.Raft.submit r ~node op k);
        crash = (fun ~node -> C.Raft.crash r ~node);
        restart = (fun ~node -> C.Raft.restart r ~node);
        leader_hint = (fun () -> C.Raft.leader_of r);
        committed_ops = (fun ~node -> C.Raft.committed_ops r ~node);
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
                   let body =
                     match e.Types.cmd with
                     | Some { Types.op = Types.Put { write_id; _ }; _ } ->
                         Printf.sprintf "V(w%d)" write_id
                     | Some { Types.op = Types.Get _; _ } -> "G"
                     | None -> "-"
                   in
                   Printf.sprintf "%d:%s%s" i body
                     (if i > commit then "!" else ""))
                 (C.Raft.log_entries r ~node)));
        state = (fun ~rename ~node -> C.Raft.dump_state ~rename r ~node);
        mono = (fun ~node -> C.Raft.mono_view r ~node);
        invariant = (fun () -> C.Raft.invariant_violation r);
        raft_peek = Some (fun ~node -> C.Raft.peek r ~node);
      }
  | Mencius ->
      let cfg =
        Option.value ~default:C.Mencius.default_config mencius_config
      in
      let cfg = { cfg with C.Mencius.params = batched cfg.C.Mencius.params } in
      let m = C.Mencius.create ?telemetry cfg net in
      C.Mencius.start m;
      {
        protocol;
        n;
        fifo_required = fifo_required protocol;
        submit = (fun ~node op k -> C.Mencius.submit m ~node op k);
        crash = (fun ~node -> C.Mencius.crash m ~node);
        restart = (fun ~node -> C.Mencius.restart m ~node);
        leader_hint = (fun () -> None);
        committed_ops = (fun ~node -> C.Mencius.committed_ops m ~node);
        digest =
          (fun ~node ->
            Printf.sprintf "commit=%d known=%d slots=%d skips=%d"
              (C.Mencius.commit_frontier m ~node)
              (C.Mencius.known_frontier m ~node)
              (C.Mencius.slot_count m ~node)
              (C.Mencius.skipped_count m ~node));
        dump = (fun ~node -> C.Mencius.dump_slots m ~node);
        state = (fun ~rename ~node -> C.Mencius.dump_state ~rename m ~node);
        mono = (fun ~node -> C.Mencius.mono_view m ~node);
        invariant = (fun () -> C.Mencius.invariant_violation m);
        raft_peek = None;
      }
  | Multipaxos ->
      let cfg =
        Option.value ~default:C.Multipaxos.default_config multipaxos_config
      in
      let cfg =
        { cfg with C.Multipaxos.params = batched cfg.C.Multipaxos.params }
      in
      let mp = C.Multipaxos.create ?telemetry ~leader:0 cfg net in
      C.Multipaxos.start mp;
      {
        protocol;
        n;
        fifo_required = fifo_required protocol;
        submit = (fun ~node op k -> C.Multipaxos.submit mp ~node op k);
        crash = (fun ~node -> C.Multipaxos.crash mp ~node);
        restart = (fun ~node -> C.Multipaxos.restart mp ~node);
        leader_hint = (fun () -> Some (C.Multipaxos.leader_of mp));
        committed_ops = (fun ~node -> C.Multipaxos.committed_ops mp ~node);
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
                 (fun i (op : Types.op) ->
                   match op with
                   | Types.Put { write_id; _ } ->
                       Printf.sprintf "%d:V(w%d)" i write_id
                   | Types.Get _ -> Printf.sprintf "%d:G" i)
                 (C.Multipaxos.committed_ops mp ~node)));
        state = (fun ~rename ~node -> C.Multipaxos.dump_state ~rename mp ~node);
        mono = (fun ~node -> C.Multipaxos.mono_view mp ~node);
        invariant = (fun () -> C.Multipaxos.invariant_violation mp);
        raft_peek = None;
      }
