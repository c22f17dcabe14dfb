(* Versioned binary encoding for every protocol message and the
   client/peer session frames.  One byte of version, one byte of frame
   tag, then tag-specific fields via Codec; protocol messages carry a
   protocol byte and a constructor tag.  New constructors append new tags
   (additive, existing encodings unchanged); changing an existing tag's
   layout means a version bump — the golden-vector test pins the
   format.  A retired tag decodes as malformed and is never reused:
   Mencius 0, 1 and 3 and MultiPaxos 2, 3 and 4 were the single-command
   replicate/ack/commit layouts, which the list layouts of tags 10-12
   and 7-9 replaced. *)

module Types = Raftpax_consensus.Types
module Raft = Raftpax_consensus.Raft
module Mencius = Raftpax_consensus.Mencius
module Multipaxos = Raftpax_consensus.Multipaxos
module C = Codec

let version = 1

type protocol_msg =
  | Raft_msg of Raft.msg
  | Mencius_msg of Mencius.msg
  | Multipaxos_msg of Multipaxos.msg

type frame =
  | Peer_hello of { node : int }
  | Peer_msg of { src : int; dst : int; msg : protocol_msg }
  | Client_hello
  | Client_req of { req_id : int; op : Types.op }
  | Client_reply of { req_id : int; value : int option }
  | Snapshot_req
  | Snapshot_reply of { node : int; committed : int; snapshot : string }

(* ---- Types.* ---- *)

let put_op w (op : Types.op) =
  match op with
  | Get { key } ->
      C.put_byte w 0;
      C.put_int w key
  | Put { key; size; write_id } ->
      C.put_byte w 1;
      C.put_int w key;
      C.put_int w size;
      C.put_int w write_id

let get_op r : Types.op =
  match C.u8 r with
  | 0 -> Get { key = C.get_int r }
  | 1 ->
      let key = C.get_int r in
      let size = C.get_int r in
      let write_id = C.get_int r in
      Put { key; size; write_id }
  | _ -> C.malformed "op tag"

let put_cmd w (c : Types.cmd) =
  C.put_int w c.id;
  put_op w c.op;
  C.put_int w c.origin;
  C.put_int w c.submitted_us

let get_cmd r : Types.cmd =
  let id = C.get_int r in
  let op = get_op r in
  let origin = C.get_int r in
  let submitted_us = C.get_int r in
  { id; op; origin; submitted_us }

let put_entry w (e : Types.entry) =
  C.put_int w e.term;
  C.put_option put_cmd w e.cmd

let get_entry r : Types.entry =
  let term = C.get_int r in
  let cmd = C.get_option get_cmd r in
  { term; cmd }

let put_reply w (rep : Types.reply) = C.put_option C.put_int w rep.value
let get_reply r : Types.reply = { value = C.get_option C.get_int r }

(* ---- Raft ---- *)

let put_raft w (m : Raft.msg) =
  match m with
  | RequestVote { term; cand; last_idx; last_term } ->
      C.put_byte w 0;
      C.put_int w term;
      C.put_int w cand;
      C.put_int w last_idx;
      C.put_int w last_term
  | Vote { term; from; granted; extras } ->
      C.put_byte w 1;
      C.put_int w term;
      C.put_int w from;
      C.put_bool w granted;
      C.put_list
        (fun w (idx, e, bal) ->
          C.put_int w idx;
          put_entry w e;
          C.put_int w bal)
        w extras
  | Append { term; leader; prev_idx; prev_term; entries; commit } ->
      C.put_byte w 2;
      C.put_int w term;
      C.put_int w leader;
      C.put_int w prev_idx;
      C.put_int w prev_term;
      C.put_list
        (fun w (e, bal) ->
          put_entry w e;
          C.put_int w bal)
        w entries;
      C.put_int w commit
  | Ack { term; from; success; match_idx; holders } ->
      C.put_byte w 3;
      C.put_int w term;
      C.put_int w from;
      C.put_bool w success;
      C.put_int w match_idx;
      C.put_list
        (fun w (holder, deadline) ->
          C.put_int w holder;
          C.put_int w deadline)
        w holders
  | Forward cmd ->
      C.put_byte w 4;
      put_cmd w cmd
  | Complete { cmd_id; reply } ->
      C.put_byte w 5;
      C.put_int w cmd_id;
      put_reply w reply
  | Grant { from; deadline; grantor_last } ->
      C.put_byte w 6;
      C.put_int w from;
      C.put_int w deadline;
      C.put_int w grantor_last
  | GrantConfirm { from; deadline } ->
      C.put_byte w 7;
      C.put_int w from;
      C.put_int w deadline

let get_raft r : Raft.msg =
  match C.u8 r with
  | 0 ->
      let term = C.get_int r in
      let cand = C.get_int r in
      let last_idx = C.get_int r in
      let last_term = C.get_int r in
      RequestVote { term; cand; last_idx; last_term }
  | 1 ->
      let term = C.get_int r in
      let from = C.get_int r in
      let granted = C.get_bool r in
      let extras =
        C.get_list
          (fun r ->
            let idx = C.get_int r in
            let e = get_entry r in
            let bal = C.get_int r in
            (idx, e, bal))
          r
      in
      Vote { term; from; granted; extras }
  | 2 ->
      let term = C.get_int r in
      let leader = C.get_int r in
      let prev_idx = C.get_int r in
      let prev_term = C.get_int r in
      let entries =
        C.get_list
          (fun r ->
            let e = get_entry r in
            let bal = C.get_int r in
            (e, bal))
          r
      in
      let commit = C.get_int r in
      Append { term; leader; prev_idx; prev_term; entries; commit }
  | 3 ->
      let term = C.get_int r in
      let from = C.get_int r in
      let success = C.get_bool r in
      let match_idx = C.get_int r in
      let holders =
        C.get_list
          (fun r ->
            let holder = C.get_int r in
            let deadline = C.get_int r in
            (holder, deadline))
          r
      in
      Ack { term; from; success; match_idx; holders }
  | 4 -> Forward (get_cmd r)
  | 5 ->
      let cmd_id = C.get_int r in
      let reply = get_reply r in
      Complete { cmd_id; reply }
  | 6 ->
      let from = C.get_int r in
      let deadline = C.get_int r in
      let grantor_last = C.get_int r in
      Grant { from; deadline; grantor_last }
  | 7 ->
      let from = C.get_int r in
      let deadline = C.get_int r in
      GrantConfirm { from; deadline }
  | _ -> C.malformed "raft tag"

(* ---- Mencius ---- *)

let put_mencius w (m : Mencius.msg) =
  match m with
  | MSkip { from; first; upto } ->
      C.put_byte w 2;
      C.put_int w from;
      C.put_int w first;
      C.put_int w upto
  | MRevoke { from; inst } ->
      C.put_byte w 4;
      C.put_int w from;
      C.put_int w inst
  | MRevStatus { from; inst; value } ->
      C.put_byte w 5;
      C.put_int w from;
      C.put_int w inst;
      C.put_option put_cmd w value
  | MSkipForce { inst } ->
      C.put_byte w 6;
      C.put_int w inst
  | MCatchup { from } ->
      C.put_byte w 7;
      C.put_int w from
  | MState { slots } ->
      C.put_byte w 8;
      C.put_list
        (fun w (inst, is_skip, value, committed) ->
          C.put_int w inst;
          C.put_bool w is_skip;
          C.put_option put_cmd w value;
          C.put_bool w committed)
        w slots
  | Complete { cmd_id; reply } ->
      C.put_byte w 9;
      C.put_int w cmd_id;
      put_reply w reply
  | MAppend { from; items } ->
      C.put_byte w 10;
      C.put_int w from;
      C.put_list
        (fun w (inst, cmd) ->
          C.put_int w inst;
          put_cmd w cmd)
        w items
  | MAck { from; insts } ->
      C.put_byte w 11;
      C.put_int w from;
      C.put_list C.put_int w insts
  | MCommit { insts } ->
      C.put_byte w 12;
      C.put_list C.put_int w insts

let get_mencius r : Mencius.msg =
  match C.u8 r with
  | 2 ->
      let from = C.get_int r in
      let first = C.get_int r in
      let upto = C.get_int r in
      MSkip { from; first; upto }
  | 4 ->
      let from = C.get_int r in
      let inst = C.get_int r in
      MRevoke { from; inst }
  | 5 ->
      let from = C.get_int r in
      let inst = C.get_int r in
      let value = C.get_option get_cmd r in
      MRevStatus { from; inst; value }
  | 6 -> MSkipForce { inst = C.get_int r }
  | 7 -> MCatchup { from = C.get_int r }
  | 8 ->
      let slots =
        C.get_list
          (fun r ->
            let inst = C.get_int r in
            let is_skip = C.get_bool r in
            let value = C.get_option get_cmd r in
            let committed = C.get_bool r in
            (inst, is_skip, value, committed))
          r
      in
      MState { slots }
  | 9 ->
      let cmd_id = C.get_int r in
      let reply = get_reply r in
      Complete { cmd_id; reply }
  | 10 ->
      let from = C.get_int r in
      let items =
        C.get_list
          (fun r ->
            let inst = C.get_int r in
            let cmd = get_cmd r in
            (inst, cmd))
          r
      in
      MAppend { from; items }
  | 11 ->
      let from = C.get_int r in
      let insts = C.get_list C.get_int r in
      MAck { from; insts }
  | 12 -> MCommit { insts = C.get_list C.get_int r }
  | _ -> C.malformed "mencius tag"

(* ---- MultiPaxos ---- *)

let put_multipaxos w (m : Multipaxos.msg) =
  match m with
  | Prepare { bal; from } ->
      C.put_byte w 0;
      C.put_int w bal;
      C.put_int w from
  | PrepareOk { bal; from; accepted } ->
      C.put_byte w 1;
      C.put_int w bal;
      C.put_int w from;
      C.put_list
        (fun w (inst, bal, value) ->
          C.put_int w inst;
          C.put_int w bal;
          C.put_option put_cmd w value)
        w accepted
  | Forward cmd ->
      C.put_byte w 5;
      put_cmd w cmd
  | Complete { cmd_id; reply } ->
      C.put_byte w 6;
      C.put_int w cmd_id;
      put_reply w reply
  | Accept { bal; from; items } ->
      C.put_byte w 7;
      C.put_int w bal;
      C.put_int w from;
      C.put_list
        (fun w (inst, cmd) ->
          C.put_int w inst;
          C.put_option put_cmd w cmd)
        w items
  | AcceptOk { bal; from; insts } ->
      C.put_byte w 8;
      C.put_int w bal;
      C.put_int w from;
      C.put_list C.put_int w insts
  | Learn { items } ->
      C.put_byte w 9;
      C.put_list
        (fun w (inst, cmd) ->
          C.put_int w inst;
          C.put_option put_cmd w cmd)
        w items

let get_multipaxos r : Multipaxos.msg =
  match C.u8 r with
  | 0 ->
      let bal = C.get_int r in
      let from = C.get_int r in
      Prepare { bal; from }
  | 1 ->
      let bal = C.get_int r in
      let from = C.get_int r in
      let accepted =
        C.get_list
          (fun r ->
            let inst = C.get_int r in
            let bal = C.get_int r in
            let value = C.get_option get_cmd r in
            (inst, bal, value))
          r
      in
      PrepareOk { bal; from; accepted }
  | 5 -> Forward (get_cmd r)
  | 6 ->
      let cmd_id = C.get_int r in
      let reply = get_reply r in
      Complete { cmd_id; reply }
  | 7 ->
      let bal = C.get_int r in
      let from = C.get_int r in
      let items =
        C.get_list
          (fun r ->
            let inst = C.get_int r in
            let cmd = C.get_option get_cmd r in
            (inst, cmd))
          r
      in
      Accept { bal; from; items }
  | 8 ->
      let bal = C.get_int r in
      let from = C.get_int r in
      let insts = C.get_list C.get_int r in
      AcceptOk { bal; from; insts }
  | 9 ->
      let items =
        C.get_list
          (fun r ->
            let inst = C.get_int r in
            let cmd = C.get_option get_cmd r in
            (inst, cmd))
          r
      in
      Learn { items }
  | _ -> C.malformed "multipaxos tag"

(* ---- protocol envelope ---- *)

let put_protocol_msg w = function
  | Raft_msg m ->
      C.put_byte w 0;
      put_raft w m
  | Mencius_msg m ->
      C.put_byte w 1;
      put_mencius w m
  | Multipaxos_msg m ->
      C.put_byte w 2;
      put_multipaxos w m

let get_protocol_msg r =
  match C.u8 r with
  | 0 -> Raft_msg (get_raft r)
  | 1 -> Mencius_msg (get_mencius r)
  | 2 -> Multipaxos_msg (get_multipaxos r)
  | _ -> C.malformed "protocol tag"

(* ---- frames ---- *)

let put_frame w = function
  | Peer_hello { node } ->
      C.put_byte w 0;
      C.put_int w node
  | Peer_msg { src; dst; msg } ->
      C.put_byte w 1;
      C.put_int w src;
      C.put_int w dst;
      put_protocol_msg w msg
  | Client_hello -> C.put_byte w 2
  | Client_req { req_id; op } ->
      C.put_byte w 3;
      C.put_int w req_id;
      put_op w op
  | Client_reply { req_id; value } ->
      C.put_byte w 4;
      C.put_int w req_id;
      C.put_option C.put_int w value
  | Snapshot_req -> C.put_byte w 5
  | Snapshot_reply { node; committed; snapshot } ->
      C.put_byte w 6;
      C.put_int w node;
      C.put_int w committed;
      C.put_string w snapshot

let get_frame r =
  match C.u8 r with
  | 0 -> Peer_hello { node = C.get_int r }
  | 1 ->
      let src = C.get_int r in
      let dst = C.get_int r in
      let msg = get_protocol_msg r in
      Peer_msg { src; dst; msg }
  | 2 -> Client_hello
  | 3 ->
      let req_id = C.get_int r in
      let op = get_op r in
      Client_req { req_id; op }
  | 4 ->
      let req_id = C.get_int r in
      let value = C.get_option C.get_int r in
      Client_reply { req_id; value }
  | 5 -> Snapshot_req
  | 6 ->
      let node = C.get_int r in
      let committed = C.get_int r in
      let snapshot = C.get_string r in
      Snapshot_reply { node; committed; snapshot }
  | _ -> C.malformed "frame tag"

let encode_frame_into w f =
  C.reset w;
  C.put_byte w version;
  put_frame w f

let encode_frame f =
  let w = C.writer () in
  encode_frame_into w f;
  C.to_string w

let decode_frame s =
  C.decode
    (fun r ->
      let v = C.u8 r in
      if v <> version then C.malformed "version";
      get_frame r)
    s
