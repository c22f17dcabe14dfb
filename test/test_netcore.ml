(* Tests for lib/netcore: codec primitives, wire roundtrips covering
   every message constructor of every protocol, rejection of truncated
   and corrupted input, framing reassembly across arbitrary chunk
   boundaries, and snapshot canonicality.  One example per message
   constructor pins the format: if encoding changes, the pins must be
   bumped consciously together with [Wire.version]. *)

module Codec = Raftpax_netcore.Codec
module Wire = Raftpax_netcore.Wire
module Framing = Raftpax_netcore.Framing
module Snapshot = Raftpax_netcore.Snapshot
module Types = Raftpax_consensus.Types
module Raft = Raftpax_consensus.Raft
module Mencius = Raftpax_consensus.Mencius
module Multipaxos = Raftpax_consensus.Multipaxos

(* ---- generators ---- *)

open QCheck

let gen_op =
  Gen.(
    oneof
      [
        map (fun key -> Types.Get { key }) (int_bound 10_000);
        map3
          (fun key size write_id -> Types.Put { key; size; write_id })
          (int_bound 10_000) (int_bound 4096) (int_bound 1_000_000);
      ])

let gen_cmd =
  Gen.(
    map2
      (fun (id, origin) (op, submitted_us) ->
        { Types.id; op; origin; submitted_us })
      (pair (int_bound 1_000_000) (int_bound 8))
      (pair gen_op (int_bound 100_000_000)))

let gen_entry =
  Gen.(
    map2
      (fun term cmd -> { Types.term; cmd })
      (int_bound 50) (option gen_cmd))

let gen_reply = Gen.(map (fun value -> { Types.value }) (option small_nat))

let gen_raft_msg =
  Gen.(
    oneof
      [
        map
          (fun (term, cand, last_idx, last_term) ->
            Raft.RequestVote { term; cand; last_idx; last_term })
          (quad (int_bound 50) (int_bound 8) (int_bound 1000) (int_bound 50));
        map
          (fun ((term, from, granted), extras) ->
            Raft.Vote { term; from; granted; extras })
          (pair
             (triple (int_bound 50) (int_bound 8) bool)
             (small_list (triple (int_bound 1000) gen_entry (int_bound 50))));
        map
          (fun ((term, leader, prev_idx), (prev_term, entries, commit)) ->
            Raft.Append { term; leader; prev_idx; prev_term; entries; commit })
          (pair
             (triple (int_bound 50) (int_bound 8) (int_bound 1000))
             (triple (int_bound 50)
                (small_list (pair gen_entry (int_bound 50)))
                (int_bound 1000)));
        map
          (fun ((term, from, success), (match_idx, holders)) ->
            Raft.Ack { term; from; success; match_idx; holders })
          (pair
             (triple (int_bound 50) (int_bound 8) bool)
             (pair (int_bound 1000)
                (small_list (pair (int_bound 8) (int_bound 100_000_000)))));
        map (fun c -> Raft.Forward c) gen_cmd;
        map2
          (fun cmd_id reply -> Raft.Complete { cmd_id; reply })
          (int_bound 1_000_000) gen_reply;
        map
          (fun (from, deadline, grantor_last) ->
            Raft.Grant { from; deadline; grantor_last })
          (triple (int_bound 8) (int_bound 100_000_000) (int_bound 1000));
        map2
          (fun from deadline -> Raft.GrantConfirm { from; deadline })
          (int_bound 8) (int_bound 100_000_000);
      ])

let gen_mencius_msg =
  Gen.(
    oneof
      [
        map2
          (fun from items -> Mencius.MAppend { from; items })
          (int_bound 8)
          (small_list (pair (int_bound 1000) gen_cmd));
        map2
          (fun from insts -> Mencius.MAck { from; insts })
          (int_bound 8)
          (small_list (int_bound 1000));
        map
          (fun (from, first, upto) -> Mencius.MSkip { from; first; upto })
          (triple (int_bound 8) (int_bound 1000) (int_bound 1000));
        map
          (fun insts -> Mencius.MCommit { insts })
          (small_list (int_bound 1000));
        map2 (fun from inst -> Mencius.MRevoke { from; inst }) (int_bound 8)
          (int_bound 1000);
        map
          (fun (from, inst, value) -> Mencius.MRevStatus { from; inst; value })
          (triple (int_bound 8) (int_bound 1000) (option gen_cmd));
        map (fun inst -> Mencius.MSkipForce { inst }) (int_bound 1000);
        map (fun from -> Mencius.MCatchup { from }) (int_bound 8);
        map
          (fun slots -> Mencius.MState { slots })
          (small_list
             (quad (int_bound 1000) bool (option gen_cmd) bool));
        map2
          (fun cmd_id reply -> Mencius.Complete { cmd_id; reply })
          (int_bound 1_000_000) gen_reply;
      ])

let gen_multipaxos_msg =
  Gen.(
    oneof
      [
        map2 (fun bal from -> Multipaxos.Prepare { bal; from }) (int_bound 50)
          (int_bound 8);
        map
          (fun (bal, from, accepted) ->
            Multipaxos.PrepareOk { bal; from; accepted })
          (triple (int_bound 50) (int_bound 8)
             (small_list (triple (int_bound 1000) (int_bound 50) (option gen_cmd))));
        map
          (fun (bal, from, items) -> Multipaxos.Accept { bal; from; items })
          (triple (int_bound 50) (int_bound 8)
             (small_list (pair (int_bound 1000) (option gen_cmd))));
        map
          (fun (bal, from, insts) -> Multipaxos.AcceptOk { bal; from; insts })
          (triple (int_bound 50) (int_bound 8) (small_list (int_bound 1000)));
        map
          (fun items -> Multipaxos.Learn { items })
          (small_list (pair (int_bound 1000) (option gen_cmd)));
        map (fun c -> Multipaxos.Forward c) gen_cmd;
        map2
          (fun cmd_id reply -> Multipaxos.Complete { cmd_id; reply })
          (int_bound 1_000_000) gen_reply;
      ])

let gen_protocol_msg =
  Gen.(
    oneof
      [
        map (fun m -> Wire.Raft_msg m) gen_raft_msg;
        map (fun m -> Wire.Mencius_msg m) gen_mencius_msg;
        map (fun m -> Wire.Multipaxos_msg m) gen_multipaxos_msg;
      ])

let gen_frame =
  Gen.(
    oneof
      [
        map (fun node -> Wire.Peer_hello { node }) (int_bound 8);
        map
          (fun (src, dst, msg) -> Wire.Peer_msg { src; dst; msg })
          (triple (int_bound 8) (int_bound 8) gen_protocol_msg);
        return Wire.Client_hello;
        map2
          (fun req_id op -> Wire.Client_req { req_id; op })
          (int_bound 1_000_000) gen_op;
        map2
          (fun req_id value -> Wire.Client_reply { req_id; value })
          (int_bound 1_000_000) (option small_nat);
        return Wire.Snapshot_req;
        map
          (fun (node, committed, snapshot) ->
            Wire.Snapshot_reply { node; committed; snapshot })
          (triple (int_bound 8) (int_bound 100_000) (small_string ~gen:Gen.char));
      ])

let arb_frame = make ~print:(fun _ -> "<frame>") gen_frame

(* ---- codec primitives ---- *)

let int_roundtrip =
  Test.make ~name:"codec int zigzag roundtrip" ~count:500 int (fun v ->
      let w = Codec.writer () in
      Codec.put_int w v;
      Codec.decode Codec.get_int (Codec.to_string w) = Ok v)

let test_int_extremes () =
  List.iter
    (fun v ->
      let w = Codec.writer () in
      Codec.put_int w v;
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %d" v)
        true
        (Codec.decode Codec.get_int (Codec.to_string w) = Ok v))
    [ 0; 1; -1; 63; -64; max_int; min_int; 1 lsl 40; -(1 lsl 40) ]

let string_roundtrip =
  Test.make ~name:"codec string roundtrip" ~count:200
    (string_gen Gen.char)
    (fun s ->
      let w = Codec.writer () in
      Codec.put_string w s;
      Codec.decode Codec.get_string (Codec.to_string w) = Ok s)

let test_trailing_rejected () =
  let w = Codec.writer () in
  Codec.put_int w 42;
  let s = Codec.to_string w ^ "\x00" in
  Alcotest.(check bool)
    "trailing byte rejected" true
    (match Codec.decode Codec.get_int s with Error _ -> true | Ok _ -> false)

(* ---- wire roundtrips and rejection ---- *)

let frame_roundtrip =
  Test.make ~name:"wire frame roundtrip" ~count:500 arb_frame (fun f ->
      Wire.decode_frame (Wire.encode_frame f) = Ok f)

let frame_truncation =
  (* Every strict prefix of a valid encoding must be rejected, never
     silently decoded as something shorter. *)
  Test.make ~name:"wire strict prefixes rejected" ~count:100 arb_frame
    (fun f ->
      let s = Wire.encode_frame f in
      let ok = ref true in
      for len = 0 to String.length s - 1 do
        match Wire.decode_frame (String.sub s 0 len) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

let test_bad_version () =
  let s = Wire.encode_frame Wire.Client_hello in
  let b = Bytes.of_string s in
  Bytes.set b 0 (Char.chr (Wire.version + 1));
  Alcotest.(check bool)
    "wrong version rejected" true
    (match Wire.decode_frame (Bytes.to_string b) with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool)
    "garbage rejected" true
    (match Wire.decode_frame "\xff\xfe\xfd\xfc" with
    | Error _ -> true
    | Ok _ -> false)

(* ---- the example table ----

   One example frame per message constructor of every protocol, each
   pinned to its bytes.  Any hex changing here is a wire-format break:
   bump [Wire.version] and regenerate the table by running this binary
   with GOLDEN_REGEN=1, which prints the rows and exits.

   Each core's examples are a record with one field per constructor,
   and [raft_row], [mencius_row] and [multipaxos_row] map every message
   to its constructor's field.  Warnings are errors, so a new
   constructor does not compile until it gets an arm there; the arm
   needs a new field, the record literal then needs its example, and
   the list of rows must bind every field (warning 9).  The tests below
   then demand that the example round-trips, that the decoder accepts
   exactly the example tags, that the QCheck generators build every
   constructor, and that each core has a replicate, an ack and a commit
   message.  That every message is dispatched needs no test: each
   core's [handle] is an exhaustive match, and detlint's
   wildcard-message-match bans catch-alls there. *)

type role = Replicates | Acks | Commits

(* An example: its wire tag, its Section-4 roles and its pinned bytes. *)
type row = {
  tag : int;
  roles : role list;
  msg : Wire.protocol_msg;
  frame : Wire.frame;
  hex : string;
}

let peer ?(src = 1) msg = Wire.Peer_msg { src; dst = 2; msg }

let row ?(roles = []) ?src tag msg hex =
  { tag; roles; msg; frame = peer ?src msg; hex }

let sample_cmd =
  {
    Types.id = 7;
    op = Types.Put { key = 5; size = 8; write_id = 3 };
    origin = 1;
    submitted_us = 900;
  }

let sample_get =
  { Types.id = 8; op = Types.Get { key = 5 }; origin = 2; submitted_us = 901 }

let sample_entry = { Types.term = 2; cmd = Some sample_cmd }
let sample_reply = { Types.value = Some 4 }

type raft_examples = {
  request_vote : row;
  vote : row;
  append : row;
  ack : row;
  forward : row;
  complete : row;
  grant : row;
  grant_confirm : row;
}

let raft_row (t : raft_examples) : Raft.msg -> row = function
  | RequestVote _ -> t.request_vote
  | Vote _ -> t.vote
  | Append _ -> t.append
  | Ack _ -> t.ack
  | Forward _ -> t.forward
  | Complete _ -> t.complete
  | Grant _ -> t.grant
  | GrantConfirm _ -> t.grant_confirm

let raft_rows
    ({ request_vote; vote; append; ack; forward; complete; grant; grant_confirm }
      : raft_examples) =
  [ request_vote; vote; append; ack; forward; complete; grant; grant_confirm ]
[@@warning "+9"]

let raft_examples : raft_examples =
  let row ?roles tag m = row ?roles tag (Wire.Raft_msg m) in
  {
    request_vote =
      row 0
        (RequestVote { term = 3; cand = 1; last_idx = 7; last_term = 2 })
        "01010204000006020e04";
    vote =
      row 1
        (Vote
           {
             term = 3;
             from = 1;
             granted = true;
             extras = [ (5, sample_entry, 2) ];
           })
        "010102040001060201010a04010e010a100602880e04";
    append =
      (* the commit index rides on every Append *)
      row 2 ~roles:[ Replicates; Commits ]
        (Append
           {
             term = 3;
             leader = 1;
             prev_idx = 7;
             prev_term = 2;
             entries =
               [
                 ( {
                     Types.term = 3;
                     cmd =
                       Some
                         {
                           Types.id = 41;
                           op = Types.Put { key = 5; size = 8; write_id = 9 };
                           origin = 1;
                           submitted_us = 1500;
                         };
                   },
                   3 );
               ];
             commit = 6;
           })
        "01010204000206020e0401060152010a101202b817060c";
    ack =
      row 3 ~roles:[ Acks ]
        (Ack
           {
             term = 3;
             from = 2;
             success = true;
             match_idx = 7;
             holders = [ (1, 900) ];
           })
        "0101020400030604010e0102880e";
    forward = row 4 (Forward sample_cmd) "0101020400040e010a100602880e";
    complete =
      row 5 (Complete { cmd_id = 7; reply = sample_reply }) "0101020400050e0108";
    grant =
      row 6
        (Grant { from = 0; deadline = 5_000; grantor_last = 7 })
        "01010204000600904e0e";
    grant_confirm =
      row 7 (GrantConfirm { from = 1; deadline = 5_000 }) "01010204000702904e";
  }

type mencius_examples = {
  mskip : row;
  mrevoke : row;
  mrev_status : row;
  mskip_force : row;
  mcatchup : row;
  mstate : row;
  complete : row;
  mappend : row;
  mack : row;
  mcommit : row;
}

let mencius_row (t : mencius_examples) : Mencius.msg -> row = function
  | MSkip _ -> t.mskip
  | MRevoke _ -> t.mrevoke
  | MRevStatus _ -> t.mrev_status
  | MSkipForce _ -> t.mskip_force
  | MCatchup _ -> t.mcatchup
  | MState _ -> t.mstate
  | Complete _ -> t.complete
  | MAppend _ -> t.mappend
  | MAck _ -> t.mack
  | MCommit _ -> t.mcommit

let mencius_rows
    ({
       mskip;
       mrevoke;
       mrev_status;
       mskip_force;
       mcatchup;
       mstate;
       complete;
       mappend;
       mack;
       mcommit;
     }
      : mencius_examples) =
  [
    mskip;
    mrevoke;
    mrev_status;
    mskip_force;
    mcatchup;
    mstate;
    complete;
    mappend;
    mack;
    mcommit;
  ]
[@@warning "+9"]

let mencius_examples : mencius_examples =
  let row ?roles tag m = row ?roles tag (Wire.Mencius_msg m) in
  {
    mskip = row 2 (MSkip { from = 1; first = 4; upto = 7 }) "01010204010202080e";
    mrevoke = row 4 (MRevoke { from = 0; inst = 5 }) "010102040104000a";
    mrev_status =
      row 5
        (MRevStatus { from = 2; inst = 5; value = Some sample_cmd })
        "010102040105040a010e010a100602880e";
    mskip_force = row 6 (MSkipForce { inst = 5 }) "0101020401060a";
    mcatchup = row 7 (MCatchup { from = 2 }) "01010204010704";
    mstate =
      row 8
        (MState
           {
             slots = [ (4, true, Some sample_cmd, false); (5, false, None, true) ];
           })
        "010102040108020801010e010a100602880e000a000001";
    complete =
      row 9 (Complete { cmd_id = 7; reply = sample_reply }) "0101020401090e0108";
    mappend =
      row 10 ~roles:[ Replicates ]
        (MAppend { from = 1; items = [ (4, sample_cmd); (5, sample_get) ] })
        "01010204010a0202080e010a100602880e0a10000a048a0e";
    mack =
      row 11 ~roles:[ Acks ]
        (MAck { from = 2; insts = [ 4; 5 ] })
        "01010204010b0402080a";
    mcommit =
      row 12 ~roles:[ Commits ]
        (MCommit { insts = [ 4; 5 ] })
        "01010204010c02080a";
  }

type multipaxos_examples = {
  prepare : row;
  prepare_ok : row;
  forward : row;
  complete : row;
  accept : row;
  accept_ok : row;
  learn : row;
}

let multipaxos_row (t : multipaxos_examples) : Multipaxos.msg -> row = function
  | Prepare _ -> t.prepare
  | PrepareOk _ -> t.prepare_ok
  | Forward _ -> t.forward
  | Complete _ -> t.complete
  | Accept _ -> t.accept
  | AcceptOk _ -> t.accept_ok
  | Learn _ -> t.learn

let multipaxos_rows
    ({ prepare; prepare_ok; forward; complete; accept; accept_ok; learn }
      : multipaxos_examples) =
  [ prepare; prepare_ok; forward; complete; accept; accept_ok; learn ]
[@@warning "+9"]

let multipaxos_examples : multipaxos_examples =
  let row ?roles ?src tag m = row ?roles ?src tag (Wire.Multipaxos_msg m) in
  {
    prepare = row 0 (Prepare { bal = 3; from = 1 }) "0101020402000602";
    prepare_ok =
      row 1
        (PrepareOk
           { bal = 3; from = 1; accepted = [ (4, 2, Some sample_cmd) ] })
        "0101020402010602010804010e010a100602880e";
    forward = row 5 (Forward sample_get) "01010204020510000a048a0e";
    complete =
      row 6 (Complete { cmd_id = 8; reply = sample_reply }) "010102040206100108";
    accept =
      (* An unbatched Accept is the same layout with one item. *)
      row 7 ~roles:[ Replicates ] ~src:0
        (Accept
           {
             bal = 4;
             from = 0;
             items =
               [
                 ( 11,
                   Some
                     {
                       Types.id = 7;
                       op = Types.Put { key = 5; size = 8; write_id = 3 };
                       origin = 0;
                       submitted_us = 900;
                     } );
                 (12, None);
               ];
           })
        "01010004020708000216010e010a100600880e1800";
    accept_ok =
      row 8 ~roles:[ Acks ]
        (AcceptOk { bal = 3; from = 2; insts = [ 4; 5 ] })
        "010102040208060402080a";
    learn =
      row 9 ~roles:[ Commits ]
        (Learn { items = [ (4, Some sample_cmd); (5, None) ] })
        "0101020402090208010e010a100602880e0a00";
  }

(* The example of a message's constructor. *)
let row_of = function
  | Wire.Raft_msg m -> raft_row raft_examples m
  | Wire.Mencius_msg m -> mencius_row mencius_examples m
  | Wire.Multipaxos_msg m -> multipaxos_row multipaxos_examples m

(* Protocol byte, the decoder's name for it, and its examples. *)
let protocols =
  [
    (0, "raft", raft_rows raft_examples);
    (1, "mencius", mencius_rows mencius_examples);
    (2, "multipaxos", multipaxos_rows multipaxos_examples);
  ]

let hex_of s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (String.to_seq s))))

let row_name pname r = Printf.sprintf "%s tag %d" pname r.tag

(* Each example encodes to its pinned bytes, carries its protocol byte
   and tag at offsets 4 and 5 (src and dst are one-byte varints),
   decodes back, and sits in its own constructor's field; no tag has two
   examples. *)
let test_examples () =
  List.iter
    (fun (proto, pname, rows) ->
      List.iter
        (fun r ->
          let name = row_name pname r in
          let bytes = Wire.encode_frame r.frame in
          Alcotest.(check string) (name ^ " bytes") r.hex (hex_of bytes);
          Alcotest.(check (pair int int))
            (name ^ " encoded tag") (proto, r.tag)
            (Char.code bytes.[4], Char.code bytes.[5]);
          Alcotest.(check bool)
            (name ^ " decodes") true
            (Wire.decode_frame bytes = Ok r.frame);
          Alcotest.(check bool)
            (name ^ " is its constructor's example") true
            (row_of r.msg == r))
        rows;
      let tags = List.map (fun r -> r.tag) rows in
      Alcotest.(check int)
        (pname ^ ": one example per tag") (List.length tags)
        (List.length (List.sort_uniq compare tags)))
    protocols

(* The tags the decoder accepts are exactly the examples' tags.  A tag is
   dead when a frame carrying it, with no fields, decodes as
   [Malformed "<proto> tag"]; a live tag fails later, on the missing
   fields. *)
let live_tags proto pname =
  List.filter
    (fun tag ->
      (* version, Peer_msg, src 1, dst 2, protocol, tag *)
      let frame =
        String.of_seq
          (List.to_seq (List.map Char.chr [ Wire.version; 1; 2; 4; proto; tag ]))
      in
      Wire.decode_frame frame <> Error (Codec.Malformed (pname ^ " tag")))
    (List.init 256 Fun.id)

let test_decoder_tags () =
  List.iter
    (fun (proto, pname, rows) ->
      Alcotest.(check (list int))
        (pname ^ " decoded tags")
        (List.sort compare (List.map (fun r -> r.tag) rows))
        (live_tags proto pname))
    protocols

(* The QCheck generators build every constructor, so the roundtrip
   properties above face each one: a fixed-seed draw reaches every
   example's field, and every drawn message encodes under the tag of the
   field it maps to. *)
let test_generators () =
  let rand = Random.State.make [| 21 |] in
  let drawn = List.init 2000 (fun _ -> gen_protocol_msg rand) in
  let misfiled =
    List.filter
      (fun m -> Char.code (Wire.encode_frame (peer m)).[5] <> (row_of m).tag)
      drawn
  in
  Alcotest.(check int) "messages encoded under another tag" 0
    (List.length misfiled);
  let reached = List.map row_of drawn in
  List.iter
    (fun (_, pname, rows) ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (row_name pname r ^ " generated")
            true (List.memq r reached))
        rows)
    protocols

(* The single-command replicate/ack/commit tags (Mencius 0, 1, 3 and
   MultiPaxos 2, 3, 4) are retired: a peer still sending one must get a
   decode error, never a message reinterpreted under a new layout.  Each
   tag is dead, and a well-formed old encoding (version, Peer_msg, src,
   dst, protocol byte, the retired tag, then small int fields) is
   rejected. *)
let test_retired_tags () =
  List.iter
    (fun (proto, pname, tags) ->
      let live = live_tags proto pname in
      List.iter
        (fun tag ->
          Alcotest.(check bool)
            (Printf.sprintf "%s tag %d stays retired" pname tag)
            false (List.mem tag live))
        tags)
    [ (1, "mencius", [ 0; 1; 3 ]); (2, "multipaxos", [ 2; 3; 4 ]) ];
  List.iter
    (fun (name, proto, tag, fields) ->
      let w = Codec.writer () in
      Codec.put_byte w Wire.version;
      Codec.put_byte w 1 (* Peer_msg *);
      Codec.put_int w 1;
      Codec.put_int w 2;
      Codec.put_byte w proto;
      Codec.put_byte w tag;
      List.iter (Codec.put_int w) fields;
      Alcotest.(check bool)
        (name ^ " rejected") true
        (match Wire.decode_frame (Codec.to_string w) with
        | Error _ -> true
        | Ok _ -> false))
    [
      (* MAppend {from; inst; cmd = Get 5} *)
      ("mencius tag 0", 1, 0, [ 1; 4; 8; 0; 5; 2; 901 ]);
      ("mencius tag 1", 1, 1, [ 2; 4 ]);
      ("mencius tag 3", 1, 3, [ 4 ]);
      (* Accept {bal; from; inst; cmd = None} *)
      ("multipaxos tag 2", 2, 2, [ 3; 1; 4; 0 ]);
      ("multipaxos tag 3", 2, 3, [ 3; 2; 4 ]);
      ("multipaxos tag 4", 2, 4, [ 4; 0 ]);
    ]

(* Every core carries the family's replicate, ack and commit roles. *)
let test_roles () =
  List.iter
    (fun (_, pname, rows) ->
      let roles = List.concat_map (fun r -> r.roles) rows in
      List.iter
        (fun (role, rname) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has a %s message" pname rname)
            true (List.mem role roles))
        [ (Replicates, "replicate"); (Acks, "ack"); (Commits, "commit") ])
    protocols

(* The single-allocation send path must be byte-equivalent to the
   allocating one: encoding into a reused writer then framing it with
   [Framing.encode_writer] yields the same stream as [Framing.encode
   (Wire.encode_frame f)] — for every frame, reusing one writer across
   the whole sequence. *)
let writer_equivalence =
  Test.make ~name:"encode_writer equals encode o encode_frame" ~count:200
    (QCheck.make (Gen.small_list gen_frame))
    (fun frames ->
      let scratch = Codec.writer_sized 64 in
      List.for_all
        (fun f ->
          Wire.encode_frame_into scratch f;
          String.equal
            (Framing.encode_writer scratch)
            (Framing.encode (Wire.encode_frame f)))
        frames)

(* ---- framing ---- *)

let framing_chunks =
  (* Concatenate several framed payloads, split the byte stream at
     arbitrary boundaries, and check the reassembler returns exactly the
     original payloads in order. *)
  Test.make ~name:"framing reassembly at arbitrary boundaries" ~count:200
    (pair (small_list (string_gen Gen.char)) (list_of_size (Gen.int_bound 20) small_nat))
    (fun (payloads, cuts) ->
      let stream = String.concat "" (List.map Framing.encode payloads) in
      let n = String.length stream in
      let cuts = List.sort_uniq Int.compare (List.filter (fun c -> c > 0 && c < n) cuts) in
      let chunks =
        let rec go start = function
          | [] -> if start < n then [ String.sub stream start (n - start) ] else []
          | c :: rest -> String.sub stream start (c - start) :: go c rest
        in
        go 0 cuts
      in
      let r = Framing.reassembler () in
      let got =
        List.concat_map
          (fun chunk ->
            match Framing.feed r chunk with
            | Ok fs -> fs
            | Error (Framing.Frame_too_large _) -> [])
          chunks
      in
      got = payloads && Framing.buffered r = 0)

let test_frame_too_large () =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int Framing.max_frame);
  let r = Framing.reassembler () in
  Alcotest.(check bool)
    "oversized length poisons the stream" true
    (match Framing.feed r (Bytes.to_string b) with
    | Error (Framing.Frame_too_large _) -> true
    | Ok _ -> false)

(* ---- snapshots ---- *)

let test_snapshot_canonical () =
  let put key write_id = Types.Put { key; size = 8; write_id } in
  let ops = [ put 3 1; put 1 2; put 3 3 ] in
  let a = Snapshot.of_ops ops and b = Snapshot.of_ops ops in
  Alcotest.(check string) "deterministic" a b;
  Alcotest.(check bool)
    "order-sensitive" true
    (not (String.equal a (Snapshot.of_ops [ put 1 2; put 3 1; put 3 3 ])));
  (* final image: key 3 keeps the last write in commit order *)
  Alcotest.(check bool) "last write wins" true
    (let rec contains_sub s sub i =
       i + String.length sub <= String.length s
       && (String.equal (String.sub s i (String.length sub)) sub
          || contains_sub s sub (i + 1))
     in
     contains_sub a "3=3" 0);
  Alcotest.(check string)
    "digest stable" (Snapshot.digest a) (Snapshot.digest b)

(* GOLDEN_REGEN=1 prints the example rows (tag and current hex) and
   exits, for conscious regeneration after a format break. *)
let () =
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | None -> ()
  | Some _ ->
      List.iter
        (fun (_, pname, rows) ->
          List.iter
            (fun r ->
              Printf.printf "%s %s\n" (row_name pname r)
                (hex_of (Wire.encode_frame r.frame)))
            rows)
        protocols;
      exit 0

let () =
  Alcotest.run "netcore"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest int_roundtrip;
          QCheck_alcotest.to_alcotest string_roundtrip;
          Alcotest.test_case "int extremes" `Quick test_int_extremes;
          Alcotest.test_case "trailing bytes rejected" `Quick
            test_trailing_rejected;
        ] );
      ( "wire",
        [
          QCheck_alcotest.to_alcotest frame_roundtrip;
          QCheck_alcotest.to_alcotest frame_truncation;
          Alcotest.test_case "version and garbage rejected" `Quick
            test_bad_version;
          Alcotest.test_case "examples (one per tag)" `Quick test_examples;
          Alcotest.test_case "decoded tags are the example tags" `Quick
            test_decoder_tags;
          Alcotest.test_case "generators build every constructor" `Quick
            test_generators;
          Alcotest.test_case "retired tags rejected" `Quick test_retired_tags;
          Alcotest.test_case "replicate, ack and commit per core" `Quick
            test_roles;
          QCheck_alcotest.to_alcotest writer_equivalence;
        ] );
      ( "framing",
        [
          QCheck_alcotest.to_alcotest framing_chunks;
          Alcotest.test_case "frame too large" `Quick test_frame_too_large;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "canonical form" `Quick test_snapshot_canonical ] );
    ]
