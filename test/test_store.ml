(* Store agreement: after a quiesced run, every live replica's applied
   store (the [st:] section of its [dump_state]) must equal the key image
   that [Snapshot.of_ops] replays from its [committed_ops], for Raft,
   Mencius and MultiPaxos.  A Mencius replica that has drained must also
   hold no write slot in [key_writes] (the [kw:] section): a slot leaves
   it when it is applied or force-skipped. *)

module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
module Snapshot = Raftpax_netcore.Snapshot
open Raftpax_consensus

type system = {
  submit : node:int -> Types.op -> (Types.reply -> unit) -> unit;
  crash : node:int -> unit;
  committed_ops : node:int -> Types.op list;
  dump_state : node:int -> string;
}

let n = List.length Topology.sites

let make protocol =
  let engine = Engine.create ~seed:7L () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  let net = Net.create engine ~nodes in
  let sys =
    match protocol with
    | `Raft config ->
        let t = Raft.create config net in
        Raft.start t;
        {
          submit = Raft.submit t;
          crash = Raft.crash t;
          committed_ops = Raft.committed_ops t;
          dump_state = (fun ~node -> Raft.dump_state t ~node);
        }
    | `Mencius ->
        let t = Mencius.create Mencius.default_config net in
        Mencius.start t;
        {
          submit = Mencius.submit t;
          crash = Mencius.crash t;
          committed_ops = Mencius.committed_ops t;
          dump_state = (fun ~node -> Mencius.dump_state t ~node);
        }
    | `Multipaxos ->
        let t = Multipaxos.create Multipaxos.default_config net in
        Multipaxos.start t;
        {
          submit = Multipaxos.submit t;
          crash = Multipaxos.crash t;
          committed_ops = Multipaxos.committed_ops t;
          dump_state = (fun ~node -> Multipaxos.dump_state t ~node);
        }
  in
  (engine, net, sys)

(* The text of section [name] in a [dump_state]: from ["|name:"] to the
   next ['|'] or the end. *)
let section name dump =
  let tag = "|" ^ name ^ ":" in
  let lt = String.length tag and ld = String.length dump in
  let rec find i =
    if i + lt > ld then Alcotest.failf "no %s section in %s" tag dump
    else if String.sub dump i lt = tag then i + lt
    else find (i + 1)
  in
  let start = find 0 in
  let stop = Option.value ~default:ld (String.index_from_opt dump start '|') in
  String.sub dump start (stop - start)

let binding s = Scanf.sscanf s "%d=%d%!" (fun k v -> (k, v))

let store_of_dump dump =
  List.filter_map
    (function "" -> None | b -> Some (binding b))
    (String.split_on_char ';' (section "st" dump))

(* The lines after "store" in a snapshot. *)
let image ops =
  let rec after = function
    | "store" :: rest -> rest
    | _ :: rest -> after rest
    | [] -> Alcotest.fail "snapshot has no store section"
  in
  List.filter_map
    (function "" -> None | b -> Some (binding b))
    (after (String.split_on_char '\n' (Snapshot.of_ops ops)))

(* 300 ops over 24 keys (key 0 is Mencius's contended hot key), submitted
   ten at a time at nodes that are up; node 4 crashes half-way when
   [crash].  Returns the number of ops acknowledged. *)
let drive engine sys ~reads ~crash =
  let rng = Random.State.make [| 11 |] in
  let acked = ref 0 in
  for round = 0 to 29 do
    if crash && round = 15 then sys.crash ~node:4;
    for i = 0 to 9 do
      let key = Random.State.int rng 24 in
      let op =
        if reads && Random.State.int rng 3 = 0 then Types.Get { key }
        else Types.Put { key; size = 8; write_id = (10 * round) + i + 1 }
      in
      let node = Random.State.int rng (if crash && round >= 15 then 4 else n) in
      sys.submit ~node op (fun _ -> incr acked)
    done;
    Engine.run engine ~until:(Engine.now engine + 40_000)
  done;
  Engine.run engine ~until:(Engine.now engine + 600_000_000);
  !acked

let protocols =
  [
    ("raft*", `Raft (Raft.raft_star ~leader:0 ()));
    ("raft*-pql", `Raft (Raft.raft_pql ~leader:0 ()));
    ("mencius", `Mencius);
    ("multipaxos", `Multipaxos);
  ]

let test_agreement protocol ~reads ~crash () =
  let engine, _, sys = make protocol in
  let acked = drive engine sys ~reads ~crash in
  if not crash then Alcotest.(check int) "every op acknowledged" 300 acked;
  for node = 0 to (if crash then 3 else n - 1) do
    let dump = sys.dump_state ~node in
    let store = store_of_dump dump in
    Alcotest.(check bool) (Printf.sprintf "node %d applied writes" node) true (store <> []);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "node %d store = committed image" node)
      (image (sys.committed_ops ~node))
      store;
    match protocol with
    | `Mencius ->
        Alcotest.(check string) (Printf.sprintf "node %d kw drained" node) ""
          (section "kw" dump)
    | `Raft _ | `Multipaxos -> ()
  done

(* The owner of slot 4 claims it for a write while cut off, so only it
   holds the value; the others force-skip the slot, and after the heal
   the owner learns the skip from a peer's state.  The write must leave
   the owner's [key_writes] then, though it is never applied. *)
let test_mencius_force_skipped_write () =
  let engine, net, sys = make `Mencius in
  Net.set_partition net (Some (fun a b -> a <> b && (a = 4 || b = 4)));
  sys.submit ~node:4 (Types.Put { key = 80; size = 8; write_id = 800 }) ignore;
  for i = 1 to 8 do
    sys.submit ~node:(i mod 4) (Types.Put { key = 80 + i; size = 8; write_id = 800 + i }) ignore
  done;
  Engine.run engine ~until:(Engine.now engine + 15_000_000);
  Net.set_partition net None;
  Engine.run engine ~until:(Engine.now engine + 60_000_000);
  for node = 0 to n - 1 do
    let dump = sys.dump_state ~node in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "node %d store = committed image" node)
      (image (sys.committed_ops ~node))
      (store_of_dump dump);
    Alcotest.(check string) (Printf.sprintf "node %d kw drained" node) ""
      (section "kw" dump)
  done

let () =
  Alcotest.run "store"
    (List.map
       (fun (name, protocol) ->
         ( name,
           List.map
             (fun (label, reads, crash) ->
               Alcotest.test_case label `Quick (test_agreement protocol ~reads ~crash))
             [
               ("write-only", false, false);
               ("reads and writes", true, false);
               ("node 4 crashed", true, true);
             ] ))
       protocols
    @ [
        ( "mencius force-skip",
          [ Alcotest.test_case "owner drops its skipped write" `Quick
              test_mencius_force_skipped_write ] );
      ])
