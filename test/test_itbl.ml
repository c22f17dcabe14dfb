(* Model tests for the consensus library's int-keyed tables.  For
   [Itbl], the replicas' applied store and dedupe sets, every random
   sequence of [replace]/[find_opt]/[mem] must agree with
   [Stdlib.Hashtbl] step by step, through many resizes, and end with the
   same bindings in the same sorted rendering and the same sorted keys.
   [Pending], the completion table, is checked the same way under
   removal. *)

open Raftpax_consensus

type op = Replace of int * int | Find of int

let show = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k

(* Small keys collide and overwrite; the edge keys are the hot key 0,
   negatives and the extremes; any other int is fair game except the
   reserved marker, which has its own test. *)
let key =
  QCheck.Gen.(
    map
      (fun k -> if k = Itbl.reserved then 0 else k)
      (frequency
         [
           (4, int_range (-64) 64);
           (3, int);
           (1, oneofl [ 0; -1; max_int; Itbl.reserved + 1; Mencius.hot_key ]);
         ]))

let op =
  QCheck.Gen.(
    frequency
      [ (3, map2 (fun k v -> Replace (k, v)) key int); (2, map (fun k -> Find k) key) ])

let ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show l))
    QCheck.Gen.(list_size (int_range 0 3000) op)

let render bindings =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v)
       (List.sort compare bindings))

let model_render m = render (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])

let agrees_with_hashtbl =
  QCheck.Test.make ~count:300 ~name:"agrees with Stdlib.Hashtbl" ops (fun ops ->
      let t = Itbl.create () and m = Hashtbl.create 16 in
      List.for_all
        (function
          | Replace (k, v) ->
              Itbl.replace t k v;
              Hashtbl.replace m k v;
              Itbl.find_opt t k = Some v
          | Find k ->
              Itbl.find_opt t k = Hashtbl.find_opt m k
              && Itbl.find_or t k ~default:(-7)
                 = Option.value ~default:(-7) (Hashtbl.find_opt m k)
              && Itbl.mem t k = Hashtbl.mem m k)
        ops
      && Itbl.render t = model_render m
      && Itbl.sorted_keys t
         = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) m []))

(* A dense key range, as a workload's [0, records) writes it, through
   sixteen doublings. *)
let test_dense_range () =
  let t = Itbl.create () in
  let n = 1 lsl 18 in
  for k = 0 to n - 1 do
    Itbl.replace t k (3 * k)
  done;
  for k = 0 to n - 1 do
    if Itbl.find_or t k ~default:(-1) <> 3 * k then Alcotest.failf "key %d" k;
    Itbl.replace t k (-k)
  done;
  for k = 0 to n - 1 do
    if Itbl.find_opt t k <> Some (-k) then Alcotest.failf "key %d" k
  done;
  Alcotest.(check (option int)) "absent" None (Itbl.find_opt t n);
  Alcotest.(check (list int)) "keys" (List.init n Fun.id) (Itbl.sorted_keys t);
  Alcotest.(check string)
    "sorted" (render (List.init n (fun k -> (k, -k)))) (Itbl.render t)

let test_reserved () =
  let t = Itbl.create () in
  Itbl.replace t 0 1;
  Alcotest.check_raises "replace raises" (Invalid_argument "Itbl.replace: reserved key")
    (fun () -> Itbl.replace t Itbl.reserved 2);
  Alcotest.(check (option int)) "never found" None (Itbl.find_opt t Itbl.reserved);
  Alcotest.(check bool) "never a member" false (Itbl.mem t Itbl.reserved);
  Alcotest.(check int) "default" 9 (Itbl.find_or t Itbl.reserved ~default:9);
  Alcotest.(check string) "unchanged" "0=1" (Itbl.render t)

(* ---- Pending: the replica base's completion table ---- *)

type pop = Add of int * int | Take of int | Take_twice of int

let show_pop = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Take k -> Printf.sprintf "take %d" k
  | Take_twice k -> Printf.sprintf "take twice %d" k

(* Keys whose hash sets the top six bits: their probe starts at the last
   slot at every capacity up to 64, so a handful of them form one run
   that wraps around to slot 0. *)
let colliding =
  let p = Pending.create ~empty:0 in
  let rec find k acc =
    if List.length acc = 12 then List.rev acc
    else
      find (k + 1)
        (if (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - 6) = 63 then k :: acc
         else acc)
  in
  let keys = find 0 [] in
  assert (List.for_all (fun k -> Pending.home p k = Pending.capacity p - 1) keys);
  keys

let pkey =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl colliding);
        (3, int_range 0 40);
        (1, map (fun k -> if k = min_int then 0 else k) int);
      ])

let pop =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k v -> Add (k, v)) pkey (int_range 1 1000));
        (2, map (fun k -> Take k) pkey);
        (1, map (fun k -> Take_twice k) pkey);
      ])

let pending_agrees =
  QCheck.Test.make ~count:1000 ~name:"Pending agrees with Stdlib.Hashtbl"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_pop l))
       QCheck.Gen.(list_size (int_range 0 300) pop))
    (fun ops ->
      let t = Pending.create ~empty:0 and m = Hashtbl.create 16 in
      let take k =
        let expect = Option.value ~default:0 (Hashtbl.find_opt m k) in
        Hashtbl.remove m k;
        Pending.take t k = expect
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, v) ->
              Pending.replace t k v;
              Hashtbl.replace m k v;
              true
          | Take k -> take k
          | Take_twice k -> take k && take k)
          && Pending.length t = Hashtbl.length m)
        ops
      && List.for_all take (Hashtbl.fold (fun k _ acc -> k :: acc) m []))

(* Four keys that all start at the last of 8 slots fill slots 7, 0, 1
   and 2.  Taking any one of them must leave the other three reachable,
   which needs the entries past the hole shifted back into it. *)
let test_one_run_across_wrap () =
  let four = List.filteri (fun i _ -> i < 4) colliding in
  List.iteri
    (fun gone _ ->
      let t = Pending.create ~empty:(-1) in
      List.iter (fun k -> Pending.replace t k (k + 1)) four;
      Alcotest.(check int) "no growth" 8 (Pending.capacity t);
      let k = List.nth four gone in
      Alcotest.(check int) "taken" (k + 1) (Pending.take t k);
      Alcotest.(check int) "taken once" (-1) (Pending.take t k);
      List.iter
        (fun k' ->
          if k' <> k then Alcotest.(check int) "still there" (k' + 1) (Pending.take t k'))
        four;
      Alcotest.(check int) "empty" 0 (Pending.length t))
    four

let test_pending_reserved () =
  let t = Pending.create ~empty:"" in
  Alcotest.check_raises "replace raises"
    (Invalid_argument "Pending.replace: min_int key") (fun () ->
      Pending.replace t min_int "x");
  Alcotest.(check string) "never found" "" (Pending.take t min_int)

(* Two replicas answer the same command, as an old and a new leader may:
   the second [Complete] finds no callback and runs nothing. *)
type msg = Complete of int * Types.reply

let test_duplicate_complete () =
  let engine = Raftpax_sim.Engine.create () in
  let net =
    Raftpax_sim.Net.create engine
      ~nodes:
        (List.mapi
           (fun i site -> { Raftpax_sim.Net.id = i; site })
           Raftpax_sim.Topology.sites)
  in
  let b = Replica.create ~params:Types.default_params net in
  let arrived = ref None in
  Replica.bind b
    {
      Replica.size = (fun _ -> 16);
      render = (fun _ (Complete (id, _)) -> string_of_int id);
      complete = (fun id reply -> Complete (id, reply));
      handle = (fun dst (Complete (id, reply)) -> Replica.complete b ~node:dst id reply);
      client = (fun _ cmd -> arrived := Some cmd);
      live = (fun _ -> true);
      flush = ignore;
    };
  let calls = ref [] in
  let id =
    Replica.submit_id b ~node:0 (Types.Get { key = 3 }) (fun reply ->
        calls := reply.Types.value :: !calls)
  in
  Raftpax_sim.Engine.run_all engine;
  let cmd = Option.get !arrived in
  Alcotest.(check int) "the submitted command" id cmd.Types.id;
  Replica.reply b ~src:0 cmd { Types.value = Some 1 };
  Replica.reply b ~src:1 cmd { Types.value = Some 2 };
  Replica.complete b ~node:0 (id + 1) { Types.value = Some 3 };
  Raftpax_sim.Engine.run_all engine;
  Alcotest.(check (list (option int))) "called once, by the first" [ Some 1 ] !calls

let () =
  Alcotest.run "itbl"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest agrees_with_hashtbl;
          Alcotest.test_case "dense key range" `Quick test_dense_range;
          Alcotest.test_case "reserved key" `Quick test_reserved;
        ] );
      ( "pending",
        [
          QCheck_alcotest.to_alcotest pending_agrees;
          Alcotest.test_case "one run across the wrap" `Quick
            test_one_run_across_wrap;
          Alcotest.test_case "reserved key" `Quick test_pending_reserved;
          Alcotest.test_case "duplicate Complete calls nothing" `Quick
            test_duplicate_complete;
        ] );
    ]
