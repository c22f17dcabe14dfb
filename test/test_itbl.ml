(* Model test for [Itbl], the replicas' int-keyed applied store and
   dedupe sets: every random sequence of [replace]/[find_opt]/[mem] must
   agree with [Stdlib.Hashtbl] step by step, through many resizes, and
   end with the same bindings in the same sorted rendering and the same
   sorted keys. *)

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

let () =
  Alcotest.run "itbl"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest agrees_with_hashtbl;
          Alcotest.test_case "dense key range" `Quick test_dense_range;
          Alcotest.test_case "reserved key" `Quick test_reserved;
        ] );
    ]
