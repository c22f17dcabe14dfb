open Raftpax_kvstore
module Types = Raftpax_consensus.Types

let put key write_id = Types.Put { key; size = 8; write_id }

let order = [ put 1 10; put 2 20; put 1 11; put 1 12 ]

let wc write_id key at_us = Lin_check.Write_complete { write_id; key; at_us }
let rd key started_us returned = Lin_check.Read { key; started_us; returned }

let check events = Lin_check.check ~committed_order:order events

let test_fresh_read_ok () =
  let r = check [ wc 10 1 100; rd 1 200 (Some 10) ] in
  Alcotest.(check int) "checked" 1 r.Lin_check.reads_checked;
  Alcotest.(check int) "no violations" 0 (List.length r.Lin_check.violations)

let test_newer_than_required_ok () =
  (* returning a newer (committed) write than the acknowledged floor is
     fine — the read linearizes later *)
  let r = check [ wc 10 1 100; rd 1 200 (Some 12) ] in
  Alcotest.(check int) "no violations" 0 (List.length r.Lin_check.violations)

let test_stale_read_flagged () =
  let r = check [ wc 10 1 100; wc 11 1 150; rd 1 200 (Some 10) ] in
  Alcotest.(check int) "stale flagged" 1 (List.length r.Lin_check.violations);
  let v = List.hd r.Lin_check.violations in
  Alcotest.(check int) "expected write" 11 v.Lin_check.v_expected_after

let test_phantom_value_flagged () =
  (* a value that was never committed *)
  let r = check [ rd 1 50 (Some 999) ] in
  Alcotest.(check int) "phantom flagged" 1 (List.length r.Lin_check.violations)

let test_none_after_write_flagged () =
  let r = check [ wc 10 1 100; rd 1 200 None ] in
  Alcotest.(check int) "missing write flagged" 1 (List.length r.Lin_check.violations)

let test_none_before_any_write_ok () =
  let r = check [ rd 7 50 None ] in
  Alcotest.(check int) "empty key ok" 0 (List.length r.Lin_check.violations)

let test_concurrent_write_not_required () =
  (* write completes after the read started: the read may miss it *)
  let r = check [ wc 10 1 300; rd 1 200 None ] in
  Alcotest.(check int) "concurrent ok" 0 (List.length r.Lin_check.violations)

let test_per_key_isolation () =
  (* a write on key 2 does not constrain reads of key 1 *)
  let r = check [ wc 20 2 100; rd 1 200 None ] in
  Alcotest.(check int) "keys independent" 0 (List.length r.Lin_check.violations)

let test_order_beats_completion_time () =
  (* completion times can invert the log order across origins; the log
     order is authoritative: seeing write 12 (later in log) is fine even
     if write 11 completed later in wall time *)
  let r = check [ wc 12 1 100; wc 11 1 150; rd 1 200 (Some 12) ] in
  Alcotest.(check int) "log order respected" 0 (List.length r.Lin_check.violations)

let test_concurrent_window_overlap () =
  (* two writes whose submission windows overlap: w11 completes at 150,
     w12 at 180.  A read inside both windows (started 120) may return
     either or nothing; a read after both completions must be at least as
     new as the later one in the log. *)
  let events t ret =
    [ wc 11 1 150; wc 12 1 180; rd 1 t ret ]
  in
  List.iter
    (fun ret ->
      let r = check (events 120 ret) in
      Alcotest.(check int) "overlap read unconstrained" 0
        (List.length r.Lin_check.violations))
    [ None; Some 11; Some 12 ];
  let r = check (events 200 (Some 12)) in
  Alcotest.(check int) "post-overlap fresh ok" 0 (List.length r.Lin_check.violations);
  let r = check (events 200 (Some 11)) in
  Alcotest.(check int) "post-overlap stale flagged" 1
    (List.length r.Lin_check.violations)

let test_duplicate_write_ids () =
  (* an at-least-once protocol can append the same client op twice; the
     oracle must not produce a false alarm: the later occurrence is the
     one that sticks in the applied state. *)
  let dup_order = [ put 1 10; put 1 11; put 1 10 ] in
  let check events = Lin_check.check ~committed_order:dup_order events in
  let r = check [ wc 10 1 100; wc 11 1 150; rd 1 200 (Some 10) ] in
  Alcotest.(check int) "dup id resolves to latest position" 0
    (List.length r.Lin_check.violations);
  (* and the duplicate really is authoritative: w11 is now stale *)
  let r = check [ wc 10 1 100; wc 11 1 150; rd 1 200 (Some 11) ] in
  Alcotest.(check int) "older id behind the dup flagged" 1
    (List.length r.Lin_check.violations)

let test_non_linearizable_history_rejected () =
  (* a classic non-linearizable interleaving: client A's write is
     acknowledged, client B then reads the older value, while a third
     read sees a value that never committed at all *)
  let events =
    [
      wc 10 1 100;
      rd 1 120 (Some 10);
      wc 11 1 140;
      rd 1 160 (Some 10) (* stale: w11 acked at 140 *);
      rd 1 180 (Some 77) (* phantom: 77 never committed *);
      rd 1 200 (Some 12) (* fresh again *);
    ]
  in
  let r = check events in
  Alcotest.(check int) "all reads checked" 4 r.Lin_check.reads_checked;
  Alcotest.(check int) "both bad reads flagged" 2
    (List.length r.Lin_check.violations)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pp_violation () =
  let r = check [ wc 10 1 100; rd 1 200 (Some 10); wc 11 1 150; rd 1 300 (Some 10) ] in
  List.iter
    (fun v ->
      let s = Fmt.str "%a" Lin_check.pp_violation v in
      Alcotest.(check bool) "message mentions the key" true
        (contains s "key 1"))
    r.Lin_check.violations

(* ---- differential test against the quadratic reference ---- *)

(* The quadratic oracle, in which every read rescans all acknowledged
   writes of its key: the model that [Lin_check]'s prefix-max floors
   must agree with. *)
module Reference = struct
  open Lin_check

  let check ~committed_order events =
    (* position of each committed write in its key's order *)
    let position : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
    let by_position : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
    List.iteri
      (fun pos op ->
        match op with
        | Types.Put { key; write_id; _ } ->
            Hashtbl.replace position (key, write_id) pos;
            Hashtbl.replace by_position (key, pos) write_id
        | Types.Get _ -> ())
      committed_order;
    (* acknowledged writes per key, with completion times *)
    let acknowledged : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (function
        | Write_complete { write_id; key; at_us } ->
            let cell =
              match Hashtbl.find_opt acknowledged key with
              | Some cell -> cell
              | None ->
                  let cell = ref [] in
                  Hashtbl.replace acknowledged key cell;
                  cell
            in
            cell := (write_id, at_us) :: !cell
        | Read _ -> ())
      events;
    let reads_checked = ref 0 in
    let violations = ref [] in
    List.iter
      (function
        | Write_complete _ -> ()
        | Read { key; started_us; returned } ->
            incr reads_checked;
            (* the freshest acknowledged-and-committed write before the read *)
            let floor_pos = ref (-1) in
            (match Hashtbl.find_opt acknowledged key with
            | None -> ()
            | Some cell ->
                List.iter
                  (fun (write_id, done_us) ->
                    if done_us <= started_us then
                      match Hashtbl.find_opt position (key, write_id) with
                      | Some pos when pos > !floor_pos -> floor_pos := pos
                      | _ -> ())
                  !cell);
            let ret_pos =
              match returned with
              | None -> -1
              | Some id -> (
                  match Hashtbl.find_opt position (key, id) with
                  | Some pos -> pos
                  | None -> -2 (* returned a value that was never committed *))
            in
            if ret_pos = -2 || ret_pos < !floor_pos then
              violations :=
                {
                  v_key = key;
                  v_returned = returned;
                  v_expected_after =
                    Option.value ~default:(-1)
                      (Hashtbl.find_opt by_position (key, !floor_pos));
                  v_started_us = started_us;
                }
                :: !violations)
      events;
    { reads_checked = !reads_checked; violations = List.rev !violations }
end

(* Few keys, few write ids and a short clock, so histories are dense in
   duplicate ids, reads of unwritten keys, uncommitted and [None]
   returns, and reads that start exactly when a write completes.  The
   events come in any order, so completion times are unsorted. *)
let key_gen = QCheck.Gen.int_range 0 3
let id_gen = QCheck.Gen.int_range 0 7
let time_gen = QCheck.Gen.int_range 0 12

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun key write_id -> put key write_id) key_gen id_gen);
        (1, map (fun key -> Types.Get { key }) key_gen);
      ])

let event_gen =
  QCheck.Gen.(
    frequency
      [
        (1, map3 (fun id key t -> wc id key t) id_gen key_gen time_gen);
        ( 1,
          map3
            (fun key t ret -> rd key t ret)
            (int_range 0 4) time_gen
            (frequency [ (1, return None); (4, map Option.some (int_range 0 9)) ]) );
      ])

let show_op = function
  | Types.Put { key; write_id; _ } -> Printf.sprintf "put k%d w%d" key write_id
  | Types.Get { key } -> Printf.sprintf "get k%d" key

let show_event = function
  | Lin_check.Write_complete { write_id; key; at_us } ->
      Printf.sprintf "wc w%d k%d @%d" write_id key at_us
  | Lin_check.Read { key; started_us; returned } ->
      Printf.sprintf "rd k%d @%d -> %s" key started_us
        (match returned with None -> "none" | Some id -> string_of_int id)

let show_list show l = "[" ^ String.concat "; " (List.map show l) ^ "]"

let history =
  QCheck.make
    ~print:(fun (order, events) ->
      show_list show_op order ^ " / " ^ show_list show_event events)
    QCheck.Gen.(
      pair (list_size (int_range 0 16) op_gen) (list_size (int_range 0 24) event_gen))

let agrees_with_reference =
  QCheck.Test.make ~count:2000 ~name:"check equals the quadratic reference" history
    (fun (committed_order, events) ->
      Lin_check.check ~committed_order events
      = Reference.check ~committed_order events)

let event_key = function
  | Lin_check.Write_complete { key; _ } | Lin_check.Read { key; _ } -> key

let sharded_history =
  QCheck.make
    ~print:(fun (orders, events) ->
      String.concat " | " (List.map (show_list show_op) orders)
      ^ " / " ^ show_list show_event events)
    QCheck.Gen.(
      pair
        (list_size (int_range 1 3) (list_size (int_range 0 12) op_gen))
        (list_size (int_range 0 24) event_gen))

let sharded_is_per_group =
  QCheck.Test.make ~count:1000 ~name:"check_sharded equals check per slice"
    sharded_history (fun (orders, events) ->
      let committed_orders = Array.of_list orders in
      let group_of_key key = key mod Array.length committed_orders in
      Lin_check.check_sharded ~committed_orders ~group_of_key events
      = Array.mapi
          (fun g order ->
            Lin_check.check ~committed_order:order
              (List.filter (fun ev -> group_of_key (event_key ev) = g) events))
          committed_orders)

let test_no_reads () =
  let r = check [ wc 10 1 100; wc 11 1 150; wc 99 3 160 ] in
  Alcotest.(check int) "nothing checked" 0 r.Lin_check.reads_checked;
  Alcotest.(check int) "no violations" 0 (List.length r.Lin_check.violations)

let test_phantom_on_unacknowledged_key () =
  (* key 2 has a committed write but none acknowledged; returning an id
     never committed for it is still a phantom, with no expected write *)
  let r = check [ wc 10 1 100; rd 2 200 (Some 10) ] in
  match r.Lin_check.violations with
  | [ v ] ->
      Alcotest.(check int) "key" 2 v.Lin_check.v_key;
      Alcotest.(check int) "no floor" (-1) v.Lin_check.v_expected_after
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)


(* ---- the History recorder against both list oracles ---- *)

(* Record the events through the recorder's own calls, as a run does. *)
let recorded events =
  let h = Lin_check.History.create () in
  List.iter
    (function
      | Lin_check.Write_complete { write_id; key; at_us } ->
          Lin_check.History.write_complete h ~write_id ~key ~at_us
      | Lin_check.Read { key; started_us; returned } ->
          Lin_check.History.read h ~key ~started_us ~returned)
    events;
  h

let all_three_agree (committed_order, events) =
  let reference = Reference.check ~committed_order events in
  Lin_check.check ~committed_order events = reference
  && Lin_check.History.check ~committed_order (recorded events) = reference

let history_agrees =
  QCheck.Test.make ~count:2000
    ~name:"History.check equals check and the quadratic reference" history
    all_three_agree

(* One hot key with 200-300 committed writes, acknowledged one every
   1-3 us in an order that drifts from the log's, and reads of it in
   between that return any committed id of it, [None] or a phantom; a
   few writes and reads of a cold key ride along.  The floors move
   inside one long run, so a floor taken from anywhere but the read's
   own place in the run is caught. *)
let hot_history =
  let open QCheck.Gen in
  let gen =
    int_range 200 300 >>= fun n ->
    let order =
      List.init n (fun id -> put 0 id) @ [ put 1 1000; put 1 1001 ]
    in
    list_repeat n (int_range 1 3) >>= fun gaps ->
    list_repeat n (int_range (-2) 2) >>= fun drift ->
    list_size (int_range 200 400)
      (pair (int_range 0 (3 * n))
         (frequency
            [
              (6, map Option.some (int_range 0 (n - 1)));
              (1, return None);
              (1, return (Some 5000));
            ]))
    >>= fun reads ->
    let t = ref 0 in
    let writes =
      List.mapi
        (fun id (gap, d) ->
          t := !t + gap;
          (* neighbours may swap completion order *)
          let id = max 0 (min (n - 1) (id + d)) in
          (!t, wc id 0 !t))
        (List.combine gaps drift)
    in
    let reads = List.map (fun (at, ret) -> (at, rd 0 at ret)) reads in
    let cold = [ (1, wc 1000 1 1); (2, rd 1 2 (Some 1000)); (3, rd 1 3 None) ] in
    let events =
      List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (cold @ writes @ reads)
    in
    return (order, List.map snd events)
  in
  QCheck.make
    ~print:(fun (order, events) ->
      Printf.sprintf "%d committed / %s" (List.length order)
        (show_list show_event events))
    gen

let hot_key_agrees =
  QCheck.Test.make ~count:200 ~name:"hot key: History.check equals the reference"
    hot_history all_three_agree

let test_id_under_two_keys () =
  (* write 7 is committed under key 1, then key 2, then key 1 again: a
     read of key 1 returning 7 sits at position 3, one of key 2 at 1 *)
  let committed_order = [ put 1 7; put 2 7; put 1 8; put 1 7; put 2 9 ] in
  let events =
    [
      wc 7 2 10;
      wc 8 1 20;
      wc 9 2 30;
      rd 1 40 (Some 7) (* position 3 >= floor 2: fresh *);
      rd 2 40 (Some 7) (* position 1 < floor 4: stale *);
      rd 2 25 (Some 7) (* floor 1: fresh *);
      rd 3 40 (Some 7) (* never committed under key 3 *);
    ]
  in
  let expect =
    Lin_check.
      [
        { v_key = 2; v_returned = Some 7; v_expected_after = 9; v_started_us = 40 };
        { v_key = 3; v_returned = Some 7; v_expected_after = -1; v_started_us = 40 };
      ]
  in
  List.iter
    (fun (name, r) ->
      Alcotest.(check int) (name ^ ": checked") 4 r.Lin_check.reads_checked;
      Alcotest.(check bool) (name ^ ": violations") true
        (r.Lin_check.violations = expect))
    [
      ("list", Lin_check.check ~committed_order events);
      ("history", Lin_check.History.check ~committed_order (recorded events));
      ("reference", Reference.check ~committed_order events);
    ]

let test_violations_in_event_order () =
  (* two violations, the phantom first in event order *)
  let events =
    [ wc 10 1 100; rd 1 150 (Some 77); wc 11 1 160; rd 1 200 (Some 10) ]
  in
  let keys r =
    List.map (fun v -> v.Lin_check.v_started_us) r.Lin_check.violations
  in
  Alcotest.(check (list int)) "list adapter" [ 150; 200 ] (keys (check events));
  Alcotest.(check (list int)) "history" [ 150; 200 ]
    (keys (Lin_check.History.check ~committed_order:order (recorded events)))

let test_history_recording () =
  let h = recorded [ wc 10 1 100; rd 1 150 None; wc 11 1 160; wc 12 1 170 ] in
  let ids = ref [] in
  Lin_check.History.iter_write_ids (fun id -> ids := id :: !ids) h;
  Alcotest.(check (list int)) "write ids in order" [ 10; 11; 12 ] (List.rev !ids);
  Alcotest.(check int) "reads" 1
    (Lin_check.History.check ~committed_order:order h).Lin_check.reads_checked;
  Alcotest.check_raises "min_int is None's mark"
    (Invalid_argument "Lin_check: min_int key or id") (fun () ->
      Lin_check.History.read h ~key:1 ~started_us:0 ~returned:(Some min_int))

let () =
  Alcotest.run "lin_check"
    [
      ( "oracle",
        [
          Alcotest.test_case "fresh read" `Quick test_fresh_read_ok;
          Alcotest.test_case "newer ok" `Quick test_newer_than_required_ok;
          Alcotest.test_case "stale flagged" `Quick test_stale_read_flagged;
          Alcotest.test_case "phantom flagged" `Quick test_phantom_value_flagged;
          Alcotest.test_case "missing flagged" `Quick test_none_after_write_flagged;
          Alcotest.test_case "empty key" `Quick test_none_before_any_write_ok;
          Alcotest.test_case "concurrent" `Quick test_concurrent_write_not_required;
          Alcotest.test_case "per key" `Quick test_per_key_isolation;
          Alcotest.test_case "order wins" `Quick test_order_beats_completion_time;
          Alcotest.test_case "overlap window" `Quick test_concurrent_window_overlap;
          Alcotest.test_case "duplicate ids" `Quick test_duplicate_write_ids;
          Alcotest.test_case "non-lin history" `Quick
            test_non_linearizable_history_rejected;
          Alcotest.test_case "printing" `Quick test_pp_violation;
          Alcotest.test_case "no reads" `Quick test_no_reads;
          Alcotest.test_case "phantom on unacknowledged key" `Quick
            test_phantom_on_unacknowledged_key;
          Alcotest.test_case "one id under two keys" `Quick test_id_under_two_keys;
          Alcotest.test_case "violations in event order" `Quick
            test_violations_in_event_order;
          Alcotest.test_case "history recording" `Quick test_history_recording;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest agrees_with_reference;
          QCheck_alcotest.to_alcotest sharded_is_per_group;
          QCheck_alcotest.to_alcotest history_agrees;
          QCheck_alcotest.to_alcotest hot_key_agrees;
        ] );
    ]
