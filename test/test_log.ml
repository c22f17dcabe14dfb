open Raftpax_consensus

let test_defaults_past_the_end () =
  let l = Log.create "-" in
  Alcotest.(check int) "empty" 0 (Log.length l);
  Log.ensure l 3;
  Alcotest.(check int) "ensure holds the index" 4 (Log.length l);
  Alcotest.(check string) "value" "-" (Log.get l 2);
  Alcotest.(check string) "value past the end" "-" (Log.get l 9);
  Alcotest.(check int) "ballot" Log.no_ballot (Log.ballot l 9);
  Alcotest.(check bool) "chosen" false (Log.chosen l 9);
  Alcotest.(check int) "tally" Log.no_tally (Log.acks l 9);
  Alcotest.check_raises "a write past the end"
    (Invalid_argument "Log: index past the end") (fun () -> Log.set l 4 "x")

let test_duplicate_ack_counts_once () =
  let l = Log.create () in
  Log.push l ();
  Log.open_tally l 0;
  (* Five replicas: the leader's own vote and two peers make a majority. *)
  Alcotest.(check (list int)) "first ack" [] (Log.tally l ~majority:3 ~from:1 [ 0 ]);
  Alcotest.(check (list int)) "duplicate" [] (Log.tally l ~majority:3 ~from:1 [ 0 ]);
  Alcotest.(check (list int)) "second peer" [ 0 ] (Log.tally l ~majority:3 ~from:2 [ 0 ]);
  Alcotest.(check (list int)) "chosen once" [] (Log.tally l ~majority:3 ~from:3 [ 0 ])

let test_truncate_resets () =
  let l = Log.create 0 in
  List.iter (Log.push l) [ 1; 2; 3 ];
  Log.set_ballot l 2 5;
  Log.choose l 2;
  Log.open_tally l 2;
  Log.truncate l 1;
  Log.ensure l 2;
  Alcotest.(check (list int)) "values" [ 1; 0; 0 ] (Log.to_list l);
  Alcotest.(check int) "ballot" Log.no_ballot (Log.ballot l 2);
  Alcotest.(check bool) "chosen" false (Log.chosen l 2);
  Alcotest.(check int) "tally" Log.no_tally (Log.acks l 2)

(* ---- model property ---- *)

(* The naive model: a list of records, with a tally as the list of peers
   that acked (None: no tally open). *)
type cell = { v : int; b : int; c : bool; a : int list option }

let fresh = { v = -7; b = Log.no_ballot; c = false; a = None }

type op =
  | Ensure of int
  | Set of int * int
  | Set_ballot of int * int
  | Choose of int
  | Open_tally of int
  | Push of int
  | Truncate of int
  | Tally of { from : int; majority : int; is : int list }

let op_gen =
  let idx = QCheck.Gen.int_bound 12 in
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> Ensure i) idx);
        (2, map2 (fun i x -> Set (i, x)) idx small_int);
        (2, map2 (fun i x -> Set_ballot (i, x)) idx small_int);
        (1, map (fun i -> Choose i) idx);
        (3, map (fun i -> Open_tally i) idx);
        (3, map (fun x -> Push x) small_int);
        (1, map (fun n -> Truncate n) idx);
        ( 6,
          map3
            (fun from majority is -> Tally { from; majority; is })
            (int_bound 4) (int_range 1 5)
            (list_size (int_bound 4) idx) );
      ])

let pp_op = function
  | Ensure i -> Printf.sprintf "ensure %d" i
  | Set (i, x) -> Printf.sprintf "set %d %d" i x
  | Set_ballot (i, x) -> Printf.sprintf "set_ballot %d %d" i x
  | Choose i -> Printf.sprintf "choose %d" i
  | Open_tally i -> Printf.sprintf "open_tally %d" i
  | Push x -> Printf.sprintf "push %d" x
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Tally { from; majority; is } ->
      Printf.sprintf "tally from=%d majority=%d [%s]" from majority
        (String.concat ";" (List.map string_of_int is))

let update m i f = List.mapi (fun j c -> if j = i then f c else c) m

(* The model's tally: ack order, each peer counted once, each index
   reported when it first reaches the majority. *)
let model_tally m ~from ~majority is =
  List.fold_left
    (fun (m, newly) i ->
      match List.nth_opt m i with
      | Some ({ a = Some peers; _ } as c) ->
          let peers = if List.mem from peers then peers else from :: peers in
          let reached = List.length peers + 1 >= majority && not c.c in
          ( update m i (fun c -> { c with a = Some peers; c = c.c || reached }),
            if reached then i :: newly else newly )
      | Some { a = None; _ } | None -> (m, newly))
    (m, []) is
  |> fun (m, newly) -> (m, List.rev newly)

let mask peers = List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 peers

(* Every column at every index, past the end included, equals the model. *)
let agrees l m =
  Log.length l = List.length m
  && List.for_all
       (fun i ->
         let c = Option.value (List.nth_opt m i) ~default:fresh in
         Log.get l i = c.v
         && Log.ballot l i = c.b
         && Log.chosen l i = c.c
         && Log.acks l i
            = match c.a with None -> Log.no_tally | Some p -> mask p)
       (List.init (List.length m + 3) Fun.id)

let prop_model =
  QCheck.Test.make ~name:"random op sequence matches a list-of-records model"
    ~count:500
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
        Gen.(list_size (int_bound 60) op_gen))
    (fun ops ->
      let l = Log.create fresh.v in
      let m = ref [] in
      (* indices reported as newly chosen since they were last cut off *)
      let reported = Hashtbl.create 8 in
      let in_range i = i < List.length !m in
      let write i f g =
        if in_range i then begin
          f ();
          m := update !m i g;
          true
        end
        else match f () with () -> false | exception Invalid_argument _ -> true
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Ensure i ->
                Log.ensure l i;
                while List.length !m <= i do
                  m := !m @ [ fresh ]
                done;
                true
            | Set (i, x) -> write i (fun () -> Log.set l i x) (fun c -> { c with v = x })
            | Set_ballot (i, x) ->
                write i (fun () -> Log.set_ballot l i x) (fun c -> { c with b = x })
            | Choose i ->
                write i (fun () -> Log.choose l i) (fun c -> { c with c = true })
            | Open_tally i ->
                write i (fun () -> Log.open_tally l i) (fun c -> { c with a = Some [] })
            | Push x ->
                Log.push l x;
                m := !m @ [ { fresh with v = x } ];
                true
            | Truncate n ->
                Log.truncate l n;
                m := List.filteri (fun j _ -> j < n) !m;
                Hashtbl.filter_map_inplace
                  (fun i () -> if i < n then Some () else None)
                  reported;
                true
            | Tally { from; majority; is } ->
                let got = Log.tally l ~majority ~from is in
                let m', want = model_tally !m ~from ~majority is in
                m := m';
                let once =
                  List.for_all
                    (fun i ->
                      let fresh_report = not (Hashtbl.mem reported i) in
                      Hashtbl.replace reported i ();
                      fresh_report)
                    got
                in
                got = want && once
          in
          ok && agrees l !m)
        ops)

let () =
  Alcotest.run "log"
    [
      ( "log",
        [
          Alcotest.test_case "defaults past the end" `Quick test_defaults_past_the_end;
          Alcotest.test_case "duplicate ack counts once" `Quick
            test_duplicate_ack_counts_once;
          Alcotest.test_case "truncate resets the columns" `Quick test_truncate_resets;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_model ]);
    ]
