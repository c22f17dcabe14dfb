open Raftpax_core
module V = Value

(* A bounded counter: increment by 1 or 2, never past [limit]. *)
let counter_spec limit =
  let incr_by k =
    Action.make (Fmt.str "Incr%d" k) (fun s ->
        let x = V.to_int (State.get s "x") in
        if x + k <= limit then
          [ (Fmt.str "x=%d" (x + k), State.set s "x" (V.int (x + k))) ]
        else [])
  in
  Spec.make ~name:"counter" ~vars:[ "x" ]
    ~init:[ State.of_list [ ("x", V.int 0) ] ]
    [ incr_by 1; incr_by 2 ]

let test_exhaustive () =
  match
    Explorer.check ~invariants:[ ("le", fun s -> V.to_int (State.get s "x") <= 10) ]
      (counter_spec 10)
  with
  | Explorer.Pass stats ->
      Alcotest.(check int) "11 states" 11 stats.states;
      Alcotest.(check bool) "complete" true stats.complete
  | r -> Alcotest.failf "expected pass, got %a" Explorer.pp_result r

let test_violation_shortest_trace () =
  (* x never reaches 7 — false, and the shortest path uses Incr2. *)
  match
    Explorer.check
      ~invariants:[ ("never7", fun s -> V.to_int (State.get s "x") <> 7) ]
      (counter_spec 10)
  with
  | Explorer.Violation { invariant; trace; _ } ->
      Alcotest.(check string) "which invariant" "never7" invariant;
      (* init + 4 steps: 0 -2-> 2 -2-> 4 -2-> 6 -1-> 7 is depth 4 *)
      Alcotest.(check int) "shortest trace" 5 (List.length trace)
  | r -> Alcotest.failf "expected violation, got %a" Explorer.pp_result r

let test_max_states_bounds () =
  match Explorer.check ~max_states:3 ~invariants:[] (counter_spec 100) with
  | Explorer.Pass stats ->
      Alcotest.(check int) "bounded states" 3 stats.states;
      Alcotest.(check bool) "incomplete" false stats.complete
  | r -> Alcotest.failf "expected bounded pass, got %a" Explorer.pp_result r

let test_deadlock_ignored_by_default () =
  match Explorer.check ~invariants:[] (counter_spec 3) with
  | Explorer.Pass _ -> ()
  | r -> Alcotest.failf "expected pass, got %a" Explorer.pp_result r

let test_ill_formed_action_rejected () =
  let bad =
    Spec.make ~name:"bad" ~vars:[ "x" ]
      ~init:[ State.of_list [ ("x", V.int 0) ] ]
      [
        Action.simple "Oops" (fun s ->
            Some (State.set s "rogue" (V.int 1)));
      ]
  in
  Alcotest.check_raises "ill-formed state detected"
    (Invalid_argument "Explorer: action Oops of bad produced ill-formed state")
    (fun () -> ignore (Explorer.check ~invariants:[] bad))

(* ---- the bounded-hop search against brute force ---- *)

(* Every state some action sequence of length <= [k] leads to from [a],
   with the length of the shortest such sequence: the reference that
   enumerates each sequence instead of searching. *)
let by_enumeration spec ~k a =
  let rec go d frontier acc =
    if d > k then acc
    else
      let acc =
        List.fold_left
          (fun acc s -> if State.Map.mem s acc then acc else State.Map.add s d acc)
          acc frontier
      in
      let next =
        List.concat_map
          (fun s -> List.map (fun (_, _, s') -> s') (Spec.successors spec s))
          frontier
      in
      go (d + 1) next acc
  in
  State.Map.bindings (go 0 [ a ] State.Map.empty)

(* The states that following [path]'s action names from [a] can reach. *)
let follow spec a path =
  List.fold_left
    (fun states action ->
      List.concat_map
        (fun s ->
          List.filter_map
            (fun (a', _, s') -> if a' = action then Some s' else None)
            (Spec.successors spec s))
        states)
    [ a ] path

let check_discharge_against_enumeration spec =
  let sources = List.map fst (by_enumeration spec ~k:1 (List.hd spec.Spec.init)) in
  List.iter
    (fun a ->
      List.iter
        (fun k ->
          (* targets one step past the bound must be refused *)
          let targets = by_enumeration spec ~k:(k + 1) a in
          let reached = List.filter (fun (_, d) -> d <= k) targets in
          List.iter
            (fun (t, d) ->
              match Refinement.discharge ~high:spec ~max_hops:k a t with
              | None ->
                  if d <= k then
                    Alcotest.failf "%s: k=%d missed a target at distance %d"
                      spec.Spec.name k d
              | Some path ->
                  if d > k then
                    Alcotest.failf "%s: k=%d found a target at distance %d"
                      spec.Spec.name k d;
                  Alcotest.(check int) "shortest path" d (List.length path);
                  Alcotest.(check bool)
                    "path leads to the target" true
                    (List.exists (State.equal t) (follow spec a path)))
            targets;
          (* within: the same states, each once, in breadth-first order *)
          let found = List.of_seq (Explorer.within spec ~max_hops:k a) in
          Alcotest.(check int) "each state once" (List.length reached)
            (List.length found);
          List.iter
            (fun (path, s) ->
              match List.find_opt (fun (t, _) -> State.equal s t) reached with
              | Some (_, d) -> Alcotest.(check int) "hops" d (List.length path)
              | None -> Alcotest.failf "%s: within went too far" spec.Spec.name)
            found;
          let hops = List.map (fun (path, _) -> List.length path) found in
          Alcotest.(check (list int)) "breadth-first" (List.sort compare hops) hops)
        [ 1; 2; 3 ])
    sources

let test_discharge_brute_force () =
  List.iter check_discharge_against_enumeration
    [ counter_spec 10; Example_kv.kv_store; Example_kv.log_store ]

let test_scenario_driving () =
  let spec = counter_spec 10 in
  let s =
    Scenario.run spec (List.hd spec.Spec.init)
      [ ("Incr2", ""); ("Incr2", ""); ("Incr1", "") ]
  in
  Alcotest.(check int) "reached 5" 5 (V.to_int (State.get s "x"))

let test_scenario_bad_pick () =
  let spec = counter_spec 2 in
  let s = Scenario.run spec (List.hd spec.Spec.init) [ ("Incr2", "") ] in
  (* Incr2 is disabled at x=2 *)
  match Scenario.step spec s ~action:"Incr2" ~label:"" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on disabled action"

let () =
  Alcotest.run "explorer"
    [
      ( "check",
        [
          Alcotest.test_case "exhaustive pass" `Quick test_exhaustive;
          Alcotest.test_case "shortest violation" `Quick test_violation_shortest_trace;
          Alcotest.test_case "max_states" `Quick test_max_states_bounds;
          Alcotest.test_case "deadlock off by default" `Quick test_deadlock_ignored_by_default;
          Alcotest.test_case "ill-formed action" `Quick test_ill_formed_action_rejected;
        ] );
      ( "bounded-hops",
        [
          Alcotest.test_case "discharge matches brute force" `Quick
            test_discharge_brute_force;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "driving" `Quick test_scenario_driving;
          Alcotest.test_case "bad pick" `Quick test_scenario_bad_pick;
        ] );
    ]
