open Raftpax_consensus

let test_push_get () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42)

let test_clear () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.clear v;
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Vec.push v 7;
  Alcotest.(check (list int)) "push after clear" [ 7 ] (Vec.to_list v)

let test_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "negative get" (Invalid_argument "Vec.get")
    (fun () -> ignore (Vec.get v (-1)))

let test_iter () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 10; 20; 30 ];
  let acc = ref [] in
  Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "in order" [ 10; 20; 30 ] (List.rev !acc)

let prop_push_list_roundtrip =
  QCheck.Test.make ~name:"push/to_list roundtrip" ~count:200
    QCheck.(small_list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs)

(* Model-based property: a random sequence of push/clear ops applied to
   both the Vec and a plain-list model must agree at every step. *)
type vop = Push of int | Clear

let vop_gen =
  QCheck.Gen.(frequency [ (9, map (fun x -> Push x) small_int); (1, return Clear) ])

let pp_vop = function Push x -> Printf.sprintf "push %d" x | Clear -> "clear"

let prop_model_agreement =
  QCheck.Test.make ~name:"random op sequence matches list model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_vop ops))
        Gen.(list_size (int_bound 40) vop_gen))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Push x ->
              Vec.push v x;
              model := !model @ [ x ]
          | Clear ->
              Vec.clear v;
              model := []);
          Vec.to_list v = !model
          && Vec.length v = List.length !model
          && List.for_all2 ( = ) (List.init (Vec.length v) (Vec.get v)) !model)
        ops)

let prop_get_out_of_bounds_rejected =
  QCheck.Test.make ~name:"get past the end always raises" ~count:100
    QCheck.(pair (small_list int) small_nat)
    (fun (xs, extra) ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      match Vec.get v (List.length xs + extra) with
      | _ -> false
      | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "vec"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_push_get;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "iter" `Quick test_iter;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_push_list_roundtrip;
            prop_model_agreement;
            prop_get_out_of_bounds_rejected;
          ] );
    ]
