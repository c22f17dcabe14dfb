(* Tests for perflint's cost rules (lib/lint/perflint).

   Mirrors test_lint.ml: each fixture under lint_fixtures/ pairs positive
   sites with cold copies and suppressed negatives, linted under a
   synthetic filename that chooses the path scope (the hot-by-name table
   keys off lib/consensus, lib/sim, lib/kvstore).  Suppression and parse
   errors are the driver's; the cases here check them for perflint's
   rules. *)

module Perflint = Raftpax_lint.Perflint
module Lint = Raftpax_lint.Lint
module Finding = Raftpax_lint.Finding

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let lint_fixture ~filename name =
  Lint.lint_string Perflint.rules ~filename
    (read_file (Filename.concat fixture_dir name))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

let count rule findings =
  List.length
    (List.filter (fun f -> String.equal f.Finding.rule rule) findings)

let check_rule_count ~rule ~expect findings =
  Alcotest.(check int)
    (Printf.sprintf "%s findings" rule)
    expect (count rule findings)

(* --- one fixture per rule --- *)

let test_quadratic () =
  let fs = lint_fixture ~filename:"lib/fx_quad.ml" "perf_quadratic.ml" in
  check_rule_count ~rule:"quadratic-accumulate" ~expect:3 fs

let test_quadratic_scoping () =
  (* The rule is scoped to lib/: the same source elsewhere is clean. *)
  let fs = lint_fixture ~filename:"tools/fx_quad.ml" "perf_quadratic.ml" in
  check_rule_count ~rule:"quadratic-accumulate" ~expect:0 fs

let test_length_consensus () =
  (* Under lib/consensus/, [handle] is hot by name: the [@perf.hot]
     site, the List.nth in handle, and the Net.nodes special case. *)
  let fs = lint_fixture ~filename:"lib/consensus/fx_len.ml" "perf_length.ml" in
  check_rule_count ~rule:"length-in-hot-path" ~expect:3 fs

let test_length_elsewhere () =
  (* Outside the consensus tree [handle] is cold; only the attributed
     function and the Net.nodes hint remain. *)
  let fs = lint_fixture ~filename:"lib/fx_len.ml" "perf_length.ml" in
  check_rule_count ~rule:"length-in-hot-path" ~expect:2 fs;
  Alcotest.(check bool)
    "Net.size hint" true
    (List.exists
       (fun f -> contains ~sub:"Net.size" f.Finding.message)
       fs)

let test_assoc () =
  let fs = lint_fixture ~filename:"lib/fx_assoc.ml" "perf_assoc.ml" in
  check_rule_count ~rule:"assoc-scan" ~expect:3 fs

let test_sort () =
  let fs = lint_fixture ~filename:"lib/fx_sort.ml" "perf_sort.ml" in
  check_rule_count ~rule:"sort-in-loop" ~expect:2 fs

let test_hot_by_name () =
  (* The per-message spines of the net, CPU and replica base are hot by
     name in their own library, and cold under any other. *)
  let src = "let post t xs = ignore t; List.length xs\n" in
  check_rule_count ~rule:"length-in-hot-path" ~expect:1
    (Lint.lint_string Perflint.rules ~filename:"lib/sim/fx_net.ml" src);
  check_rule_count ~rule:"length-in-hot-path" ~expect:0
    (Lint.lint_string Perflint.rules ~filename:"lib/kvstore/fx_net.ml" src);
  let src = "let complete t xs = ignore t; List.nth xs 0\n" in
  check_rule_count ~rule:"length-in-hot-path" ~expect:1
    (Lint.lint_string Perflint.rules ~filename:"lib/consensus/fx_rep.ml" src);
  check_rule_count ~rule:"length-in-hot-path" ~expect:0
    (Lint.lint_string Perflint.rules ~filename:"lib/sim/fx_rep.ml" src)

(* --- suppression and plumbing --- *)

let test_file_level_allow () =
  (* The merged fixture silences perflint's rules with the same floating
     [@@@lint.allow] as detlint's; without those lines they fire. *)
  let source = read_file (Filename.concat fixture_dir "file_level_allow.ml") in
  Alcotest.(check int)
    "whole file silenced" 0
    (List.length
       (Lint.lint_string Perflint.rules ~filename:"lib/fx_allow.ml" source));
  let unsilenced =
    String.split_on_char '\n' source
    |> List.filter (fun l ->
           not (String.starts_with ~prefix:"[@@@lint.allow" l))
    |> String.concat "\n"
  in
  let fs = Lint.lint_string Perflint.rules ~filename:"lib/fx_allow.ml" unsilenced in
  check_rule_count ~rule:"quadratic-accumulate" ~expect:1 fs;
  check_rule_count ~rule:"length-in-hot-path" ~expect:1 fs

let test_allow_all () =
  let hit = "let x = ref []\nlet f e = x := e @ !x\n" in
  let suppressed =
    "let x = ref []\nlet f e = ((x := e @ !x) [@lint.allow \"all\"])\n"
  in
  check_rule_count ~rule:"quadratic-accumulate" ~expect:1
    (Lint.lint_string Perflint.rules ~filename:"lib/a.ml" hit);
  check_rule_count ~rule:"quadratic-accumulate" ~expect:0
    (Lint.lint_string Perflint.rules ~filename:"lib/a.ml" suppressed)

let test_parse_error () =
  let fs =
    Lint.lint_string Perflint.rules ~filename:"lib/broken.ml" "let let = in"
  in
  check_rule_count ~rule:"parse-error" ~expect:1 fs;
  Alcotest.(check int) "only the parse error" 1 (List.length fs)


let test_rule_registry () =
  let ids =
    List.sort String.compare (List.map (fun r -> r.Lint.id) Perflint.rules)
  in
  Alcotest.(check (list string))
    "rule ids"
    (List.sort String.compare
       [
         "quadratic-accumulate";
         "length-in-hot-path";
         "assoc-scan";
         "sort-in-loop";
       ])
    ids

let test_json_render () =
  (match Lint.lint_string Perflint.rules ~filename:"lib/a.ml"
           "let x = ref []\nlet f e = x := e @ !x\n"
   with
  | [ f ] ->
      let j = Finding.to_json f in
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("json has " ^ sub) true (contains ~sub j))
        [
          {|"file":"lib/a.ml"|};
          {|"line":2|};
          {|"rule":"quadratic-accumulate"|};
          {|"severity":"error"|};
        ]
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  Alcotest.(check string) "empty array" "[]" (Finding.render_json []);
  (* Escaping: a message with quotes and newlines must stay one JSON
     string. *)
  let f =
    {
      Finding.file = "lib/a.ml";
      line = 1;
      col = 0;
      rule = "r";
      severity = Finding.Warning;
      message = "say \"hi\"\nand \\ more";
    }
  in
  Alcotest.(check bool)
    "escaped" true
    (contains ~sub:{|say \"hi\"\nand \\ more|} (Finding.to_json f))

(* --- the hot-by-name table names live functions --- *)

(* The names bound to functions, at any depth, in lib/<library>. *)
let functions_in library =
  let names = ref [] in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var v when Perflint.is_function vb.pvb_expr ->
              names := v.txt :: !names
          | _ -> ());
          super.value_binding it vb);
    }
  in
  List.iter
    (fun (file, source) ->
      match Lint.parse ~file source with
      | Ok structure -> it.structure it structure
      | Error f -> Alcotest.fail (Finding.render f))
    (Lint.sources [ Filename.concat "../lib" library ]);
  !names

let test_hot_names_live () =
  (* A renamed spine would otherwise turn cold without a sound. *)
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then
    List.iter
      (fun (library, names) ->
        let bound = functions_in library in
        List.iter
          (fun name ->
            Alcotest.(check bool)
              (Printf.sprintf "%s binds a function in lib/%s" name library)
              true (List.mem name bound))
          names)
      Perflint.hot_names

(* --- the tree itself must be clean --- *)

(* [@perf.allow] suppresses nothing any more; one left behind would be
   dead text claiming a waiver. *)
let perf_allows structure =
  let n = ref 0 in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      attribute =
        (fun it a ->
          if String.equal a.attr_name.txt "perf.allow" then incr n;
          super.attribute it a);
    }
  in
  it.structure it structure;
  !n

let test_clean_tree () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then
    List.iter
      (fun (filename, source) ->
        Alcotest.(check string)
          ("no perflint findings in " ^ filename)
          ""
          (String.concat "\n"
             (List.map Finding.render
                (Lint.lint_string Perflint.rules ~filename source)));
        match Lint.parse ~file:filename source with
        | Ok structure ->
            Alcotest.(check int)
              ("no [@perf.allow] in " ^ filename)
              0 (perf_allows structure)
        | Error f -> Alcotest.fail (Finding.render f))
      (Lint.sources [ "../lib" ])

let () =
  Alcotest.run "perflint"
    [
      ( "rules",
        [
          Alcotest.test_case "quadratic-accumulate" `Quick test_quadratic;
          Alcotest.test_case "quadratic-accumulate scoping" `Quick
            test_quadratic_scoping;
          Alcotest.test_case "length-in-hot-path (consensus)" `Quick
            test_length_consensus;
          Alcotest.test_case "length-in-hot-path (elsewhere)" `Quick
            test_length_elsewhere;
          Alcotest.test_case "assoc-scan" `Quick test_assoc;
          Alcotest.test_case "sort-in-loop" `Quick test_sort;
          Alcotest.test_case "hot by name" `Quick test_hot_by_name;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "file-level allow" `Quick test_file_level_allow;
          Alcotest.test_case "allow all" `Quick test_allow_all;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
          Alcotest.test_case "json render" `Quick test_json_render;
        ] );
      ( "tree",
        [
          Alcotest.test_case "clean tree" `Quick test_clean_tree;
          Alcotest.test_case "hot names bind functions" `Quick
            test_hot_names_live;
        ] );
    ]
