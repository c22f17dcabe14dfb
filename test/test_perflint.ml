(* Tests for the perflint cost-discipline pass (lib/lint/perflint).

   Mirrors test_lint.ml: each fixture under lint_fixtures/ pairs positive
   sites with cold copies and suppressed negatives, linted under a
   synthetic filename that chooses the path scope (hot-by-name tables key
   off lib/consensus, lib/sim, lib/kvstore). *)

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
  Perflint.lint_string ~filename (read_file (Filename.concat fixture_dir name))

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

let test_alloc () =
  (* Even under lib/consensus/ (where [handle] is hot by name), the
     allocation rule fires only inside [@perf.hot]-attributed functions:
     List.map, the anonymous closure, and the tuple in [broadcast]. *)
  let fs = lint_fixture ~filename:"lib/consensus/fx_alloc.ml" "perf_alloc.ml" in
  check_rule_count ~rule:"alloc-in-handler" ~expect:3 fs

let test_sort () =
  let fs = lint_fixture ~filename:"lib/fx_sort.ml" "perf_sort.ml" in
  check_rule_count ~rule:"sort-in-loop" ~expect:2 fs

let test_string () =
  (* The builder inside the ~info closure (the sanctioned lazy-render
     pattern) must stay silent — for the string rule and the alloc
     rule both. *)
  let fs = lint_fixture ~filename:"lib/fx_str.ml" "perf_string.ml" in
  check_rule_count ~rule:"string-build-in-hot-path" ~expect:3 fs;
  check_rule_count ~rule:"alloc-in-handler" ~expect:0 fs

(* --- suppression and plumbing --- *)

let test_file_level_allow () =
  let fs = lint_fixture ~filename:"lib/fx_allow.ml" "perf_file_allow.ml" in
  Alcotest.(check int) "whole file silenced" 0 (List.length fs)

let test_allow_all () =
  let hit = "let x = ref []\nlet f e = x := e @ !x\n" in
  let suppressed =
    "let x = ref []\nlet f e = ((x := e @ !x) [@perf.allow \"all\"])\n"
  in
  check_rule_count ~rule:"quadratic-accumulate" ~expect:1
    (Perflint.lint_string ~filename:"lib/a.ml" hit);
  check_rule_count ~rule:"quadratic-accumulate" ~expect:0
    (Perflint.lint_string ~filename:"lib/a.ml" suppressed)

let test_parse_error () =
  let fs = Perflint.lint_string ~filename:"lib/broken.ml" "let let = in" in
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
         "alloc-in-handler";
         "sort-in-loop";
         "string-build-in-hot-path";
       ])
    ids

let test_json_render () =
  (match Perflint.lint_string ~filename:"lib/a.ml"
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

(* --- the tree itself must be clean --- *)

let test_clean_tree () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    let findings = Perflint.lint_paths [ "../lib" ] in
    Alcotest.(check string)
      "no perflint findings in lib/" ""
      (String.concat "\n" (List.map Finding.render findings))
  end

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
          Alcotest.test_case "alloc-in-handler" `Quick test_alloc;
          Alcotest.test_case "sort-in-loop" `Quick test_sort;
          Alcotest.test_case "string-build-in-hot-path" `Quick test_string;
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
        [ Alcotest.test_case "clean tree" `Quick test_clean_tree ] );
    ]
