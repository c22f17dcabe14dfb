(* Tests for detlint's rules, the per-file driver that runs them with
   perflint's (lib/lint), and the bin/lint.exe command.

   Each fixture under lint_fixtures/ is linted with a synthetic filename
   that puts the rule under test in scope (rules are path-scoped, e.g.
   forbidden-effects only runs under lib/).  Fixtures pair
   positive sites with suppressed negatives, so these tests pin both the
   detection and every suppression mechanism. *)

module Lint = Raftpax_lint.Lint
module Perflint = Raftpax_lint.Perflint
module Finding = Raftpax_lint.Finding

(* Every per-file rule, as the driver runs them. *)
let per_file = Lint.rules @ Perflint.rules

let lint_tree roots =
  List.concat_map
    (fun (filename, source) -> Lint.lint_string per_file ~filename source)
    (Lint.sources roots)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs in _build/default/test (where glob_files mirrors the
   corpus); dune exec from the repo root sees the source copy instead. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let lint_fixture ~filename name =
  Lint.lint_string per_file ~filename
    (read_file (Filename.concat fixture_dir name))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let count rule findings =
  List.length (List.filter (fun f -> String.equal f.Finding.rule rule) findings)

let check_rule_count ~rule ~expect findings =
  Alcotest.(check int)
    (Printf.sprintf "%s findings" rule)
    expect (count rule findings)

(* --- one fixture per rule: positives fire, suppressed sites don't --- *)

let test_forbidden () =
  let fs = lint_fixture ~filename:"lib/fx_forbidden.ml" "forbidden_effects.ml" in
  check_rule_count ~rule:"forbidden-effects" ~expect:4 fs;
  let mentions sub =
    List.exists
      (fun f ->
        String.equal f.Finding.rule "forbidden-effects"
        && contains ~sub f.Finding.message)
      fs
  in
  List.iter
    (fun m -> Alcotest.(check bool) ("mentions " ^ m) true (mentions m))
    [ "Random"; "Unix"; "Sys.time"; "Hashtbl.hash" ]

let test_forbidden_scoping () =
  (* The rule is scoped to lib/: the same source under bin/ is clean. *)
  let fs = lint_fixture ~filename:"bin/fx_forbidden.ml" "forbidden_effects.ml" in
  check_rule_count ~rule:"forbidden-effects" ~expect:0 fs

let test_unordered () =
  let fs = lint_fixture ~filename:"lib/fx_unordered.ml" "unordered_iteration.ml" in
  check_rule_count ~rule:"unordered-iteration" ~expect:2 fs

let test_polycmp () =
  let fs = lint_fixture ~filename:"lib/fx_polycmp.ml" "polymorphic_compare.ml" in
  check_rule_count ~rule:"polymorphic-compare" ~expect:3 fs

let test_polycmp_shadowed () =
  (* A local [compare] binding sanctions bare [compare] file-wide. *)
  let src = "let compare a b = Int.compare a b\nlet f xs = List.sort compare xs\n" in
  let fs = Lint.lint_string per_file ~filename:"lib/shadow.ml" src in
  check_rule_count ~rule:"polymorphic-compare" ~expect:0 fs

let test_socket_effects () =
  (* The wire codec layer (lib/netcore) must stay socket-free. *)
  let fs = lint_fixture ~filename:"lib/netcore/fx_socket.ml" "socket_effects.ml" in
  check_rule_count ~rule:"forbidden-effects" ~expect:3 fs

let test_socket_effects_bin () =
  (* The same effects are sanctioned in the transport shell under bin/. *)
  let fs =
    lint_fixture ~filename:"bin/netshell/fx_socket.ml" "socket_effects.ml"
  in
  check_rule_count ~rule:"forbidden-effects" ~expect:0 fs

let test_escaping () =
  let fs = lint_fixture ~filename:"lib/fx_escaping.ml" "escaping_state.ml" in
  check_rule_count ~rule:"escaping-mutable-state" ~expect:3 fs

(* --- suppression mechanisms not already exercised by the fixtures --- *)

let test_file_level_allow () =
  let fs = lint_fixture ~filename:"lib/fx_allow.ml" "file_level_allow.ml" in
  Alcotest.(check int) "whole file silenced" 0 (List.length fs)

let test_allow_all () =
  let hit = "let f () = Random.int 3\n" in
  let suppressed = "let f () = (Random.int 3 [@lint.allow \"all\"])\n" in
  check_rule_count ~rule:"forbidden-effects" ~expect:1
    (Lint.lint_string per_file ~filename:"lib/a.ml" hit);
  check_rule_count ~rule:"forbidden-effects" ~expect:0
    (Lint.lint_string per_file ~filename:"lib/a.ml" suppressed)

let test_parse_error () =
  let fs = Lint.lint_string per_file ~filename:"lib/broken.ml" "let let = in" in
  check_rule_count ~rule:"parse-error" ~expect:1 fs;
  Alcotest.(check int) "only the parse error" 1 (List.length fs)

(* --- rule registry and finding plumbing --- *)

let test_rule_registry () =
  let ids = List.sort String.compare (List.map (fun r -> r.Lint.id) Lint.rules) in
  Alcotest.(check (list string))
    "rule ids"
    (List.sort String.compare
       [
         "forbidden-effects";
         "unordered-iteration";
         "polymorphic-compare";
         "escaping-mutable-state";
       ])
    ids

let test_render_format () =
  match Lint.lint_string per_file ~filename:"lib/a.ml" "let f () = Random.int 3\n" with
  | [ f ] ->
      Alcotest.(check bool)
        "render prefix" true
        (contains ~sub:"lib/a.ml:1:11 [forbidden-effects]" (Finding.render f))
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* --- the tree itself must be clean --- *)

let test_clean_tree () =
  (* Tests run in _build/default/test; the library and executable sources
     are mirrored next door.  If a sandboxed runner hides them, the @lint
     alias still gates the real tree. *)
  let dirs =
    List.filter
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "../lib"; "../bin" ]
  in
  if dirs <> [] then begin
    let findings = lint_tree dirs in
    Alcotest.(check string)
      "no findings in the tree" ""
      (String.concat "\n" (List.map Finding.render findings))
  end

let rec ml_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then ml_files p
         else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
         then [ p ]
         else [])

let test_netcore_pure () =
  (* The shipped codec layer is lint-clean, and no source under lib/
     anywhere so much as names the Unix module — every socket, clock and
     select lives in bin/ (the netshell transport, and repro/bench). *)
  if Sys.file_exists "../lib/netcore" && Sys.is_directory "../lib/netcore"
  then begin
    let findings = lint_tree [ "../lib/netcore" ] in
    Alcotest.(check string)
      "netcore lint-clean" ""
      (String.concat "\n" (List.map Finding.render findings));
    List.iter
      (fun f ->
        Alcotest.(check bool)
          (f ^ " is Unix-free") false
          (contains ~sub:"Unix." (read_file f)))
      (ml_files "../lib")
  end

(* --- the one driver, bin/lint.exe, spawned as CI runs it --- *)

let lint_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/lint.exe"

let run_lint args =
  let out = Filename.temp_file "lint_test" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>&1" (Filename.quote lint_exe) args
         (Filename.quote out))
  in
  let lines = String.split_on_char '\n' (read_file out) in
  Sys.remove out;
  (code, List.filter (fun l -> not (String.equal l "")) lines)

let corpus name = Filename.quote (Filename.concat fixture_dir name)

(* A summary line, less its file count (a build directory may hold
   stale fixture copies), which must still be positive. *)
let summary line =
  Scanf.sscanf line "%s@: %d file(s), %d finding(s)%!" (fun tool files n ->
      Alcotest.(check bool) (tool ^ " scanned files") true (files > 0);
      Printf.sprintf "%s: %d finding(s)" tool n)

let test_driver_ok () =
  let code, lines = run_lint (corpus "parlint_ok") in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check (list string))
    "summaries only"
    [ "lint: 0 finding(s)"; "parlint: 0 finding(s)" ]
    (List.map summary lines)

let test_driver_broken () =
  let code, lines = run_lint (corpus "parlint_broken") in
  Alcotest.(check int) "exit code" 1 code;
  match lines with
  | [ finding; per_file; par ] ->
      Alcotest.(check bool)
        "the one finding is knob-threading" true
        (contains ~sub:"[knob-threading] params field new_knob" finding);
      Alcotest.(check (list string))
        "per-pass summaries"
        [ "lint: 0 finding(s)"; "parlint: 1 finding(s)" ]
        (List.map summary [ per_file; par ])
  | _ -> Alcotest.failf "unexpected report:\n%s" (String.concat "\n" lines)

let test_driver_list_rules () =
  let code, lines = run_lint "--list-rules" in
  Alcotest.(check int) "exit code" 0 code;
  let listed =
    List.map
      (fun l ->
        match
          List.filter
            (fun w -> not (String.equal w ""))
            (String.split_on_char ' ' l)
        with
        | tool :: id :: _ -> tool ^ " " ^ id
        | _ -> l)
      lines
  in
  Alcotest.(check (list string))
    "every rule exactly once"
    [
      "lint forbidden-effects";
      "lint unordered-iteration";
      "lint polymorphic-compare";
      "lint escaping-mutable-state";
      "lint quadratic-accumulate";
      "lint length-in-hot-path";
      "lint assoc-scan";
      "lint sort-in-loop";
      "parlint knob-threading";
    ]
    listed

(* Findings of [rule] in a report, the summary lines aside. *)
let rule_hits rule lines =
  List.length (List.filter (contains ~sub:("[" ^ rule ^ "]")) lines)

let test_driver_json () =
  let code, lines = run_lint ("--json " ^ corpus "parlint_broken") in
  Alcotest.(check int) "broken exit code" 1 code;
  (match lines with
  | [ "["; obj; "]" ] ->
      Alcotest.(check bool)
        "one knob-threading object" true
        (contains ~sub:{|"rule":"knob-threading"|} obj
        && contains ~sub:{|"severity":"error"|} obj)
  | _ -> Alcotest.failf "unexpected JSON:\n%s" (String.concat "\n" lines));
  let code, lines = run_lint ("--json " ^ corpus "parlint_ok") in
  Alcotest.(check int) "ok exit code" 0 code;
  Alcotest.(check (list string)) "empty array, no summaries" [ "[]" ] lines

let test_driver_detlint_fixture () =
  (* unordered-iteration is not path-scoped, so the fixture fires where
     it lies; no other rule reports anything on it. *)
  let code, lines = run_lint (corpus "unordered_iteration.ml") in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check int) "unordered-iteration" 2 (rule_hits "unordered-iteration" lines);
  Alcotest.(check int) "lines" 4 (List.length lines)

let test_driver_perflint_fixture () =
  (* perflint's rules only run on lib/ files, so the fixture is copied
     into a lib/ directory of its own, as a regression would land. *)
  let root = Filename.temp_file "lint_test" ".d" in
  Sys.remove root;
  let lib = Filename.concat root "lib" in
  let file = Filename.concat lib "fx_sort.ml" in
  Sys.mkdir root 0o755;
  Sys.mkdir lib 0o755;
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (read_file (Filename.concat fixture_dir "perf_sort.ml")));
  let code, lines =
    Fun.protect
      ~finally:(fun () ->
        Sys.remove file;
        Sys.rmdir lib;
        Sys.rmdir root)
      (fun () -> run_lint (Filename.quote root))
  in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check int) "sort-in-loop" 2 (rule_hits "sort-in-loop" lines);
  Alcotest.(check (list string))
    "per-pass summaries"
    [ "lint: 2 finding(s)"; "parlint: 0 finding(s)" ]
    (List.map summary (List.filteri (fun i _ -> i >= 2) lines))

let test_driver_retired_flags () =
  (* No grandfathering: a baseline or rule-filter flag is a usage error
     (exit 2), never silently ignored. *)
  List.iter
    (fun flag ->
      let code, lines = run_lint (flag ^ " x") in
      Alcotest.(check int) (flag ^ " exit code") 2 code;
      Alcotest.(check bool)
        (flag ^ " is unknown") true
        (List.exists (contains ~sub:"unknown option") lines))
    [ "--baseline"; "--update-baseline"; "--perf-baseline"; "--par-baseline";
      "--rule"; "-q" ]

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "forbidden-effects" `Quick test_forbidden;
          Alcotest.test_case "forbidden-effects scoping" `Quick
            test_forbidden_scoping;
          Alcotest.test_case "unordered-iteration" `Quick test_unordered;
          Alcotest.test_case "polymorphic-compare" `Quick test_polycmp;
          Alcotest.test_case "polymorphic-compare shadowed" `Quick
            test_polycmp_shadowed;
          Alcotest.test_case "escaping-mutable-state" `Quick test_escaping;
          Alcotest.test_case "socket effects in lib/netcore" `Quick
            test_socket_effects;
          Alcotest.test_case "socket effects sanctioned in bin/" `Quick
            test_socket_effects_bin;
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
          Alcotest.test_case "render format" `Quick test_render_format;
        ] );
      ( "driver",
        [
          Alcotest.test_case "parlint_ok corpus exits 0" `Quick test_driver_ok;
          Alcotest.test_case "parlint_broken corpus exits 1" `Quick
            test_driver_broken;
          Alcotest.test_case "list-rules" `Quick test_driver_list_rules;
          Alcotest.test_case "json output" `Quick test_driver_json;
          Alcotest.test_case "detlint fixture" `Quick test_driver_detlint_fixture;
          Alcotest.test_case "perflint fixture" `Quick
            test_driver_perflint_fixture;
          Alcotest.test_case "retired flags rejected" `Quick
            test_driver_retired_flags;
        ] );
      ( "tree",
        [
          Alcotest.test_case "clean tree" `Quick test_clean_tree;
          Alcotest.test_case "netcore pure, Unix confined to bin" `Quick
            test_netcore_pure;
        ] );
    ]
