(* Tests for the parlint knob-threading pass (lib/lint/parlint).

   Unlike test_lint.ml / test_perflint.ml, the fixtures are whole
   miniature corpora: lint_fixtures/parlint_ok is a clean tree with one
   threaded knob and one suppressed model constant, and
   lint_fixtures/parlint_broken is the same tree with one knob that no
   surface reaches.  File roles are detected by path segment, so the
   corpora exercise exactly the code paths the real tree does. *)

module Parlint = Raftpax_lint.Parlint
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

let corpus name =
  Parlint.lint_sources (Lint.sources [ Filename.concat fixture_dir name ])

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

let check_mentions ~sub findings =
  Alcotest.(check bool)
    (Printf.sprintf "a finding mentions %s" sub)
    true
    (List.exists (fun f -> contains ~sub f.Finding.message) findings)

(* --- the two corpora --- *)

let test_ok_corpus () =
  (* The suppressed constant would be a finding without its reasoned
     [@lint.allow], so a clean run asserts that suppression works. *)
  let fs = corpus "parlint_ok" in
  Alcotest.(check string)
    "ok corpus is clean" ""
    (String.concat "\n" (List.map Finding.render fs))

let broken = lazy (corpus "parlint_broken")

let test_broken_total () =
  Alcotest.(check int) "total findings" 1 (List.length (Lazy.force broken))

let test_broken_knob () =
  let fs = Lazy.force broken in
  check_rule_count ~rule:"knob-threading" ~expect:1 fs;
  check_mentions ~sub:"new_knob" fs

(* --- self-gating, parse errors, plumbing --- *)

let test_self_gate () =
  (* A lone types.ml is not a corpus: every surface is absent, so even
     the broken declaration is silent on its own. *)
  let src =
    read_file
      (Filename.concat fixture_dir "parlint_broken/lib/consensus/types.ml")
  in
  Alcotest.(check int)
    "no findings without surfaces" 0
    (List.length (Parlint.lint_sources [ ("lib/consensus/types.ml", src) ]))

let test_parse_error () =
  let fs = Parlint.lint_sources [ ("lib/broken.ml", "let let = in") ] in
  check_rule_count ~rule:"parse-error" ~expect:1 fs;
  Alcotest.(check int) "only the parse error" 1 (List.length fs)

let test_rule_registry () =
  Alcotest.(check (list string))
    "rule ids" [ "knob-threading" ]
    (List.map (fun r -> r.Lint.id) Parlint.rules);
  Alcotest.(check bool)
    "rule_by_id finds knob-threading" true
    (Option.is_some (Parlint.rule_by_id "knob-threading"));
  Alcotest.(check bool)
    "rule_by_id rejects a retired rule" true
    (Option.is_none (Parlint.rule_by_id "wire-coverage"))

(* --- the tree itself must be clean --- *)

let test_clean_tree () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    (* test/ holds no surface, but scanning it checks that
       Lint.sources skips lint_fixtures/: the broken corpus above
       must not pollute the real tree's fact base. *)
    let findings =
      Parlint.lint_sources (Lint.sources [ "../lib"; "../bench"; "../test" ])
    in
    Alcotest.(check string)
      "no parlint findings in the tree" ""
      (String.concat "\n" (List.map Finding.render findings))
  end

let () =
  Alcotest.run "parlint"
    [
      ( "corpora",
        [
          Alcotest.test_case "ok corpus (suppressed constant)" `Quick
            test_ok_corpus;
          Alcotest.test_case "broken corpus total" `Quick test_broken_total;
          Alcotest.test_case "knob-threading" `Quick test_broken_knob;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "single-file self-gate" `Quick test_self_gate;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
        ] );
      ( "tree",
        [ Alcotest.test_case "clean tree" `Quick test_clean_tree ] );
    ]
