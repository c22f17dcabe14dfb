(* perflint: a hot-path cost & allocation pass over the surface syntax
   (Parsetree, via compiler-libs — no typing, so like detlint every
   judgement is syntactic and conservative).

   The invariant being enforced: per-message and per-event code must
   stay O(1)-ish.  Consensus codebases rot into accidental O(n²) one
   innocuous line at a time — a list accumulator rebuilt with [@] per
   vote, a [List.length] per dispatch, an assoc scan over growing state
   — and the simulator's throughput (and with it every figure sweep) is
   the sum of those lines.

   Hot paths are declared, not guessed: a [[@perf.hot]] attribute on a
   binding marks it (and everything defined inside it) hot, and a small
   per-library table ([default_hot]) marks the known dispatch spines —
   lib/consensus message handlers, the lib/sim engine/net drain, the
   lib/kvstore apply path — hot by name.  The quadratic-accumulate rule
   alone runs everywhere under lib/: rebuilding long-lived state with
   [@] is wrong at any temperature.

   Suppression mirrors detlint with its own attribute namespace:
   [[@perf.allow "rule-id"]] on an expression, [[@@perf.allow ...]] on a
   binding, or a floating [[@@@perf.allow ...]] for the file; the id
   ["all"] matches every rule. *)

open Parsetree

let r_quad = "quadratic-accumulate"
let r_length = "length-in-hot-path"
let r_assoc = "assoc-scan"
let r_alloc = "alloc-in-handler"
let r_sort = "sort-in-loop"
let r_string = "string-build-in-hot-path"
let r_parse = "parse-error"

let in_lib path = Lint.has_segment ~seg:"lib" path

let rules : Lint.rule list =
  [
    {
      id = r_quad;
      severity = Finding.Error;
      summary =
        "accumulator rebuilt with list append (x := e @ !x / f <- e @ t.f): \
         O(n) per event is O(n\194\178) per run; push into a Vec or cons and \
         reverse once";
      applies = in_lib;
    };
    {
      id = r_length;
      severity = Finding.Error;
      summary =
        "List.length/List.nth in a hot path walks the spine per call; cache \
         the count (Net.size, a record field) or use an indexed structure";
      applies = in_lib;
    };
    {
      id = r_assoc;
      severity = Finding.Error;
      summary =
        "List.assoc/mem_assoc/find in a hot path scans linearly per event; \
         use a Hashtbl or an array keyed by node id";
      applies = in_lib;
    };
    {
      id = r_alloc;
      severity = Finding.Warning;
      summary =
        "allocation (List/Array building, @, closure, tuple) inside a \
         [@perf.hot] function: hoist it or thread a reusable buffer";
      applies = in_lib;
    };
    {
      id = r_sort;
      severity = Finding.Warning;
      summary =
        "sort inside a hot path or loop re-pays n log n per event; maintain \
         sorted order incrementally or hoist the sort";
      applies = in_lib;
    };
    {
      id = r_string;
      severity = Finding.Warning;
      summary =
        "string building (Printf/Format/^) in a hot path allocates per \
         event even when unread; wrap it in a lazy render closure (~info \
         pattern) or gate on the telemetry switch";
      applies = in_lib;
    };
  ]

let rule_by_id id = List.find_opt (fun (r : Lint.rule) -> r.id = id) rules

(* The known dispatch spines, hot without annotation.  Names are matched
   per library so an unrelated [run] elsewhere stays cold. *)
let default_hot path name =
  let seg s = Lint.has_segment ~seg:s path in
  if seg "consensus" then
    List.mem name
      [
        "handle";
        "accept_entries";
        "apply_committed";
        "advance_commit";
        "maybe_replicate";
        "send_batch";
        "append_cmd";
        (* batching flush points: run once per batch, but sit directly on
           the submit/commit spine, so per-call cost is per-event cost at
           batch size 1 *)
        "flush_batch";
        "flush_accepts";
        "flush_appends";
        "hold_own_slot";
      ]
  else if seg "sim" then
    List.mem name [ "run"; "send"; "deliver"; "execute"; "schedule" ]
  else if seg "kvstore" then List.mem name [ "apply"; "next_op" ]
  else false

(* ---- Parsetree helpers (shared shapes with lint.ml) ---- *)

let path_of_expr e =
  match e.pexp_desc with
  | Pexp_ident lid -> ( try Longident.flatten lid.txt with _ -> [])
  | _ -> []

let strip_stdlib = function
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | p -> p

let last = function [] -> "" | p -> List.nth p (List.length p - 1)

let head_path e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> strip_stdlib (path_of_expr f)
  | _ -> strip_stdlib (path_of_expr e)

let const_string e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

let rec strings_of_expr e =
  match const_string e with
  | Some s -> [ s ]
  | None -> (
      match e.pexp_desc with
      | Pexp_tuple es -> List.concat_map strings_of_expr es
      | Pexp_apply (f, args) ->
          strings_of_expr f
          @ List.concat_map (fun (_, a) -> strings_of_expr a) args
      | _ -> [])

let allows_of_attrs (attrs : attributes) =
  List.concat_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "perf.allow" then []
      else
        match a.attr_payload with
        | PStr items ->
            List.concat_map
              (fun item ->
                match item.pstr_desc with
                | Pstr_eval (e, _) -> strings_of_expr e
                | _ -> [])
              items
        | _ -> [])
    attrs

let has_hot_attr (attrs : attributes) =
  List.exists (fun (a : attribute) -> a.attr_name.txt = "perf.hot") attrs

(* ---- per-file context ---- *)

type ctx = {
  file : string;
  mutable findings : Finding.t list;
  mutable allow_stack : string list list;
  mutable file_allows : string list list;  (* consed, one per attribute *)
  mutable hot_depth : int;  (* inside a hot function (attribute or table) *)
  mutable attr_hot_depth : int;  (* inside an explicitly [@perf.hot] one *)
  mutable loop_depth : int;  (* inside while/for *)
  mutable lazy_info_depth : int;  (* inside a closure passed as ~info *)
  mutable fun_spine : bool;
      (* current expr is the leading lambda chain of a let binding —
         a definition's own parameters, not a per-event closure *)
}

let suppressed ctx rule_id =
  let matches l = List.mem rule_id l || List.mem "all" l in
  List.exists matches ctx.file_allows || List.exists matches ctx.allow_stack

let report ctx rule_id ~(loc : Location.t) message =
  match rule_by_id rule_id with
  | Some r when r.applies ctx.file && not (suppressed ctx rule_id) ->
      let p = loc.loc_start in
      ctx.findings <-
        {
          Finding.file = ctx.file;
          line = p.pos_lnum;
          col = p.pos_cnum - p.pos_bol;
          rule = rule_id;
          severity = r.severity;
          message;
        }
        :: ctx.findings
  | _ -> ()

(* ---- rule 1: quadratic accumulate ---- *)

let is_append e =
  match head_path e with
  | [ "@" ] | [ "List"; "append" ] | [ "List"; "rev_append" ] -> true
  | _ -> false

let append_operands e =
  match e.pexp_desc with
  | Pexp_apply (_, [ (_, a); (_, b) ]) when is_append e -> Some (a, b)
  | _ -> None

let deref_of e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (_, arg) ]) when last (path_of_expr f) = "!" -> (
      match arg.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
      | _ -> None)
  | _ -> None

let field_name_of e =
  match e.pexp_desc with
  | Pexp_field (_, lid) -> Some (last (try Longident.flatten lid.txt with _ -> []))
  | _ -> None

let check_quad ctx e =
  match e.pexp_desc with
  (* x := e @ !x  (either operand) *)
  | Pexp_apply (f, [ (_, lhs); (_, rhs) ]) when last (path_of_expr f) = ":=" -> (
      match (lhs.pexp_desc, append_operands rhs) with
      | Pexp_ident { txt = Longident.Lident x; _ }, Some (a, b)
        when deref_of a = Some x || deref_of b = Some x ->
          report ctx r_quad ~loc:e.pexp_loc
            (Printf.sprintf
               "`%s' is rebuilt with @ on every update — O(n) per event, \
                O(n\194\178) per run; use a Vec (push/clear) or cons and \
                reverse at the use site"
               x)
      | _ -> ())
  (* t.f <- e @ t.f  (either operand) *)
  | Pexp_setfield (_, fld, rhs) -> (
      let fname = last (try Longident.flatten fld.txt with _ -> []) in
      match append_operands rhs with
      | Some (a, b)
        when field_name_of a = Some fname || field_name_of b = Some fname ->
          report ctx r_quad ~loc:e.pexp_loc
            (Printf.sprintf
               "field `%s' is rebuilt with @ on every update — O(n) per \
                event, O(n\194\178) per run; use a Vec (push/clear) or cons \
                and reverse at the use site"
               fname)
      | _ -> ())
  | _ -> ()

(* ---- rule 2: length in hot path ---- *)

(* [List.length (Net.nodes _)] gets the targeted hint even outside hot
   functions: the cluster size is a constant the net already caches. *)
let nodes_arg args =
  List.exists
    (fun (_, a) ->
      match a.pexp_desc with
      | Pexp_apply (f, _) -> (
          match strip_stdlib (path_of_expr f) with
          | [ "Net"; "nodes" ] | [ "nodes" ] -> true
          | _ -> false)
      | _ -> false)
    args

let check_length ctx e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match strip_stdlib (path_of_expr f) with
      | [ "List"; ("length" | "nth" as m) ] ->
          if m = "length" && nodes_arg args then
            report ctx r_length ~loc:e.pexp_loc
              "List.length (Net.nodes _) walks the node list per call: use \
               Net.size, which is cached at net construction"
          else if ctx.hot_depth > 0 then
            report ctx r_length ~loc:e.pexp_loc
              (Printf.sprintf
                 "List.%s in a hot path walks the list spine per event; \
                  cache the count or use an indexed structure (Vec, array)"
                 m)
      | _ -> ())
  | _ -> ()

(* ---- rule 3: assoc scan ---- *)

let check_assoc ctx e =
  if ctx.hot_depth > 0 then
    match e.pexp_desc with
    | Pexp_apply (f, _) -> (
        match strip_stdlib (path_of_expr f) with
        | [ "List";
            (( "assoc" | "assoc_opt" | "mem_assoc" | "remove_assoc" | "find"
             | "find_opt" | "mem" ) as m) ] ->
            report ctx r_assoc ~loc:e.pexp_loc
              (Printf.sprintf
                 "List.%s in a hot path scans linearly per event; use a \
                  Hashtbl or an array indexed by node/slot id"
                 m)
        | _ -> ())
    | _ -> ()

(* ---- rule 4: allocation in [@perf.hot] handlers ---- *)

let list_alloc_path p =
  match strip_stdlib p with
  | [ "List";
      (( "map" | "mapi" | "map2" | "init" | "filter" | "filter_map" | "rev"
       | "rev_map" | "concat" | "concat_map" | "flatten" | "append" | "split"
       | "combine" ) as m) ] ->
      Some ("List." ^ m)
  | [ "Array";
      (( "make" | "create_float" | "init" | "copy" | "append" | "of_list"
       | "to_list" | "sub" | "make_matrix" ) as m) ] ->
      Some ("Array." ^ m)
  | [ "@" ] -> Some "@"
  | _ -> None

let check_alloc ctx ~spine e =
  (* The ~info closure (and anything inside it) only runs when telemetry
     capture is on — its allocations are off the hot path by design. *)
  if ctx.attr_hot_depth > 0 && ctx.lazy_info_depth = 0 then
    match e.pexp_desc with
    | Pexp_apply (f, _) -> (
        match list_alloc_path (path_of_expr f) with
        | Some name ->
            report ctx r_alloc ~loc:e.pexp_loc
              (Printf.sprintf
                 "%s allocates per event in a [@perf.hot] function; hoist \
                  it, reuse a buffer, or iterate in place"
                 name)
        | None -> ())
    | Pexp_tuple _ ->
        report ctx r_alloc ~loc:e.pexp_loc
          "tuple construction allocates per event in a [@perf.hot] \
           function; pass components separately or reuse a record"
    | (Pexp_fun _ | Pexp_function _) when not spine ->
        report ctx r_alloc ~loc:e.pexp_loc
          "closure allocation per event in a [@perf.hot] function; hoist \
           the closure or take the environment as arguments"
    | _ -> ()

(* ---- rule 5: sort in loop / hot path ---- *)

let check_sort ctx e =
  if ctx.hot_depth > 0 || ctx.loop_depth > 0 then
    match e.pexp_desc with
    | Pexp_apply (f, _) -> (
        match strip_stdlib (path_of_expr f) with
        | [ ("List" | "Array");
            (( "sort" | "stable_sort" | "fast_sort" | "sort_uniq" ) as m) ] ->
            report ctx r_sort ~loc:e.pexp_loc
              (Printf.sprintf
                 "%s re-pays n log n per event inside a %s; maintain sorted \
                  order incrementally or hoist the sort"
                 m
                 (if ctx.loop_depth > 0 then "loop" else "hot path"))
        | _ -> ())
    | _ -> ()

(* ---- rule 6: string building in hot path ---- *)

let string_builder_path p =
  match strip_stdlib p with
  | ("Printf" | "Format" | "Fmt") :: _ :: _ -> true
  | [ "^" ] | [ "String"; "concat" ] -> true
  | _ -> false

let check_string ctx e =
  if ctx.hot_depth > 0 && ctx.lazy_info_depth = 0 then
    match e.pexp_desc with
    | Pexp_apply (f, _) when string_builder_path (path_of_expr f) ->
        report ctx r_string ~loc:e.pexp_loc
          (Printf.sprintf
             "`%s' builds a string per event in a hot path; defer it \
              behind a closure (the ~info pattern) or a telemetry guard"
             (String.concat "." (strip_stdlib (path_of_expr f))))
    | _ -> ()

(* ---- main traversal ---- *)

let binding_name vb =
  match vb.pvb_pat.ppat_desc with Ppat_var v -> v.txt | _ -> ""

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> is_function body
  | _ -> false

let main_iterator ctx =
  let super = Ast_iterator.default_iterator in
  let push allows = ctx.allow_stack <- allows :: ctx.allow_stack in
  let pop () = ctx.allow_stack <- List.tl ctx.allow_stack in
  {
    super with
    expr =
      (fun it e ->
        push (allows_of_attrs e.pexp_attributes);
        let spine = ctx.fun_spine in
        ctx.fun_spine <- false;
        check_quad ctx e;
        check_length ctx e;
        check_assoc ctx e;
        check_alloc ctx ~spine e;
        check_sort ctx e;
        check_string ctx e;
        (match e.pexp_desc with
        | (Pexp_fun _ | Pexp_function _ | Pexp_newtype _ | Pexp_constraint _)
          when spine ->
            (* Stay on the definition's lambda chain: its body's own
               outermost lambdas are still parameters, not per-event
               closures. *)
            ctx.fun_spine <- true;
            super.expr it e;
            ctx.fun_spine <- false
        | Pexp_apply (f, args) ->
            it.expr it f;
            List.iter
              (fun ((lbl : Asttypes.arg_label), a) ->
                match (lbl, a.pexp_desc) with
                (* A closure passed as ~info is the sanctioned lazy-render
                   pattern: only evaluated when capture is on. *)
                | Asttypes.Labelled "info", (Pexp_fun _ | Pexp_function _) ->
                    ctx.lazy_info_depth <- ctx.lazy_info_depth + 1;
                    it.expr it a;
                    ctx.lazy_info_depth <- ctx.lazy_info_depth - 1
                | _ -> it.expr it a)
              args
        | Pexp_while _ | Pexp_for _ ->
            ctx.loop_depth <- ctx.loop_depth + 1;
            super.expr it e;
            ctx.loop_depth <- ctx.loop_depth - 1
        | _ -> super.expr it e);
        pop ());
    value_binding =
      (fun it vb ->
        push (allows_of_attrs vb.pvb_attributes);
        let hot_attr = has_hot_attr vb.pvb_attributes in
        let hot =
          is_function vb.pvb_expr
          && (hot_attr || default_hot ctx.file (binding_name vb))
        in
        if hot then ctx.hot_depth <- ctx.hot_depth + 1;
        if hot && hot_attr then ctx.attr_hot_depth <- ctx.attr_hot_depth + 1;
        ctx.fun_spine <- true;
        super.value_binding it vb;
        ctx.fun_spine <- false;
        if hot && hot_attr then ctx.attr_hot_depth <- ctx.attr_hot_depth - 1;
        if hot then ctx.hot_depth <- ctx.hot_depth - 1;
        pop ());
    module_binding =
      (fun it mb ->
        push (allows_of_attrs mb.pmb_attributes);
        super.module_binding it mb;
        pop ());
    structure_item =
      (fun it item ->
        (match item.pstr_desc with
        | Pstr_attribute a when a.attr_name.txt = "perf.allow" ->
            ctx.file_allows <- allows_of_attrs [ a ] :: ctx.file_allows
        | _ -> ());
        super.structure_item it item);
  }

(* ---- entry points ---- *)

let lint_string ~filename source =
  let file = Lint.normalize_path filename in
  let ctx =
    {
      file;
      findings = [];
      allow_stack = [];
      file_allows = [];
      hot_depth = 0;
      attr_hot_depth = 0;
      loop_depth = 0;
      lazy_info_depth = 0;
      fun_spine = false;
    }
  in
  match
    let lb = Lexing.from_string source in
    Location.init lb file;
    Parse.implementation lb
  with
  | structure ->
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_attribute a when a.attr_name.txt = "perf.allow" ->
              ctx.file_allows <- allows_of_attrs [ a ] :: ctx.file_allows
          | _ -> ())
        structure;
      let it = main_iterator ctx in
      it.structure it structure;
      List.sort Finding.compare ctx.findings
  | exception exn ->
      let line, col =
        match exn with
        | Syntaxerr.Error err ->
            let loc = Syntaxerr.location_of_error err in
            (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
        | _ -> (1, 0)
      in
      [
        {
          Finding.file;
          line;
          col;
          rule = r_parse;
          severity = Finding.Error;
          message = "source does not parse: " ^ Printexc.to_string exn;
        };
      ]

let lint_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let source = really_input_string ic len in
  close_in ic;
  lint_string ~filename:path source

let lint_paths paths =
  Lint.collect_files paths
  |> List.concat_map lint_file
  |> List.sort Finding.compare
