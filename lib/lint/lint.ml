(* The per-file lint driver, and detlint's rules.

   Every per-file rule — detlint's four here, perflint's in perflint.ml
   — runs on one walk of each file's surface syntax (Parsetree, via
   compiler-libs: no typing, so every judgement is syntactic and
   deliberately conservative: when the analysis cannot prove a site
   harmless it flags it, and the site either gets fixed or carries an
   explicit [@lint.allow] with its justification).  A rule is data: its
   [check] looks at one site and returns the finding's message; the
   walk keeps the context (ancestors, enclosing bindings, suppressions)
   and files the finding.

   detlint's invariant: the simulator and every protocol runtime are
   bit-deterministic under a seed.  nemesis trace replay, mcheck choice
   schedules, telemetry snapshots and the state fingerprints all compare
   bytes across runs, so one unordered Hashtbl.fold or one wall-clock
   read silently breaks all four. *)

open Parsetree

let normalize_path p =
  let p = String.map (fun c -> if c = '\\' then '/' else c) p in
  if String.length p >= 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

let has_segment ~seg path =
  let path = "/" ^ path in
  let needle = "/" ^ seg ^ "/" in
  let nl = String.length needle and pl = String.length path in
  let rec go i = i + nl <= pl && (String.sub path i nl = needle || go (i + 1)) in
  go 0

let in_lib path = has_segment ~seg:"lib" path
let in_consensus path = in_lib path && has_segment ~seg:"consensus" path
let everywhere _ = true

(* ---- small Parsetree helpers ---- *)

let flatten lid = try Longident.flatten lid with _ -> []

let path_of_expr e =
  match e.pexp_desc with Pexp_ident lid -> flatten lid.txt | _ -> []

let strip_stdlib = function
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | p -> p

let last = function [] -> "" | p -> List.nth p (List.length p - 1)

let parent_module p =
  match List.rev p with _ :: m :: _ -> m | _ -> ""

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let ends_with ~suffix s =
  let sl = String.length s and xl = String.length suffix in
  sl >= xl && String.sub s (sl - xl) xl = suffix

(* ---- suppression ---- *)

let rec strings_of_expr e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
  | Pexp_tuple es -> List.concat_map strings_of_expr es
  | Pexp_apply (f, args) ->
      strings_of_expr f @ List.concat_map (fun (_, a) -> strings_of_expr a) args
  | _ -> []

let allows_of_attrs (attrs : attributes) =
  List.concat_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "lint.allow" then []
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

(* ---- sites, context, rules ---- *)

type site =
  | Expr of expression
  | Top_value of value_binding
  | Module of module_expr

type ctx = {
  file : string;
  compare_shadowed : bool;
  mutable ancestors : expression list;
  mutable bindings : value_binding list;
}

type rule = {
  id : string;
  severity : Finding.severity;
  summary : string;
  applies : string -> bool;
  check : ctx -> site -> string option;
}

(* ---- rule 1: forbidden effects ---- *)

let forbidden_effect path =
  match strip_stdlib path with
  | "Random" :: _ :: _ -> Some "Random is seed-invisible entropy; use the engine's Rng"
  | "Unix" :: _ :: _ -> Some "Unix reaches the wall clock/OS; use the sim Engine"
  | [ "Sys"; "time" ] -> Some "Sys.time is wall-clock; use Engine.now"
  | [ "Hashtbl"; "hash" ] | [ "Hashtbl"; "seeded_hash" ] ->
      Some "polymorphic hash on unordered data is layout-dependent"
  | "Domain" :: _ :: _ | "Thread" :: _ :: _ | "Mutex" :: _ :: _
  | "Condition" :: _ :: _ ->
      Some "real parallelism has no place under the deterministic sim"
  | _ -> None

let check_forbidden _ = function
  | Expr e ->
      let path = path_of_expr e in
      Option.map
        (Printf.sprintf "forbidden effect `%s': %s" (String.concat "." path))
        (forbidden_effect path)
  | Module { pmod_desc = Pmod_ident lid; _ } -> (
      let path = flatten lid.txt in
      match (forbidden_effect path, strip_stdlib path) with
      | None, [ ("Random" | "Unix" | "Domain" | "Thread" | "Mutex" | "Condition") as m ]
        ->
          Some
            (Printf.sprintf
               "module %s aliased/opened: its effects are forbidden under lib/"
               m)
      | _ -> None)
  | _ -> None

(* ---- rule 2: unordered iteration ---- *)

let hashtbl_iteration e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match strip_stdlib (path_of_expr f) with
      | [ "Hashtbl"; ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values" as m) ]
        ->
          Some (m, args)
      | _ -> None)
  | _ -> None

(* Heads that consume a collection order-insensitively.  Any identifier
   whose name mentions "sort" counts, so local helpers like [sorted_tbl]
   or [sorted_ints] sanction their argument. *)
let sort_sink_path p =
  let p = strip_stdlib p in
  let name = String.lowercase_ascii (last p) in
  let m = parent_module p in
  contains_sub name "sort"
  || ((ends_with ~suffix:"Set" m || ends_with ~suffix:"Map" m)
     && List.mem name [ "of_seq"; "of_list"; "add_seq" ])

let sort_sink_expr e =
  match e.pexp_desc with
  | Pexp_ident _ -> sort_sink_path (path_of_expr e)
  | Pexp_apply (f, _) -> sort_sink_path (path_of_expr f)
  | _ -> false

(* Order-preserving wrappers the analysis sees through while climbing
   toward a sink. *)
let transparent_path p =
  match strip_stdlib p with
  | [ "List"; ("of_seq" | "rev" | "map" | "rev_map" | "mapi" | "filter"
              | "filter_map" | "concat" | "concat_map" | "flatten" | "to_seq") ]
  | [ "Array"; ("of_seq" | "of_list" | "to_list" | "map") ]
  | [ "Seq"; ("map" | "filter" | "filter_map" | "memoize") ] ->
      true
  | _ -> false

let transparent_expr e =
  match e.pexp_desc with
  | Pexp_ident _ -> transparent_path (path_of_expr e)
  | Pexp_apply (f, _) -> transparent_path (path_of_expr f)
  | _ -> false

let commutative_heads =
  [ "+"; "+."; "*"; "*."; "max"; "min"; "land"; "lor"; "lxor"; "&&"; "||" ]

(* A fold function whose body is a commutative/associative combination of
   the accumulator (or the accumulator itself) is order-insensitive. *)
let rec fun_body e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> fun_body body
  | Pexp_newtype (_, body) -> fun_body body
  | _ -> e

let commutative_fold_fn fn =
  match fn.pexp_desc with
  | Pexp_fun _ -> (
      let body = fun_body fn in
      match body.pexp_desc with
      | Pexp_ident _ | Pexp_constant _ -> true
      | Pexp_apply (f, _) -> List.mem (last (path_of_expr f)) commutative_heads
      | _ -> false)
  | _ -> false

(* Does [body] apply a sort-ish sink to something mentioning variable
   [v]?  Used for the let-bound shape
   [let xs = Hashtbl.fold ... in ... List.sort cmp xs ...]. *)
let mentions_var v e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } when x = v ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let sorted_later v body =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args)
            when sort_sink_path (path_of_expr f)
                 && List.exists (fun (_, a) -> mentions_var v a) args ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  !found

(* Climb from the iteration expression through its ancestors until the
   value provably reaches an order-insensitive consumer (sanctioned) or
   escapes analysis (flagged). *)
let rec climb child = function
  | [] -> false
  | anc :: rest -> (
      match anc.pexp_desc with
      | Pexp_apply (f, args) -> (
          if child == f then false
          else
            let head = last (strip_stdlib (path_of_expr f)) in
            match (head, args) with
            | "|>", [ (_, lhs); (_, rhs) ] when child == lhs ->
                sort_sink_expr rhs
                || (transparent_expr rhs && climb anc rest)
            | "@@", [ (_, lhs); (_, rhs) ] when child == rhs ->
                sort_sink_expr lhs
                || (transparent_expr lhs && climb anc rest)
            | _ ->
                sort_sink_path (path_of_expr f)
                || (transparent_path (path_of_expr f) && climb anc rest))
      | Pexp_let (_, vbs, body) -> (
          match
            List.find_opt (fun vb -> vb.pvb_expr == child) vbs
          with
          | Some vb -> (
              match vb.pvb_pat.ppat_desc with
              | Ppat_var v -> sorted_later v.txt body
              | _ -> false)
          | None -> child == body && climb anc rest)
      | Pexp_sequence (_, b) -> child == b && climb anc rest
      | Pexp_ifthenelse (cond, _, _) -> child != cond && climb anc rest
      | Pexp_constraint _ | Pexp_open _ -> climb anc rest
      | Pexp_match (scrutinee, _) | Pexp_try (scrutinee, _) ->
          child != scrutinee && climb anc rest
      | _ -> false)

let check_unordered ctx = function
  | Expr e -> (
      match hashtbl_iteration e with
      | None -> None
      | Some (m, args) ->
          let sanctioned =
            match (m, args) with
            | "fold", (Asttypes.Nolabel, fn) :: _ when commutative_fold_fn fn ->
                true
            | "iter", _ -> false
            | _ -> climb e ctx.ancestors
          in
          if sanctioned then None
          else
            Some
              (Printf.sprintf
                 "Hashtbl.%s order is seed/layout-dependent; sort the result \
                  (List.sort), fold commutatively, or collect into a set — \
                  unordered iteration silently breaks fingerprints and replay"
                 m))
  | _ -> None

(* ---- rule 3: polymorphic compare ---- *)

let compares = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max" ]

let is_fun a =
  match a.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

let check_polycmp ctx = function
  | Expr { pexp_desc = Pexp_ident { txt = Longident.Lident "compare"; _ }; _ }
    when not ctx.compare_shadowed ->
      Some
        "bare polymorphic `compare': use Int.compare / String.compare / a \
         dedicated comparator (monomorphic is crash-proof on closures and \
         faster in hot sorts)"
  | Expr { pexp_desc = Pexp_ident lid; _ } -> (
      match flatten lid.txt with
      | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ] ->
          Some "Stdlib.compare is polymorphic; use a monomorphic comparator"
      | _ -> None)
  | Expr { pexp_desc = Pexp_apply (f, args); _ }
    when List.mem (last (path_of_expr f)) compares
         && List.exists (fun (_, a) -> is_fun a) args ->
      Some
        "structural comparison applied to a function value raises at \
         runtime"
  | _ -> None

(* ---- rule 4: escaping mutable state ---- *)

let mutable_creator path =
  match strip_stdlib path with
  | [ "ref" ] -> Some "ref"
  | [ ("Hashtbl" | "Queue" | "Buffer" | "Stack" | "Dynarray" | "Weak" | "Vec") as m;
      "create" ] ->
      Some (m ^ ".create")
  | [ "Atomic"; "make" ] -> Some "Atomic.make"
  | [ "Bytes"; ("create" | "make" as f) ] -> Some ("Bytes." ^ f)
  | [ "Array"; ("make" | "create" | "init" | "make_matrix" | "make_float" as f) ]
    ->
      Some ("Array." ^ f)
  | _ -> None

(* Scan a binding's RHS for a mutable-container allocation, skipping
   function bodies (those allocate per call, which is fine). *)
let find_mutable_creator e =
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
          | Pexp_apply (f, _) -> (
              (match mutable_creator (path_of_expr f) with
              | Some name when !found = None -> found := Some name
              | _ -> ());
              Ast_iterator.default_iterator.expr it e)
          | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let rec binds_var p =
  match p.ppat_desc with
  | Ppat_var _ | Ppat_alias _ -> true
  | Ppat_tuple ps -> List.exists binds_var ps
  | Ppat_constraint (inner, _) -> binds_var inner
  | _ -> false

let bound_name p =
  match p.ppat_desc with Ppat_var v -> v.txt | _ -> "_"

let check_escaping _ = function
  | Top_value vb -> (
      match vb.pvb_expr.pexp_desc with
      | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> None
      | _ when not (binds_var vb.pvb_pat) -> None
      | _ ->
          Option.map
            (fun creator ->
              Printf.sprintf
                "top-level mutable `%s' (%s) survives across runs and \
                 poisons replays; move it into per-run state or annotate \
                 the deliberate exception"
                (bound_name vb.pvb_pat) creator)
            (find_mutable_creator vb.pvb_expr))
  | _ -> None

let rules =
  [
    {
      id = "forbidden-effects";
      severity = Finding.Error;
      summary =
        "Random/Unix/Sys.time/Hashtbl.hash/Domain/Thread under lib/: the \
         sim clock and the seeded Rng are the only time and entropy \
         sources";
      applies = in_lib;
      check = check_forbidden;
    };
    {
      id = "unordered-iteration";
      severity = Finding.Error;
      summary =
        "Hashtbl.iter/fold/to_seq whose result is not provably \
         order-insensitive (sorted, set-collected, or a commutative \
         fold): iteration order is seed-dependent and breaks replay";
      applies = everywhere;
      check = check_unordered;
    };
    {
      id = "polymorphic-compare";
      severity = Finding.Warning;
      summary =
        "bare polymorphic compare (or =/< on a function value): use a \
         monomorphic comparator (Int.compare, String.compare, a \
         dedicated one) — crash-proof and faster in hot sorts";
      applies = everywhere;
      check = check_polycmp;
    };
    {
      id = "escaping-mutable-state";
      severity = Finding.Error;
      summary =
        "top-level mutable state in a lib/ module: it survives across \
         runs in one process and poisons replays unless it is on the \
         engine reset path";
      applies = in_lib;
      check = check_escaping;
    };
  ]

(* ---- the walk ---- *)

(* File-wide facts, gathered before the walk: whether a [compare] is
   bound anywhere (a local one sanctions bare [compare]), and the
   floating [@@@lint.allow]s, which exempt the whole file wherever they
   sit. *)
let prepass structure =
  let shadowed = ref false and floating = ref [] in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = "compare"; _ } -> shadowed := true
          | _ -> ());
          super.value_binding it vb);
      structure_item =
        (fun it item ->
          (match item.pstr_desc with
          | Pstr_attribute a -> floating := allows_of_attrs [ a ] :: !floating
          | _ -> ());
          super.structure_item it item);
    }
  in
  it.structure it structure;
  (!shadowed, List.concat !floating)

(* One walk runs every rule at every site, and returns the findings
   no enclosing [lint.allow] suppresses.  [allows] starts with the
   file's floating ones. *)
let walk ctx rules ~allows structure =
  let allows = ref [ allows ] and findings = ref [] in
  let suppressed id =
    List.exists (fun l -> List.mem id l || List.mem "all" l) !allows
  in
  let report site (loc : Location.t) =
    List.iter
      (fun r ->
        if not (suppressed r.id) then
          match r.check ctx site with
          | Some message ->
              let p = loc.loc_start in
              findings :=
                {
                  Finding.file = ctx.file;
                  line = p.pos_lnum;
                  col = p.pos_cnum - p.pos_bol;
                  rule = r.id;
                  severity = r.severity;
                  message;
                }
                :: !findings
          | None -> ())
      rules
  in
  let allowing attrs f =
    allows := allows_of_attrs attrs :: !allows;
    f ();
    allows := List.tl !allows
  in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          allowing e.pexp_attributes (fun () ->
              report (Expr e) e.pexp_loc;
              ctx.ancestors <- e :: ctx.ancestors;
              super.expr it e;
              ctx.ancestors <- List.tl ctx.ancestors));
      value_binding =
        (fun it vb ->
          allowing vb.pvb_attributes (fun () ->
              ctx.bindings <- vb :: ctx.bindings;
              super.value_binding it vb;
              ctx.bindings <- List.tl ctx.bindings));
      module_binding =
        (fun it mb ->
          allowing mb.pmb_attributes (fun () -> super.module_binding it mb));
      module_expr =
        (fun it me ->
          report (Module me) me.pmod_loc;
          super.module_expr it me);
      structure_item =
        (fun it item ->
          (match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  allowing vb.pvb_attributes (fun () ->
                      report (Top_value vb) vb.pvb_pat.ppat_loc))
                vbs
          | _ -> ());
          super.structure_item it item);
    }
  in
  it.structure it structure;
  !findings

(* ---- entry points ---- *)

let parse ~file source =
  let lb = Lexing.from_string source in
  Location.init lb file;
  match Parse.implementation lb with
  | structure -> Ok structure
  | exception exn ->
      let line, col =
        match exn with
        | Syntaxerr.Error err ->
            let p = (Syntaxerr.location_of_error err).loc_start in
            (p.pos_lnum, p.pos_cnum - p.pos_bol)
        | _ -> (1, 0)
      in
      Error
        {
          Finding.file;
          line;
          col;
          rule = "parse-error";
          severity = Finding.Error;
          message = "source does not parse: " ^ Printexc.to_string exn;
        }

let lint_string rules ~filename source =
  let file = normalize_path filename in
  match parse ~file source with
  | Error f -> [ f ]
  | Ok structure ->
      let compare_shadowed, allows = prepass structure in
      let ctx = { file; compare_shadowed; ancestors = []; bindings = [] } in
      walk ctx (List.filter (fun r -> r.applies file) rules) ~allows structure
      |> List.sort Finding.compare

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [lint_fixtures] holds corpora that break rules on purpose (the
   parlint_broken tree would pollute the real tree's fact base), so it
   is skipped below a root; a root itself is never filtered. *)
let rec collect_into acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if
          entry = "" || entry.[0] = '.' || entry = "_build"
          || entry = "lint_fixtures"
        then acc
        else collect_into acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let sources roots =
  List.fold_left collect_into [] (List.map normalize_path roots)
  |> List.sort String.compare
  |> List.map (fun p -> (p, read_file p))
