(* detlint: an AST pass over the surface syntax (Parsetree, via
   compiler-libs — no typing, so every judgement here is syntactic and
   deliberately conservative: when the analysis cannot prove a site
   harmless it flags it, and the site either gets fixed or carries an
   explicit [@lint.allow] with its justification).

   The invariant being enforced: the simulator and every protocol
   runtime are bit-deterministic under a seed.  nemesis trace replay,
   mcheck choice schedules, telemetry snapshots and the state
   fingerprints all compare bytes across runs, so one unordered
   Hashtbl.fold or one wall-clock read silently breaks all four. *)

open Parsetree

type rule = {
  id : string;
  severity : Finding.severity;
  summary : string;
  applies : string -> bool;
}

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

let r_forbidden = "forbidden-effects"
let r_unordered = "unordered-iteration"
let r_polycmp = "polymorphic-compare"
let r_escaping = "escaping-mutable-state"
let r_parse = "parse-error"

let rules =
  [
    {
      id = r_forbidden;
      severity = Finding.Error;
      summary =
        "Random/Unix/Sys.time/Hashtbl.hash/Domain/Thread under lib/: the \
         sim clock and the seeded Rng are the only time and entropy \
         sources";
      applies = in_lib;
    };
    {
      id = r_unordered;
      severity = Finding.Error;
      summary =
        "Hashtbl.iter/fold/to_seq whose result is not provably \
         order-insensitive (sorted, set-collected, or a commutative \
         fold): iteration order is seed-dependent and breaks replay";
      applies = everywhere;
    };
    {
      id = r_polycmp;
      severity = Finding.Warning;
      summary =
        "bare polymorphic compare (or =/< on a function value): use a \
         monomorphic comparator (Int.compare, String.compare, a \
         dedicated one) — crash-proof and faster in hot sorts";
      applies = everywhere;
    };
    {
      id = r_escaping;
      severity = Finding.Error;
      summary =
        "top-level mutable state in a lib/ module: it survives across \
         runs in one process and poisons replays unless it is on the \
         engine reset path";
      applies = in_lib;
    };
  ]

let rule_by_id id = List.find_opt (fun r -> r.id = id) rules

(* ---- small Parsetree helpers ---- *)

let path_of_expr e =
  match e.pexp_desc with
  | Pexp_ident lid -> ( try Longident.flatten lid.txt with _ -> [])
  | _ -> []

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

let const_string e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* ---- suppression ---- *)

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

(* ---- per-file context ---- *)

type ctx = {
  file : string;
  mutable findings : Finding.t list;
  mutable allow_stack : string list list;
  mutable file_allows : string list list;  (* consed, one per attribute *)
  mutable ancestors : expression list;  (* innermost first *)
  mutable compare_shadowed : bool;
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

let check_forbidden ctx e =
  match path_of_expr e with
  | [] -> ()
  | path -> (
      match forbidden_effect path with
      | Some why ->
          report ctx r_forbidden ~loc:e.pexp_loc
            (Printf.sprintf "forbidden effect `%s': %s"
               (String.concat "." path) why)
      | None -> ())

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

let check_unordered ctx e =
  match hashtbl_iteration e with
  | None -> ()
  | Some (m, args) ->
      let sanctioned =
        match (m, args) with
        | "fold", (Asttypes.Nolabel, fn) :: _ when commutative_fold_fn fn ->
            true
        | "iter", _ -> false
        | _ -> climb e ctx.ancestors
      in
      if not sanctioned then
        report ctx r_unordered ~loc:e.pexp_loc
          (Printf.sprintf
             "Hashtbl.%s order is seed/layout-dependent; sort the result \
              (List.sort), fold commutatively, or collect into a set — \
              unordered iteration silently breaks fingerprints and replay"
             m)

(* ---- rule 3: polymorphic compare ---- *)

let check_polycmp ctx e =
  (match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident "compare"; _ }
    when not ctx.compare_shadowed ->
      report ctx r_polycmp ~loc:e.pexp_loc
        "bare polymorphic `compare': use Int.compare / String.compare / a \
         dedicated comparator (monomorphic is crash-proof on closures and \
         faster in hot sorts)"
  | Pexp_ident lid -> (
      match (try Longident.flatten lid.txt with _ -> []) with
      | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ] ->
          report ctx r_polycmp ~loc:e.pexp_loc
            "Stdlib.compare is polymorphic; use a monomorphic comparator"
      | _ -> ())
  | _ -> ());
  match e.pexp_desc with
  | Pexp_apply (f, args)
    when List.mem (last (path_of_expr f))
           [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max" ]
         && List.exists
              (fun (_, a) ->
                match a.pexp_desc with
                | Pexp_fun _ | Pexp_function _ -> true
                | _ -> false)
              args ->
      report ctx r_polycmp ~loc:e.pexp_loc
        "structural comparison applied to a function value raises at \
         runtime"
  | _ -> ()

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
              | Some name when !found = None -> found := Some (name, e.pexp_loc)
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

let check_escaping ctx vb =
  match vb.pvb_expr.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> ()
  | _ ->
      if binds_var vb.pvb_pat then (
        match find_mutable_creator vb.pvb_expr with
        | Some (creator, _) ->
            report ctx r_escaping ~loc:vb.pvb_pat.ppat_loc
              (Printf.sprintf
                 "top-level mutable `%s' (%s) survives across runs and \
                  poisons replays; move it into per-run state or annotate \
                  the deliberate exception"
                 (bound_name vb.pvb_pat) creator)
        | None -> ())

(* ---- prepass: compare shadowing ---- *)

let prepass ctx structure =
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = "compare"; _ } -> ctx.compare_shadowed <- true
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it structure

(* ---- main traversal ---- *)

let main_iterator ctx =
  let super = Ast_iterator.default_iterator in
  let push allows = ctx.allow_stack <- allows :: ctx.allow_stack in
  let pop () = ctx.allow_stack <- List.tl ctx.allow_stack in
  {
    super with
    expr =
      (fun it e ->
        push (allows_of_attrs e.pexp_attributes);
        check_forbidden ctx e;
        check_unordered ctx e;
        check_polycmp ctx e;
        ctx.ancestors <- e :: ctx.ancestors;
        super.expr it e;
        ctx.ancestors <- List.tl ctx.ancestors;
        pop ());
    value_binding =
      (fun it vb ->
        push (allows_of_attrs vb.pvb_attributes);
        super.value_binding it vb;
        pop ());
    module_binding =
      (fun it mb ->
        push (allows_of_attrs mb.pmb_attributes);
        super.module_binding it mb;
        pop ());
    module_expr =
      (fun it me ->
        (match me.pmod_desc with
        | Pmod_ident lid -> (
            match
              forbidden_effect (try Longident.flatten lid.txt with _ -> [])
            with
            | Some _ -> ()
            | None -> (
                match strip_stdlib (try Longident.flatten lid.txt with _ -> []) with
                | [ ("Random" | "Unix" | "Domain" | "Thread" | "Mutex" | "Condition") as m ]
                  ->
                    report ctx r_forbidden ~loc:me.pmod_loc
                      (Printf.sprintf
                         "module %s aliased/opened: its effects are \
                          forbidden under lib/"
                         m)
                | _ -> ()))
        | _ -> ());
        super.module_expr it me);
    structure_item =
      (fun it item ->
        (match item.pstr_desc with
        | Pstr_attribute a ->
            if a.attr_name.txt = "lint.allow" then
              ctx.file_allows <- allows_of_attrs [ a ] :: ctx.file_allows
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                push (allows_of_attrs vb.pvb_attributes);
                check_escaping ctx vb;
                pop ())
              vbs
        | _ -> ());
        super.structure_item it item);
  }

(* ---- entry points ---- *)

let lint_string ~filename source =
  let file = normalize_path filename in
  let ctx =
    {
      file;
      findings = [];
      allow_stack = [];
      file_allows = [];
      ancestors = [];
      compare_shadowed = false;
    }
  in
  match
    let lb = Lexing.from_string source in
    Location.init lb file;
    Parse.implementation lb
  with
  | structure ->
      (* Floating [@@@lint.allow] anywhere in the file exempts the whole
         file, so collect those (and the prepass facts) before checking. *)
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_attribute a when a.attr_name.txt = "lint.allow" ->
              ctx.file_allows <- allows_of_attrs [ a ] :: ctx.file_allows
          | _ -> ())
        structure;
      prepass ctx structure;
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

let rec collect_into acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else collect_into acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let collect_files paths =
  List.sort String.compare
    (List.fold_left collect_into [] (List.map normalize_path paths))

let lint_paths paths =
  collect_files paths
  |> List.concat_map lint_file
  |> List.sort Finding.compare
