(* parlint: the cross-file knob pass.  detlint and perflint judge one
   file at a time; parlint parses the whole tree into a fact base and
   cross-references it *across* files, because the property it guards
   is global: a [Types.params] field is only a knob if every operator
   surface can reach it.

   The other parity obligations of the paper's porting discipline live
   where they are enforced by construction: warning 4 (fragile match)
   in lib/consensus (message dispatch), exhaustive wildcard-free
   matches in test_netcore.ml (wire coverage and message roles), the
   probe table in test_telemetry.ml, and the scope and protocol lists
   that Scenario and Cluster derive from one source (DESIGN.md "Porting
   discipline").

   Like its siblings this is surface syntax only (compiler-libs
   Parsetree, no typing).  A field that is deliberately not a knob
   carries [@lint.allow "knob-threading" "reason"] — the second string
   is the human justification and is ignored by the checker. *)

open Parsetree
module SSet = Set.Make (String)

let r_knob = "knob-threading"

let rules : Lint.rule list =
  [
    {
      id = r_knob;
      severity = Finding.Error;
      summary =
        "every Types.params field must be threaded through every config \
         surface: Harness.config, Shard.config + its JSON emitter, \
         Nemesis.config, and bench/main.ml";
      applies = Lint.everywhere;
      check = (fun _ _ -> None) (* judged across files: [knob_findings] *);
    };
  ]

let rule_by_id id = List.find_opt (fun (r : Lint.rule) -> r.id = id) rules

(* ---- the fact base ---- *)

type field = { fd_name : string; fd_loc : Location.t; fd_allows : string list }

type file_fact = {
  ff_path : string;
  mutable ff_params : field list; (* fields of [type params] *)
  mutable ff_idents : SSet.t; (* identifiers and record labels *)
  mutable ff_strings : SSet.t; (* string literals *)
  mutable ff_allows : string list; (* floating [@@@lint.allow] *)
}

let label_name (lid : Longident.t Location.loc) = Longident.last lid.txt

let collector (ff : file_fact) =
  let add_ident s = ff.ff_idents <- SSet.add s ff.ff_idents in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_ident lid -> add_ident (Longident.last lid.txt)
    | Pexp_field (_, lid) | Pexp_setfield (_, lid, _) -> add_ident (label_name lid)
    | Pexp_record (fields, _) ->
        List.iter (fun (lid, _) -> add_ident (label_name lid)) fields
    | Pexp_constant (Pconst_string (s, _, _)) ->
        ff.ff_strings <- SSet.add s ff.ff_strings
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let pat sub p =
    (match p.ppat_desc with
    | Ppat_record (fields, _) ->
        List.iter (fun (lid, _) -> add_ident (label_name lid)) fields
    | Ppat_var v -> add_ident v.txt
    | _ -> ());
    Ast_iterator.default_iterator.pat sub p
  in
  let type_declaration sub (td : type_declaration) =
    (match td.ptype_kind with
    | Ptype_record lds ->
        List.iter
          (fun (ld : label_declaration) ->
            add_ident ld.pld_name.txt;
            if td.ptype_name.txt = "params" then
              ff.ff_params <-
                {
                  fd_name = ld.pld_name.txt;
                  fd_loc = ld.pld_loc;
                  fd_allows = Lint.allows_of_attrs ld.pld_attributes;
                }
                :: ff.ff_params)
          lds
    | _ -> ());
    Ast_iterator.default_iterator.type_declaration sub td
  in
  let structure_item sub item =
    (match item.pstr_desc with
    | Pstr_attribute a when a.attr_name.txt = "lint.allow" ->
        List.iter
          (fun al -> ff.ff_allows <- al :: ff.ff_allows)
          (Lint.allows_of_attrs [ a ])
    | _ -> ());
    Ast_iterator.default_iterator.structure_item sub item
  in
  { Ast_iterator.default_iterator with expr; pat; type_declaration; structure_item }

(* A file that does not parse yields its [parse-error] finding instead of
   facts. *)
let extract ~filename source =
  let file = Lint.normalize_path filename in
  let ff =
    {
      ff_path = file;
      ff_params = [];
      ff_idents = SSet.empty;
      ff_strings = SSet.empty;
      ff_allows = [];
    }
  in
  Result.map
    (fun structure ->
      let it = collector ff in
      it.structure it structure;
      ff.ff_params <- List.rev ff.ff_params;
      ff)
    (Lint.parse ~file source)

(* ---- file roles ----

   Role detection is by path segment + basename, so the rule runs
   unchanged over the real tree and over a miniature fixture corpus
   (test/lint_fixtures/parlint_*/lib/consensus/types.ml plays
   types.ml).  A surface absent from the scanned corpus is skipped:
   linting bin/ alone finds nothing rather than claiming every knob is
   unthreaded. *)

let base p = Filename.basename p
let is_types p = Lint.in_consensus p && base p = "types.ml"

let in_lib_dir seg name p =
  Lint.in_lib p && Lint.has_segment ~seg p && base p = name

let is_bench p = Lint.has_segment ~seg:"bench" p && base p = "main.ml"

(* ---- the rule ---- *)

let allowed allows = List.mem r_knob allows || List.mem "all" allows

(* knob-threading: a Types.params field is either threaded through
   every config surface (the drift the batching port chased by hand) or
   carries a reason saying why it is a model constant. *)
let knob_findings facts =
  let surfaces =
    [
      ("Harness.config", in_lib_dir "kvstore" "harness.ml", `Ident);
      ("Shard.config and its JSON emitter", in_lib_dir "kvstore" "shard.ml", `Ident_and_string);
      ("Nemesis.config", in_lib_dir "nemesis" "nemesis.ml", `Ident);
      ("a bench/main.ml flag or JSON key", is_bench, `Ident_or_string);
    ]
  in
  List.concat_map
    (fun tf ->
      if not (is_types tf.ff_path) then []
      else
        List.filter_map
          (fun fld ->
            let missing =
              List.filter_map
                (fun (label, sel, mode) ->
                  match List.filter (fun f -> sel f.ff_path) facts with
                  | [] -> None (* surface not in the scanned corpus *)
                  | files ->
                      let ident f = SSet.mem fld.fd_name f.ff_idents in
                      let str f = SSet.mem fld.fd_name f.ff_strings in
                      let ok f =
                        match mode with
                        | `Ident -> ident f
                        | `Ident_and_string -> ident f && str f
                        | `Ident_or_string -> ident f || str f
                      in
                      if List.exists ok files then None else Some label)
                surfaces
            in
            if missing = [] || allowed (fld.fd_allows @ tf.ff_allows) then None
            else
              Some
                {
                  Finding.file = tf.ff_path;
                  line = fld.fd_loc.loc_start.pos_lnum;
                  col = fld.fd_loc.loc_start.pos_cnum - fld.fd_loc.loc_start.pos_bol;
                  rule = r_knob;
                  severity = Finding.Error;
                  message =
                    Printf.sprintf
                      "params field %s is not threaded through %s: port the \
                       knob to every surface or annotate it [@lint.allow \
                       \"%s\" \"reason\"]"
                      fld.fd_name
                      (String.concat ", " missing)
                      r_knob;
                })
          tf.ff_params)
    facts

(* ---- entry points ---- *)

let lint_sources sources =
  let facts, parse_failures =
    List.partition_map
      (fun (filename, source) ->
        match extract ~filename source with
        | Ok ff -> Left ff
        | Error f -> Right f)
      sources
  in
  List.sort Finding.compare (parse_failures @ knob_findings facts)
