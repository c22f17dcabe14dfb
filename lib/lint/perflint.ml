(* perflint: hot-path cost rules, run by the per-file driver in lint.ml.

   The invariant being enforced: per-message and per-event code must
   stay O(1)-ish.  Consensus codebases rot into accidental O(n²) one
   innocuous line at a time — a list accumulator rebuilt with [@] per
   vote, a [List.length] per dispatch, an assoc scan over growing state
   — and the simulator's throughput (and with it every figure sweep) is
   the sum of those lines.  Allocation is not judged here: the engine
   bench's exact minor and promoted words per op measure it per core.

   Hot paths are declared, not guessed: a [[@perf.hot]] attribute on a
   binding marks it (and everything defined inside it) hot, and a small
   per-library table ([hot_names]) marks the per-message spines hot by
   name.  The quadratic-accumulate rule alone runs everywhere under
   lib/: rebuilding long-lived state with [@] is wrong at any
   temperature. *)

open Parsetree

(* The per-message spines, hot without annotation, by library so an
   unrelated [run] elsewhere stays cold.  test_perflint fails when a
   name binds no function in its library. *)
let hot_names =
  [
    ( "consensus",
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
        (* Replica: every committed command, and every reply *)
        "apply";
        "commit";
        "complete";
      ] );
    (* the engine drain, the net model and the CPU model *)
    ("sim", [ "run"; "schedule"; "send"; "post"; "transmit"; "deliver_at"; "exec" ]);
    ("kvstore", [ "next_op" ]);
  ]

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> is_function body
  | _ -> false

let hot_binding file vb =
  is_function vb.pvb_expr
  && (List.exists
        (fun (a : attribute) -> a.attr_name.txt = "perf.hot")
        vb.pvb_attributes
     ||
     match vb.pvb_pat.ppat_desc with
     | Ppat_var v ->
         List.exists
           (fun (lib, names) ->
             Lint.has_segment ~seg:lib file && List.mem v.txt names)
           hot_names
     | _ -> false)

let hot (ctx : Lint.ctx) = List.exists (hot_binding ctx.file) ctx.bindings

let in_loop (ctx : Lint.ctx) =
  List.exists
    (fun a ->
      match a.pexp_desc with Pexp_while _ | Pexp_for _ -> true | _ -> false)
    ctx.ancestors

(* The called function's path and the arguments, for an application. *)
let call e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> Some (Lint.strip_stdlib (Lint.path_of_expr f), args)
  | _ -> None

let callee = function Lint.Expr e -> call e | _ -> None

(* ---- quadratic-accumulate ---- *)

let append_operands e =
  match call e with
  | Some (([ "@" ] | [ "List"; ("append" | "rev_append") ]), [ (_, a); (_, b) ])
    ->
      Some (a, b)
  | _ -> None

let deref_of e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (_, arg) ]) when Lint.last (Lint.path_of_expr f) = "!" -> (
      match arg.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
      | _ -> None)
  | _ -> None

let field_name_of e =
  match e.pexp_desc with
  | Pexp_field (_, lid) -> Some (Longident.last lid.txt)
  | _ -> None

let rebuilt what =
  Printf.sprintf
    "%s is rebuilt with @ on every update — O(n) per event, O(n\194\178) \
     per run; use a Vec (push/clear) or cons and reverse at the use site"
    what

let check_quad _ = function
  (* x := e @ !x  (either operand) *)
  | Lint.Expr
      {
        pexp_desc =
          Pexp_apply
            ( f,
              [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ });
                (_, rhs) ] );
        _;
      }
    when Lint.last (Lint.path_of_expr f) = ":=" -> (
      match append_operands rhs with
      | Some (a, b) when deref_of a = Some x || deref_of b = Some x ->
          Some (rebuilt (Printf.sprintf "`%s'" x))
      | _ -> None)
  (* t.f <- e @ t.f  (either operand) *)
  | Lint.Expr { pexp_desc = Pexp_setfield (_, fld, rhs); _ } -> (
      let fname = Longident.last fld.txt in
      match append_operands rhs with
      | Some (a, b)
        when field_name_of a = Some fname || field_name_of b = Some fname ->
          Some (rebuilt (Printf.sprintf "field `%s'" fname))
      | _ -> None)
  | _ -> None

(* ---- length-in-hot-path ---- *)

(* [List.length (Net.nodes _)] gets the targeted hint even outside hot
   functions: the cluster size is a constant the net already caches. *)
let nodes_arg args =
  List.exists
    (fun (_, a) ->
      match call a with
      | Some (([ "Net"; "nodes" ] | [ "nodes" ]), _) -> true
      | _ -> false)
    args

let check_length ctx site =
  match callee site with
  | Some ([ "List"; "length" ], args) when nodes_arg args ->
      Some
        "List.length (Net.nodes _) walks the node list per call: use \
         Net.size, which is cached at net construction"
  | Some ([ "List"; ("length" | "nth" as m) ], _) when hot ctx ->
      Some
        (Printf.sprintf
           "List.%s in a hot path walks the list spine per event; cache the \
            count or use an indexed structure (Vec, array)"
           m)
  | _ -> None

(* ---- assoc-scan ---- *)

let check_assoc ctx site =
  match callee site with
  | Some
      ( [ "List";
          (( "assoc" | "assoc_opt" | "mem_assoc" | "remove_assoc" | "find"
           | "find_opt" | "mem" ) as m) ],
        _ )
    when hot ctx ->
      Some
        (Printf.sprintf
           "List.%s in a hot path scans linearly per event; use a Hashtbl \
            or an array indexed by node/slot id"
           m)
  | _ -> None

(* ---- sort-in-loop ---- *)

let check_sort ctx site =
  match callee site with
  | Some
      ( [ ("List" | "Array");
          (("sort" | "stable_sort" | "fast_sort" | "sort_uniq") as m) ],
        _ ) -> (
      match (in_loop ctx, hot ctx) with
      | false, false -> None
      | loop, _ ->
          Some
            (Printf.sprintf
               "%s re-pays n log n per event inside a %s; maintain sorted \
                order incrementally or hoist the sort"
               m
               (if loop then "loop" else "hot path")))
  | _ -> None

let rules : Lint.rule list =
  [
    {
      id = "quadratic-accumulate";
      severity = Finding.Error;
      summary =
        "accumulator rebuilt with list append (x := e @ !x / f <- e @ t.f): \
         O(n) per event is O(n\194\178) per run; push into a Vec or cons and \
         reverse once";
      applies = Lint.in_lib;
      check = check_quad;
    };
    {
      id = "length-in-hot-path";
      severity = Finding.Error;
      summary =
        "List.length/List.nth in a hot path walks the spine per call; cache \
         the count (Net.size, a record field) or use an indexed structure";
      applies = Lint.in_lib;
      check = check_length;
    };
    {
      id = "assoc-scan";
      severity = Finding.Error;
      summary =
        "List.assoc/mem_assoc/find in a hot path scans linearly per event; \
         use a Hashtbl or an array keyed by node id";
      applies = Lint.in_lib;
      check = check_assoc;
    };
    {
      id = "sort-in-loop";
      severity = Finding.Warning;
      summary =
        "sort inside a hot path or loop re-pays n log n per event; maintain \
         sorted order incrementally or hoist the sort";
      applies = Lint.in_lib;
      check = check_sort;
    };
  ]
