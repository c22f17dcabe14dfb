(* Metric rows, the ledger's line and JSON formats, and the order
   statistics every summary uses.

   A row is either [Exact] — a pure function of (binary, seed): sim
   counts and sim latencies, gated by equality — or [Wall]: measured on
   the host and compared within a bound.

   The JSON tree is the repo's {!Raftpax_telemetry.Json.t}; the ledger
   prints it itself because the shared printer rounds floats to six
   digits, which would hide a changed exact value. *)

module Json = Raftpax_telemetry.Json

type kind = Exact | Wall

type metric = { name : string; value : float; unit_ : string; kind : kind }

let wall name unit_ value = { name; value; unit_; kind = Wall }
let exact name unit_ value = { name; value; unit_; kind = Exact }
let count name v = exact name "count" (float_of_int v)
let kind_name = function Exact -> "exact" | Wall -> "wall"
let number v = Printf.sprintf "%.15g" v

(* ---- lines: "workload metric value unit kind" ---- *)

let line ~workload m =
  String.concat " " [ workload; m.name; number m.value; m.unit_; kind_name m.kind ]

let parse_line s =
  match String.split_on_char ' ' (String.trim s) with
  | [ workload; name; v; unit_; k ] -> (
      let kind =
        match k with "exact" -> Some Exact | "wall" -> Some Wall | _ -> None
      in
      match (float_of_string_opt v, kind) with
      | Some value, Some kind -> Some (workload, { name; value; unit_; kind })
      | _ -> None)
  | _ -> None

let find name ms = List.find_opt (fun m -> String.equal m.name name) ms

(* ---- order statistics (Python's statistics.median / quantiles) ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by statistics.quantiles(xs, n=4), the
   default "exclusive" method. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 3)
  end

(* Percentile of an ascending int array, nearest-rank like Stats. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (p *. float_of_int (n - 1)))))

(* ---- JSON ---- *)

let rec write buf (j : Json.t) =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      Buffer.add_string buf
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | String s -> Buffer.add_string buf (Json.to_string (String s))
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Json.to_string (String k));
          Buffer.add_string buf ": ";
          write buf v)
        fs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

exception Bad_json of string

let parse s : Json.t =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad_json (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if Char.equal (peek ()) c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.equal (String.sub s !pos k) word then begin
      pos := !pos + k;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_char buf (Char.chr (code land 0xff))
          | c -> Buffer.add_char buf c);
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let num () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let t = String.sub s start (!pos - start) in
    match int_of_string_opt t with
    | Some i -> Json.Int i
    | None -> (
        match float_of_string_opt t with
        | Some f -> Json.Float f
        | None -> fail "bad number")
  in
  let rec value () : Json.t =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if Char.equal (peek ()) '}' then begin
          incr pos;
          Json.Obj []
        end
        else begin
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                skip ();
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Json.Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
        end
    | '[' ->
        incr pos;
        skip ();
        if Char.equal (peek ()) ']' then begin
          incr pos;
          Json.List []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Json.List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
        end
    | '"' -> Json.String (str ())
    | 't' -> literal "true" (Json.Bool true)
    | 'f' -> literal "false" (Json.Bool false)
    | 'n' -> literal "null" Json.Null
    | _ -> num ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  let s = In_channel.input_all ic in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let member k (j : Json.t) =
  match j with
  | Obj fs -> (
      match List.find_opt (fun (k', _) -> String.equal k k') fs with
      | Some (_, v) -> v
      | None -> Null)
  | _ -> Null

let to_float (j : Json.t) =
  match j with Int i -> float_of_int i | Float f -> f | _ -> Float.nan

let to_list (j : Json.t) = match j with List xs -> xs | _ -> []
let to_str (j : Json.t) = match j with String s -> s | _ -> ""

(* ---- one workload's result, as runs record it ---- *)

type result = {
  workload : string;
  correct : bool;
  problems : string list;  (** why [correct] is false *)
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric_json m =
  Json.Obj
    [
      ("name", String m.name);
      ("value", Float m.value);
      ("unit", String m.unit_);
      ("kind", String (kind_name m.kind));
    ]

let result_json r =
  Json.Obj
    [
      ("workload", String r.workload);
      ("correct", Bool r.correct);
      ("problems", List (List.map (fun p -> Json.String p) r.problems));
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("metrics", List (List.map metric_json r.metrics));
    ]

let metric_of_json j =
  {
    name = to_str (member "name" j);
    value = to_float (member "value" j);
    unit_ = to_str (member "unit" j);
    kind = (if String.equal (to_str (member "kind" j)) "exact" then Exact else Wall);
  }
