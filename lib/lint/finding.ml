type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let render f =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col f.rule f.message

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","severity":"%s","message":"%s"}|}
    (json_escape f.file) f.line f.col (json_escape f.rule)
    (severity_name f.severity)
    (json_escape f.message)

let render_json findings =
  match findings with
  | [] -> "[]"
  | fs -> "[\n" ^ String.concat ",\n" (List.map to_json fs) ^ "\n]"
