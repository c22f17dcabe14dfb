module Smap = Map.Make (String)

type t = Value.t Smap.t

let empty = Smap.empty
let of_list l = Smap.of_seq (List.to_seq l)
let to_list s = Smap.bindings s

let get s name =
  match Smap.find_opt name s with
  | Some v -> v
  | None -> invalid_arg ("State.get: unbound variable " ^ name)

let get_opt s name = Smap.find_opt name s
let set s name v = Smap.add name v s
let mem s name = Smap.mem name s
let vars s = List.map fst (Smap.bindings s)

let restrict s names =
  List.fold_left
    (fun acc name ->
      match Smap.find_opt name s with
      | Some v -> Smap.add name v acc
      | None -> acc)
    Smap.empty names

let merge base overlay = Smap.union (fun _ _ v -> Some v) base overlay

let unchanged s s' names =
  List.for_all
    (fun name ->
      match (Smap.find_opt name s, Smap.find_opt name s') with
      | Some a, Some b -> Value.equal a b
      | None, None -> true
      | _ -> false)
    names

let compare = Smap.compare Value.compare
let equal a b = compare a b = 0

let pp ppf s =
  let pp_binding ppf (name, v) = Fmt.pf ppf "@[<h>%s = %a@]" name Value.pp v in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_binding) (Smap.bindings s)

module Ordered = struct
  type nonrec t = t

  let compare = compare
end

module Set = Stdlib.Set.Make (Ordered)
module Map = Stdlib.Map.Make (Ordered)
