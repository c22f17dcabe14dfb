type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let[@perf.hot] push v x =
  if v.len = Array.length v.data then begin
    let cap = max 8 (2 * v.len) in
    (* Doubling growth: the copy amortises to O(1) per push. *)
    let data = Array.make cap x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let clear v = v.len <- 0
let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let to_list v = List.init v.len (fun i -> v.data.(i))
