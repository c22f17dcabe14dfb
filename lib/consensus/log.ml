(* Structure of arrays.  Invariant: every cell at or past [len] holds its
   column's default, so a read needs only the column's own bound. *)
type 'v t = {
  mutable len : int;
  default : 'v;
  mutable values : 'v array;
  mutable ballots : int array;
  mutable chosen : bool array;
  mutable tallies : int array;
}

let no_tally = -1
let no_ballot = -1

let create default =
  { len = 0; default; values = [||]; ballots = [||]; chosen = [||]; tallies = [||] }

let length t = t.len
let ensure t i = if i >= t.len then t.len <- i + 1

(* [col] with room for index [i]; new cells hold [d].  Doubling growth:
   the copy amortises to O(1) per write. *)
let grow col i d =
  let a = Array.make (max (i + 1) (max 8 (2 * Array.length col))) d in
  Array.blit col 0 a 0 (Array.length col);
  a

let check t i = if i < 0 || i >= t.len then invalid_arg "Log: index past the end"

let[@inline] read col d i = if i < Array.length col then col.(i) else d
let get t i = read t.values t.default i
let ballot t i = read t.ballots no_ballot i
let chosen t i = read t.chosen false i
let acks t i = read t.tallies no_tally i

let set t i v =
  check t i;
  if i >= Array.length t.values then t.values <- grow t.values i t.default;
  t.values.(i) <- v

let set_ballot t i b =
  check t i;
  if i >= Array.length t.ballots then t.ballots <- grow t.ballots i no_ballot;
  t.ballots.(i) <- b

let choose t i =
  check t i;
  if i >= Array.length t.chosen then t.chosen <- grow t.chosen i false;
  t.chosen.(i) <- true

let open_tally t i =
  check t i;
  if i >= Array.length t.tallies then t.tallies <- grow t.tallies i no_tally;
  t.tallies.(i) <- 0

let push t v =
  t.len <- t.len + 1;
  set t (t.len - 1) v

let truncate t n =
  let n = max 0 n in
  if n < t.len then begin
    let reset col d = Array.fill col n (min t.len (Array.length col) - n) d in
    if n < Array.length t.values then reset t.values t.default;
    if n < Array.length t.ballots then reset t.ballots no_ballot;
    if n < Array.length t.chosen then reset t.chosen false;
    if n < Array.length t.tallies then reset t.tallies no_tally;
    t.len <- n
  end

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let to_list t = List.init t.len (get t)

(* ---- ack tallies ---- *)

let check_tally_width ~who n =
  if n > Sys.int_size - 1 then
    invalid_arg
      (Printf.sprintf "%s: %d replicas, an ack tally holds at most %d" who n
         (Sys.int_size - 1))

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

let rec tally t ~majority ~from = function
  | [] -> []
  | i :: rest ->
      let m = acks t i in
      if m = no_tally then tally t ~majority ~from rest
      else begin
        let m = m lor (1 lsl from) in
        t.tallies.(i) <- m;
        if popcount m + 1 >= majority && not (chosen t i) then begin
          choose t i;
          i :: tally t ~majority ~from rest
        end
        else tally t ~majority ~from rest
      end
