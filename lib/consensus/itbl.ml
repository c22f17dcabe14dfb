(* Slot [i] keeps its key in [cells.(2i)] and its value in
   [cells.(2i + 1)], so a probe and the value it finds share a cache
   line.  The capacity is a power of two, [2 ^ (Sys.int_size - shift)]. *)
type t = { mutable cells : int array; mutable shift : int; mutable count : int }

let reserved = min_int
let initial_bits = 3

let create () =
  {
    cells = Array.make (2 lsl initial_bits) reserved;
    shift = Sys.int_size - initial_bits;
    count = 0;
  }

(* Fibonacci hashing: the top bits of the key times 2^63 / phi. *)
let[@inline] home shift k = (k * 0x4F1BBCDCBFA53E0B) lsr shift

(* The slot holding [k], or else the free slot that ends its probe run.
   Top-level and closed, so a probe allocates nothing. *)
let rec slot cells mask k i =
  let k' = cells.(2 * i) in
  if k' = k || k' = reserved then i else slot cells mask k ((i + 1) land mask)

let mask cells = (Array.length cells / 2) - 1

(* Double once a fifth or less of the slots is free: after the copy the
   table is 2/5 full, so it holds between 2.5 and 5 words per binding. *)
let grow t =
  let old = t.cells in
  let shift = t.shift - 1 in
  let cells = Array.make (2 * Array.length old) reserved in
  let m = mask cells in
  for i = 0 to mask old do
    let k = old.(2 * i) in
    if k <> reserved then begin
      let j = slot cells m reserved (home shift k) in
      cells.(2 * j) <- k;
      cells.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done;
  t.cells <- cells;
  t.shift <- shift

let replace t k v =
  if k = reserved then invalid_arg "Itbl.replace: reserved key";
  let cells = t.cells in
  let m = mask cells in
  let i = slot cells m k (home t.shift k) in
  cells.((2 * i) + 1) <- v;
  if cells.(2 * i) = reserved then begin
    cells.(2 * i) <- k;
    t.count <- t.count + 1;
    if 5 * t.count > 4 * (m + 1) then grow t
  end

(* A probe for the reserved key stops at the first free slot, so it is
   never found. *)
let find_or t k ~default =
  let cells = t.cells in
  let i = slot cells (mask cells) k (home t.shift k) in
  if cells.(2 * i) = reserved then default else cells.((2 * i) + 1)

let find_opt t k =
  let cells = t.cells in
  let i = slot cells (mask cells) k (home t.shift k) in
  if cells.(2 * i) = reserved then None else Some cells.((2 * i) + 1)

let mem t k =
  let cells = t.cells in
  cells.(2 * slot cells (mask cells) k (home t.shift k)) <> reserved

let sorted_bindings t =
  let acc = ref [] in
  for i = mask t.cells downto 0 do
    let k = t.cells.(2 * i) in
    if k <> reserved then acc := (k, t.cells.((2 * i) + 1)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let sorted_keys t = List.map fst (sorted_bindings t)

let render t =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) (sorted_bindings t))
