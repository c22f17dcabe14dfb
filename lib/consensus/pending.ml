(* Slot [i] holds its key in [keys.(i)] ([free] when empty) and its value
   in [vals.(i)] ([empty] when free, so a taken value is not kept alive).
   The capacity is [2 ^ (Sys.int_size - shift)]. *)
type 'a t = {
  empty : 'a;
  mutable keys : int array;
  mutable vals : 'a array;
  mutable shift : int;
  mutable count : int;
}

let free = min_int
let initial_bits = 3

let create ~empty =
  let n = 1 lsl initial_bits in
  {
    empty;
    keys = Array.make n free;
    vals = Array.make n empty;
    shift = Sys.int_size - initial_bits;
    count = 0;
  }

(* Itbl's Fibonacci hashing: the top bits of the key times 2^63 / phi. *)
let[@inline] hash shift k = (k * 0x4F1BBCDCBFA53E0B) lsr shift

(* The slot holding [k], or else the free slot that ends its probe run. *)
let rec slot keys mask k i =
  let k' = keys.(i) in
  if k' = k || k' = free then i else slot keys mask k ((i + 1) land mask)

(* Double once a fifth or less of the slots is free, as [Itbl] does: an
   open-loop run can leave thousands of commands unanswered in the
   table, and at this load it holds between 2.5 and 5 words per entry. *)
let grow t =
  let keys = t.keys and vals = t.vals in
  let n = 2 * Array.length keys in
  let shift = t.shift - 1 in
  t.keys <- Array.make n free;
  t.vals <- Array.make n t.empty;
  t.shift <- shift;
  Array.iteri
    (fun i k ->
      if k <> free then begin
        let j = slot t.keys (n - 1) k (hash shift k) in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

let replace t k v =
  if k = free then invalid_arg "Pending.replace: min_int key";
  let mask = Array.length t.keys - 1 in
  let i = slot t.keys mask k (hash t.shift k) in
  t.vals.(i) <- v;
  if t.keys.(i) = free then begin
    t.keys.(i) <- k;
    t.count <- t.count + 1;
    if 5 * t.count > 4 * (mask + 1) then grow t
  end

(* Backward-shift removal: [hole] is free and [j] walks the rest of its
   run.  An entry may fill the hole unless its home lies cyclically in
   (hole, j], where the probe for it would start past the hole. *)
let rec close t mask hole j =
  let k = t.keys.(j) in
  if k = free then begin
    t.keys.(hole) <- free;
    t.vals.(hole) <- t.empty
  end
  else if (j - hash t.shift k) land mask >= (j - hole) land mask then begin
    t.keys.(hole) <- k;
    t.vals.(hole) <- t.vals.(j);
    close t mask j ((j + 1) land mask)
  end
  else close t mask hole ((j + 1) land mask)

(* A probe for [free] stops at the first free slot, so it is never
   found. *)
let take t k =
  let mask = Array.length t.keys - 1 in
  let i = slot t.keys mask k (hash t.shift k) in
  if t.keys.(i) = free then t.empty
  else begin
    let v = t.vals.(i) in
    t.count <- t.count - 1;
    close t mask i ((i + 1) land mask);
    v
  end

let length t = t.count
let capacity t = Array.length t.keys
let home t k = hash t.shift k
