(* SplitMix64's state after [k] draws is [base + k * golden] (mod 2^64),
   so [t] keeps the seed and a draw count instead of a mutable [int64]:
   the only store a draw makes is an immediate [int].  [next] is inlined
   into [int] and [float], and [float] into [bool] and [exponential], so
   the [int64]s and the [float] stay in registers: no draw allocates. *)
type t = { base : int64; mutable k : int }

let golden = 0x9E3779B97F4A7C15L

let create seed = { base = seed; k = 0 }

let[@inline] next t =
  let k = t.k + 1 in
  t.k <- k;
  let z = Int64.add t.base (Int64.mul (Int64.of_int k) golden) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create (next t)

let int t n =
  assert (n > 0);
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

let[@inline] float t x =
  let u =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    /. 9007199254740992.0 (* 2^53 *)
  in
  u *. x

let bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
