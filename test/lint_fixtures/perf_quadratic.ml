(* perflint fixture: quadratic-accumulate.
   3 positives (ref-append both directions, field-append), then the
   sanctioned cons form and both suppression spellings. *)

let gathered = ref []
let absorb extras = gathered := extras @ !gathered
let absorb_tail extras = gathered := !gathered @ extras

type t = { mutable acc : int list }

let note t x = t.acc <- [ x ] @ t.acc
let note_ok t x = t.acc <- x :: t.acc

let absorb_allowed extras =
  ((gathered := extras @ !gathered) [@lint.allow "quadratic-accumulate"])

let[@lint.allow "quadratic-accumulate"] note_allowed t x =
  t.acc <- [ x ] @ t.acc
