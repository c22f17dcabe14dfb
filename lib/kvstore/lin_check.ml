module Types = Raftpax_consensus.Types
module Itbl = Raftpax_consensus.Itbl

type event =
  | Write_complete of { write_id : int; key : int; at_us : int }
  | Read of { key : int; started_us : int; returned : int option }

type violation = {
  v_key : int;
  v_returned : int option;
  v_expected_after : int;
  v_started_us : int;
}

type result = { reads_checked : int; violations : violation list }

let no_reads = { reads_checked = 0; violations = [] }

(* A returned [None], in a history's int columns; so it may be neither
   a key nor a write id. *)
let none = min_int

let checked v = if v = none then invalid_arg "Lin_check: min_int key or id" else v
let ret_of = function None -> none | Some id -> checked id

module Recorder = struct
  (* Reads and acknowledged writes each fill one growable int array,
     three ints a row: a read is (key, started_us, returned) with [None]
     as [min_int], a write (write_id, key, at_us).  Both double when
     full. *)
  type t = {
    mutable reads : int array;
    mutable n_reads : int;
    mutable writes : int array;
    mutable n_writes : int;
  }

  let create () =
    { reads = Array.make 48 0; n_reads = 0; writes = Array.make 48 0; n_writes = 0 }

  let grown a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  let read t ~key ~started_us ~returned =
    let key = checked key and ret = ret_of returned in
    if 3 * (t.n_reads + 1) > Array.length t.reads then t.reads <- grown t.reads;
    let a = t.reads and i = 3 * t.n_reads in
    a.(i) <- key;
    a.(i + 1) <- started_us;
    a.(i + 2) <- ret;
    t.n_reads <- t.n_reads + 1

  let write_complete t ~write_id ~key ~at_us =
    let write_id = checked write_id and key = checked key in
    if 3 * (t.n_writes + 1) > Array.length t.writes then t.writes <- grown t.writes;
    let a = t.writes and i = 3 * t.n_writes in
    a.(i) <- write_id;
    a.(i + 1) <- key;
    a.(i + 2) <- at_us;
    t.n_writes <- t.n_writes + 1

  let iter_write_ids f t =
    for i = 0 to t.n_writes - 1 do
      f t.writes.(3 * i)
    done
end

(* ---- the oracle ---- *)

(* (key, write_id) pairs, only for the rare write id committed under
   more than one key. *)
module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a : int), (b : int)) (c, d) = a = c && b = d
  let hash (a, b) = ((a * 0x4F1BBCDCBFA53E0B) lxor b) land max_int
end)

(* Where each committed write sits in the order.  [by_id] holds the
   position of each id's last [Put]; when a [Put] of the same id but
   another key displaces it, the displaced (key, id) position moves
   to [shadowed].  So the last [Put] of (key, id) is [by_id]'s if its
   key matches, and [shadowed]'s otherwise. *)
type positions = {
  ckeys : int array;
  cids : int array;  (** [none] at a [Get] *)
  by_id : Itbl.t;
  shadowed : int Pair.t;
}

let positions committed_order =
  let c = List.length committed_order in
  let p =
    {
      ckeys = Array.make c 0;
      cids = Array.make c none;
      by_id = Itbl.create ();
      shadowed = Pair.create 1;
    }
  in
  List.iteri
    (fun pos op ->
      match op with
      | Types.Put { key; write_id; _ } ->
          p.ckeys.(pos) <- key;
          (* an id no history can hold is never looked up *)
          if write_id <> none then begin
            p.cids.(pos) <- write_id;
            let prev = Itbl.find_or p.by_id write_id ~default:(-1) in
            if prev >= 0 && p.ckeys.(prev) <> key then
              Pair.replace p.shadowed (p.ckeys.(prev), write_id) prev;
            Itbl.replace p.by_id write_id pos
          end
      | Types.Get _ -> ())
    committed_order;
  p

let position p key id =
  let pos = Itbl.find_or p.by_id id ~default:(-1) in
  if pos >= 0 && p.ckeys.(pos) = key then pos
  else if Pair.length p.shadowed = 0 then -1
  else Option.value ~default:(-1) (Pair.find_opt p.shadowed (key, id))

(* The acknowledged writes sorted by (key, completion time), so each
   key's writes form one run.  [sdone] and [sfloor] are parallel:
   [sfloor.(j)] is the newest committed position among its run's
   entries up to [j] — the floor of a read of that key that started at
   or after [sdone.(j)] and before the next entry's.  [start] maps a
   key to its run's first index, and [run_end] holds, at a run's first
   index, the index past its last. *)
type runs = { sdone : int array; sfloor : int array; run_end : int array; start : Itbl.t }

let runs p (h : Recorder.t) =
  let n = h.n_writes and w = h.writes in
  let by = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare w.((3 * a) + 1) w.((3 * b) + 1) in
      if c <> 0 then c else Int.compare w.((3 * a) + 2) w.((3 * b) + 2))
    by;
  let skey = Array.map (fun i -> w.((3 * i) + 1)) by
  and sdone = Array.map (fun i -> w.((3 * i) + 2)) by
  and sfloor = Array.map (fun i -> position p w.((3 * i) + 1) w.(3 * i)) by in
  let start = Itbl.create () and run_end = Array.make n n in
  let first = ref 0 in
  for j = 1 to n - 1 do
    if skey.(j) <> skey.(j - 1) then begin
      Itbl.replace start skey.(!first) !first;
      run_end.(!first) <- j;
      first := j
    end
    else sfloor.(j) <- max sfloor.(j) sfloor.(j - 1)
  done;
  if n > 0 then Itbl.replace start skey.(!first) !first;
  { sdone; sfloor; run_end; start }

(* The floor of a read of [key] that started at [t]: one probe for the
   key's run, then a binary search inside it for the last entry with
   [sdone <= t]. *)
let floor_of r key t =
  let first = Itbl.find_or r.start key ~default:(-1) in
  if first < 0 then -1
  else begin
    (* entries below [lo] completed by [t], those from [hi] on after *)
    let lo = ref first and hi = ref r.run_end.(first) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if r.sdone.(mid) <= t then lo := mid + 1 else hi := mid
    done;
    if !lo = first then -1 else r.sfloor.(!lo - 1)
  end

(* The oracle for one committed order and one set of acknowledged
   writes; each read is then one [verdict]. *)
type oracle = { positions : positions; runs : runs }

let oracle ~committed_order h =
  let positions = positions committed_order in
  { positions; runs = runs positions h }

(* The read's violation, if any; [ret] is [none] for [None]. *)
let verdict o ~key ~started_us ~ret =
  let floor_pos = floor_of o.runs key started_us in
  let ret_pos =
    if ret = none then -1
    else
      match position o.positions key ret with
      | -1 -> -2 (* returned a value that was never committed *)
      | pos -> pos
  in
  if ret_pos = -2 || ret_pos < floor_pos then
    Some
      {
        v_key = key;
        v_returned = (if ret = none then None else Some ret);
        v_expected_after = (if floor_pos < 0 then -1 else o.positions.cids.(floor_pos));
        v_started_us = started_us;
      }
  else None

module History = struct
  include Recorder

  let check ~committed_order h =
    if h.n_reads = 0 then no_reads
    else begin
      let o = oracle ~committed_order h in
      let violations = ref [] in
      for i = h.n_reads - 1 downto 0 do
        match
          verdict o ~key:h.reads.(3 * i) ~started_us:h.reads.((3 * i) + 1)
            ~ret:h.reads.((3 * i) + 2)
        with
        | Some v -> violations := v :: !violations
        | None -> ()
      done;
      { reads_checked = h.n_reads; violations = !violations }
    end
end

let has_read = List.exists (function Read _ -> true | Write_complete _ -> false)

(* The list's writes go into a [History]; its reads, already in event
   order, go straight to [verdict], so they are not copied. *)
let check ~committed_order events =
  if not (has_read events) then no_reads
  else begin
    let h = History.create () in
    List.iter
      (function
        | Write_complete { write_id; key; at_us } ->
            History.write_complete h ~write_id ~key ~at_us
        | Read _ -> ())
      events;
    let o = oracle ~committed_order h in
    let reads = ref 0 and violations = ref [] in
    List.iter
      (function
        | Write_complete _ -> ()
        | Read { key; started_us; returned } -> (
            incr reads;
            match verdict o ~key:(checked key) ~started_us ~ret:(ret_of returned) with
            | Some v -> violations := v :: !violations
            | None -> ()))
      events;
    { reads_checked = !reads; violations = List.rev !violations }
  end

let check_sharded ~committed_orders ~group_of_key events =
  (* Every event concerns exactly one key, every key is owned by exactly
     one group, and groups commit independently — so the sharded oracle
     is the per-group oracle over the per-group event slice. *)
  if not (has_read events) then Array.map (fun _ -> no_reads) committed_orders
  else begin
    let slices = Array.make (Array.length committed_orders) [] in
    List.iter
      (fun ev ->
        let key = match ev with Write_complete { key; _ } | Read { key; _ } -> key in
        let g = group_of_key key in
        slices.(g) <- ev :: slices.(g))
      events;
    Array.mapi
      (fun g order -> check ~committed_order:order (List.rev slices.(g)))
      committed_orders
  end

let pp_violation ppf v =
  Fmt.pf ppf
    "read of key %d at t=%dus returned %a but write %d was already \
     acknowledged"
    v.v_key v.v_started_us
    Fmt.(option ~none:(any "nothing") int)
    v.v_returned v.v_expected_after
