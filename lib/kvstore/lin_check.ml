module Types = Raftpax_consensus.Types

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
let has_read = List.exists (function Read _ -> true | Write_complete _ -> false)

(* (key, write_id) tables hashed by integer arithmetic alone, so a probe
   never reaches the polymorphic C hash. *)
module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a : int), (b : int)) (c, d) = a = c && b = d

  let hash (a, b) =
    let h = ((a * 0x4F1BBCDCBFA53E0B) lxor b) * 0x4F1BBCDCBFA53E0B in
    (h lxor (h lsr 31)) land max_int
end)

let check ~committed_order events =
  if not (has_read events) then no_reads
  else begin
    (* position of each committed write in the order; a duplicate
       (key, write_id) resolves to its last occurrence *)
    let position = Pair.create 1024 in
    List.iteri
      (fun pos op ->
        match op with
        | Types.Put { key; write_id; _ } -> Pair.replace position (key, write_id) pos
        | Types.Get _ -> ())
      committed_order;
    let position_of key id =
      match Pair.find_opt position (key, id) with Some pos -> pos | None -> -1
    in
    (* The acknowledged writes sorted by (key, completion time).
       [floor.(i)] is the newest committed position among entries of
       [keys.(i)] up to [i]: the floor of a read of that key that started
       at or after [done_us.(i)] and before the next entry's. *)
    let n =
      List.fold_left
        (fun n -> function Write_complete _ -> n + 1 | Read _ -> n)
        0 events
    in
    let keys = Array.make n 0 and done_us = Array.make n 0 and pos = Array.make n (-1) in
    List.iter
      (let i = ref 0 in
       function
       | Write_complete { write_id; key; at_us } ->
           keys.(!i) <- key;
           done_us.(!i) <- at_us;
           pos.(!i) <- position_of key write_id;
           incr i
       | Read _ -> ())
      events;
    let by = Array.init n Fun.id in
    Array.stable_sort
      (fun a b ->
        let c = Int.compare keys.(a) keys.(b) in
        if c <> 0 then c else Int.compare done_us.(a) done_us.(b))
      by;
    let keys = Array.map (fun j -> keys.(j)) by
    and done_us = Array.map (fun j -> done_us.(j)) by
    and floor = Array.map (fun j -> pos.(j)) by in
    for i = 1 to n - 1 do
      if keys.(i - 1) = keys.(i) then floor.(i) <- max floor.(i) floor.(i - 1)
    done;
    (* the freshest acknowledged-and-committed write before the read:
       the last entry at or below (key, started_us) *)
    let floor_of key started_us =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        let k = keys.(mid) in
        if k < key || (k = key && done_us.(mid) <= started_us) then lo := mid + 1
        else hi := mid
      done;
      if !lo > 0 && keys.(!lo - 1) = key then floor.(!lo - 1) else -1
    in
    let committed = lazy (Array.of_list committed_order) in
    let write_at pos =
      if pos < 0 then -1
      else
        match (Lazy.force committed).(pos) with
        | Types.Put { write_id; _ } -> write_id
        | Types.Get _ -> -1
    in
    let reads_checked = ref 0 in
    let violations = ref [] in
    List.iter
      (function
        | Write_complete _ -> ()
        | Read { key; started_us; returned } ->
            incr reads_checked;
            let floor_pos = floor_of key started_us in
            let ret_pos =
              match returned with
              | None -> -1
              | Some id -> (
                  match position_of key id with
                  | -1 -> -2 (* returned a value that was never committed *)
                  | pos -> pos)
            in
            if ret_pos = -2 || ret_pos < floor_pos then
              violations :=
                {
                  v_key = key;
                  v_returned = returned;
                  v_expected_after = write_at floor_pos;
                  v_started_us = started_us;
                }
                :: !violations)
      events;
    { reads_checked = !reads_checked; violations = List.rev !violations }
  end

let check_sharded ~committed_orders ~group_of_key events =
  (* Every event concerns exactly one key, every key is owned by exactly
     one group, and groups commit independently — so the sharded oracle
     is the per-group oracle over the per-group event slice. *)
  if not (has_read events) then Array.map (fun _ -> no_reads) committed_orders
  else begin
    let shards = Array.length committed_orders in
    let slices = Array.make shards [] in
    List.iter
      (fun ev ->
        let key =
          match ev with
          | Write_complete { key; _ } -> key
          | Read { key; _ } -> key
        in
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
