(* Binary min-heap over parallel int arrays, with payloads parked in a
   slot table.

   Keys live in two unboxed int arrays (time, insertion sequence) and a
   third int array names each entry's payload slot, so sifting moves
   only ints: no pointer is chased and no write barrier runs.  A
   payload is written into its slot once on [add] and the slot is
   blanked with [dummy] on [pop], so popped payloads are collectable the
   moment the caller drops them; [clear] discards the arrays entirely so
   a drained queue does not pin its high-water-mark capacity. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array; (* heap position -> payload slot *)
  mutable payloads : 'a array; (* slot -> payload *)
  mutable free : int array; (* stack of free slots, [free.(0 .. cap-len-1)] *)
  mutable len : int;
  mutable next_seq : int;
  mutable dummy : 'a option;
      (* overwrites vacated slots; defaults to the first payload ever
         added, which then stays reachable — pass [~dummy] to [create]
         when that matters *)
}

let create ?dummy () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    free = [||];
    len = 0;
    next_seq = 0;
    dummy;
  }

let size t = t.len

let is_empty t = t.len = 0

(* Double the capacity.  Every slot is in use when the heap is full, so
   the new slots are exactly [len .. cap - 1]. *)
let grow t payload =
  let cap = max 16 (2 * t.len) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.payloads <-
    extend t.payloads (match t.dummy with Some d -> d | None -> payload);
  t.free <- Array.init cap (fun k -> cap - 1 - k)

let add t ~time payload =
  if time < 0 then invalid_arg "Event_queue.add: negative time";
  (match t.dummy with None -> t.dummy <- Some payload | Some _ -> ());
  if t.len = Array.length t.times then grow t payload;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = t.free.(Array.length times - 1 - t.len) in
  t.payloads.(slot) <- payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift a hole up.  The new entry has the largest sequence number, so
     it rises above a parent only on a strictly earlier time. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && time < times.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    times.(!i) <- times.(parent);
    seqs.(!i) <- seqs.(parent);
    slots.(!i) <- slots.(parent);
    i := parent
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Remove the root: sift the last entry down from the root's hole.  The
   (time, seq) comparisons are spelled out: a helper taking both pairs
   would load every key eagerly, and measured ~13 % slower on the sweep. *)
let drop_min t =
  let last = t.len - 1 in
  t.len <- last;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  if last > 0 then begin
    let time = times.(last) and seq = seqs.(last) in
    let i = ref 0 and l = ref 1 in
    while !l < last do
      let r = !l + 1 in
      let c =
        if
          r < last
          && (times.(r) < times.(!l)
             || (times.(r) = times.(!l) && seqs.(r) < seqs.(!l)))
        then r
        else !l
      in
      if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
        times.(!i) <- times.(c);
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- slots.(c);
        i := c;
        l := (2 * c) + 1
      end
      else l := last
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slots.(last)
  end

let next_time t = if t.len = 0 then -1 else t.times.(0)

(* Take the root's payload out of its slot and free the slot. *)
let take_root t =
  let slot = t.slots.(0) in
  let payload = t.payloads.(slot) in
  (match t.dummy with Some d -> t.payloads.(slot) <- d | None -> ());
  t.free.(Array.length t.times - t.len) <- slot;
  payload

let pop_payload t =
  if t.len = 0 then invalid_arg "Event_queue.pop_payload: empty";
  let payload = take_root t in
  drop_min t;
  payload

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let payload = take_root t in
    drop_min t;
    Some (time, payload)
  end

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.slots <- [||];
  t.payloads <- [||];
  t.free <- [||];
  t.len <- 0
