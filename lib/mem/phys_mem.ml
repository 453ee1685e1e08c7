(* Pool [p] owns pfns [base.(p), base.(p + 1)) and the same index range
   of [stack], whose first [top.(p) - base.(p)] slots hold its free
   frames.  One pool is the untiered machine; its stack is the single
   LIFO free stack. *)
type t = {
  total : int;
  stack : int array;
  free_flag : bool array;
  online : bool array;
  base : int array; (* npools + 1 entries; base.(npools) = total *)
  top : int array;  (* pool -> one past its last free stack slot *)
  pool_online : int array;
  mutable free : int;
  mutable online_count : int;
  low_watermark : int;
  high_watermark : int;
}

let create ?low_watermark ?high_watermark ?pools ~frames () =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  let sizes = Option.value pools ~default:[| frames |] in
  if
    Array.length sizes = 0
    || Array.exists (fun n -> n <= 0) sizes
    || Array.fold_left ( + ) 0 sizes <> frames
  then invalid_arg "Phys_mem.create: pool sizes must be positive and sum to frames";
  (* Kernel-like fractions: the free cushion is a small slice of memory,
     so bursty demand can outrun kswapd and fall into direct reclaim. *)
  let low =
    match low_watermark with
    | Some l -> l
    | None -> min (max 1 (frames / 4)) (max 16 (frames / 100))
  in
  let high =
    match high_watermark with
    | Some h -> h
    | None -> min (max low (frames / 2)) (max 32 (frames / 50))
  in
  if low < 0 || low > high || high > frames then
    invalid_arg "Phys_mem.create: bad watermarks";
  let npools = Array.length sizes in
  let base = Array.make (npools + 1) 0 in
  Array.iteri (fun p n -> base.(p + 1) <- base.(p) + n) sizes;
  (* Each pool pops its lowest pfn first. *)
  let stack = Array.make frames 0 in
  for p = 0 to npools - 1 do
    for i = base.(p) to base.(p + 1) - 1 do
      stack.(i) <- base.(p + 1) - 1 - (i - base.(p))
    done
  done;
  {
    total = frames;
    stack;
    free_flag = Array.make frames true;
    online = Array.make frames true;
    base;
    top = Array.sub base 1 npools;
    pool_online = Array.copy sizes;
    free = frames;
    online_count = frames;
    low_watermark = low;
    high_watermark = high;
  }

let frames t = t.total

let free_count t = t.free

let used_count t = t.online_count - t.free

let online_count t = t.online_count

let low_watermark t = t.low_watermark

let high_watermark t = t.high_watermark

let pools t = Array.length t.top

let check_pfn name t pfn =
  if pfn < 0 || pfn >= t.total then
    invalid_arg ("Phys_mem." ^ name ^ ": pfn out of range")

let pool_of t pfn =
  check_pfn "pool_of" t pfn;
  let p = ref 0 in
  while pfn >= t.base.(!p + 1) do incr p done;
  !p

let pool_free t p = t.top.(p) - t.base.(p)

let pool_used t p = t.pool_online.(p) - pool_free t p

(* Unboxed allocator for the fault path: -1 instead of None, so a
   successful allocation allocates nothing on the OCaml heap.  Offline
   frames are never on a stack, so hotplug costs nothing here. *)
let alloc_pfn_in t ~pool =
  let top = t.top.(pool) in
  if top = t.base.(pool) then -1
  else begin
    let top = top - 1 in
    t.top.(pool) <- top;
    t.free <- t.free - 1;
    let pfn = t.stack.(top) in
    t.free_flag.(pfn) <- false;
    pfn
  end

(* Top-level, not a local closure: the fault path must not allocate. *)
let rec alloc_from t p =
  if p = Array.length t.top then -1
  else
    let pfn = alloc_pfn_in t ~pool:p in
    if pfn >= 0 then pfn else alloc_from t (p + 1)

let alloc_pfn t = alloc_from t 0

let alloc t =
  let pfn = alloc_pfn t in
  if pfn < 0 then None else Some pfn

let push t pfn =
  let p = pool_of t pfn in
  t.stack.(t.top.(p)) <- pfn;
  t.top.(p) <- t.top.(p) + 1;
  t.free <- t.free + 1;
  t.free_flag.(pfn) <- true

let free t pfn =
  check_pfn "free" t pfn;
  if t.free_flag.(pfn) then invalid_arg "Phys_mem.free: double free";
  if not t.online.(pfn) then invalid_arg "Phys_mem.free: frame is offline";
  push t pfn

let is_free t pfn =
  check_pfn "is_free" t pfn;
  t.free_flag.(pfn)

let is_online t pfn =
  check_pfn "is_online" t pfn;
  t.online.(pfn)

let take_offline t pfn =
  let p = pool_of t pfn in
  t.online.(pfn) <- false;
  t.online_count <- t.online_count - 1;
  t.pool_online.(p) <- t.pool_online.(p) - 1

(* Memory hotplug (chaos injectors).  Offlining a free frame pulls it
   off its pool's free stack (swap-remove: the stack is unordered
   between refills, and alloc order stays deterministic because offline
   events land at fixed virtual times); offlining an allocated frame is
   the second half of a migration — the caller has already moved the
   contents, so the frame is simply no longer accounted anywhere. *)
let offline_free t pfn =
  check_pfn "offline_free" t pfn;
  if not t.online.(pfn) then invalid_arg "Phys_mem.offline_free: already offline";
  if not t.free_flag.(pfn) then invalid_arg "Phys_mem.offline_free: frame in use";
  let p = pool_of t pfn in
  let i = ref (-1) in
  for k = t.base.(p) to t.top.(p) - 1 do
    if t.stack.(k) = pfn then i := k
  done;
  if !i < 0 then invalid_arg "Phys_mem.offline_free: frame not on free stack";
  t.top.(p) <- t.top.(p) - 1;
  t.stack.(!i) <- t.stack.(t.top.(p));
  t.free <- t.free - 1;
  t.free_flag.(pfn) <- false;
  take_offline t pfn

let offline_used t pfn =
  check_pfn "offline_used" t pfn;
  if not t.online.(pfn) then invalid_arg "Phys_mem.offline_used: already offline";
  if t.free_flag.(pfn) then invalid_arg "Phys_mem.offline_used: frame is free";
  take_offline t pfn

let online t pfn =
  check_pfn "online" t pfn;
  if t.online.(pfn) then invalid_arg "Phys_mem.online: already online";
  let p = pool_of t pfn in
  t.online.(pfn) <- true;
  t.online_count <- t.online_count + 1;
  t.pool_online.(p) <- t.pool_online.(p) + 1;
  push t pfn

let below_low t = t.free < t.low_watermark

let above_high t = t.free >= t.high_watermark
