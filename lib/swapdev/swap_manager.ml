type t = {
  device : Device.t;
  seed : int;
  max_retries : int;
  backoff_ns : int;
  obs : Obs.t;
  (* The machine's vmstat registry (a private throwaway when none is
     passed): pswpin/pswpout count at the same points as [ins]/[outs],
     unconditionally — one int store, never a branch on configuration. *)
  vmstat : Obs.Vmstat.t;
  mutable ratios : float array; (* slot -> size fraction; nan = free *)
  (* Free slots, a LIFO stack in [free.(0 .. nfree - 1)]; it never holds
     more than the slots handed out, so it grows with [ratios]. *)
  mutable free : int array;
  mutable nfree : int;
  mutable next_slot : int;
  mutable used : int;
  mutable peak : int;
  (* Sum of in-use size fractions, in a one-element float array so an
     update stores an unboxed float instead of allocating one. *)
  compressed : float array;
  mutable ins : int;
  mutable outs : int;
  mutable retries : int;
  mutable remaps : int;
  (* Out-fields of the last swap_out_slot/swap_in_slot, read back by the
     fault path instead of a per-operation result record. *)
  mutable last_finish_ns : int;
  mutable last_cpu_ns : int;
  mutable last_retries : int;
  mutable last_failed : bool;
  mutable last_remapped : bool;
}

let create ?(max_retries = 4) ?(backoff_ns = 100_000) ?(obs = Obs.disabled)
    ?vmstat ~device ~seed () =
  if max_retries < 0 then invalid_arg "Swap_manager.create: max_retries";
  {
    device;
    seed;
    max_retries;
    backoff_ns;
    obs;
    vmstat =
      (match vmstat with Some v -> v | None -> Obs.Vmstat.create ());
    ratios = Array.make 1024 nan;
    free = Array.make 1024 0;
    nfree = 0;
    next_slot = 0;
    used = 0;
    peak = 0;
    compressed = [| 0.0 |];
    ins = 0;
    outs = 0;
    retries = 0;
    remaps = 0;
    last_finish_ns = 0;
    last_cpu_ns = 0;
    last_retries = 0;
    last_failed = false;
    last_remapped = false;
  }

let device t = t.device

let grow t =
  let n = Array.length t.ratios in
  let ratios = Array.make (2 * n) nan in
  Array.blit t.ratios 0 ratios 0 n;
  t.ratios <- ratios;
  let free = Array.make (2 * n) 0 in
  Array.blit t.free 0 free 0 t.nfree;
  t.free <- free

let alloc_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    let slot = t.next_slot in
    t.next_slot <- slot + 1;
    if slot >= Array.length t.ratios then grow t;
    slot
  end

let slot_in_use t slot =
  slot >= 0 && slot < Array.length t.ratios && not (Float.is_nan t.ratios.(slot))

let release t ~slot =
  if not (slot_in_use t slot) then invalid_arg "Swap_manager.release: slot not in use";
  let ratio = t.ratios.(slot) in
  t.ratios.(slot) <- nan;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  t.used <- t.used - 1;
  t.compressed.(0) <- t.compressed.(0) -. ratio

let take_slot t ratio =
  let slot = alloc_slot t in
  t.ratios.(slot) <- ratio;
  t.used <- t.used + 1;
  if t.used > t.peak then t.peak <- t.used;
  t.compressed.(0) <- t.compressed.(0) +. ratio;
  slot

(* Exponential backoff in *simulated* time: the retry is submitted only
   after the failure was observed plus the backoff delay. *)
let backoff t tries = t.backoff_ns * (1 lsl min tries 10)

(* The attempt loops are top-level recursive functions over int
   arguments (no local closure), reading the device's reused completion
   record and writing their outcome into the [last_*] out-fields: one
   logical swap operation allocates only the boxed size fraction. *)

let rec out_attempt t ratio slot now tries cpu =
  let c = t.device.Device.submit ~now ~op:Device.Write ~size_fraction:ratio in
  let cpu = cpu + c.Device.cpu_ns in
  match c.Device.status with
  | Device.Done ->
    t.outs <- t.outs + 1;
    Obs.Vmstat.incr t.vmstat Obs.Vmstat.pswpout;
    t.last_finish_ns <- c.Device.finish_ns;
    t.last_cpu_ns <- cpu;
    t.last_retries <- tries;
    t.last_failed <- false;
    slot
  | Device.Failed kind ->
    if tries >= t.max_retries then begin
      release t ~slot;
      t.last_finish_ns <- c.Device.finish_ns;
      t.last_cpu_ns <- cpu;
      t.last_retries <- tries;
      t.last_failed <- true;
      -1
    end
    else begin
      t.retries <- t.retries + 1;
      let slot =
        match kind with
        | Device.Transient -> slot
        | Device.Permanent ->
          (* The block is bad: remap the page to a fresh slot. *)
          release t ~slot;
          t.remaps <- t.remaps + 1;
          t.last_remapped <- true;
          take_slot t ratio
      in
      out_attempt t ratio slot (c.Device.finish_ns + backoff t tries)
        (tries + 1) cpu
    end

let swap_out_slot t ~now ~klass ~page_key =
  let submitted = now in
  let ratio = Compress.ratio klass ~page_key ~seed:t.seed in
  t.last_remapped <- false;
  let slot = out_attempt t ratio (take_slot t ratio) now 0 0 in
  if Obs.enabled t.obs then
    Obs.emit t.obs ~t_ns:submitted
      (Obs.Swap_write
         {
           slot;
           latency_ns = t.last_finish_ns - submitted;
           retries = t.last_retries;
           failed = t.last_failed;
           remapped = t.last_remapped;
         });
  slot

let rec in_attempt t ratio now tries cpu =
  let c = t.device.Device.submit ~now ~op:Device.Read ~size_fraction:ratio in
  let cpu = cpu + c.Device.cpu_ns in
  match c.Device.status with
  | Device.Done ->
    t.ins <- t.ins + 1;
    Obs.Vmstat.incr t.vmstat Obs.Vmstat.pswpin;
    t.last_finish_ns <- c.Device.finish_ns;
    t.last_cpu_ns <- cpu;
    t.last_retries <- tries;
    t.last_failed <- false
  | Device.Failed Device.Transient when tries < t.max_retries ->
    t.retries <- t.retries + 1;
    in_attempt t ratio (c.Device.finish_ns + backoff t tries) (tries + 1) cpu
  | Device.Failed _ ->
    (* Permanent, or transient retries exhausted: the stored page is
       unreachable — the caller must poison the mapping. *)
    t.last_finish_ns <- c.Device.finish_ns;
    t.last_cpu_ns <- cpu;
    t.last_retries <- tries;
    t.last_failed <- true

let swap_in_slot t ~now ~slot =
  if not (slot_in_use t slot) then invalid_arg "Swap_manager.swap_in: slot not in use";
  in_attempt t t.ratios.(slot) now 0 0;
  if Obs.enabled t.obs then
    Obs.emit t.obs ~t_ns:now
      (Obs.Swap_read
         {
           slot;
           latency_ns = t.last_finish_ns - now;
           retries = t.last_retries;
           failed = t.last_failed;
         })

let last_finish_ns t = t.last_finish_ns

let last_cpu_ns t = t.last_cpu_ns

let last_failed t = t.last_failed

let used_slots t = t.used

let peak_slots t = t.peak

let compressed_bytes t = t.compressed.(0) *. 4096.0

let swap_ins t = t.ins

let swap_outs t = t.outs

let io_retries t = t.retries

let io_remaps t = t.remaps

