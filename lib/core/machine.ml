module Prof = Obs.Prof
module Mig = Tiering.Migration_intf

type swap_kind =
  | Ssd_swap of Swapdev.Ssd.config
  | Zram_swap of Swapdev.Zram.config

let ssd = Ssd_swap Swapdev.Ssd.default_config

let zram = Zram_swap Swapdev.Zram.default_config

type tiering = {
  fast_frames : int;
  slow_extra_ns : int;
  hint_fault_ns : int;
  migrate_page_ns : int;
  migration : Mig.env -> Mig.packed;
}

let tiering ~fast_frames migration =
  {
    fast_frames;
    slow_extra_ns = 3_000_000;
    hint_fault_ns = 50_000;
    migrate_page_ns = 400_000;
    migration;
  }

type config = {
  hw_threads : int;
  capacity_frames : int;
  swap : swap_kind;
  costs : Mem.Costs.t;
  readahead : int;
  direct_reclaim_batch : int;
  segment_pages : int;
  hit_cpu_ns : int;
  minor_fault_ns : int;
  barrier_groups : int array option;
  kthread_jitter_ns : int;
      (** mean scheduling delay between kernel-thread steps; the
          OS-noise term the paper blames for scan-timing variance *)
  max_runtime_ns : int;
  seed : int;
  fault_plan : Swapdev.Faulty_device.plan;
  io_max_retries : int;
  io_retry_backoff_ns : int;
  audit_every_ns : int;
  obs : Obs.config;
  prof : Obs.Prof.config;
  cancel : Engine.Cancel.t;
  cgroups : Mem.Memcg.spec option;
      (** memory cgroups (None = single global pool, the pre-cgroup
          behaviour, byte-identical to builds without the controller) *)
  chaos : Chaos.spec option;
      (** runtime-transient injection schedule (None = no injectors,
          byte-identical to builds without the chaos layer) *)
  vmstat : bool;
      (** capture the vmstat counter registry into [result.vmstat].
          Counters are maintained unconditionally (one int store per
          bump); this flag only controls whether the capture rides the
          result, so [false] keeps results byte-identical to builds
          without the telemetry layer *)
  damon : Mem.Damon.config option;
      (** DAMON-style region access monitor (None = no monitor ticks,
          no capture, byte-identical results) *)
  tiering : tiering option;
      (** fast + slow frame pools under a migration policy (None = one
          pool, no tier bits ever set) *)
}

let default_config ~capacity_frames ~seed =
  {
    hw_threads = 12;
    capacity_frames;
    (* Footprints are scaled 1/256 from the paper's 12-16 GB: page-table
       regions shrink from 512 to 64 PTEs to keep region granularity
       comparable, and per-page management costs inflate by the same
       factor so scanning overhead keeps its real share of runtime
       (see DESIGN.md, "Scaling"). *)
    costs =
      Mem.Costs.scaled
        { Mem.Costs.default with region_size = 64; spatial_scan_max = 64 };
    swap = ssd;
    readahead = 8;
    direct_reclaim_batch = 8;
    segment_pages = 32;
    hit_cpu_ns = 20;
    minor_fault_ns = 1_000;
    barrier_groups = None;
    kthread_jitter_ns = 50_000;
    max_runtime_ns = 50_000_000_000_000;
    seed;
    fault_plan = Swapdev.Faulty_device.none;
    io_max_retries = 4;
    io_retry_backoff_ns = 100_000;
    audit_every_ns = 0;
    obs = Obs.off;
    prof = Obs.Prof.off;
    cancel = Engine.Cancel.never;
    cgroups = None;
    chaos = None;
    vmstat = false;
    damon = None;
    tiering = None;
  }

type tier_result = {
  fast_touches : int;
  slow_touches : int;
  hint_faults : int;
  promotions : int;
  demotions : int;
  failed_promotions : int;
  fast_resident : int;
  slow_resident : int;
  migration_name : string;
  migration_stats : (string * int) list;
}

let slow_fraction r =
  let warm = r.fast_touches + r.slow_touches in
  if warm = 0 then 0.0 else float_of_int r.slow_touches /. float_of_int warm

type result = {
  runtime_ns : int;
  major_faults : int;
  minor_faults : int;
  swap_ins : int;
  swap_outs : int;
  direct_reclaims : int;
  direct_reclaim_ns : int;
  read_latencies : float array;
  write_latencies : float array;
  per_thread_finish : int array;
  cpu_busy_ns : int;
  policy_stats : (string * int) list;
  policy_name : string;
  resident_at_end : int;
  (* Fault-injection and degradation accounting. *)
  io_retries : int;
  io_remaps : int;
  injected_transient : int;
  injected_permanent : int;
  injected_stalls : int;
  injected_tail_spikes : int;
  poisoned_reads : int;
  writeback_failures : int;
  oom_kills : int;
  oom_discarded_pages : int;
  invariant_violations : int;
  memcg : Mem.Memcg.summary option;
  chaos : Chaos.summary option;
  trace : Obs.capture option;
  profile : Obs.Prof.capture option;
  vmstat : Obs.Vmstat.capture option;
  heatmap : Mem.Damon.capture option;
  tier : tier_result option;
}

type kthread_state = {
  kt : Policy.Policy_intf.kthread;
  ktid : int; (* profiler thread id: nthreads + index *)
  kphase : Obs.Prof.phase; (* default attribution phase / span label *)
  mutable sleeping : bool;
  (* Pre-allocated driver and wake event: waking a kthread schedules a
     reused closure instead of building a fresh driver per wakeup. *)
  mutable kdrive : unit -> unit;
  mutable kwake : Engine.Sim.t -> unit;
}

type t = {
  cfg : config;
  obs : Obs.t;
  prof : Obs.Prof.t;
  (* Kernel-fidelity telemetry: the /proc/vmstat counter registry and
     the workingset eviction clock.  Always live — a bump is one array
     store — so the hot paths never branch on configuration; only the
     end-of-run capture is gated by [cfg.vmstat]. *)
  vm : Obs.Vmstat.t;
  ws : Mem.Workingset.t;
  sim : Engine.Sim.t;
  cpu : Engine.Cpu.t;
  rng : Engine.Rng.t;
  pt : Mem.Page_table.t;
  frames : Mem.Frame_table.t;
  mem : Mem.Phys_mem.t;
  swap : Swapdev.Swap_manager.t;
  injector : Swapdev.Faulty_device.t option;
      (* swap-device fault injector; [None] leaves the device unwrapped *)
  workload : Workload.Chunk.packed;
  mutable policy : Policy.Policy_intf.packed option;
  retained_slot : int array; (* vpn -> clean swap-cache slot, or -1 *)
  groups : int array;        (* tid -> barrier group *)
  group_size : int array;
  group_arrived : int array;
  group_waiters : int list array;
  waiting : bool array;
      (* tid -> parked at a barrier; keys the waiter set by thread id so
         the OOM killer's membership check is O(1) instead of a
         structural [List.mem] scan *)
  barrier_arrive_ns : int array; (* tid -> when it reached the barrier *)
  finish_ns : int array;
  mutable active_threads : int;
  mutable kthreads : kthread_state array;
  mutable restart_thread : int -> unit;
  mutable stopped : bool;
  (* Fault accounting. *)
  mutable major_faults : int;
  mutable minor_faults : int;
  mutable direct_reclaims : int;
  mutable direct_reclaim_ns : int;
  read_lat : float Structures.Vec.t;
  write_lat : float Structures.Vec.t;
  (* Direct-reclaim context: reclaim_page behaves differently when the
     eviction runs synchronously on a faulting thread. *)
  mutable in_direct : bool;
  mutable reclaim_now : int;
  mutable direct_stall_until : int;
  mutable direct_cpu_extra : int;
  (* Success-adaptive swap readahead, like the kernel's per-VMA scheme:
     each address-space zone keeps its own window, shrunk when its
     speculatively-read pages get evicted untouched. *)
  ra_pending : bool array;
  ra_window : int array; (* per zone *)
  ra_hits : int array;
  ra_misses : int array;
  (* Degradation state: pages whose writeback permanently failed cannot
     leave memory; per-thread residency feeds OOM victim selection. *)
  pinned : bool array;     (* vpn -> unreclaimable *)
  faulted_by : int array;  (* vpn -> tid that faulted the page in, or -1 *)
  owner_tid : int array;   (* like faulted_by, but survives swap-out so
                              the OOM killer can release the victim's
                              swap slots, not just its resident frames *)
  thread_rss : int array;  (* tid -> resident pages it faulted in *)
  killed : bool array;
  (* Memory cgroups; None = no containment, zero behavioural change. *)
  mcg : Mem.Memcg.t option;
  mutable mcg_target : int option; (* reclaim scoped to this cgroup *)
  mutable mcg_breach_low : bool;
  mutable mcg_unproductive : int;
  (* last-resort override of memory.low: armed only after two whole
     direct-reclaim calls in a row freed nothing — the second already
     ran the policy's force escalation (ignoring accessed bits) against
     unprotected memory only, so a second zero means nothing outside
     the protected cgroups is reclaimable *)
  mutable poisoned_reads : int;
  mutable writeback_failures : int;
  mutable oom_kills : int;
  mutable oom_discarded : int;
  mutable invariant_violations : int;
  (* Chaos injector state: all zero/empty when [cfg.chaos] is [None], so
     the hot paths pay one int-array read and nothing else. *)
  chaos_stall_until : int array; (* tid -> burst-stalled until this time *)
  mutable chaos_offlined : int list; (* offlined pfns, most recent first *)
  mutable chaos_last : string; (* last applied injection, for audit context *)
  (* Per-thread segment state: the chunk in flight, the index of its
     next segment and the time the chunk started.  [process_segment]
     reads it here, so its continuations are built once per thread
     (like a kthread's driver) rather than once per segment. *)
  seg_chunk : Workload.Chunk.t array;
  seg_next : int array;
  seg_start : int array;
  seg_done : (Engine.Sim.t -> unit) array;   (* tid -> segment done *)
  seg_resume : (Engine.Sim.t -> unit) array; (* tid -> chaos stall over *)
  cpu_run_end : Engine.Sim.t -> unit;
  (* The faulting thread's time cursor and CPU charge for the segment
     being processed.  [process_segment] never re-enters (every restart
     goes through the event queue), so one pair serves all threads. *)
  mutable cursor : int;
  mutable cpu_acc : int;
  (* Tiering: the migration policy, installed once the machine exists
     like the replacement policy ([None] untiered), and its counters. *)
  mutable migration : Mig.packed option;
  mutable touches : int; (* pages touched, faults included *)
  mutable slow_touches : int;
  mutable hint_faults : int;
  mutable promotions : int;
  mutable demotions : int;
  mutable failed_promotions : int;
}

let ra_zone_pages = 512

let ra_zone vpn = vpn / ra_zone_pages

let ra_adapt t z =
  if t.ra_hits.(z) + t.ra_misses.(z) >= 32 then begin
    if t.ra_hits.(z) > 2 * t.ra_misses.(z) then
      t.ra_window.(z) <- min t.cfg.readahead (t.ra_window.(z) + 1)
    else if t.ra_misses.(z) > t.ra_hits.(z) then
      t.ra_window.(z) <- max 1 (t.ra_window.(z) / 2);
    t.ra_hits.(z) <- 0;
    t.ra_misses.(z) <- 0
  end

let ra_note_hit t vpn =
  if t.ra_pending.(vpn) then begin
    t.ra_pending.(vpn) <- false;
    let z = ra_zone vpn in
    t.ra_hits.(z) <- t.ra_hits.(z) + 1;
    ra_adapt t z
  end

let ra_note_evicted t vpn =
  if t.ra_pending.(vpn) then begin
    t.ra_pending.(vpn) <- false;
    let z = ra_zone vpn in
    t.ra_misses.(z) <- t.ra_misses.(z) + 1;
    ra_adapt t z
  end

let policy_of t =
  match t.policy with
  | Some p -> p
  | None -> invalid_arg "Machine: policy not installed"

let on_mapped t ~pfn ~vpn ~refault ~file_backed ~speculative =
  let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
  P.on_page_mapped p ~pfn ~asid:0 ~vpn ~refault ~file_backed ~speculative

let on_touched t ~pfn ~write =
  let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
  P.on_page_touched p ~pfn ~write

let tier_of_pte pte = if Mem.Pte.slow pte then Mig.Slow else Mig.Fast

(* Frame for a page about to be mapped.  Untiered, the free-stack pop;
   tiered, the migration policy's preferred pool, falling back to any
   pool with room. *)
let frame_for t ~vpn =
  match t.migration with
  | None -> Mem.Phys_mem.alloc_pfn t.mem
  | Some (Mig.Packed ((module M), m)) ->
    let pool = match M.initial_tier m ~vpn with Mig.Fast -> 0 | Mig.Slow -> 1 in
    let pfn = Mem.Phys_mem.alloc_pfn_in t.mem ~pool in
    if pfn >= 0 then pfn else Mem.Phys_mem.alloc_pfn t.mem

(* Wake every sleeping kthread in one pass.  Scheduling reuses each
   kthread's pre-allocated wake closure, and the flattened event queue
   stores it without boxing, so a wakeup burst allocates nothing. *)
let wake_kthreads t =
  let ks_arr = t.kthreads in
  for i = 0 to Array.length ks_arr - 1 do
    let ks = ks_arr.(i) in
    if ks.sleeping then begin
      ks.sleeping <- false;
      Engine.Sim.schedule t.sim ~delay:0 ks.kwake
    end
  done

let rss_page_mapped t ~tid ~vpn =
  t.faulted_by.(vpn) <- tid;
  t.owner_tid.(vpn) <- tid;
  t.thread_rss.(tid) <- t.thread_rss.(tid) + 1;
  match t.mcg with
  | Some mg -> Mem.Memcg.charge mg ~tid ~vpn
  | None -> ()

let rss_page_unmapped t ~vpn =
  let tid = t.faulted_by.(vpn) in
  if tid >= 0 then begin
    t.thread_rss.(tid) <- t.thread_rss.(tid) - 1;
    t.faulted_by.(vpn) <- -1
  end;
  match t.mcg with
  | Some mg -> Mem.Memcg.uncharge mg ~vpn
  | None -> ()

(* The cgroup gate policies consult before detaching an eviction
   candidate.  A targeted pass (memory.high/max enforcement, the
   proactive probe) only touches the target cgroup's pages — hard, not
   overridden by [force].  Outside a targeted pass, memory.low shields a
   cgroup under its protection; the policy's [force] escalation (which
   also ignores accessed bits) may breach it only after an entire
   direct-reclaim call — force pass included — freed nothing, mirroring
   how the kernel overrides protection only when nothing else is
   reclaimable. *)
let evictable t ~pfn ~force =
  match t.mcg with
  | None -> true
  | Some mg ->
    let vpn = Mem.Frame_table.owner_vpn t.frames pfn in
    if vpn < 0 then true
    else
      let cg = Mem.Memcg.cg_of_page mg vpn in
      if cg < 0 then true
      else (
        match t.mcg_target with
        | Some target -> cg = target
        | None ->
          (force && t.mcg_breach_low) || not (Mem.Memcg.low_protected mg cg))

let mcg_stall t ~tid ~t0 ~t1 =
  match t.mcg with
  | Some mg -> Mem.Memcg.stall mg ~tid ~t0 ~t1
  | None -> ()

(* Per-cgroup memory.stat slices of the vmstat counters.  Fault-side
   counters attribute to the faulting thread's cgroup; reclaim-side
   counters ([pgsteal], [pswpout]) to the cgroup charged for the page
   being evicted, like the kernel's lruvec accounting. *)
let mcg_vm t ~tid i =
  match t.mcg with Some mg -> Mem.Memcg.vm_bump mg ~tid i | None -> ()

let mcg_vm_page t ~vpn i =
  match t.mcg with Some mg -> Mem.Memcg.vm_bump_page mg ~vpn i | None -> ()

(* The machine unmaps, writes back and frees a frame on the policy's
   behalf.  Clean pages with a retained swap-cache copy are dropped
   without I/O; dirty (or never-swapped) pages cost a device write,
   which stalls the faulting thread when reclaim is direct.  A write
   that fails permanently (even after retries and slot remapping) pins
   the page in memory: it cannot leave until the OOM killer tears its
   owner down. *)
let reclaim_page t ~pfn =
  let vpn = Mem.Frame_table.owner_vpn t.frames pfn in
  if vpn >= 0 then begin
    let pte = Mem.Page_table.get t.pt vpn in
    if Mem.Pte.present pte && not t.pinned.(vpn) then begin
      let retained = t.retained_slot.(vpn) in
      let now = t.reclaim_now in
      let needs_writeback = Mem.Pte.dirty pte || retained < 0 in
      let slot =
        if needs_writeback then begin
          if retained >= 0 then begin
            Swapdev.Swap_manager.release t.swap ~slot:retained;
            t.retained_slot.(vpn) <- -1
          end;
          let klass = Workload.Chunk.packed_klass t.workload vpn in
          let slot =
            Swapdev.Swap_manager.swap_out_slot t.swap ~now ~klass ~page_key:vpn
          in
          let io_cpu = Swapdev.Swap_manager.last_cpu_ns t.swap in
          if t.in_direct then begin
            t.direct_stall_until <-
              max t.direct_stall_until
                (Swapdev.Swap_manager.last_finish_ns t.swap);
            t.direct_cpu_extra <- t.direct_cpu_extra + io_cpu;
            Prof.charge_phase t.prof Prof.Evict_scan io_cpu
          end
          else
            Engine.Cpu.charge_tagged t.cpu
              ~phase:(Prof.phase_index Prof.Evict_scan) io_cpu;
          slot
        end
        else retained
      in
      if slot < 0 then begin
        (* Writeback failed for good: the page stays resident and
           becomes unreclaimable. *)
        t.pinned.(vpn) <- true;
        t.writeback_failures <- t.writeback_failures + 1
      end
      else begin
        Obs.Vmstat.incr t.vm Obs.Vmstat.pgsteal;
        mcg_vm_page t ~vpn Mem.Memcg.st_pgsteal;
        if needs_writeback then mcg_vm_page t ~vpn Mem.Memcg.st_pswpout;
        (* Leave a shadow entry behind, like the kernel's
           workingset_eviction: the eviction-clock snapshot plus the
           accessed bit, consumed when the page refaults. *)
        Mem.Page_table.set_shadow t.pt vpn
          (Mem.Workingset.note_eviction t.ws
             ~was_active:(Mem.Pte.accessed pte));
        Mem.Page_table.set t.pt vpn (Mem.Pte.to_swapped pte ~slot);
        t.retained_slot.(vpn) <- -1;
        ra_note_evicted t vpn;
        rss_page_unmapped t ~vpn;
        Mem.Frame_table.clear_owner t.frames ~pfn;
        Mem.Phys_mem.free t.mem pfn;
        if Obs.enabled t.obs then
          Obs.emit t.obs ~t_ns:now (Obs.Evict { vpn; dirty = needs_writeback })
      end
    end
  end

let map_page t ~tid ~pfn ~vpn ~refault ~write ~demand =
  let file_backed = Workload.Chunk.packed_file_backed t.workload vpn in
  Mem.Frame_table.set_owner t.frames ~pfn ~asid:0 ~vpn;
  let pte = Mem.Pte.mapped ~pfn ~file_backed in
  let pte = if demand then Mem.Pte.set_accessed pte else pte in
  let pte = if write then Mem.Pte.set_dirty pte else pte in
  let slow = Mem.Phys_mem.pool_of t.mem pfn > 0 in
  let pte = if slow then Mem.Pte.set_slow pte else pte in
  Mem.Page_table.set t.pt vpn pte;
  rss_page_mapped t ~tid ~vpn;
  on_mapped t ~pfn ~vpn ~refault ~file_backed ~speculative:(not demand);
  (match t.migration with
  | Some (Mig.Packed ((module M), m)) -> M.on_placed m ~vpn (tier_of_pte pte)
  | None -> ());
  if demand then on_touched t ~pfn ~write

(* Every member of group [g] has arrived: restart the waiters once the
   rendezvous cost has elapsed. *)
let release_barrier t g =
  let waiters = t.group_waiters.(g) in
  t.group_arrived.(g) <- 0;
  t.group_waiters.(g) <- [];
  List.iter (fun w -> t.waiting.(w) <- false) waiters;
  Engine.Sim.schedule t.sim ~delay:t.cfg.costs.Mem.Costs.barrier_ns (fun _ ->
      let now = Engine.Sim.now t.sim in
      List.iter
        (fun w ->
          Prof.wait t.prof ~tid:w ~now Prof.Barrier_wait
            (now - t.barrier_arrive_ns.(w));
          t.restart_thread w)
        waiters)

(* Model the OOM killer: pick the live thread with the largest resident
   share — restricted to cgroup [cg] when the kill is scoped — terminate
   it, and tear down *all* of its address space: resident pages are
   freed without writeback (their contents die with the thread, pinned
   or not), swap-cache copies and the slots of its swapped-out pages are
   released, and every reverse-map entry is cleared.  Returns false only
   if no eligible live thread remains. *)
let oom_kill ?cg t =
  let eligible tid =
    match (cg, t.mcg) with
    | Some c, Some mg -> Mem.Memcg.cg_of_thread mg tid = c
    | _ -> true
  in
  let victim = ref (-1) in
  Array.iteri
    (fun tid finish ->
      if finish < 0 && not t.killed.(tid) && eligible tid then
        if !victim < 0 || t.thread_rss.(tid) > t.thread_rss.(!victim) then
          victim := tid)
    t.finish_ns;
  if !victim < 0 then false
  else begin
    let v = !victim in
    t.killed.(v) <- true;
    t.oom_kills <- t.oom_kills + 1;
    Obs.Vmstat.incr t.vm Obs.Vmstat.oom_kill;
    let discarded_before = t.oom_discarded in
    for vpn = 0 to Mem.Page_table.pages t.pt - 1 do
      if t.owner_tid.(vpn) = v then begin
        let pte = Mem.Page_table.get t.pt vpn in
        if Mem.Pte.present pte then begin
          let pfn = Mem.Pte.pfn pte in
          if t.retained_slot.(vpn) >= 0 then begin
            Swapdev.Swap_manager.release t.swap ~slot:t.retained_slot.(vpn);
            t.retained_slot.(vpn) <- -1
          end;
          Mem.Page_table.set t.pt vpn Mem.Pte.empty;
          Mem.Frame_table.clear_owner t.frames ~pfn;
          Mem.Phys_mem.free t.mem pfn;
          t.pinned.(vpn) <- false;
          t.ra_pending.(vpn) <- false;
          (match t.mcg with
          | Some mg -> Mem.Memcg.uncharge mg ~vpn
          | None -> ());
          t.oom_discarded <- t.oom_discarded + 1
        end
        else if Mem.Pte.swapped pte then begin
          (* The PR-1 killer leaked these: a victim's swapped-out pages
             kept their slots (and rmap entries) forever.  Release the
             slot and empty the PTE so the audit's slot-conservation
             check holds after every kill. *)
          Swapdev.Swap_manager.release t.swap ~slot:(Mem.Pte.swap_slot pte);
          Mem.Page_table.set t.pt vpn Mem.Pte.empty;
          (* The page's contents die with the thread: a later fault on
             this vpn is a fresh minor fault, not a refault, so drop
             the pending shadow entry. *)
          Mem.Page_table.clear_shadow t.pt vpn;
          t.oom_discarded <- t.oom_discarded + 1
        end;
        t.faulted_by.(vpn) <- -1;
        t.owner_tid.(vpn) <- -1
      end
    done;
    t.thread_rss.(v) <- 0;
    (* Future barriers must not wait for the dead thread; if its group
       is already assembled at one, release the survivors. *)
    let g = t.groups.(v) in
    if t.waiting.(v) then begin
      let rec remove = function
        | [] -> []
        | w :: rest -> if w = v then rest else w :: remove rest
      in
      t.group_waiters.(g) <- remove t.group_waiters.(g);
      t.waiting.(v) <- false;
      t.group_arrived.(g) <- t.group_arrived.(g) - 1
    end;
    t.group_size.(g) <- t.group_size.(g) - 1;
    if
      t.group_size.(g) > 0
      && t.group_arrived.(g) >= t.group_size.(g)
      && t.group_waiters.(g) <> []
    then release_barrier t g;
    if t.finish_ns.(v) < 0 then begin
      t.finish_ns.(v) <- Engine.Sim.now t.sim;
      t.active_threads <- t.active_threads - 1;
      if t.active_threads <= 0 then begin
        t.stopped <- true;
        Engine.Sim.stop t.sim
      end
    end;
    Prof.mark t.prof ~tid:v ~now:(Engine.Sim.now t.sim) Prof.Oom_kill;
    let discarded = t.oom_discarded - discarded_before in
    Obs.emit t.obs ~t_ns:(Engine.Sim.now t.sim)
      (Obs.Oom_kill { tid = v; discarded });
    (match t.mcg with
    | Some mg ->
      let vcg = Mem.Memcg.cg_of_thread mg v in
      Mem.Memcg.note_oom mg vcg;
      Mem.Memcg.thread_exit mg ~tid:v ~now:(Engine.Sim.now t.sim);
      Obs.emit t.obs ~t_ns:(Engine.Sim.now t.sim)
        (Obs.Cgroup_oom { cg = Mem.Memcg.name mg vcg; tid = v; discarded })
    | None -> ());
    true
  end

(* Allocation slow path: run the policy synchronously and charge its CPU
   and writeback stalls to the faulting thread.  When reclaim cannot
   free memory, degrade through the OOM killer rather than aborting the
   trial; [None] means the faulting thread itself was chosen and its
   fault must unwind. *)
let alloc_frame t ~tid ~vpn =
  let pfn = frame_for t ~vpn in
  if pfn >= 0 then begin
    if Mem.Phys_mem.below_low t.mem then wake_kthreads t;
    pfn
  end
  else begin
    let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
    let rec retry attempts =
      if t.killed.(tid) then -1
      else if attempts > 64 then
        if oom_kill t && not t.killed.(tid) then begin
          let pfn = frame_for t ~vpn in
          if pfn >= 0 then pfn else retry 0
        end
        else -1
      else begin
        t.direct_reclaims <- t.direct_reclaims + 1;
        t.in_direct <- true;
        t.reclaim_now <- t.cursor;
        t.direct_stall_until <- t.cursor;
        t.direct_cpu_extra <- 0;
        (* Scope the episode: attribution accrued inside it is consumed
           by its own aggregate charge below, not by the segment-end
           flush (and vice versa). *)
        let saved_pending = Prof.suspend_pending t.prof in
        Prof.begin_phase t.prof ~now:t.cursor Prof.Evict_scan;
        if t.mcg <> None then t.mcg_breach_low <- t.mcg_unproductive >= 2;
        let stats = P.direct_reclaim p ~want:t.cfg.direct_reclaim_batch in
        t.in_direct <- false;
        let cpu = stats.Policy.Policy_intf.cpu_ns + t.direct_cpu_extra in
        Engine.Cpu.charge t.cpu cpu;
        Prof.resume_pending t.prof saved_pending;
        let before = t.cursor in
        let cpu_wall = Engine.Cpu.scale t.cpu cpu in
        t.cursor <- max (t.cursor + cpu_wall) t.direct_stall_until;
        Prof.end_phase t.prof ~now:(before + cpu_wall);
        Prof.wait t.prof ~tid ~now:t.cursor Prof.Writeback_wait
          (t.cursor - before - cpu_wall);
        (* The whole direct-reclaim episode is a memory stall, like the
           kernel's psi_memstall_enter around try_to_free_pages. *)
        mcg_stall t ~tid ~t0:before ~t1:t.cursor;
        t.direct_reclaim_ns <- t.direct_reclaim_ns + (t.cursor - before);
        if Obs.enabled t.obs then
          Obs.emit t.obs ~t_ns:before
            (Obs.Reclaim
               {
                 want = t.cfg.direct_reclaim_batch;
                 freed = stats.Policy.Policy_intf.freed;
                 scanned = stats.Policy.Policy_intf.scanned;
                 latency_ns = t.cursor - before;
               });
        wake_kthreads t;
        if t.mcg <> None then
          t.mcg_unproductive <-
            (if stats.Policy.Policy_intf.freed = 0 then t.mcg_unproductive + 1
             else 0);
        let pfn = frame_for t ~vpn in
        if pfn >= 0 then pfn else retry (attempts + 1)
      end
    in
    let frame = retry 0 in
    t.mcg_breach_low <- false;
    t.mcg_unproductive <- 0;
    frame
  end

(* One synchronous cgroup-targeted reclaim pass on a faulting thread:
   the same episode shape as the allocation slow path, but scoped to
   [cg] through [mcg_target] and reported as a [Cgroup_reclaim] trace
   event (so untargeted Reclaim telemetry stays comparable across
   configurations).  Returns the pages freed. *)
let memcg_direct_reclaim t ~tid ~cg ~want =
  let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
  t.direct_reclaims <- t.direct_reclaims + 1;
  t.mcg_target <- Some cg;
  t.in_direct <- true;
  t.reclaim_now <- t.cursor;
  t.direct_stall_until <- t.cursor;
  t.direct_cpu_extra <- 0;
  let saved_pending = Prof.suspend_pending t.prof in
  Prof.begin_phase t.prof ~now:t.cursor Prof.Evict_scan;
  let stats = P.direct_reclaim p ~want in
  t.in_direct <- false;
  t.mcg_target <- None;
  let cpu = stats.Policy.Policy_intf.cpu_ns + t.direct_cpu_extra in
  Engine.Cpu.charge t.cpu cpu;
  Prof.resume_pending t.prof saved_pending;
  let before = t.cursor in
  let cpu_wall = Engine.Cpu.scale t.cpu cpu in
  t.cursor <- max (t.cursor + cpu_wall) t.direct_stall_until;
  Prof.end_phase t.prof ~now:(before + cpu_wall);
  Prof.wait t.prof ~tid ~now:t.cursor Prof.Writeback_wait
    (t.cursor - before - cpu_wall);
  mcg_stall t ~tid ~t0:before ~t1:t.cursor;
  t.direct_reclaim_ns <- t.direct_reclaim_ns + (t.cursor - before);
  (match t.mcg with
  | Some mg ->
    Obs.emit t.obs ~t_ns:before
      (Obs.Cgroup_reclaim
         {
           cg = Mem.Memcg.name mg cg;
           want;
           freed = stats.Policy.Policy_intf.freed;
           scanned = stats.Policy.Policy_intf.scanned;
           latency_ns = t.cursor - before;
         })
  | None -> ());
  wake_kthreads t;
  stats.Policy.Policy_intf.freed

(* memory.max: a charge may not cross the hard cap.  Reclaim inside the
   cgroup until the charge fits; when a whole pass stops making progress
   (everything left is pinned or the group is thrashing faster than it
   writes back), degrade through a *scoped* OOM kill and re-check.  The
   machine-wide killer in the allocation slow path is this same
   mechanism with [cg = None] — the root-cgroup degenerate case. *)
let memcg_enforce_max t ~tid =
  match t.mcg with
  | None -> ()
  | Some mg ->
    let cg = Mem.Memcg.cg_of_thread mg tid in
    let rec enforce stalled_passes =
      if (not t.killed.(tid)) && Mem.Memcg.over_max mg cg ~extra:1 then begin
        if stalled_passes >= 8 then begin
          if oom_kill t ~cg then enforce 0
          (* else: nothing left to kill in the group; let the charge
             through rather than deadlocking the machine. *)
        end
        else begin
          let want =
            Mem.Memcg.max_overage mg cg ~extra:1 + t.cfg.direct_reclaim_batch
          in
          let usage_before = Mem.Memcg.usage mg cg in
          ignore (memcg_direct_reclaim t ~tid ~cg ~want);
          (* Progress is measured in usage, not the policy's freed count:
             a writeback that fails permanently pins the page and frees
             nothing even though the policy counted it. *)
          enforce
            (if Mem.Memcg.usage mg cg < usage_before then 0
             else stalled_passes + 1)
        end
      end
    in
    enforce 0

(* memory.high: over the soft cap the thread keeps running but pays —
   first one bounded targeted-reclaim attempt, then an exponentially
   growing stall (PR-1's transient-I/O backoff curve, in simulated
   time) for as long as the group stays over. *)
let memcg_after_charge t ~tid =
  match t.mcg with
  | None -> ()
  | Some mg ->
    let cg = Mem.Memcg.cg_of_thread mg tid in
    if Mem.Memcg.over_high mg cg then begin
      let want =
        min (Mem.Memcg.high_overage mg cg) t.cfg.direct_reclaim_batch
      in
      if want > 0 then
        ignore (memcg_direct_reclaim t ~tid ~cg ~want)
    end;
    let d = Mem.Memcg.throttle_ns mg ~tid ~base_ns:t.cfg.io_retry_backoff_ns in
    if d > 0 then begin
      let t0 = t.cursor in
      t.cursor <- t.cursor + d;
      Mem.Memcg.stall mg ~tid ~t0 ~t1:t.cursor;
      Prof.wait t.prof ~tid ~now:t.cursor Prof.Writeback_wait d;
      Obs.emit t.obs ~t_ns:t0
        (Obs.Throttle
           {
             tid;
             cg = Mem.Memcg.name mg cg;
             usage = Mem.Memcg.usage mg cg;
             high = Mem.Memcg.high mg cg;
             stall_ns = d;
           })
    end

(* Asynchronous targeted reclaim for the proactive probe: kswapd-like
   (CPU charged to the contention model, writebacks overlap, nobody
   stalls), but scoped to one cgroup. *)
let memcg_background_reclaim t ~cg ~want ~now =
  let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
  t.mcg_target <- Some cg;
  t.reclaim_now <- now;
  let stats = P.direct_reclaim p ~want in
  t.mcg_target <- None;
  Engine.Cpu.charge
    ~phase:(Prof.phase_index Prof.Evict_scan)
    t.cpu stats.Policy.Policy_intf.cpu_ns;
  (match t.mcg with
  | Some mg ->
    Obs.emit t.obs ~t_ns:now
      (Obs.Cgroup_reclaim
         {
           cg = Mem.Memcg.name mg cg;
           want;
           freed = stats.Policy.Policy_intf.freed;
           scanned = stats.Policy.Policy_intf.scanned;
           latency_ns = 0;
         })
  | None -> ());
  wake_kthreads t

(* Workingset refault accounting at swap-in, mirroring the kernel's
   workingset_refault(): consume the shadow entry left at eviction,
   classify the refault distance against memory size, and count.  Runs
   for demand and readahead swap-ins alike — the kernel classifies on
   swap-cache insertion, before anyone touches the page — and before
   the I/O outcome is known, so even a poisoned read was a refault. *)
let note_refault t ~tid ~vpn ~now =
  let shadow = Mem.Page_table.shadow t.pt vpn in
  if shadow = Mem.Workingset.no_shadow then begin
    Obs.Vmstat.incr t.vm Obs.Vmstat.workingset_shadow_miss;
    if Obs.enabled t.obs then
      Obs.emit t.obs ~t_ns:now
        (Obs.Workingset_refault
           {
             vpn;
             distance = -1;
             shadow = false;
             activated = false;
             restored = false;
           })
  end
  else begin
    let r = Mem.Workingset.classify t.ws ~shadow in
    Mem.Page_table.clear_shadow t.pt vpn;
    Obs.Vmstat.incr t.vm Obs.Vmstat.workingset_refault;
    Obs.Vmstat.note_refault_distance t.vm r.Mem.Workingset.distance;
    mcg_vm t ~tid Mem.Memcg.st_ws_refault;
    if r.Mem.Workingset.activated then begin
      Obs.Vmstat.incr t.vm Obs.Vmstat.workingset_activate;
      mcg_vm t ~tid Mem.Memcg.st_ws_activate
    end;
    if r.Mem.Workingset.restored then begin
      Obs.Vmstat.incr t.vm Obs.Vmstat.workingset_restore;
      mcg_vm t ~tid Mem.Memcg.st_ws_restore
    end;
    if Obs.enabled t.obs then
      Obs.emit t.obs ~t_ns:now
        (Obs.Workingset_refault
           {
             vpn;
             distance = r.Mem.Workingset.distance;
             shadow = true;
             activated = r.Mem.Workingset.activated;
             restored = r.Mem.Workingset.restored;
           })
  end

(* Opportunistic swap-in of the sequential neighbours of a demand fault,
   like the kernel's swap readahead cluster.  Only when memory is easy:
   readahead must never trigger reclaim. *)
let readahead t ~tid vpn =
  let n = min t.cfg.readahead t.ra_window.(ra_zone vpn) in
  if n > 1 && Mem.Phys_mem.free_count t.mem > n + Mem.Phys_mem.low_watermark t.mem
  then begin
    let limit = min (vpn + n - 1) (Mem.Page_table.pages t.pt - 1) in
    let stop = ref false in
    for v = vpn + 1 to limit do
      if not !stop then begin
        let pte = Mem.Page_table.get t.pt v in
        if Mem.Pte.swapped pte then begin
          let pfn = frame_for t ~vpn:v in
          if pfn < 0 then stop := true
          else begin
            let slot = Mem.Pte.swap_slot pte in
            Swapdev.Swap_manager.swap_in_slot t.swap ~now:t.cursor ~slot;
            (* Tagged: this I/O submit cost is charged here and nowhere
               else, so it must not consume pending attribution. *)
            Engine.Cpu.charge_tagged t.cpu
              ~phase:(Prof.phase_index Prof.Fault_handling)
              (Swapdev.Swap_manager.last_cpu_ns t.swap);
            if Swapdev.Swap_manager.last_failed t.swap then begin
              (* Speculative read failed: abandon the cluster.  The page
                 stays swapped; a demand fault will retry (and poison it
                 if the slot really is gone). *)
              Mem.Phys_mem.free t.mem pfn;
              stop := true
            end
            else begin
              note_refault t ~tid ~vpn:v ~now:t.cursor;
              mcg_vm t ~tid Mem.Memcg.st_pswpin;
              t.retained_slot.(v) <- slot;
              t.ra_pending.(v) <- true;
              map_page t ~tid ~pfn ~vpn:v ~refault:true ~write:false ~demand:false
            end
          end
        end
      end
    done
  end

let handle_fault t ~tid ~vpn ~write =
  Prof.begin_phase t.prof ~now:t.cursor Prof.Fault_handling;
  Obs.Vmstat.incr t.vm Obs.Vmstat.pgfault;
  mcg_vm t ~tid Mem.Memcg.st_pgfault;
  t.cpu_acc <- t.cpu_acc + t.cfg.costs.Mem.Costs.fault_trap_ns;
  (* The hard cap is enforced before the machine even looks for a free
     frame: a cgroup at memory.max must make room inside itself (or
     sacrifice one of its own) no matter how much global memory is
     free.  May kill [tid]. *)
  memcg_enforce_max t ~tid;
  let pfn = if t.killed.(tid) then -1 else alloc_frame t ~tid ~vpn in
  (* pfn < 0: the faulting thread lost the OOM lottery *)
  if pfn >= 0 then begin
    (* Attribute the trap cost after the allocation so the pending
       amount cannot be consumed by a direct-reclaim episode's
       aggregate charge; it flushes with [cpu_acc] at segment end. *)
    Prof.charge_phase t.prof Prof.Fault_handling
      t.cfg.costs.Mem.Costs.fault_trap_ns;
    let pte = Mem.Page_table.get t.pt vpn in
    if Mem.Pte.swapped pte then begin
      t.major_faults <- t.major_faults + 1;
      Obs.Vmstat.incr t.vm Obs.Vmstat.pgmajfault;
      mcg_vm t ~tid Mem.Memcg.st_pgmajfault;
      note_refault t ~tid ~vpn ~now:t.cursor;
      let slot = Mem.Pte.swap_slot pte in
      Swapdev.Swap_manager.swap_in_slot t.swap ~now:t.cursor ~slot;
      let io_cpu = Swapdev.Swap_manager.last_cpu_ns t.swap in
      let io_finish = Swapdev.Swap_manager.last_finish_ns t.swap in
      let io_failed = Swapdev.Swap_manager.last_failed t.swap in
      t.cpu_acc <- t.cpu_acc + io_cpu;
      Prof.charge_phase t.prof Prof.Fault_handling io_cpu;
      let before_wait = t.cursor in
      t.cursor <- max t.cursor io_finish;
      Prof.wait t.prof ~tid ~now:t.cursor Prof.Swap_wait (t.cursor - before_wait);
      mcg_stall t ~tid ~t0:before_wait ~t1:t.cursor;
      if io_failed then begin
        (* The stored copy is unrecoverable: poison the mapping.  The
           thread continues on a zero-filled page, and the loss is
           visible in [poisoned_reads]. *)
        t.poisoned_reads <- t.poisoned_reads + 1;
        Swapdev.Swap_manager.release t.swap ~slot;
        map_page t ~tid ~pfn ~vpn ~refault:false ~write ~demand:true
      end
      else begin
        mcg_vm t ~tid Mem.Memcg.st_pswpin;
        t.retained_slot.(vpn) <- slot;
        map_page t ~tid ~pfn ~vpn ~refault:true ~write ~demand:true;
        readahead t ~tid vpn
      end
    end
    else begin
      t.minor_faults <- t.minor_faults + 1;
      t.cpu_acc <- t.cpu_acc + t.cfg.minor_fault_ns;
      Prof.charge_phase t.prof Prof.Fault_handling t.cfg.minor_fault_ns;
      map_page t ~tid ~pfn ~vpn ~refault:false ~write ~demand:true
    end;
    memcg_after_charge t ~tid
  end;
  Prof.end_phase t.prof ~now:t.cursor

let page_at pages i =
  match pages with
  | Workload.Chunk.Range { start; stride; _ } -> start + (i * stride)
  | Workload.Chunk.Pages a -> a.(i)
  | Workload.Chunk.Single p -> p

(* A resident touch off the hardware fast path: the page sits in the
   slow pool, or a migration policy armed a hint on it.  The touch pays
   the slow tier's latency, and a hint traps to the policy — which may
   migrate the page — before the accessed bit lands on whichever frame
   holds the page now. *)
let tier_touch t ~vpn ~pte ~write =
  match (t.cfg.tiering, t.migration) with
  | Some tc, Some (Mig.Packed ((module M), m)) ->
    t.cpu_acc <- t.cpu_acc + t.cfg.hit_cpu_ns;
    if Mem.Pte.slow pte then begin
      t.slow_touches <- t.slow_touches + 1;
      t.cpu_acc <- t.cpu_acc + tc.slow_extra_ns
    end;
    if Mem.Pte.hinted pte then begin
      Mem.Page_table.set t.pt vpn (Mem.Pte.clear_hint pte);
      t.hint_faults <- t.hint_faults + 1;
      t.cpu_acc <- t.cpu_acc + tc.hint_fault_ns;
      Prof.charge_phase t.prof Prof.Fault_handling tc.hint_fault_ns;
      M.on_hint_fault m ~vpn (tier_of_pte pte) ~write
    end;
    let pte = Mem.Pte.set_accessed (Mem.Page_table.get t.pt vpn) in
    let pte = if write then Mem.Pte.set_dirty pte else pte in
    Mem.Page_table.set t.pt vpn pte;
    ra_note_hit t vpn;
    on_touched t ~pfn:(Mem.Pte.pfn pte) ~write
  | _ -> invalid_arg "Machine: tier bits on an untiered machine"

(* Touch one page: fast path sets the accessed (and dirty) bits exactly
   like the hardware walker; tier bits and misses leave it. *)
let touch t ~tid ~vpn ~write =
  let pte = Mem.Page_table.get t.pt vpn in
  if Mem.Pte.hit pte then begin
    let pte = Mem.Pte.set_accessed pte in
    let pte = if write then Mem.Pte.set_dirty pte else pte in
    Mem.Page_table.set t.pt vpn pte;
    t.cpu_acc <- t.cpu_acc + t.cfg.hit_cpu_ns;
    ra_note_hit t vpn;
    on_touched t ~pfn:(Mem.Pte.pfn pte) ~write
  end
  else if Mem.Pte.present pte then tier_touch t ~vpn ~pte ~write
  else handle_fault t ~tid ~vpn ~write

let record_latency t ~tid (c : Workload.Chunk.t) ns =
  let cls = c.Workload.Chunk.latency_class in
  if cls = Workload.Chunk.read_class then
    Structures.Vec.push t.read_lat (float_of_int ns)
  else if cls = Workload.Chunk.write_class then
    Structures.Vec.push t.write_lat (float_of_int ns);
  match t.mcg with
  | Some mg -> Mem.Memcg.note_latency mg ~tid ~cls (float_of_int ns)
  | None -> ()

let rec run_thread t tid =
  if not t.stopped && not t.killed.(tid) then begin
    let su = t.chaos_stall_until.(tid) in
    if su > Engine.Sim.now t.sim then
      (* Burst storm: the thread is descheduled until the pulse ends. *)
      Engine.Sim.schedule_at t.sim ~time:su (fun _ -> run_thread t tid)
    else
      match Workload.Chunk.packed_next t.workload ~tid with
      | Workload.Chunk.Chunk c ->
        t.seg_chunk.(tid) <- c;
        t.seg_next.(tid) <- 0;
        t.seg_start.(tid) <- Engine.Sim.now t.sim;
        process_segment t tid
      | Workload.Chunk.Barrier -> barrier_arrive t tid
      | Workload.Chunk.Finished -> thread_finished t tid
  end

(* Process up to [segment_pages] of the thread's chunk in flight
   atomically, then yield to the event loop so kernel threads interleave
   with large chunks.  Where the chunk stands lives in the per-thread
   [seg_*] arrays, so the continuations it schedules are the ones built
   once per thread in [run]: a segment allocates no closure. *)
and process_segment t tid =
  let open Workload.Chunk in
  let c = t.seg_chunk.(tid) in
  let index = t.seg_next.(tid) in
  let total = page_count c.pages in
  let seg_len = min t.cfg.segment_pages (total - index) in
  let t0 = Engine.Sim.now t.sim in
  Engine.Cpu.run_begin t.cpu;
  Prof.enter_thread t.prof ~tid;
  t.reclaim_now <- t0;
  t.cursor <- t0;
  t.cpu_acc <- (if total = 0 then c.cpu_ns else c.cpu_ns * seg_len / total);
  let stop = index + seg_len in
  let i = ref index in
  while !i < stop && not t.killed.(tid) do
    let write = c.write && !i >= c.read_prefix in
    touch t ~tid ~vpn:(page_at c.pages !i) ~write;
    incr i
  done;
  t.touches <- t.touches + (!i - index);
  Engine.Cpu.charge t.cpu t.cpu_acc;
  let cpu_wall =
    int_of_float
      (float_of_int (Engine.Cpu.scale t.cpu t.cpu_acc) *. Engine.Rng.jitter t.rng 0.02)
  in
  Prof.span t.prof ~tid Prof.App_compute ~t0 ~t1:(t0 + cpu_wall);
  let io_wait = t.cursor - t0 in
  Engine.Sim.schedule t.sim ~delay:cpu_wall t.cpu_run_end;
  if Mem.Phys_mem.below_low t.mem then wake_kthreads t;
  t.seg_next.(tid) <- index + seg_len;
  Engine.Sim.schedule t.sim ~delay:(cpu_wall + io_wait) t.seg_done.(tid)

(* Segment-done continuation of thread [tid]: record the chunk's latency
   and fetch the next one, or run the chunk's next segment, after any
   chaos stall. *)
and segment_done t tid =
  if not t.stopped && not t.killed.(tid) then begin
    let open Workload.Chunk in
    let c = t.seg_chunk.(tid) in
    if t.seg_next.(tid) >= page_count c.pages then begin
      if c.latency_class >= 0 then
        record_latency t ~tid c (Engine.Sim.now t.sim - t.seg_start.(tid));
      run_thread t tid
    end
    else begin
      let su = t.chaos_stall_until.(tid) in
      if su > Engine.Sim.now t.sim then
        Engine.Sim.schedule_at t.sim ~time:su t.seg_resume.(tid)
      else process_segment t tid
    end
  end

and segment_resume t tid =
  if not t.stopped && not t.killed.(tid) then process_segment t tid

and barrier_arrive t tid =
  let g = t.groups.(tid) in
  t.barrier_arrive_ns.(tid) <- Engine.Sim.now t.sim;
  t.group_arrived.(g) <- t.group_arrived.(g) + 1;
  t.group_waiters.(g) <- tid :: t.group_waiters.(g);
  t.waiting.(tid) <- true;
  if t.group_arrived.(g) >= t.group_size.(g) then release_barrier t g

and thread_finished t tid =
  if t.finish_ns.(tid) < 0 then begin
    t.finish_ns.(tid) <- Engine.Sim.now t.sim;
    (match t.mcg with
    | Some mg -> Mem.Memcg.thread_exit mg ~tid ~now:(Engine.Sim.now t.sim)
    | None -> ());
    t.active_threads <- t.active_threads - 1;
    if t.active_threads <= 0 then begin
      t.stopped <- true;
      Engine.Sim.stop t.sim
    end
  end

let make_driver t ks =
  (* Run-queue latency before a kernel thread gets back on a CPU; grows
     with contention.  This is the scheduling noise the paper holds
     responsible for scan-timing variance (§VI-A). *)
  let sched_delay () =
    if t.cfg.kthread_jitter_ns <= 0 then 0
    else begin
      let mean = float_of_int t.cfg.kthread_jitter_ns *. Engine.Cpu.load t.cpu in
      int_of_float (Engine.Rng.exponential t.rng ~mean)
    end
  in
  (* The continuation closures are allocated once per kthread, not once
     per step: a steady-state reclaim cycle schedules only reused
     values. *)
  let rec drive () =
    if not t.stopped then begin
      t.reclaim_now <- Engine.Sim.now t.sim;
      Prof.enter_thread t.prof ~tid:ks.ktid;
      match ks.kt.Policy.Policy_intf.kstep () with
      | Policy.Policy_intf.Work w ->
        Engine.Cpu.run_begin t.cpu;
        Engine.Cpu.charge t.cpu w;
        let wall = Engine.Cpu.scale t.cpu w in
        let n0 = Engine.Sim.now t.sim in
        Prof.span t.prof ~tid:ks.ktid ks.kphase ~t0:n0 ~t1:(n0 + wall);
        Engine.Sim.schedule t.sim ~delay:(wall + sched_delay ()) work_cont
      | Policy.Policy_intf.Sleep d ->
        Engine.Sim.schedule t.sim ~delay:(d + sched_delay ()) sleep_cont
      | Policy.Policy_intf.Sleep_until_woken -> ks.sleeping <- true
    end
  and work_cont _ =
    Engine.Cpu.run_end t.cpu;
    drive ()
  and sleep_cont _ = drive () in
  drive

let audit t =
  Invariants.audit ~memcg:t.mcg
    ~last_chaos:(if t.chaos_last = "" then None else Some t.chaos_last)
    ~owners:(Some (t.owner_tid, t.killed))
    ~pt:t.pt ~frames:t.frames ~mem:t.mem ~swap:t.swap
    ~retained_slot:t.retained_slot

(* ---- Page migration ----------------------------------------------- *)

(* Move a resident page from frame [src] to the allocated frame [dst]:
   rewrite the PTE (the tier bit follows [dst]'s pool) and the reverse
   map, and re-announce the page to the replacement policy.  Policies
   tolerate the stale source pfn exactly as they tolerate a frame the
   OOM killer freed behind their back.  [src] is the caller's to free
   or offline. *)
let move_page t ~vpn ~src ~dst =
  let pte = Mem.Page_table.get t.pt vpn in
  let npte = Mem.Pte.remap pte ~pfn:dst in
  let npte =
    if Mem.Phys_mem.pool_of t.mem dst > 0 then Mem.Pte.set_slow npte else npte
  in
  Mem.Page_table.set t.pt vpn npte;
  Mem.Frame_table.clear_owner t.frames ~pfn:src;
  Mem.Frame_table.set_owner t.frames ~pfn:dst ~asid:0 ~vpn;
  on_mapped t ~pfn:dst ~vpn ~refault:true ~file_backed:(Mem.Pte.file_backed pte)
    ~speculative:false

(* Tier migration on a policy's behalf: move a resident page into a free
   frame of the other tier's [pool] (0 promotes, 1 demotes).  Fails when
   the page is not resident in the other tier or [pool] is full — a
   failed promotion is counted.  The policy charges the copy to its own
   kthread work. *)
let migrate t ~vpn ~pool =
  let pte = Mem.Page_table.get t.pt vpn in
  Mem.Pte.present pte
  && Mem.Pte.slow pte = (pool = 0)
  &&
  let dst = Mem.Phys_mem.alloc_pfn_in t.mem ~pool in
  if dst < 0 then begin
    if pool = 0 then t.failed_promotions <- t.failed_promotions + 1;
    false
  end
  else begin
    move_page t ~vpn ~src:(Mem.Pte.pfn pte) ~dst;
    Mem.Phys_mem.free t.mem (Mem.Pte.pfn pte);
    if pool = 0 then t.promotions <- t.promotions + 1
    else t.demotions <- t.demotions + 1;
    true
  end

let migration_env t tc ~rng =
  let tier_of vpn =
    let pte = Mem.Page_table.get t.pt vpn in
    if Mem.Pte.present pte then Some (tier_of_pte pte) else None
  in
  {
    Mig.costs = t.cfg.costs;
    pt = t.pt;
    rng;
    now = (fun () -> Engine.Sim.now t.sim);
    tier_of;
    fast_free = (fun () -> Mem.Phys_mem.pool_free t.mem 0);
    fast_capacity = tc.fast_frames;
    migrate_cost_ns = tc.migrate_page_ns;
    promote = (fun ~vpn -> migrate t ~vpn ~pool:0);
    demote = (fun ~vpn -> migrate t ~vpn ~pool:1);
    poison =
      (fun ~vpn ->
        let pte = Mem.Page_table.get t.pt vpn in
        if Mem.Pte.present pte then Mem.Page_table.set t.pt vpn (Mem.Pte.set_hint pte));
  }

(* ---- Chaos injection --------------------------------------------- *)

(* Move a resident page off an offlining frame to any free frame
   (always lower-numbered — every higher frame is already offline). *)
let chaos_migrate t ~src ~vpn =
  let dst = Mem.Phys_mem.alloc_pfn t.mem in
  if dst < 0 then false
  else begin
    (* Page-copy cost, charged like kswapd work. *)
    Engine.Cpu.charge_tagged t.cpu
      ~phase:(Prof.phase_index Prof.Evict_scan)
      t.cfg.minor_fault_ns;
    move_page t ~vpn ~src ~dst;
    true
  end

(* Offline [want] frames from the top of the physical range, kernel
   memory-hotplug style: free frames come straight off the free stack,
   mapped ones are migrated to lower frames (or evicted when no
   destination exists), and pinned pages keep their frame online. *)
let chaos_offline t ~want ~now ~(cs : Chaos.summary) =
  let offlined = ref 0 in
  let pfn = ref (Mem.Phys_mem.frames t.mem - 1) in
  while !offlined < want && !pfn >= 0 do
    let p = !pfn in
    if Mem.Phys_mem.is_online t.mem p then begin
      if Mem.Phys_mem.is_free t.mem p then begin
        Mem.Phys_mem.offline_free t.mem p;
        t.chaos_offlined <- p :: t.chaos_offlined;
        incr offlined
      end
      else begin
        let vpn = Mem.Frame_table.owner_vpn t.frames p in
        if vpn >= 0 && not t.pinned.(vpn) then begin
          if chaos_migrate t ~src:p ~vpn then begin
            Mem.Phys_mem.offline_used t.mem p;
            t.chaos_offlined <- p :: t.chaos_offlined;
            cs.Chaos.s_migrated <- cs.Chaos.s_migrated + 1;
            incr offlined
          end
          else begin
            (* No free destination anywhere: evict the page instead. *)
            t.reclaim_now <- now;
            reclaim_page t ~pfn:p;
            if Mem.Phys_mem.is_free t.mem p then begin
              Mem.Phys_mem.offline_free t.mem p;
              t.chaos_offlined <- p :: t.chaos_offlined;
              cs.Chaos.s_evicted <- cs.Chaos.s_evicted + 1;
              incr offlined
            end
            else cs.Chaos.s_skipped <- cs.Chaos.s_skipped + 1
          end
        end
        else cs.Chaos.s_skipped <- cs.Chaos.s_skipped + 1
      end
    end;
    decr pfn
  done;
  cs.Chaos.s_offlined <- cs.Chaos.s_offlined + !offlined;
  (* Capacity just shrank under the watermarks: get kswapd moving. *)
  wake_kthreads t

let chaos_online t ~want ~(cs : Chaos.summary) =
  let n = ref 0 in
  while !n < want && t.chaos_offlined <> [] do
    (match t.chaos_offlined with
    | [] -> ()
    | p :: rest ->
      t.chaos_offlined <- rest;
      Mem.Phys_mem.online t.mem p;
      incr n)
  done;
  cs.Chaos.s_onlined <- cs.Chaos.s_onlined + !n

(* Test-only fault: clear the lowest-numbered mapped frame's reverse-map
   entry so the next audit must flag the machine.  The fuzzer plants
   this to prove the invariant net catches real corruption. *)
let chaos_corrupt t ~(cs : Chaos.summary) =
  let total = Mem.Phys_mem.frames t.mem in
  let p = ref 0 in
  while !p < total && Mem.Frame_table.owner_vpn t.frames !p < 0 do incr p done;
  if !p < total then begin
    Mem.Frame_table.clear_owner t.frames ~pfn:!p;
    cs.Chaos.s_corrupted <- cs.Chaos.s_corrupted + 1;
    !p
  end
  else -1

let apply_chaos t (cs : Chaos.summary) action =
  let now = Engine.Sim.now t.sim in
  let arg =
    match action with
    | Chaos.Offline want ->
      chaos_offline t ~want ~now ~cs;
      want
    | Chaos.Online want ->
      chaos_online t ~want ~cs;
      want
    | Chaos.Degrade_set { latency; errors; wear } ->
      Option.iter
        (fun inj -> Swapdev.Faulty_device.degrade inj ?latency ?errors ?wear ())
        t.injector;
      cs.Chaos.s_device_phases <- cs.Chaos.s_device_phases + 1;
      int_of_float (Option.value latency ~default:1.0 *. 100.)
    | Chaos.Degrade_clear ->
      Option.iter Swapdev.Faulty_device.restore t.injector;
      0
    | Chaos.Set_limits { cg; low; high; max_limit } -> (
      match t.mcg with
      | None -> 0
      | Some mg -> (
        match Mem.Memcg.find mg cg with
        | None -> 0
        | Some idx ->
          Mem.Memcg.set_limits mg idx ?low ?high ?max_limit ();
          cs.Chaos.s_limit_updates <- cs.Chaos.s_limit_updates + 1;
          (* Writing memory.max below usage reclaims immediately, like
             echoing a lower limit into a live cgroup's control file. *)
          let over = Mem.Memcg.max_overage mg idx ~extra:0 in
          if over > 0 then memcg_background_reclaim t ~cg:idx ~want:over ~now;
          (match max_limit with
          | Some m -> m
          | None -> (
            match high with
            | Some h -> h
            | None -> Option.value low ~default:0))))
    | Chaos.Stall { lo; hi; until } ->
      let n = ref 0 in
      for tid = lo to min hi (Array.length t.chaos_stall_until - 1) do
        if (not t.killed.(tid)) && t.finish_ns.(tid) < 0 then begin
          t.chaos_stall_until.(tid) <- max t.chaos_stall_until.(tid) until;
          incr n
        end
      done;
      cs.Chaos.s_stalled_threads <- cs.Chaos.s_stalled_threads + !n;
      !n
    | Chaos.Corrupt_frame ->
      let p = chaos_corrupt t ~cs in
      max p 0
  in
  cs.Chaos.s_events <- cs.Chaos.s_events + 1;
  t.chaos_last <- Printf.sprintf "%s@%dns" (Chaos.action_label action) now;
  if Obs.enabled t.obs then
    Obs.emit t.obs ~t_ns:now
      (Obs.Chaos
         {
           injector = Chaos.action_injector action;
           action = Chaos.action_label action;
           arg;
         });
  (* Every injection is followed by a forced audit, independent of
     [audit_every_ns]. *)
  t.invariant_violations <- t.invariant_violations + List.length (audit t)

let tier_result t (Mig.Packed ((module M), m)) =
  let faults = Obs.Vmstat.get t.vm Obs.Vmstat.pgfault in
  {
    fast_touches = t.touches - faults - t.slow_touches;
    slow_touches = t.slow_touches;
    hint_faults = t.hint_faults;
    promotions = t.promotions;
    demotions = t.demotions;
    failed_promotions = t.failed_promotions;
    fast_resident = Mem.Phys_mem.pool_used t.mem 0;
    slow_resident = Mem.Phys_mem.pool_used t.mem 1;
    migration_name = M.policy_name;
    migration_stats = M.stats m;
  }

let injects ~fault_plan ~chaos =
  (not (Swapdev.Faulty_device.is_none fault_plan))
  || match chaos with Some spec -> Chaos.has_degrade spec | None -> false

let run cfg ~policy ~workload =
  if cfg.capacity_frames <= 0 then invalid_arg "Machine.run: capacity_frames";
  let footprint = Workload.Chunk.packed_footprint workload in
  let nthreads = Workload.Chunk.packed_threads workload in
  let obs = Obs.create cfg.obs in
  let prof = Prof.create cfg.prof in
  let vm = Obs.Vmstat.create () in
  let rng = Engine.Rng.create cfg.seed in
  let base_device =
    match cfg.swap with
    | Ssd_swap c -> Swapdev.Ssd.create ~config:c ~rng:(Engine.Rng.split rng) ()
    | Zram_swap c -> Swapdev.Zram.create ~config:c ~rng:(Engine.Rng.split rng) ()
  in
  (* One injector serves the static plan and chaos degrade windows.  It
     exists only when one of them can inject, and draws from an RNG
     derived from the seed rather than split from the main stream, so
     runs with and without it share every other random draw. *)
  let device, injector =
    if not (injects ~fault_plan:cfg.fault_plan ~chaos:cfg.chaos) then
      (base_device, None)
    else
      let device, inj =
        Swapdev.Faulty_device.wrap ~plan:cfg.fault_plan
          ~rng:(Engine.Rng.create (cfg.seed lxor 0x5EED0C4A))
          base_device
      in
      (device, Some inj)
  in
  let groups =
    match cfg.barrier_groups with
    | Some g ->
      if Array.length g <> nthreads then invalid_arg "Machine.run: barrier_groups size";
      g
    | None -> Array.make nthreads 0
  in
  let ngroups = 1 + Array.fold_left max 0 groups in
  let group_size = Array.make ngroups 0 in
  Array.iter (fun g -> group_size.(g) <- group_size.(g) + 1) groups;
  let mcg =
    Option.map
      (fun spec ->
        Mem.Memcg.create spec ~capacity_frames:cfg.capacity_frames ~nthreads
          ~footprint_pages:footprint)
      cfg.cgroups
  in
  (* Churn segments name cgroups; reject dangling references up front
     rather than silently no-opping mid-run. *)
  (match cfg.chaos with
  | None -> ()
  | Some spec ->
    List.iter
      (fun cgn ->
        let known =
          match mcg with
          | None -> false
          | Some mg -> Mem.Memcg.find mg cgn <> None
        in
        if not known then
          invalid_arg
            (Printf.sprintf
               "Machine.run: chaos churn targets unknown cgroup %S (is \
                --cgroups set?)"
               cgn))
      (Chaos.churn_cgs spec));
  let pools =
    Option.map
      (fun tc ->
        if tc.fast_frames <= 0 || tc.fast_frames >= cfg.capacity_frames then
          invalid_arg "Machine.run: tiering fast_frames";
        [| tc.fast_frames; cfg.capacity_frames - tc.fast_frames |])
      cfg.tiering
  in
  let cpu = Engine.Cpu.create ~hw_threads:cfg.hw_threads in
  let t =
    {
      cfg;
      obs;
      prof;
      vm;
      ws = Mem.Workingset.create ~capacity:cfg.capacity_frames;
      sim = Engine.Sim.create ();
      cpu;
      rng;
      pt =
        Mem.Page_table.create ~region_size:cfg.costs.Mem.Costs.region_size ~asid:0
          ~pages:footprint ();
      frames = Mem.Frame_table.create ~frames:cfg.capacity_frames;
      mem = Mem.Phys_mem.create ?pools ~frames:cfg.capacity_frames ();
      swap =
        Swapdev.Swap_manager.create ~max_retries:cfg.io_max_retries
          ~backoff_ns:cfg.io_retry_backoff_ns ~obs ~vmstat:vm ~device
          ~seed:(Engine.Rng.int rng (1 lsl 30)) ();
      injector;
      workload;
      policy = None;
      retained_slot = Array.make footprint (-1);
      groups;
      group_size;
      group_arrived = Array.make ngroups 0;
      group_waiters = Array.make ngroups [];
      waiting = Array.make nthreads false;
      barrier_arrive_ns = Array.make nthreads 0;
      finish_ns = Array.make nthreads (-1);
      active_threads = nthreads;
      kthreads = [||];
      restart_thread = (fun _ -> ());
      stopped = false;
      major_faults = 0;
      minor_faults = 0;
      direct_reclaims = 0;
      direct_reclaim_ns = 0;
      read_lat = Structures.Vec.create ~capacity:1024 ~dummy:0.0 ();
      write_lat = Structures.Vec.create ~capacity:1024 ~dummy:0.0 ();
      in_direct = false;
      reclaim_now = 0;
      direct_stall_until = 0;
      direct_cpu_extra = 0;
      ra_pending = Array.make footprint false;
      ra_window = Array.make ((footprint / ra_zone_pages) + 1) (max 1 cfg.readahead);
      ra_hits = Array.make ((footprint / ra_zone_pages) + 1) 0;
      ra_misses = Array.make ((footprint / ra_zone_pages) + 1) 0;
      pinned = Array.make footprint false;
      faulted_by = Array.make footprint (-1);
      owner_tid = Array.make footprint (-1);
      thread_rss = Array.make nthreads 0;
      killed = Array.make nthreads false;
      mcg;
      mcg_target = None;
      mcg_breach_low = false;
      mcg_unproductive = 0;
      poisoned_reads = 0;
      writeback_failures = 0;
      oom_kills = 0;
      oom_discarded = 0;
      invariant_violations = 0;
      chaos_stall_until = Array.make nthreads 0;
      chaos_offlined = [];
      chaos_last = "";
      seg_chunk = Array.make nthreads (Workload.Chunk.chunk (Workload.Chunk.Single 0));
      seg_next = Array.make nthreads 0;
      seg_start = Array.make nthreads 0;
      seg_done = Array.make nthreads ignore;
      seg_resume = Array.make nthreads ignore;
      cpu_run_end = (fun _ -> Engine.Cpu.run_end cpu);
      cursor = 0;
      cpu_acc = 0;
      migration = None;
      touches = 0;
      slow_touches = 0;
      hint_faults = 0;
      promotions = 0;
      demotions = 0;
      failed_promotions = 0;
    }
  in
  let env =
    {
      Policy.Policy_intf.costs = cfg.costs;
      frames = t.frames;
      page_table_of =
        (fun asid ->
          if asid <> 0 then invalid_arg "Machine: unknown address space";
          t.pt);
      address_spaces = (fun () -> [ t.pt ]);
      rng = Engine.Rng.split rng;
      now = (fun () -> Engine.Sim.now t.sim);
      reclaim_page = (fun ~pfn -> reclaim_page t ~pfn);
      evictable = (fun ~pfn ~force -> evictable t ~pfn ~force);
      free_count = (fun () -> Mem.Phys_mem.free_count t.mem);
      total_frames = cfg.capacity_frames;
      low_watermark = Mem.Phys_mem.low_watermark t.mem;
      high_watermark = Mem.Phys_mem.high_watermark t.mem;
      obs;
      prof;
      vmstat = vm;
    }
  in
  if Prof.enabled prof then begin
    Engine.Cpu.set_hook t.cpu (fun phase ns -> Prof.on_cpu_charge prof phase ns);
    for tid = 0 to nthreads - 1 do
      Prof.register_thread prof ~tid
        ~name:(Printf.sprintf "app%d" tid)
        ~klass:Prof.App ~default:Prof.App_compute
    done
  end;
  let packed = policy env in
  t.policy <- Some packed;
  let (Policy.Policy_intf.Packed ((module P), p)) = packed in
  let migration_kthreads =
    match cfg.tiering with
    | None -> []
    | Some tc ->
      let m = tc.migration (migration_env t tc ~rng:(Engine.Rng.split rng)) in
      t.migration <- Some m;
      let (Mig.Packed ((module M), mp)) = m in
      M.kthreads mp
  in
  t.kthreads <-
    Array.of_list
      (List.mapi
         (fun i kt ->
           let ktid = nthreads + i in
           let kname = kt.Policy.Policy_intf.kname in
           (* Aging walkers default to the linear-walk phase; everything
              else (kswapd and kin) defaults to eviction scanning. *)
           let kphase =
             if kname = "lru_gen_aging" then Prof.Aging_walk
             else Prof.Evict_scan
           in
           Prof.register_thread prof ~tid:ktid ~name:kname ~klass:Prof.Kthread
             ~default:kphase;
           {
             kt;
             ktid;
             kphase;
             sleeping = false;
             kdrive = (fun () -> ());
             kwake = ignore;
           })
         (P.kthreads p @ migration_kthreads));
  Array.iter
    (fun ks ->
      ks.kdrive <- make_driver t ks;
      ks.kwake <- (fun _ -> ks.kdrive ()))
    t.kthreads;
  t.restart_thread <- (fun tid -> run_thread t tid);
  for tid = 0 to nthreads - 1 do
    t.seg_done.(tid) <- (fun _ -> segment_done t tid);
    t.seg_resume.(tid) <- (fun _ -> segment_resume t tid)
  done;
  Array.iter (fun ks -> Engine.Sim.schedule t.sim ~delay:0 ks.kwake) t.kthreads;
  for tid = 0 to nthreads - 1 do
    Engine.Sim.schedule t.sim ~delay:0 (fun _ -> run_thread t tid)
  done;
  (* Compile and schedule the chaos timeline.  [None] schedules nothing
     at all — zero extra events, zero extra RNG draws. *)
  let chaos_summary =
    match cfg.chaos with
    | None -> None
    | Some spec ->
      let cs = Chaos.fresh_summary () in
      List.iter
        (fun (time, action) ->
          Engine.Sim.schedule_at t.sim ~time (fun _ ->
              if not t.stopped then apply_chaos t cs action))
        (Chaos.events spec ~capacity:cfg.capacity_frames ~nthreads);
      Some cs
  in
  if cfg.audit_every_ns > 0 then begin
    let rec tick _ =
      if not t.stopped && t.active_threads > 0 then begin
        t.invariant_violations <-
          t.invariant_violations + List.length (audit t);
        Engine.Sim.schedule t.sim ~delay:cfg.audit_every_ns tick
      end
    in
    Engine.Sim.schedule t.sim ~delay:cfg.audit_every_ns tick
  end;
  (* PSI tick: fold stall intervals forward, publish per-cgroup Psi
     trace events, and drive the proactive (Senpai-style) probe.  Only
     scheduled when cgroups are on — a plain run has no extra events,
     no extra RNG draws, no extra CPU charges. *)
  (match t.mcg with
  | None -> ()
  | Some mg ->
    let every = Mem.Memcg.psi_interval_ns mg in
    let n = Mem.Memcg.ncgroups mg in
    let last_some = Array.make n 0 and last_full = Array.make n 0 in
    let rec tick _ =
      if not t.stopped && t.active_threads > 0 then begin
        let now = Engine.Sim.now t.sim in
        Mem.Memcg.advance mg ~now;
        for cg = 0 to n - 1 do
          let s = Mem.Memcg.psi_some mg cg and f = Mem.Memcg.psi_full mg cg in
          let limit =
            let l = Mem.Memcg.eff_limit mg cg in
            if l = max_int then -1 else l
          in
          Obs.emit t.obs ~t_ns:now
            (Obs.Psi
               {
                 cg = Mem.Memcg.name mg cg;
                 some_ns = s - last_some.(cg);
                 full_ns = f - last_full.(cg);
                 window_ns = every;
                 limit;
               });
          last_some.(cg) <- s;
          last_full.(cg) <- f
        done;
        if Mem.Memcg.proactive_on mg then
          for cg = 1 to n - 1 do
            let want, _pressure_ppm = Mem.Memcg.proactive_step mg cg in
            if want > 0 then memcg_background_reclaim t ~cg ~want ~now
          done;
        Engine.Sim.schedule t.sim ~delay:every tick
      end
    in
    Engine.Sim.schedule t.sim ~delay:every tick);
  (* DAMON-style region monitor: a recurring aggregation tick that
     reads (never clears) accessed bits and adapts its region layout.
     Pure observation on the simulated clock — it charges no CPU and
     draws no randomness, so results with the monitor on are identical
     to results with it off, and [None] schedules nothing at all. *)
  let damon =
    match cfg.damon with
    | None -> None
    | Some dcfg ->
      let d = Mem.Damon.create dcfg in
      let tables = [| t.pt |] in
      let every = Mem.Damon.aggregate_every_ns d in
      let rec tick _ =
        if not t.stopped && t.active_threads > 0 then begin
          Mem.Damon.tick d ~now:(Engine.Sim.now t.sim) ~tables;
          Engine.Sim.schedule t.sim ~delay:every tick
        end
      in
      Engine.Sim.schedule t.sim ~delay:every tick;
      Some d
  in
  let sample_every = Obs.sample_every_ns obs in
  if sample_every > 0 then begin
    (* Same recurring-tick shape as the audit above.  Counters named
       *_faults/swap_*/direct_reclaims are cumulative; refault_rate_per_s
       is the per-interval major-fault delta scaled to a rate. *)
    let last_major = ref 0 in
    let sample _ =
      let d_major = t.major_faults - !last_major in
      last_major := t.major_faults;
      let metrics =
        [
          ("free_frames", float_of_int (Mem.Phys_mem.free_count t.mem));
          ("resident", float_of_int (Mem.Page_table.resident t.pt));
          ("swap_used_slots",
           float_of_int (Swapdev.Swap_manager.used_slots t.swap));
          ("major_faults", float_of_int t.major_faults);
          ("minor_faults", float_of_int t.minor_faults);
          ("refault_rate_per_s",
           float_of_int d_major *. 1e9 /. float_of_int sample_every);
          ("swap_ins", float_of_int (Swapdev.Swap_manager.swap_ins t.swap));
          ("swap_outs", float_of_int (Swapdev.Swap_manager.swap_outs t.swap));
          ("direct_reclaims", float_of_int t.direct_reclaims);
          ("oom_kills", float_of_int t.oom_kills);
        ]
        @ List.map (fun (k, v) -> ("policy." ^ k, v)) (P.gauges p)
        @ (match t.mcg with
          | None -> []
          | Some mg ->
            Mem.Memcg.advance mg ~now:(Engine.Sim.now t.sim);
            ("psi.some_ns", float_of_int (Mem.Memcg.machine_some mg))
            :: ("psi.full_ns", float_of_int (Mem.Memcg.machine_full mg))
            :: List.concat
                 (List.init (Mem.Memcg.ncgroups mg) (fun cg ->
                      let pre = "memcg." ^ Mem.Memcg.name mg cg ^ "." in
                      [
                        (pre ^ "usage", float_of_int (Mem.Memcg.usage mg cg));
                        ( pre ^ "psi_some_ns",
                          float_of_int (Mem.Memcg.psi_some mg cg) );
                        ( pre ^ "psi_full_ns",
                          float_of_int (Mem.Memcg.psi_full mg cg) );
                        ( pre ^ "throttled_ns",
                          float_of_int (Mem.Memcg.throttled_ns mg cg) );
                      ])))
      in
      Obs.push_sample obs ~t_ns:(Engine.Sim.now t.sim) metrics
    in
    let rec tick _ =
      if not t.stopped && t.active_threads > 0 then begin
        sample ();
        Engine.Sim.schedule t.sim ~delay:sample_every tick
      end
    in
    Engine.Sim.schedule t.sim ~delay:sample_every tick
  end;
  Engine.Sim.run ~until:cfg.max_runtime_ns ~cancel:cfg.cancel t.sim;
  t.invariant_violations <- t.invariant_violations + List.length (audit t);
  let runtime =
    Array.fold_left (fun acc f -> max acc f) (Engine.Sim.now t.sim) t.finish_ns
  in
  let injected field =
    match t.injector with
    | None -> 0
    | Some inj -> field (Swapdev.Faulty_device.counters inj)
  in
  {
    runtime_ns = runtime;
    major_faults = t.major_faults;
    minor_faults = t.minor_faults;
    swap_ins = Swapdev.Swap_manager.swap_ins t.swap;
    swap_outs = Swapdev.Swap_manager.swap_outs t.swap;
    direct_reclaims = t.direct_reclaims;
    direct_reclaim_ns = t.direct_reclaim_ns;
    read_latencies = Structures.Vec.to_array t.read_lat;
    write_latencies = Structures.Vec.to_array t.write_lat;
    per_thread_finish = Array.copy t.finish_ns;
    cpu_busy_ns = Engine.Cpu.busy_ns t.cpu;
    policy_stats = P.stats p;
    policy_name = P.policy_name;
    resident_at_end = Mem.Page_table.resident t.pt;
    io_retries = Swapdev.Swap_manager.io_retries t.swap;
    io_remaps = Swapdev.Swap_manager.io_remaps t.swap;
    injected_transient = injected (fun c -> c.Swapdev.Faulty_device.transient_errors);
    injected_permanent = injected (fun c -> c.Swapdev.Faulty_device.permanent_errors);
    injected_stalls = injected (fun c -> c.Swapdev.Faulty_device.stalls);
    injected_tail_spikes = injected (fun c -> c.Swapdev.Faulty_device.tail_spikes);
    poisoned_reads = t.poisoned_reads;
    writeback_failures = t.writeback_failures;
    oom_kills = t.oom_kills;
    oom_discarded_pages = t.oom_discarded;
    invariant_violations = t.invariant_violations;
    memcg = Option.map (fun mg -> Mem.Memcg.summary mg ~now:runtime) t.mcg;
    chaos = chaos_summary;
    trace = Obs.capture obs;
    profile = Prof.capture prof;
    vmstat = (if cfg.vmstat then Some (Obs.Vmstat.capture vm) else None);
    heatmap = Option.map Mem.Damon.capture damon;
    tier = Option.map (tier_result t) t.migration;
  }
