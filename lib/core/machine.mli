(** The simulated machine: one trial of a workload under a policy.

    Mirrors the paper's testbed (§IV): application threads share a
    6-core/12-thread CPU with the policy's kernel threads; physical
    memory is capped at a fraction of the workload footprint; demand
    faults read pages from the swap device, with sequential readahead
    clustering and a swap-cache that lets clean pages be evicted without
    a writeback.  Direct reclaim — entered when the free list is empty —
    runs the policy synchronously and charges its CPU time and any
    synchronous writeback stalls to the faulting thread, which is where
    the tail-latency differences between policies come from (§VI-A).

    The machine also survives storage faults, injected by one
    {!Swapdev.Faulty_device} that serves both the static [fault_plan]
    and chaos [degrade] windows: transient errors are retried with backoff, permanent read errors
    poison the page (the thread continues on zero-fill), permanent write
    errors pin the page in memory, and when reclaim can no longer free
    anything an OOM killer terminates the fattest thread instead of
    aborting the trial.  {!Invariants.audit} cross-checks machine state
    after every run and optionally on a cadence.

    A tiered machine ([config.tiering]) splits its frames into a fast
    and a slow pool under a page-migration policy (paper §II-C): slow
    pages stay mapped but every touch pays extra, policies arm hint
    faults on present PTEs and migrate pages between the pools from
    their own kernel threads.  Reclaim to swap works as on any machine,
    so DRAM → slow tier → swap is one chain. *)

type swap_kind =
  | Ssd_swap of Swapdev.Ssd.config
  | Zram_swap of Swapdev.Zram.config

val ssd : swap_kind
(** Paper defaults: ~7.5 ms per 4 KB operation. *)

val zram : swap_kind
(** Paper defaults: 20 µs reads / 35 µs writes, CPU-coupled. *)

type tiering = {
  fast_frames : int;
      (** pool 0 (the lowest pfns) is the fast tier; the remaining
          [capacity_frames - fast_frames] frames are the slow pool *)
  slow_extra_ns : int;   (** added to every touch of a slow-tier page *)
  hint_fault_ns : int;   (** cost of a touch that trips an armed hint *)
  migrate_page_ns : int;
      (** copy cost per migrated page, charged by the policy's kthreads *)
  migration : Tiering.Migration_intf.env -> Tiering.Migration_intf.packed;
}

val tiering :
  fast_frames:int -> (Tiering.Migration_intf.env -> Tiering.Migration_intf.packed) ->
  tiering
(** Experiment-scaled costs (DESIGN.md "Scaling"): 3 ms slow-tier
    penalty per touch, 50 µs hint faults, 400 µs per migrated page. *)

type config = {
  hw_threads : int;
  capacity_frames : int;
  swap : swap_kind;
  costs : Mem.Costs.t;
  readahead : int;           (** swap-in cluster size; 0 disables *)
  direct_reclaim_batch : int;
  segment_pages : int;       (** max pages processed per scheduler event *)
  hit_cpu_ns : int;          (** per-page compute on a resident touch *)
  minor_fault_ns : int;      (** zero-fill fault cost *)
  barrier_groups : int array option;
      (** thread -> rendezvous group; default: all threads in group 0 *)
  kthread_jitter_ns : int;
      (** mean run-queue latency added between kernel-thread steps,
          scaled by CPU load — the OS scheduling noise the paper blames
          for scan-timing variance (§VI-A); 0 disables *)
  max_runtime_ns : int;      (** safety stop *)
  seed : int;
  fault_plan : Swapdev.Faulty_device.plan;
      (** swap I/O fault injection, the knobs chaos [degrade] windows
          return to when they close; {!Swapdev.Faulty_device.none} with
          no degrade window installs no injector and keeps runs
          bit-identical to a build without the fault layer *)
  io_max_retries : int;      (** per-op retry budget on transient errors *)
  io_retry_backoff_ns : int; (** base of the exponential retry backoff *)
  audit_every_ns : int;
      (** run {!Invariants.audit} every this many simulated ns; 0 =
          end-of-run only *)
  obs : Obs.config;
      (** telemetry: trace events and/or periodic machine-state samples
          into a per-trial sink, returned as [result.trace].  {!Obs.off}
          keeps runs bit-identical to a build without the layer *)
  prof : Obs.Prof.config;
      (** simulated-time CPU profiler: per-phase attribution of every
          nanosecond charged through [Engine.Cpu.charge], plus modeled
          waits (swap, writeback, barriers), returned as
          [result.profile].  The profiler only observes — it never draws
          randomness, schedules events, or charges CPU — so
          {!Obs.Prof.off} and an enabled profiler produce identical
          simulation results *)
  cancel : Engine.Cancel.t;
      (** cooperative cancellation, checked between simulation events;
          {!Engine.Cancel.never} (the default) never fires.  A firing
          token aborts the trial with {!Engine.Cancel.Cancelled} after
          the in-flight event completes, so machine state is never torn
          mid-event — this is how the runner enforces per-trial
          wall-clock deadlines *)
  cgroups : Mem.Memcg.spec option;
      (** memory cgroups: per-thread-group [memory.low]/[high]/[max]
          limits, PSI accounting and the proactive-reclaim probe (see
          {!Mem.Memcg} and the README's [--cgroups] grammar).  [None]
          (the default) is a single global pool — byte-identical
          behaviour to builds without the controller *)
  chaos : Chaos.spec option;
      (** deterministic runtime-transient injection: memory hotplug,
          swap-device degradation windows, cgroup limit churn, workload
          burst storms (see {!Chaos} and the README's [--chaos]
          grammar).  Every injection fires at a compiled simulated time
          and is followed by a forced {!Invariants.audit}.  [None] (the
          default) schedules nothing and draws no randomness —
          byte-identical behaviour to builds without the chaos layer *)
  vmstat : bool;
      (** capture the kernel-style vmstat counter registry (pgfault,
          pgsteal, pswpin/pswpout, workingset_*, mglru_*; see
          {!Obs.Vmstat}) into [result.vmstat].  The counters themselves
          are maintained unconditionally — a bump is one array store,
          never a branch on configuration — so this flag only gates the
          end-of-run capture, and [false] (the default) leaves results
          byte-identical to builds without the telemetry layer *)
  damon : Mem.Damon.config option;
      (** DAMON-style adaptive region access monitor (see {!Mem.Damon}):
          a recurring aggregation tick that reads — never clears —
          accessed bits and records per-region access counts into
          [result.heatmap].  Pure observation: no CPU charges, no
          randomness, so a monitored run's metrics equal an unmonitored
          one's.  [None] (the default) schedules nothing *)
  tiering : tiering option;
      (** fast + slow frame pools under a migration policy, whose
          kthreads run beside the replacement policy's; counters come
          back in [result.tier].  [None] (the default) is one pool and
          never sets a tier bit.
          @raise Invalid_argument from {!run} unless
          [0 < fast_frames < capacity_frames] *)
}

val default_config : capacity_frames:int -> seed:int -> config
(** SSD swap, 12 hardware threads, experiment-scaled cost model
    (64-PTE page-table regions; see DESIGN.md on footprint scaling).
    Fault injection disabled. *)

type tier_result = {
  fast_touches : int;      (** resident touches served by the fast tier *)
  slow_touches : int;      (** resident touches that paid the slow tier *)
  hint_faults : int;
  promotions : int;
  demotions : int;
  failed_promotions : int; (** promote calls rejected: fast tier full *)
  fast_resident : int;
  slow_resident : int;
  migration_name : string;
  migration_stats : (string * int) list;
}

val slow_fraction : tier_result -> float
(** Fraction of resident touches served from the slow tier — the
    headline quality metric for a migration policy. *)

type result = {
  runtime_ns : int;
  major_faults : int;        (** demand faults that required device reads *)
  minor_faults : int;        (** zero-fill first touches *)
  swap_ins : int;            (** successful device reads, incl. readahead *)
  swap_outs : int;           (** successful device writes *)
  direct_reclaims : int;
  direct_reclaim_ns : int;   (** total fault-path reclaim latency *)
  read_latencies : float array;  (** per-request ns, latency class 0 *)
  write_latencies : float array; (** latency class 1 *)
  per_thread_finish : int array;
  cpu_busy_ns : int;
  policy_stats : (string * int) list;
  policy_name : string;
  resident_at_end : int;
  io_retries : int;          (** resubmissions after transient errors *)
  io_remaps : int;           (** writes moved off a bad slot *)
  injected_transient : int;
      (** faults the injector produced, from the plan and from chaos
          degrade windows alike *)
  injected_permanent : int;
  injected_stalls : int;
  injected_tail_spikes : int;
  poisoned_reads : int;      (** demand reads whose data was lost *)
  writeback_failures : int;  (** evictions abandoned; page pinned *)
  oom_kills : int;
  oom_discarded_pages : int;
      (** pages torn down by OOM kills: resident frames freed plus
          swapped-out pages whose slots were released *)
  invariant_violations : int;
      (** total across periodic and end-of-run audits; 0 expected *)
  memcg : Mem.Memcg.summary option;
      (** per-cgroup usage, limits, throttle/OOM counters, PSI totals
          and per-tenant request latencies; [None] without [--cgroups] *)
  chaos : Chaos.summary option;
      (** injection tallies (events applied, frames offlined/onlined,
          pages migrated/evicted off offlining frames, limit rewrites,
          device phases, stalled threads); [None] without [--chaos] *)
  trace : Obs.capture option;
      (** everything the trial's telemetry sink recorded; [None] when
          [config.obs] was {!Obs.off} *)
  profile : Obs.Prof.capture option;
      (** per-phase CPU/wait totals (and, when [config.prof.spans] was
          set, the span timeline); [None] when [config.prof] was
          {!Obs.Prof.off} *)
  vmstat : Obs.Vmstat.capture option;
      (** final machine-wide vmstat counters plus the refault-distance
          histogram; [None] when [config.vmstat] was [false] *)
  heatmap : Mem.Damon.capture option;
      (** the region monitor's aggregation rows in tick order; [None]
          when [config.damon] was [None] *)
  tier : tier_result option;  (** [None] when [config.tiering] was [None] *)
}

val injects :
  fault_plan:Swapdev.Faulty_device.plan -> chaos:Chaos.spec option -> bool
(** Whether {!run} wraps the swap device in an injector: the plan can
    inject, or the chaos spec opens a degrade window.  The injector
    draws from its own RNG derived from [seed], so installing it moves
    no other random draw. *)

val run :
  config ->
  policy:(Policy.Policy_intf.env -> Policy.Policy_intf.packed) ->
  workload:Workload.Chunk.packed ->
  result
(** Execute one trial to completion (every workload thread [Finished] or
    OOM-killed) and collect the metrics the paper reports. *)
