(** Experiment configurations and the cached, parallel trial runner.

    An {!exp} names one cell of the paper's grid: workload x policy x
    capacity ratio x swap medium x trial index.  Workload seeds depend
    only on (workload, trial), so different policies face identical
    workload instances within a trial — the simulator's analogue of the
    paper's paired comparisons — while each fresh trial is a fresh
    "reboot".

    Every run happens under an explicit {!ctx}: the scaling profile,
    fault-injection plan, invariant-audit cadence and parallelism are
    fields of a value threaded through the drivers, not process-global
    state.  Each [ctx] owns its own result cache (keyed by a stable
    string, sharded and mutex-protected), so figures that share cells
    (1 and 2, 4 and 5, 9-11) do not recompute them, and two contexts
    with different fault plans can never serve each other stale results.

    {b Parallelism and determinism.}  Trials are embarrassingly
    parallel: each owns its seeded RNG, workload instance and simulated
    machine.  {!prefetch} shards uncached trials across a domain pool
    ({!Engine.Pool}) and stores the results; the drivers then read,
    aggregate and print serially from the cache, so output is
    bit-identical for every [jobs] value. *)

type workload_kind =
  | Tpch
  | Pagerank
  | Ycsb of Workload.Ycsb.variant
  | Fleet of { fl_tenants : int; fl_hot : int }
      (** [fl_tenants] YCSB tenants sharing one machine via
          {!Workload.Multi} (2 threads each); tenant [fl_hot] is a hot
          runaway (zipf 1.1, double the requests), the rest are lukewarm
          (zipf 0.8).  The containment workload of [repro fleet]. *)

type swap_medium = Ssd | Zram

type exp = {
  workload : workload_kind;
  policy : Policy.Registry.spec;
  ratio : float; (** memory capacity / workload footprint, e.g. 0.5 *)
  swap : swap_medium;
  trial : int;
}

val workload_kind_name : workload_kind -> string

val all_workloads : workload_kind list
(** The paper's five, in figure order: TPC-H, PageRank, YCSB A/B/C. *)

val swap_name : swap_medium -> string

val exp_name : exp -> string
(** Human-readable cell name (display only; not injective for
    parameterized policies — see {!exp_key}). *)

val exp_key : exp -> string
(** Stable, injective cache key: encodes every policy parameter via
    {!Policy.Registry.cache_key}, so distinct [Mglru_custom] configs
    never alias, and no structural hashing of closures can occur. *)

(** Scaling profile: trials per TPC-H/PageRank cell, trials per YCSB
    cell, whether workloads are shrunk ~4x for quick runs, and the
    footprint multiplier. *)
type profile = {
  trials : int;
  ycsb_trials : int;
  fast : bool;
  scale : int;
      (** [--scale N]: multiply every workload's page-count dimensions
          by [N] and shrink simulated per-page costs by the same factor
          (the default experiments run at 1/256 of the paper's page
          counts; [N = 256] reaches the native 3-4M-page footprints).
          [1] is byte-identical to the historical profile.  Like
          [fast], this is ctx-level and not part of {!exp_key}: never
          mix journals or caches across scales. *)
}

val default_profile : profile
(** The paper's trial counts: 25 trials, 2 YCSB trials, full-size
    workloads, scale 1. *)

val profile_from_env : unit -> profile
(** {!default_profile} overridden by the documented fallback variables
    [REPRO_TRIALS], [REPRO_YCSB_TRIALS], [REPRO_FAST] (any value) and
    [REPRO_SCALE].  This is the only place those variables are read;
    CLI flags build a {!ctx} on top of this. *)

(** {1 Run contexts} *)

type ctx
(** An immutable run context: profile, fault plan, audit cadence,
    parallelism, per-trial deadline and optional result journal, plus
    this context's private result cache. *)

(** What became of one trial.  Failures are first-class: a raising or
    deadline-hit trial is cached and journaled as [Failed] and rendered
    as an explicit "failed" cell, while the other trials of the sweep
    run to completion. *)
type trial_outcome =
  | Done of Machine.result
  | Failed of { reason : string; timed_out : bool }

val make_ctx :
  ?profile:profile ->
  ?fault_plan:Swapdev.Faulty_device.plan ->
  ?audit_every_ns:int ->
  ?jobs:int ->
  ?obs:Obs.config ->
  ?prof:Obs.Prof.config ->
  ?trial_timeout_s:float ->
  ?journal:Journal.t ->
  ?cgroups:Mem.Memcg.spec ->
  ?chaos:Chaos.spec ->
  ?vmstat:bool ->
  ?damon:Mem.Damon.config ->
  unit ->
  ctx
(** Defaults: [profile_from_env ()], no fault injection, end-of-run
    audits only, [jobs = 1] (serial), telemetry off ({!Obs.off} keeps
    runs bit-identical to a build without the obs layer), no per-trial
    deadline, no journal.  [jobs] is clamped to at least 1;
    [audit_every_ns] to at least 0; [trial_timeout_s <= 0] means no
    deadline.

    With a [journal], every freshly computed trial outcome — success or
    failure — is appended (checksummed, fsynced) the moment it
    completes; cache hits, including warm-started records, are not
    re-journaled.

    [cgroups] installs a memory-cgroup spec into every machine this
    context runs.  Like [fault_plan] it is ctx-level and not part of
    {!exp_key}, so never mix journals or caches across specs.

    [fault_plan] is the static plan of the one swap-fault injector
    ({!Swapdev.Faulty_device}); chaos [degrade] windows turn that
    injector's knobs and restore the plan's values when they close.

    [chaos] installs a runtime-transient injection schedule the same
    way (see {!Chaos}); omitting it schedules nothing and keeps runs
    byte-identical to builds without the chaos layer.

    [vmstat] makes every machine capture its kernel-style counter
    registry into [result.vmstat] (the counters are always maintained;
    the flag only gates the capture, so [false] — the default — keeps
    results byte-identical to builds without the telemetry layer).
    [damon] installs a DAMON-style region access monitor whose
    per-region rows land in [result.heatmap]; both are ctx-level like
    [fault_plan] and not part of {!exp_key}. *)

val profile : ctx -> profile

val fault_plan : ctx -> Swapdev.Faulty_device.plan
(** Immutable and shared by every trial; each machine's injector derives
    its own knobs from it. *)

val audit_every_ns : ctx -> int

val jobs : ctx -> int

val obs : ctx -> Obs.config

val prof : ctx -> Obs.Prof.config
(** The profiler configuration passed to every machine this context
    runs; {!Obs.Prof.off} by default. *)

val trial_timeout_s : ctx -> float
(** The per-trial wall-clock deadline in seconds; 0 when disabled. *)

val cgroups : ctx -> Mem.Memcg.spec option

val with_cgroups : ctx -> Mem.Memcg.spec -> ctx
(** A derived context with [cgroups] installed and a {e fresh} result
    cache and experiment log (the spec is not part of {!exp_key}, so
    sharing the parent's cache would alias results across specs). *)

val chaos : ctx -> Chaos.spec option

val with_chaos :
  ?cgroups:Mem.Memcg.spec -> ?obs:Obs.config -> ctx -> Chaos.spec option -> ctx
(** A derived context with [chaos] replaced ([None] strips any installed
    spec) and a fresh cache/log, like {!with_cgroups}.  [?cgroups]
    additionally replaces the cgroup spec in the same derivation — the
    limit-churn chaos class needs one — and [?obs] the telemetry config
    (the resilience report needs traced derived runs whatever the parent
    context records). *)

val vmstat : ctx -> bool

val damon : ctx -> Mem.Damon.config option

val with_damon : ctx -> Mem.Damon.config -> ctx
(** A derived context with the region monitor installed and a fresh
    cache/log, like {!with_cgroups} (monitored results carry heatmap
    captures, so they must not alias an unmonitored cache). *)

val cached_results : ctx -> int
(** Number of trial outcomes currently memoized in this context. *)

val warm_start : ctx -> Journal.record list -> int
(** Install the successful records of a loaded journal into the cache,
    returning how many were installed.  Failure records are skipped (a
    resumed run retries them), and the whole warm-start is skipped —
    with a stderr note — when the context has telemetry enabled
    (journal records carry no traces), span profiling enabled (they
    carry no spans) or the region monitor enabled (they carry no
    heatmaps).  Under totals-only profiling, only records that carry
    phase totals are installed; the rest recompute — and likewise, with
    [vmstat] on, only records that carry counter captures.  Call once,
    before running anything, on a fresh context. *)

(** {1 Running trials} *)

val trials_for : ctx -> workload_kind -> int

val make_workload : ctx -> workload_kind -> trial:int -> Workload.Chunk.packed

val run_exp : ctx -> exp -> Machine.result
(** Run (or fetch from this context's cache) one trial.  Raises
    [Failure] if the trial's outcome is [Failed] — use {!try_exp} where
    failures must not abort the caller. *)

val try_exp : ctx -> exp -> trial_outcome
(** Like {!run_exp}, but a raising or timed-out trial yields [Failed]
    instead of raising: the failure is cached (never retried within this
    context) and journaled like any other outcome. *)

val cell_exps :
  ctx -> workload:workload_kind -> policy:Policy.Registry.spec -> ratio:float ->
  swap:swap_medium -> exp list
(** The trials of one grid cell under [ctx]'s profile, in trial order. *)

val prefetch : ctx -> exp list -> unit
(** Compute every uncached experiment in the list (deduplicated) across
    [jobs ctx] domains and memoize the results.  With [jobs = 1] this
    degenerates to a serial loop in the calling domain.  Drivers call
    this with a figure's whole grid before printing; the serial
    read-back then hits only the cache, which is how parallel runs stay
    bit-identical to serial ones. *)

val run_cell :
  ctx -> workload:workload_kind -> policy:Policy.Registry.spec -> ratio:float ->
  swap:swap_medium -> Machine.result list
(** All trials of one grid cell, prefetched in parallel per the ctx.
    Raises on the first failed trial, like {!run_exp}. *)

val try_cell :
  ctx -> workload:workload_kind -> policy:Policy.Registry.spec -> ratio:float ->
  swap:swap_medium -> trial_outcome list
(** Failure-tolerant {!run_cell}: one {!trial_outcome} per trial, in
    trial order. *)

val failures : ctx -> (exp * string * bool) list
(** Every failed trial this context has seen — [(exp, reason,
    timed_out)] — in deterministic first-request order, the same for
    every [jobs] value.  Empty after a clean sweep. *)

(** {1 Aggregation helpers} *)

val runtimes_s : Machine.result list -> float array

val faults : Machine.result list -> float array
(** Major (demand) fault counts. *)

val mean_runtime_s : Machine.result list -> float

val mean_faults : Machine.result list -> float

val mean_read_latency_ns : Machine.result list -> float
(** Mean read-request latency pooled over trials (YCSB). *)

val pooled_read_latencies : Machine.result list -> float array

val pooled_write_latencies : Machine.result list -> float array

(** {1 Telemetry}

    When the context's {!Obs.config} enables tracing or sampling, every
    computed trial's capture is kept (attached to its cached result) and
    the experiment is appended to an ordered log.  The log is written
    only from the dispatching domain — {!prefetch} records its whole
    deduplicated batch in list order before any worker starts, and
    direct {!run_exp} misses occur in the drivers' serial read-back — so
    the files these writers produce are byte-identical for every
    [jobs] value. *)

val traced_exps : ctx -> exp list
(** Every experiment this context has been asked to run, in
    deterministic first-request order.  The telemetry writers serialize
    the captures of these, in this order. *)

val write_trace : ctx -> path:string -> int
(** Write every captured event as JSON Lines (one flat object per event:
    workload/policy/ratio/swap/trial, [t_ns], [kind], payload); returns
    the number of events written.  Like every writer, goes through
    {!Atomic_io.replace}: [path] is replaced atomically or not at all. *)

val write_samples : ctx -> path:string -> int
(** Write every machine-state sample as long-format CSV
    ([workload,policy,ratio,swap,trial,t_ns,metric,value]); returns the
    number of data rows written.  Atomic like {!write_trace}. *)

val merged_reclaim_hists : ctx -> (string * Stats.Histogram.t) list
(** Per-policy direct-reclaim latency histograms, merged across every
    traced trial, in first-appearance order. *)

(** {1 Profiling}

    When the context's {!Obs.Prof.config} is enabled, every computed
    trial carries a phase-attribution capture.  Like the telemetry
    writers, everything below reads the deterministic experiment log,
    so outputs are byte-identical for every [jobs] value. *)

val profiled : ctx -> (exp * Obs.Prof.capture) list
(** Every experiment whose cached result carries a profile capture, in
    deterministic first-request order. *)

val profile_cells : ctx -> (exp * Obs.Prof.merged) list
(** Per-cell phase totals: captures grouped by grid cell (the [exp]
    returned has [trial = 0]) and merged across trials in trial order,
    cells in first-appearance order. *)

val write_folded : ctx -> path:string -> int
(** Write merged per-cell phase totals as folded stacks
    ([cell;class;phase;...;leaf <self ns>] per line — flamegraph.pl /
    speedscope input); returns the number of lines.  Atomic like
    {!write_trace}. *)

val write_perfetto : ctx -> path:string -> int
(** Write the per-trial span timelines as Chrome trace-event JSON
    (loadable in Perfetto / chrome://tracing): one trace process per
    profiled trial, thread-name metadata, and one "X" event per span.
    Returns the number of span events.  Requires the profiler's [spans]
    flag to record anything.  Atomic like {!write_trace}. *)

(** {1 Vmstat and heatmaps}

    Like the profiling readers: everything reads the deterministic
    experiment log, so outputs are byte-identical for every [jobs]
    value. *)

val vmstatted : ctx -> (exp * Obs.Vmstat.capture) list
(** Every experiment whose cached result carries a vmstat capture, in
    deterministic first-request order. *)

val vmstat_cells : ctx -> (exp * Obs.Vmstat.capture) list
(** Per-cell counter totals: captures grouped by grid cell (the [exp]
    returned has [trial = 0]) and summed across trials, cells in
    first-appearance order. *)

val heatmap_csv_header : string
(** [workload,policy,ratio,swap,trial,t_ns,asid,start_vpn,pages,accessed] *)

val write_heatmap : ctx -> path:string -> int
(** Write every cached heatmap capture as CSV rows under
    {!heatmap_csv_header} (one line per region snapshot, trials in
    deterministic log order, rows in tick order); returns the number of
    data rows.  Atomic like {!write_trace}. *)
