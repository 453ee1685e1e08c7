(** Observability: typed trace events, periodic machine-state samples,
    and reclaim-latency histograms.

    The paper's characterization rests on time-varying behaviour —
    refault rates, generation/list occupancy, swap pressure over a run —
    which end-of-run aggregates cannot show.  This module is the
    policy-introspection layer: the machine, the policies and the swap
    manager all hold an {!t} sink and report what they do as {e typed}
    events stamped with simulated time.

    {b Determinism.}  A sink only observes; it never draws randomness or
    schedules simulator events, so an enabled sink cannot perturb a run,
    and {!disabled} makes every hook a no-op — runs without telemetry
    are bit-identical to a build without this layer.  Each trial owns a
    private sink (sinks are single-domain, like the trials themselves);
    the runner merges captures after the domains join, in trial order,
    so traces are byte-identical for every [--jobs] value.

    {b Schemas.}  Events serialize to JSON Lines ({!write_jsonl}, one
    flat object per event; {!parse_line} reads them back) and samples to
    long-format CSV rows (one [metric,value] pair per row), the shapes
    DESIGN.md documents for plotting the paper-style time series. *)

module Prof = Prof
(** Deterministic simulated-time CPU profiler (phase attribution, span
    timelines); threaded through the machine alongside the trace sink. *)

module Vmstat = Vmstat
(** Deterministic [/proc/vmstat]-style counter registry (fault, scan,
    steal, swap, workingset and MG-LRU counters plus a refault-distance
    histogram); threaded through the machine and both builtin policies
    alongside the trace sink. *)

(** Why a page moved toward the young end of its policy's structure. *)
type promote_reason =
  | Aging        (** MG-LRU aging walk found the accessed bit set *)
  | Evict_scan   (** eviction-side second chance *)
  | Spatial      (** MG-LRU spatial neighbourhood scan *)
  | Second_chance (** Clock inactive-tail rescue to the active list *)

(** One reclaim-path occurrence, stamped with simulated time by the
    emitter.  Counters inside events are per-event deltas, never
    cumulative. *)
type event =
  | Evict of { vpn : int; dirty : bool }
      (** the machine unmapped and freed a page (writeback if dirty) *)
  | Promote of { pfn : int; reason : promote_reason }
  | Demote of { pfn : int }
      (** Clock moved an unreferenced active page to the inactive list *)
  | Aging_pass of { pass : int; max_seq : int; min_seq : int }
      (** an MG-LRU aging walk completed and opened generation [max_seq] *)
  | Reclaim of { want : int; freed : int; scanned : int; latency_ns : int }
      (** one synchronous direct-reclaim episode on a faulting thread;
          [latency_ns] includes writeback stalls *)
  | Swap_read of { slot : int; latency_ns : int; retries : int; failed : bool }
  | Swap_write of {
      slot : int;  (** final slot, or -1 when the write was abandoned *)
      latency_ns : int;
      retries : int;
      failed : bool;
      remapped : bool;  (** moved off a bad block at least once *)
    }
  | Oom_kill of { tid : int; discarded : int }
  | Throttle of { tid : int; cg : string; usage : int; high : int; stall_ns : int }
      (** a [memory.high] breach stalled the faulting thread for
          [stall_ns] of simulated time *)
  | Cgroup_reclaim of {
      cg : string;
      want : int;
      freed : int;
      scanned : int;
      latency_ns : int;
    }
      (** one cgroup-targeted reclaim episode ([memory.high]/[max]
          enforcement or the proactive probe) *)
  | Cgroup_oom of { cg : string; tid : int; discarded : int }
      (** a scoped OOM kill confined to cgroup [cg]; the machine-wide
          [Oom_kill] event is emitted alongside *)
  | Psi of {
      cg : string;
      some_ns : int;   (** stall time accrued this window, some *)
      full_ns : int;   (** stall time accrued this window, full *)
      window_ns : int;
      limit : int;     (** proactive effective limit; -1 when untouched *)
    }
  | Chaos of { injector : string; action : string; arg : int }
      (** a chaos injection was applied: [injector] is the segment class
          ([hotplug], [degrade], [churn], [burst], [corrupt]), [action]
          a short human label, [arg] the action's magnitude (frames
          offlined, new limit, stalled threads, ...) *)
  | Workingset_refault of {
      vpn : int;
      distance : int;   (** evictions between this page's eviction and
                            its refault; -1 when no shadow survived *)
      shadow : bool;    (** a shadow entry was found (hit) or had been
                            torn down (miss — e.g. after an OOM kill) *)
      activated : bool; (** distance within capacity: the kernel would
                            refault this page straight to active *)
      restored : bool;  (** the page's accessed bit was still set when
                            it was evicted *)
    }
      (** a swapped-out page faulted back in and its shadow entry (if
          any) was consumed *)

val kind_name : event -> string
(** Stable lowercase kind tag used in the JSONL [kind] field. *)

val promote_reason_name : promote_reason -> string

(** {1 Sink configuration} *)

type config = {
  trace : bool;           (** record events *)
  sample_every_ns : int;  (** machine-state sample cadence; 0 = off *)
}

val off : config

val config_enabled : config -> bool

(** {1 Sinks} *)

type t
(** An event/sample sink.  Not thread-safe: one sink per trial, written
    only by the domain running that trial. *)

val disabled : t
(** The no-op sink: every hook returns immediately, {!capture} is
    [None]. *)

val create : config -> t
(** A fresh sink per {!config}; [create off] is {!disabled}. *)

val enabled : t -> bool

val tracing : t -> bool

val sample_every_ns : t -> int

val emit : t -> t_ns:int -> event -> unit
(** Record one event at simulated time [t_ns].  [Reclaim] events also
    feed the reclaim-latency histogram.  No-op when not tracing. *)

val push_sample : t -> t_ns:int -> (string * float) list -> unit
(** Record one machine-state sample (metric name, value). *)

(** {1 Captures} *)

val reclaim_hist_lo : float
val reclaim_hist_hi : float
(** Bounds of the reclaim-latency histograms (ns), shared by every sink
    so per-policy captures merge with {!Stats.Histogram.merge}. *)

type capture = {
  events : (int * event) array;           (** (t_ns, event), emit order *)
  samples : (int * (string * float) list) array;
  reclaim_hist : Stats.Histogram.t;
      (** direct-reclaim episode latencies, log-binned *)
}

val capture : t -> capture option
(** Everything the sink recorded; [None] for {!disabled}. *)

(** {1 JSONL and CSV output}

    One buffered writer serves the trace, sample, heatmap and
    folded-stack files and the result journal's JSON objects: lines are
    appended to one reused buffer, which a channel-backed writer hands
    to its channel in fixed-size blocks.  Strings that need no escaping
    are copied as they are, ints (and integral floats below 1e9) are
    written digit by digit, and other floats go through the C formatter
    [Printf] itself uses, so the bytes match a [Printf]-built line
    exactly and a trace line allocates nothing. *)

type value = Int of int | Float of float | Bool of bool | Str of string

module Out : sig
  type t

  val create : unit -> t
  (** An in-memory writer; read it back with {!contents}. *)

  val contents : t -> string

  val with_channel : out_channel -> (t -> 'a) -> 'a
  (** [with_channel oc f] runs [f] on a writer that hands its buffer
      to [oc] whenever a line ends past a fixed block size, and once
      more after [f] returns. *)

  val string : t -> string -> unit
  (** Raw bytes, unescaped. *)

  val char : t -> char -> unit

  val int : t -> int -> unit

  val float_g : t -> float -> unit
  (** [%.9g], byte for byte. *)

  val end_line : t -> unit
  (** A ['\n']; may hand the buffer to the channel. *)
end

val event_fields : event -> (string * value) list
(** The event's payload, without the [kind] tag, in the order the trace
    writer emits it (both walk the same field table). *)

val json_string : string -> string
(** [s] as a quoted, escaped JSON string literal — the exact escaping
    {!json_object} applies to [Str] values and keys. *)

val json_object : (string * value) list -> string
(** One flat JSON object (no trailing newline) with the fields in list
    order; the exact subset {!parse_line} reads back.  Written by the
    same {!Out} code as trace lines; the result journal's record
    format. *)

type cell_prefix
(** A trace line's leading bytes — the cell fields and the [t_ns] key —
    rendered once per capture. *)

val cell_prefix : (string * value) list -> cell_prefix

val write_jsonl : Out.t -> cell_prefix -> t_ns:int -> event -> unit
(** Append one trace line, ['\n'] included: the cell fields, then
    [t_ns], [kind] and the event payload. *)

val jsonl_line : cell:(string * value) list -> t_ns:int -> event -> string
(** The line {!write_jsonl} writes, as a string without the trailing
    newline. *)

val parse_line : string -> ((string * value) list, string) result
(** Parse one flat JSON object as written by {!jsonl_line} (strings,
    numbers, booleans, null).  [Error] describes the first offence. *)

val field : (string * value) list -> string -> value option

val field_int : (string * value) list -> string -> int option
(** [Int] or integral [Float]. *)

val field_string : (string * value) list -> string -> string option
