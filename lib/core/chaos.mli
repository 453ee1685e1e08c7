(** Deterministic chaos scheduler: the [--chaos SPEC] grammar, its
    validation, and compilation to a virtual-time action schedule.

    A spec composes runtime-transient injectors in the [--cgroups]
    segment style:

    {v
    SPEC     := segment (';' segment)*
    segment  := hotplug:at=T,shrink=A[,restore=T]
              | degrade:at=T,for=D[,latency=Nx][,errors=P][,wear=P]
              | churn:at=T,cg=NAME[,low=A][,high=A][,max=A]
              | burst:at=T,for=D[,threads=RANGES]
              | corrupt:at=T
    T, D     := ns integer, or float with us/ms/s suffix
    A        := page count, or percentage of capacity ('30%')
    P        := probability in 0..1
    RANGES   := LO-HI ('+'-joined, as in --cgroups threads=)
    v}

    Parsing rejects malformed fields, negative times, and overlapping
    same-class windows, with [1:COL:] positions (specs are single-line).
    This module is pure data — {!Machine} applies compiled {!action}s at
    their virtual times, so a (seed, config, spec) triple replays
    identically at any [--jobs]. *)

type amount =
  | Pages of int
  | Frac of float  (** fraction of capacity *)

type hotplug = {
  h_at : int;
  h_shrink : amount;
  h_restore : int option;  (** re-online time; [None] = never *)
}

type degrade = {
  d_at : int;
  d_for : int;
  d_latency : float option;  (** service-time multiplier, >= 1 *)
  d_errors : float option;
      (** per-op transient error probability, drawn when wear misses *)
  d_wear : float option;     (** per-op permanent error probability *)
}
(** A window over the swap-fault injector's knobs.  An unnamed knob
    ([None]) keeps the fault plan's value; a named one, 1x and 0
    included, overrides it.  The window's end restores the plan's
    values. *)

type churn = {
  c_at : int;
  c_cg : string;
  c_low : amount option;
  c_high : amount option;
  c_max : amount option;
}

type burst = {
  b_at : int;
  b_for : int;
  b_threads : (int * int) list;  (** inclusive tid ranges; [[]] = all *)
}

type injector =
  | Hotplug of hotplug
  | Degrade of degrade
  | Churn of churn
  | Burst of burst
  | Corrupt of { x_at : int }
      (** test-only: clear one mapped frame's owner at [x_at] — a
          deliberate invariant violation the fuzzer must detect *)

type spec = { injectors : injector list }

val parse_spec : string -> (spec, string) result
(** Errors read ["1:COL: message"], column 1-based. *)

val spec_to_string : spec -> string
(** Canonical rendering; [parse_spec (spec_to_string s) = Ok s] for any
    parseable [s]. *)

(** {1 Compiled schedule} *)

type action =
  | Offline of int  (** offline this many frames (migrate/reclaim off them) *)
  | Online of int   (** bring the most recently offlined frames back *)
  | Degrade_set of {
      latency : float option;
      errors : float option;
      wear : float option;
    }
      (** turn the injector's named knobs (see {!degrade}) *)
  | Degrade_clear  (** return every knob to the fault plan's value *)
  | Set_limits of {
      cg : string;
      low : int option;
      high : int option;
      max_limit : int option;
    }
  | Stall of { lo : int; hi : int; until : int }
  | Corrupt_frame

val events : spec -> capacity:int -> nthreads:int -> (int * action) list
(** Resolve amounts against [capacity] and thread ranges against
    [nthreads]; sorted by time, same-time actions in segment order. *)

val has_degrade : spec -> bool
(** Whether the spec opens a degrade window, so the machine must wrap
    its swap device in {!Swapdev.Faulty_device} even under the [none]
    plan. *)

val has_churn : spec -> bool

val churn_cgs : spec -> string list
(** Cgroup names referenced by churn segments, in segment order. *)

val action_injector : action -> string
(** Segment class of an action: ["hotplug"], ["degrade"], ... *)

val action_label : action -> string
(** Human label for the trace stream and audit context; an unnamed
    degrade knob reads as its neutral value (1x, 0). *)

(** {1 Run summary} *)

type summary = {
  mutable s_events : int;
  mutable s_offlined : int;
  mutable s_onlined : int;
  mutable s_migrated : int;
  mutable s_evicted : int;
  mutable s_skipped : int;
  mutable s_limit_updates : int;
  mutable s_device_phases : int;
  mutable s_stalled_threads : int;
  mutable s_corrupted : int;
}

val fresh_summary : unit -> summary

val summary_to_string : summary -> string
(** Compact single-line encoding for the result journal; inverse of
    {!summary_of_string}. *)

val summary_of_string : string -> summary option
