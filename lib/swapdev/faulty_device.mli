(** Deterministic fault injection over any swap device — the one
    injector behind both the static [--faults] plans and chaos
    [degrade] windows.

    [wrap] decorates a {!Device.t} with a {!plan}: per-op error
    probabilities split into transient and permanent kinds, periodic
    error bursts (a worn flash block neighbourhood), periodic stall
    windows (firmware garbage collection), and a tail-latency multiplier
    applied to a random fraction of completions.

    The plan is immutable and may be shared across domains.  Each
    injector keeps its own knobs — the read and write wear and
    transient-error probabilities, derived from the plan, and a
    service-time stretch starting at 1x — which {!degrade} and
    {!restore} turn mid-run.  All randomness comes from the caller's
    dedicated {!Engine.Rng.t}, so a faulty trial replays exactly.

    The wrapper never perturbs the inner device's queueing state beyond
    what the inner [submit] itself does: failed operations still occupy
    a channel (they ran and then failed), and latency, stall and tail
    delays extend only the observed completion time. *)

type plan = {
  read_error_prob : float;   (** per-read error probability *)
  write_error_prob : float;  (** per-write error probability *)
  permanent_fraction : float;
      (** fraction of probabilistic errors that are permanent *)
  burst_every_ops : int;
      (** period of error bursts in ops; [<= 0] disables bursts *)
  burst_len_ops : int;
      (** ops at the start of each period that all fail *)
  burst_permanent : bool;    (** burst errors are permanent *)
  stall_every_ops : int;
      (** every this many ops, one completion stalls; [<= 0] disables *)
  stall_ns : int;            (** extra latency of a stalled completion *)
  tail_prob : float;         (** per-op probability of a latency spike *)
  tail_multiplier : float;
      (** observed-latency multiplier of a spiked completion *)
}

val none : plan
(** All injection disabled. *)

val is_none : plan -> bool
(** Whether the plan can never inject anything; callers skip wrapping
    entirely for such plans, keeping fault-free runs bit-identical. *)

val light : plan
(** Rare recoverable errors, occasional stalls, thin latency tail. *)

val heavy : plan
(** Dense permanent error bursts, frequent stalls, heavy tail — a dying
    device. *)

val plan_of_name : string -> plan option
(** ["none" | "light" | "heavy"]. *)

type counters = {
  mutable transient_errors : int;
  mutable permanent_errors : int;
  mutable stalls : int;
  mutable tail_spikes : int;
}

val injected : counters -> int
(** Total injected events of any kind. *)

type t
(** One trial's injector: its plan, live knobs, RNG and counters. *)

val wrap : plan:plan -> rng:Engine.Rng.t -> Device.t -> Device.t * t
(** Decorate a device.  An op error of probability p splits into a
    permanent "wear" draw of p·[permanent_fraction], made first, and a
    transient draw made only when it misses, scaled so that the
    transient marginal stays p·(1 − [permanent_fraction]).  Each op
    draws from [rng] only while a knob that needs randomness is set:
    wear, then transient errors, then (for a successful op) the tail
    spike.  [rng] must be dedicated to the injector — never split from
    a stream other code draws from — so wrapped and unwrapped runs share
    every other random draw. *)

val counters : t -> counters
(** Live counters of everything injected so far. *)

val degrade :
  t -> ?latency:float -> ?errors:float -> ?wear:float -> unit -> unit
(** Open a degradation window: set each named knob — the service-time
    stretch, and the read and write transient-error (drawn when wear
    misses) and wear probabilities.  Unnamed knobs keep their value; a
    named 1.0 or 0.0 switches that knob off for the window. *)

val restore : t -> unit
(** Close the window: the wear and error knobs return to the plan's
    values and the stretch to 1x. *)
