(** The contract between the machine's tier pools and a page migration
    policy.

    The paper's §II-C surveys this design space: emerging systems place
    pages across a fast tier (local DRAM) and a slow tier (CXL/remote
    memory) and migrate between them.  Unlike swap-based replacement,
    slow-tier pages remain mapped — every access just pays a latency
    penalty — so policies optimize the {e placement} of the working set
    rather than avoiding faults.

    Two information channels exist, mirroring §II-A:

    - {b accessed-bit scans}: free-ish hints with coarse timing (TPP);
    - {b hint faults}: a policy may arm a hint on a present PTE (Linux's
      NUMA-hinting [PROT_NONE]); the next touch traps — precise and
      timestamped, but the fault costs the application (Thermostat,
      AutoNUMA).

    Policies act through the machine callbacks in {!env}: [promote]
    moves a page to the fast tier (the machine demotes nothing on its
    own — if the fast tier is full the call fails), [demote] moves one
    to the slow tier, [poison] arms a hint fault.  Costs are charged via
    the returned work of their kernel threads, which the machine drives
    exactly like a replacement policy's ({!Policy.Policy_intf.kthread}). *)

type tier = Fast | Slow

type env = {
  costs : Mem.Costs.t;
  pt : Mem.Page_table.t;
  rng : Engine.Rng.t;
  now : unit -> int;
  tier_of : int -> tier option;  (** [None] while the page is not resident *)
  fast_free : unit -> int;
  fast_capacity : int;
  migrate_cost_ns : int;
      (** CPU work to charge per migrated page (copy + remap) *)
  promote : vpn:int -> bool;
      (** false when the fast tier is full or the page is not on slow *)
  demote : vpn:int -> bool;
  poison : vpn:int -> unit;  (** arm a hint fault; no-op unless resident *)
}

module type S = sig
  type t

  val policy_name : string

  val create : env -> t

  val initial_tier : t -> vpn:int -> tier
  (** Placement decision whenever a page is mapped (first touch or
      swap-in).  The machine falls back to the other tier if the
      preferred tier is full. *)

  val on_placed : t -> vpn:int -> tier -> unit
  (** The machine mapped a page (the actual tier may differ from the
      policy's preference when a tier was full). *)

  val on_hint_fault : t -> vpn:int -> tier -> write:bool -> unit
  (** A page with an armed hint was touched (the machine already
      charged the fault and cleared the hint). *)

  val kthreads : t -> Policy.Policy_intf.kthread list

  val stats : t -> (string * int) list
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed
