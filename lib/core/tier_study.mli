(** Comparison harness for the §II-C migration-policy design space.

    Runs the paper's workloads on a tiered {!Machine} (fast DRAM + slow
    CXL-like pool, sized so nothing swaps) under every registered
    migration policy, with Clock as the replacement policy,
    and reports runtime, the slow-tier access fraction, and migration
    traffic — the tiering analogue of the replacement figures.  Not part
    of the paper's evaluation, but the design space its background
    section frames (and the context in which it reads MG-LRU's
    data structures).

    The workload x policy x trial grid is fanned out through the
    context's domain pool ({!Runner.jobs}); every trial seeds its own
    workload and machine, and results are aggregated in input order, so
    the printed tables do not depend on the parallelism. *)

val run_one :
  Runner.ctx ->
  workload:Runner.workload_kind ->
  policy:Tiering.Tier_registry.spec ->
  fast_frac:float ->
  trial:int ->
  Machine.result
(** One trial: fast tier sized at [fast_frac] of the footprint, the slow
    tier holding the rest (plus slack); [result.tier] is always set. *)

val study : ?fast_frac:float -> ?trials:int -> Runner.ctx -> unit -> unit
(** Print the full comparison table for TPC-H, PageRank and YCSB-B at
    [fast_frac] (default 0.5) of the footprint in the fast tier. *)
