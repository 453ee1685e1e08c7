(* Outside-in wrappers around the simulator's layer interfaces.  Each
   wraps a public boundary — the policy handed to [Machine.run
   ~policy], the callbacks the machine hands that policy, the workload
   handed to [~workload] — and records spans without touching the
   program.  [on_page_touched] and [env.evictable] run on every access
   or candidate, so they are counted, not timed. *)

module P = Policy.Policy_intf

let touched = ref 0
let evictable_calls = ref 0

(* The vmstat registry of the last wrapped policy, read after the run
   for the scan/steal counts. *)
let last_vmstat = ref None

let reset () =
  touched := 0;
  evictable_calls := 0;
  last_vmstat := None

let n_reclaim_page = "machine.reclaim_page"
let n_mapped = "policy.on_page_mapped"
let n_direct = "policy.direct_reclaim"
let n_next = "workload.next"

let policy (create : P.env -> P.packed) (env : P.env) : P.packed =
  let reclaim_page ~pfn =
    Span.enter n_reclaim_page;
    match env.P.reclaim_page ~pfn with
    | () -> Span.exit ()
    | exception e ->
      Span.exit ();
      raise e
  in
  let evictable ~pfn ~force =
    incr evictable_calls;
    env.P.evictable ~pfn ~force
  in
  last_vmstat := Some env.P.vmstat;
  let (P.Packed ((module Inner), inner)) =
    create { env with P.reclaim_page; evictable }
  in
  let module W = struct
    type t = Inner.t

    let policy_name = Inner.policy_name
    let create = Inner.create

    let on_page_mapped t ~pfn ~asid ~vpn ~refault ~file_backed ~speculative =
      Span.enter n_mapped;
      match
        Inner.on_page_mapped t ~pfn ~asid ~vpn ~refault ~file_backed
          ~speculative
      with
      | () -> Span.exit ()
      | exception e ->
        Span.exit ();
        raise e

    let on_page_touched t ~pfn ~write =
      incr touched;
      Inner.on_page_touched t ~pfn ~write

    let direct_reclaim t ~want =
      Span.enter n_direct;
      match Inner.direct_reclaim t ~want with
      | s ->
        Span.exit ();
        s
      | exception e ->
        Span.exit ();
        raise e

    let kthreads t =
      List.map
        (fun (k : P.kthread) ->
          let name = "policy.kthread." ^ k.P.kname in
          let kstep () =
            Span.enter name;
            match k.P.kstep () with
            | s ->
              Span.exit ();
              s
            | exception e ->
              Span.exit ();
              raise e
          in
          { k with P.kstep })
        (Inner.kthreads t)

    let stats = Inner.stats
    let gauges = Inner.gauges
    let check_invariants = Inner.check_invariants
  end in
  P.Packed ((module W), inner)

let workload (Workload.Chunk.Packed ((module Inner), w)) =
  let module W = struct
    include Inner

    let next t ~tid =
      Span.enter n_next;
      match Inner.next t ~tid with
      | s ->
        Span.exit ();
        s
      | exception e ->
        Span.exit ();
        raise e
  end in
  Workload.Chunk.Packed ((module W), w)
