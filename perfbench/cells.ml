(* The benchmark's workloads, built only from the simulator's public
   entry points: [Runner] / [Figures] for the sweep, [Machine.run] for
   single cells. *)

module M = Repro_core.Machine
module R = Repro_core.Runner

type workload = Paper_sweep | Fullscale_clock | Tpch_x16 | Ycsb_telemetry

let workload_of_name = function
  | "paper-sweep" -> Some Paper_sweep
  | "fullscale-clock" -> Some Fullscale_clock
  | "tpch-mglru-zram-x16" -> Some Tpch_x16
  | "ycsb-a-telemetry" -> Some Ycsb_telemetry
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Output digests: every simulated quantity a speed-only change must   *)
(* leave identical.                                                    *)
(* ------------------------------------------------------------------ *)

let digest (r : M.result) =
  let b = Buffer.create 65536 in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let floats a =
    int (Array.length a);
    Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a
  in
  List.iter int
    [ r.M.runtime_ns; r.M.major_faults; r.M.minor_faults; r.M.swap_ins; r.M.swap_outs ];
  floats r.M.read_latencies;
  floats r.M.write_latencies;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Runner's per-trial machine configuration.  [Runner] computes it     *)
(* privately; this mirrors it so a trial can run under wrapped         *)
(* policies and workloads.  The traced runs check every mirrored       *)
(* trial's digest against the one [Runner.run_exp] produced.           *)
(* ------------------------------------------------------------------ *)

let kind_id = function
  | R.Tpch -> 1
  | R.Pagerank -> 2
  | R.Ycsb Workload.Ycsb.A -> 3
  | R.Ycsb Workload.Ycsb.B -> 4
  | R.Ycsb Workload.Ycsb.C -> 5
  | R.Fleet _ -> invalid_arg "Cells.kind_id: fleet workloads are not mirrored"

let workload_seed kind ~trial = 0x5EED + (kind_id kind * 7919) + (trial * 104729)

let runner_config ctx (e : R.exp) ~footprint =
  let capacity = max 64 (int_of_float (float_of_int footprint *. e.R.ratio)) in
  let cfg =
    {
      (M.default_config ~capacity_frames:capacity
         ~seed:(workload_seed e.R.workload ~trial:e.R.trial + 17))
      with
      M.swap = (match e.R.swap with R.Ssd -> M.ssd | R.Zram -> M.zram);
      fault_plan = R.fault_plan ctx;
      audit_every_ns = R.audit_every_ns ctx;
      obs = R.obs ctx;
      prof = R.prof ctx;
      cgroups = R.cgroups ctx;
      chaos = R.chaos ctx;
      vmstat = R.vmstat ctx;
      damon = R.damon ctx;
    }
  in
  let s = (R.profile ctx).R.scale in
  if s = 1 then cfg
  else
    {
      cfg with
      M.costs =
        Mem.Costs.scaled
          ~factor:(max 1 (256 / s))
          {
            Mem.Costs.default with
            Mem.Costs.region_size = min 512 (64 * s);
            spatial_scan_max = min 512 (64 * s);
          };
    }

(* ------------------------------------------------------------------ *)
(* Workload parameters.                                                *)
(* ------------------------------------------------------------------ *)

let sweep_figures = [ 1; 9 ]

let sweep_ctx ~jobs =
  R.make_ctx
    ~profile:{ R.trials = 2; ycsb_trials = 2; fast = true; scale = 1 }
    ~jobs ()

(* The deduplicated trials of the sweep, in first-request order. *)
let sweep_exps ctx =
  let seen = Hashtbl.create 128 in
  List.concat_map
    (fun fig ->
      List.concat_map
        (fun (workload, policy, ratio, swap) ->
          R.cell_exps ctx ~workload ~policy ~ratio ~swap)
        (Repro_core.Figures.cells_of_figure fig))
    sweep_figures
  |> List.filter (fun e ->
         let k = R.exp_key e in
         (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))

let fullscale_pages = 3_276_800

let telemetry_obs = { Obs.trace = true; sample_every_ns = 10_000_000 }

let single_trial_ctx ?(telemetry = false) ~scale () =
  let profile = { R.trials = 1; ycsb_trials = 1; fast = false; scale } in
  if telemetry then
    R.make_ctx ~profile ~obs:telemetry_obs
      ~prof:{ Obs.Prof.enabled = true; spans = false }
      ~vmstat:true ~damon:Mem.Damon.default_config ()
  else R.make_ctx ~profile ()

let tpch_exp ~trial =
  { R.workload = R.Tpch; policy = Policy.Registry.Mglru_default; ratio = 0.5;
    swap = R.Zram; trial }

let ycsb_exp ~trial =
  { R.workload = R.Ycsb Workload.Ycsb.A; policy = Policy.Registry.Mglru_default;
    ratio = 0.5; swap = R.Zram; trial }

(* ------------------------------------------------------------------ *)
(* Serial cells: one [Machine.run] each, with its set-up split out.    *)
(* ------------------------------------------------------------------ *)

type cell = {
  label : string;
  policy : Policy.Registry.spec;
  setup : unit -> M.config * Workload.Chunk.packed;
      (** workload generation and machine configuration *)
}

let runner_cell ctx (e : R.exp) =
  {
    label = R.exp_key e;
    policy = e.R.policy;
    setup =
      (fun () ->
        let w = R.make_workload ctx e.R.workload ~trial:e.R.trial in
        (runner_config ctx e ~footprint:(Workload.Chunk.packed_footprint w), w));
  }

(* Sequential passes over the footprint at half capacity, unscaled
   costs: pass 1 is all minor faults, pass 2 re-faults everything Clock
   had to evict. *)
let fullscale_cell ~trial =
  let pages = fullscale_pages in
  {
    label = Printf.sprintf "fullscale-clock/t%d" trial;
    policy = Policy.Registry.Clock;
    setup =
      (fun () ->
        let w =
          Workload.Trace.of_page_lists ~footprint:pages
            (List.init 2 (fun _ -> Array.init pages Fun.id))
        in
        let cfg =
          {
            (M.default_config ~capacity_frames:(pages / 2) ~seed:(42 + trial))
            with
            M.costs = Mem.Costs.default;
            kthread_jitter_ns = 0;
          }
        in
        (cfg, Workload.Chunk.Packed ((module Workload.Trace), w)));
  }

(* The serial cells a workload's traced run replays.  For the sweep
   that is every trial of the figure grid, one after another. *)
let cells ?(telemetry = true) workload ~trial =
  match workload with
  | Paper_sweep ->
    let ctx = sweep_ctx ~jobs:1 in
    List.map (runner_cell ctx) (sweep_exps ctx)
  | Fullscale_clock -> [ fullscale_cell ~trial ]
  | Tpch_x16 -> [ runner_cell (single_trial_ctx ~scale:16 ()) (tpch_exp ~trial) ]
  | Ycsb_telemetry ->
    [ runner_cell (single_trial_ctx ~telemetry ~scale:1 ()) (ycsb_exp ~trial) ]

let run_cell ?(traced = false) c =
  let cfg, w = Span.timed "workload.setup" c.setup in
  let policy = Policy.Registry.create c.policy in
  let policy, w = if traced then (Wrap.policy policy, Wrap.workload w) else (policy, w) in
  Span.timed "machine.run" (fun () -> M.run cfg ~policy ~workload:w)
