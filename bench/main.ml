(* Benchmark harness.

   Part 1 — Bechamel microbenchmarks: one Test.make per paper figure,
   timing the core simulation path that figure exercises at reduced
   scale, plus calibration benches for the hot data structures (zipf
   sampling, bloom filter, generation lists, event queue).

   Part 2 — the full figure reproduction: prints every series of
   Figures 1-12 exactly as EXPERIMENTS.md records them.  Scale is
   controlled by REPRO_TRIALS / REPRO_YCSB_TRIALS / REPRO_FAST. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Calibration micro-benchmarks for core data structures.              *)
(* ------------------------------------------------------------------ *)

let bench_zipf =
  let z = Workload.Zipf.create ~n:100_000 ~exponent:0.99 in
  let rng = Engine.Rng.create 1 in
  Test.make ~name:"zipf-sample" (Staged.stage (fun () -> Workload.Zipf.sample z rng))

let bench_bloom =
  let b = Structures.Bloom.create ~bits:(1 lsl 15) ~seed:1 () in
  let i = ref 0 in
  Test.make ~name:"bloom-add-mem"
    (Staged.stage (fun () ->
         incr i;
         Structures.Bloom.add b !i;
         Structures.Bloom.mem b (!i / 2)))

let bench_dlist =
  let d = Structures.Dlist.create ~nodes:4096 ~lists:4 in
  for node = 0 to 4095 do
    Structures.Dlist.push_head d ~list:(node mod 4) ~node
  done;
  let i = ref 0 in
  Test.make ~name:"dlist-move"
    (Staged.stage (fun () ->
         i := (!i + 1) land 4095;
         Structures.Dlist.move_head d ~list:(!i mod 4) ~node:!i))

let bench_event_queue =
  let q = Engine.Event_queue.create () in
  let i = ref 0 in
  Test.make ~name:"event-queue-add-pop"
    (Staged.stage (fun () ->
         incr i;
         Engine.Event_queue.add q ~time:(!i land 1023) ();
         if !i land 1 = 0 then ignore (Engine.Event_queue.pop q)))

let bench_pte =
  let pt = Mem.Page_table.create ~asid:0 ~pages:4096 () in
  let i = ref 0 in
  Test.make ~name:"pte-touch"
    (Staged.stage (fun () ->
         i := (!i + 1) land 4095;
         let pte = Mem.Page_table.get pt !i in
         Mem.Page_table.set pt !i (Mem.Pte.set_accessed pte)))

let bench_rng =
  let rng = Engine.Rng.create 2 in
  Test.make ~name:"rng-int" (Staged.stage (fun () -> Engine.Rng.int rng 1_000_000))

(* ------------------------------------------------------------------ *)
(* One Test.make per figure: a micro-scale version of the simulation   *)
(* each figure rests on (full-scale series are printed afterwards).    *)
(* ------------------------------------------------------------------ *)

let micro_trace ~pages ~passes =
  List.init passes (fun _ -> Array.init pages (fun i -> i))

let micro_run ~policy ~swap ~capacity ~pages ~passes () =
  let w = Workload.Trace.of_page_lists ~footprint:pages (micro_trace ~pages ~passes) in
  let cfg =
    {
      (Repro_core.Machine.default_config ~capacity_frames:capacity ~seed:5) with
      Repro_core.Machine.swap;
      kthread_jitter_ns = 0;
    }
  in
  let r =
    Repro_core.Machine.run cfg
      ~policy:(Policy.Registry.create policy)
      ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w))
  in
  Sys.opaque_identity r.Repro_core.Machine.major_faults

let fig_micro name ~policy ~swap =
  Test.make ~name
    (Staged.stage (micro_run ~policy ~swap ~capacity:64 ~pages:128 ~passes:2))

let figure_micro_tests =
  [
    fig_micro "fig01-mglru-vs-clock-ssd" ~policy:Policy.Registry.Mglru_default
      ~swap:Repro_core.Machine.ssd;
    fig_micro "fig02-joint-distribution" ~policy:Policy.Registry.Clock
      ~swap:Repro_core.Machine.ssd;
    fig_micro "fig03-tail-latency-ssd" ~policy:Policy.Registry.Mglru_default
      ~swap:Repro_core.Machine.ssd;
    fig_micro "fig04-variant-gen14" ~policy:Policy.Registry.Gen14
      ~swap:Repro_core.Machine.ssd;
    fig_micro "fig05-variant-scan-all" ~policy:Policy.Registry.Scan_all
      ~swap:Repro_core.Machine.ssd;
    fig_micro "fig06-capacity-75" ~policy:Policy.Registry.Scan_none
      ~swap:Repro_core.Machine.ssd;
    fig_micro "fig07-fault-distribution" ~policy:(Policy.Registry.Scan_rand 0.5)
      ~swap:Repro_core.Machine.ssd;
    fig_micro "fig08-tails-by-capacity" ~policy:Policy.Registry.Clock
      ~swap:Repro_core.Machine.ssd;
    fig_micro "fig09-zram-performance" ~policy:Policy.Registry.Mglru_default
      ~swap:Repro_core.Machine.zram;
    fig_micro "fig10-zram-faults" ~policy:Policy.Registry.Clock
      ~swap:Repro_core.Machine.zram;
    fig_micro "fig11-zram-vs-ssd" ~policy:Policy.Registry.Mglru_default
      ~swap:Repro_core.Machine.zram;
    fig_micro "fig12-zram-tails" ~policy:Policy.Registry.Clock
      ~swap:Repro_core.Machine.zram;
  ]

(* ------------------------------------------------------------------ *)
(* Policy-SDK hook dispatch overhead.                                  *)
(*                                                                     *)
(* Wall-clock cost of the guest hook surface: the host trampoline in   *)
(* isolation (a no-op guest driven through Guest_host's fault path)    *)
(* and each V1 hook body per guest at steady state (256 resident keys, *)
(* evictions immediately re-faulted).  Results land in                 *)
(* BENCH_policy_sdk.json as ns/hook and minor words/hook.              *)
(* ------------------------------------------------------------------ *)

module V1 = Policy.Hooks.V1

module Null_guest = struct
  type t = unit

  let name = "null"
  let api_version = 1
  let init _ = ()
  let on_fault () _ = ()
  let on_access_sample () _ = ()
  let on_scan_tick () = ()
  let evict_request () ~want:_ = []
  let stats () = []
  let gauges () = []
end

module Null_host = Policy.Guest_host.Host (Null_guest)

let sdk_env () =
  let frames = 256 in
  let pt = Mem.Page_table.create ~asid:0 ~pages:1024 () in
  let ft = Mem.Frame_table.create ~frames in
  let mem = Mem.Phys_mem.create ~frames () in
  {
    Policy.Policy_intf.costs = Mem.Costs.default;
    frames = ft;
    page_table_of = (fun _ -> pt);
    address_spaces = (fun () -> [ pt ]);
    rng = Engine.Rng.create 11;
    now = (fun () -> 0);
    reclaim_page = (fun ~pfn:_ -> ());
    evictable = (fun ~pfn:_ ~force:_ -> true);
    free_count = (fun () -> Mem.Phys_mem.free_count mem);
    total_frames = frames;
    low_watermark = Mem.Phys_mem.low_watermark mem;
    high_watermark = Mem.Phys_mem.high_watermark mem;
    obs = Obs.disabled;
    prof = Obs.Prof.disabled;
    vmstat = Obs.Vmstat.create ();
  }

let bench_dispatch_overhead =
  let p = Null_host.create (sdk_env ()) in
  let i = ref 0 in
  Test.make ~name:"host-dispatch-overhead"
    (Staged.stage (fun () ->
         incr i;
         Null_host.on_page_mapped p ~pfn:(!i land 255) ~asid:0
           ~vpn:(!i land 255) ~refault:false ~file_backed:false
           ~speculative:false))

let sdk_guests =
  [
    ("s3-fifo", (module Policy.S3_fifo : V1.GUEST));
    ("sieve", (module Policy.Sieve : V1.GUEST));
    ("perceptron", (module Policy.Perceptron : V1.GUEST));
  ]

let guest_hook_tests (name, (module G : V1.GUEST)) =
  let n = 256 in
  let rng = Engine.Rng.create 7 in
  let ctx =
    {
      V1.now = (fun () -> 0);
      free_count = (fun () -> n / 8);
      total_frames = n;
      low_watermark = n / 8;
      high_watermark = n / 4;
      page =
        (fun ~pfn ->
          if pfn >= 0 && pfn < n then
            Some
              { V1.accessed = pfn land 1 = 0; dirty = false; file_backed = false }
          else None);
      evictable_hint = (fun ~pfn -> pfn >= 0 && pfn < n);
      rand = (fun bound -> Engine.Rng.int rng bound);
    }
  in
  let g = G.init ctx in
  let fault pfn ~reinserted =
    G.on_fault g
      {
        V1.pfn = pfn land (n - 1);
        key = pfn land (n - 1);
        refault = true;
        file_backed = false;
        speculative = false;
        reinserted;
      }
  in
  for pfn = 0 to n - 1 do
    fault pfn ~reinserted:false
  done;
  let i = ref 0 in
  [
    Test.make ~name:(name ^ "/on_fault")
      (Staged.stage (fun () ->
           incr i;
           fault !i ~reinserted:false));
    Test.make ~name:(name ^ "/on_access_sample")
      (Staged.stage (fun () ->
           incr i;
           G.on_access_sample g { V1.pfn = !i land (n - 1); dirty = false }));
    Test.make ~name:(name ^ "/on_scan_tick")
      (Staged.stage (fun () -> G.on_scan_tick g));
    Test.make ~name:(name ^ "/evict_request")
      (Staged.stage (fun () ->
           (* Re-fault what the guest hands back so occupancy — and
              therefore per-call work — stays constant. *)
           List.iter (fun pfn -> fault pfn ~reinserted:false)
             (G.evict_request g ~want:1)));
  ]

let run_sdk_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let alloc = Instance.minor_allocated in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let tests =
    Test.make_grouped ~name:"policy-sdk"
      (bench_dispatch_overhead :: List.concat_map guest_hook_tests sdk_guests)
  in
  let raw = Benchmark.all cfg [ clock; alloc ] tests in
  let times = Analyze.all ols clock raw in
  let allocs = Analyze.all ols alloc raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some r -> (
      match Analyze.OLS.estimates r with Some (t :: _) -> Some t | _ -> None)
    | None -> None
  in
  let names =
    List.sort compare
      (Hashtbl.fold (fun name _ acc -> name :: acc) times [])
  in
  print_endline "=== Policy-SDK hook dispatch (ns/hook, minor words/hook) ===";
  let rows =
    List.map
      (fun name ->
        let ns = estimate times name and words = estimate allocs name in
        Printf.printf "%-44s %10s ns %8s words\n" name
          (match ns with Some t -> Printf.sprintf "%.1f" t | None -> "?")
          (match words with Some w -> Printf.sprintf "%.1f" w | None -> "?");
        (name, ns, words))
      names
  in
  let oc = open_out "BENCH_policy_sdk.json" in
  let j = function Some v -> Printf.sprintf "%.2f" v | None -> "null" in
  output_string oc "{\n";
  output_string oc "  \"benchmark\": \"policy_sdk_hook_dispatch\",\n";
  output_string oc
    "  \"units\": { \"time\": \"ns/hook\", \"alloc\": \"minor words/hook\" },\n";
  output_string oc "  \"results\": [\n";
  List.iteri
    (fun k (name, ns, words) ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"ns_per_hook\": %s, \"minor_words_per_hook\": %s }%s\n"
        name (j ns) (j words)
        (if k = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "(wrote BENCH_policy_sdk.json)"

(* ------------------------------------------------------------------ *)
(* Engine wall-clock harness.                                          *)
(*                                                                     *)
(* The standing speed trajectory: raw event-loop throughput, machine   *)
(* fault-burst cells at default (1/256) scale under each headline      *)
(* policy, and one full-scale (>= 3 M pages, unscaled costs) smoke     *)
(* cell.  Results land in BENCH_engine.json so each PR can be compared *)
(* wall-clock against the last (DESIGN.md section 13).  Run just this  *)
(* part with `dune exec bench/main.exe -- engine`.                     *)
(* ------------------------------------------------------------------ *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Raw discrete-event loop throughput: 64 self-rescheduling events so
   the heap keeps realistic depth, 2 M pops total. *)
let event_loop_throughput () =
  let n = 2_000_000 in
  let sim = Engine.Sim.create () in
  let remaining = ref n in
  let rec step s =
    decr remaining;
    if !remaining > 0 then Engine.Sim.schedule s ~delay:1 step
  in
  for _ = 1 to 64 do
    Engine.Sim.schedule sim ~delay:0 step
  done;
  let (), wall_s = wall (fun () -> Engine.Sim.run sim) in
  float_of_int n /. wall_s

type engine_cell = {
  ec_name : string;
  ec_pages : int;
  ec_ratio : float;
  ec_wall_s : float;
  ec_sim_ns : int;
  ec_major : int;
  ec_minor : int;
  ec_allocs_per_fault : float; (** minor words per (major + minor) fault *)
}

(* Sequential passes over the footprint at [ratio] capacity: pass 1 is
   all minor faults, later passes re-fault everything the policy had to
   evict — a dense, deterministic fault burst. *)
let fault_burst_cell ?chaos ~name ~policy ~pages ~passes ~ratio ~full_scale () =
  let w =
    Workload.Trace.of_page_lists ~footprint:pages
      (List.init passes (fun _ -> Array.init pages (fun i -> i)))
  in
  let capacity = max 64 (int_of_float (float_of_int pages *. ratio)) in
  let cfg =
    let base =
      Repro_core.Machine.default_config ~capacity_frames:capacity ~seed:42
    in
    if full_scale then
      (* The paper's real footprint: unscaled per-page costs, 512-PTE
         page-table regions. *)
      { base with Repro_core.Machine.costs = Mem.Costs.default;
        kthread_jitter_ns = 0 }
    else { base with Repro_core.Machine.kthread_jitter_ns = 0 }
  in
  let cfg = { cfg with Repro_core.Machine.chaos } in
  let mw0 = Gc.minor_words () in
  let r, wall_s =
    wall (fun () ->
        Repro_core.Machine.run cfg
          ~policy:(Policy.Registry.create policy)
          ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w)))
  in
  let mw1 = Gc.minor_words () in
  let faults =
    max 1 (r.Repro_core.Machine.major_faults + r.Repro_core.Machine.minor_faults)
  in
  {
    ec_name = name;
    ec_pages = pages;
    ec_ratio = ratio;
    ec_wall_s = wall_s;
    ec_sim_ns = r.Repro_core.Machine.runtime_ns;
    ec_major = r.Repro_core.Machine.major_faults;
    ec_minor = r.Repro_core.Machine.minor_faults;
    ec_allocs_per_fault = (mw1 -. mw0) /. float_of_int faults;
  }

let sim_ns_per_wall_ms c = float_of_int c.ec_sim_ns /. (c.ec_wall_s *. 1000.)

let print_cell c =
  Printf.printf
    "%-18s %9d pages  %7.2fs wall  %6.1f sim-s  %8d major  %8d minor  %7.1f words/fault\n%!"
    c.ec_name c.ec_pages c.ec_wall_s
    (float_of_int c.ec_sim_ns /. 1e9)
    c.ec_major c.ec_minor c.ec_allocs_per_fault

let cell_json c =
  Printf.sprintf
    "{ \"name\": \"%s\", \"pages\": %d, \"ratio\": %.2f, \"wall_s\": %.3f, \
     \"sim_ns\": %d, \"major_faults\": %d, \"minor_faults\": %d, \
     \"allocs_per_fault\": %.2f, \"sim_ns_per_wall_ms\": %.1f }"
    c.ec_name c.ec_pages c.ec_ratio c.ec_wall_s c.ec_sim_ns c.ec_major
    c.ec_minor c.ec_allocs_per_fault (sim_ns_per_wall_ms c)

(* The machine and build the numbers were taken on: wall-clock figures
   are only comparable between runs on the same host and dune profile. *)
let cpu_model () =
  let model line =
    match String.split_on_char ':' line with
    | key :: rest when String.trim key = "model name" ->
      Some (String.trim (String.concat ":" rest))
    | _ -> None
  in
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    Option.value ~default:"unknown"
      (List.find_map model (String.split_on_char '\n' text))

let host_json () =
  Printf.sprintf
    "{ \"cpus\": %d, \"cpu_model\": %S, \"ocaml\": \"%s\", \
     \"build_profile\": \"%s\" }"
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version Build_profile.name

let run_engine_harness () =
  print_endline "=== Engine wall-clock harness ===";
  let events_per_sec = event_loop_throughput () in
  Printf.printf "event loop: %.3e events/sec\n%!" events_per_sec;
  let default_cells =
    [
      fault_burst_cell ~name:"default/clock" ~policy:Policy.Registry.Clock
        ~pages:16_384 ~passes:4 ~ratio:0.5 ~full_scale:false ();
      fault_burst_cell ~name:"default/mglru"
        ~policy:Policy.Registry.Mglru_default ~pages:16_384 ~passes:4
        ~ratio:0.5 ~full_scale:false ();
      (* Same burst under a three-class transient schedule: the cost of
         the chaos layer itself plus the work its injections cause. *)
      fault_burst_cell ~name:"default/chaos"
        ~chaos:
          (match
             Repro_core.Chaos.parse_spec
               "hotplug:at=50ms,shrink=30%,restore=150ms;\
                degrade:at=200ms,for=100ms,latency=4x;burst:at=350ms,for=50ms"
           with
          | Ok s -> s
          | Error e -> failwith e)
        ~policy:Policy.Registry.Mglru_default ~pages:16_384 ~passes:4
        ~ratio:0.5 ~full_scale:false ();
    ]
  in
  List.iter print_cell default_cells;
  let full_scale =
    match Sys.getenv_opt "BENCH_SKIP_FULL_SCALE" with
    | Some _ ->
      print_endline "(skipping full-scale cell: BENCH_SKIP_FULL_SCALE)";
      None
    | None ->
      let c =
        fault_burst_cell ~name:"full-scale/clock" ~policy:Policy.Registry.Clock
          ~pages:3_276_800 ~passes:2 ~ratio:0.5 ~full_scale:true ()
      in
      print_cell c;
      Some c
  in
  (* Headline numbers: worst allocs/fault across the default cells (so a
     regression in any builtin moves the trajectory), sim-speed from the
     clock cell.  The chaos cell is reported but kept out of the
     headline so the trajectory stays comparable with earlier PRs. *)
  let allocs_per_fault =
    List.fold_left
      (fun acc c ->
        if c.ec_name = "default/chaos" then acc
        else max acc c.ec_allocs_per_fault)
      0. default_cells
  in
  let headline = List.hd default_cells in
  let oc = open_out "BENCH_engine.json" in
  output_string oc "{\n";
  output_string oc "  \"benchmark\": \"engine\",\n";
  output_string oc
    "  \"units\": { \"events_per_sec\": \"raw event-loop pops/sec\", \
     \"sim_ns_per_wall_ms\": \"simulated ns per wall-clock ms\", \
     \"allocs_per_fault\": \"minor words per fault\" },\n";
  Printf.fprintf oc "  \"host\": %s,\n" (host_json ());
  Printf.fprintf oc "  \"events_per_sec\": %.0f,\n" events_per_sec;
  Printf.fprintf oc "  \"sim_ns_per_wall_ms\": %.1f,\n"
    (sim_ns_per_wall_ms headline);
  Printf.fprintf oc "  \"allocs_per_fault\": %.2f,\n" allocs_per_fault;
  output_string oc "  \"cells\": [\n";
  List.iteri
    (fun k c ->
      Printf.fprintf oc "    %s%s\n" (cell_json c)
        (if k = List.length default_cells - 1 then "" else ","))
    default_cells;
  output_string oc "  ],\n";
  (match full_scale with
  | Some c -> Printf.fprintf oc "  \"full_scale\": %s\n" (cell_json c)
  | None -> output_string oc "  \"full_scale\": null\n");
  output_string oc "}\n";
  close_out oc;
  print_endline "(wrote BENCH_engine.json)"

(* ------------------------------------------------------------------ *)

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let tests =
    Test.make_grouped ~name:"pagerepl"
      ([ bench_zipf; bench_bloom; bench_dlist; bench_event_queue; bench_pte; bench_rng ]
      @ figure_micro_tests)
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  print_endline "=== Bechamel microbenchmarks (ns/run, OLS) ===";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> Printf.sprintf "%12.1f" t
        | Some [] | None -> "           ?"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-40s %s ns/run\n" name est)
    (List.sort compare !rows)

let () =
  (* `bench/main.exe engine` runs only the engine harness (CI's bench
     smoke step); no argument runs everything. *)
  if Array.exists (fun a -> a = "engine") Sys.argv then run_engine_harness ()
  else begin
  (match Sys.getenv_opt "REPRO_SKIP_MICRO" with
  | Some _ -> print_endline "(skipping bechamel microbenchmarks)"
  | None ->
    run_benchmarks ();
    print_newline ();
    run_sdk_benchmarks ());
  print_newline ();
  run_engine_harness ();
  print_newline ();
  print_endline "=== Full figure reproduction ===";
  let profile = Repro_core.Runner.profile_from_env () in
  (* Figure timings default to the serial path so numbers stay
     comparable across machines; REPRO_JOBS opts into the pool. *)
  let jobs =
    match Sys.getenv_opt "REPRO_JOBS" with
    | Some s -> (match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
    | None -> 1
  in
  let ctx = Repro_core.Runner.make_ctx ~profile ~jobs () in
  Printf.printf "profile: trials=%d ycsb_trials=%d fast=%b jobs=%d\n"
    profile.Repro_core.Runner.trials profile.Repro_core.Runner.ycsb_trials
    profile.Repro_core.Runner.fast jobs;
  let t0 = Unix.gettimeofday () in
  Repro_core.Figures.run_all ctx;
  Printf.printf "\n(total figure time: %.1fs)\n" (Unix.gettimeofday () -. t0)
  end
