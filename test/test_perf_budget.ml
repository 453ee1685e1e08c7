(* Allocation budget for the fault/reclaim hot path (tier-1).

   Runs a dense, deterministic fault burst under each builtin policy
   and asserts minor-heap words allocated per fault stay under a stated
   ceiling.  The engine's hot path (Machine.handle_fault, Swap_manager,
   Event_queue, the flattened policy scan loops) is written to allocate
   nothing per fault in steady state; what remains is workload chunk
   generation and per-trial setup, amortized across the burst.  The
   ceilings carry ~3x headroom over measured native-code numbers so the
   test is a regression tripwire, not a vice — if it fires, something
   reintroduced per-fault allocation (a closure, an option, a list) on
   the hot path.

   Budgets are per (major + minor) fault, measured via Gc.minor_words
   around Machine.run, exactly like bench/main.ml's engine harness. *)

let burst_pages = 4096
let burst_passes = 3

let words_per_fault policy =
  let w =
    Workload.Trace.of_page_lists ~footprint:burst_pages
      (List.init burst_passes (fun _ -> Array.init burst_pages (fun i -> i)))
  in
  let cfg =
    {
      (Repro_core.Machine.default_config ~capacity_frames:(burst_pages / 2)
         ~seed:42)
      with
      Repro_core.Machine.kthread_jitter_ns = 0;
    }
  in
  let mw0 = Gc.minor_words () in
  let r =
    Repro_core.Machine.run cfg
      ~policy:(Policy.Registry.create policy)
      ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w))
  in
  let mw1 = Gc.minor_words () in
  let faults =
    max 1 (r.Repro_core.Machine.major_faults + r.Repro_core.Machine.minor_faults)
  in
  (* Sanity: the burst must actually thrash (readahead converts most
     re-faults into minor faults, so the floor is on the total). *)
  Alcotest.(check bool)
    "burst produced major faults" true
    (r.Repro_core.Machine.major_faults > 0 && faults > burst_pages);
  if Sys.getenv_opt "PERF_BUDGET_VERBOSE" <> None then
    Printf.eprintf "%-12s major %6d minor %6d\n%!"
      (Policy.Registry.name policy)
      r.Repro_core.Machine.major_faults r.Repro_core.Machine.minor_faults;
  (mw1 -. mw0) /. float_of_int faults

let check_budget (spec, ceiling) () =
  let words = words_per_fault spec in
  if Sys.getenv_opt "PERF_BUDGET_VERBOSE" <> None then
    Printf.eprintf "%-12s %8.2f words/fault (budget %.0f)\n%!"
      (Policy.Registry.name spec) words ceiling;
  if words >= ceiling then
    Alcotest.failf "%s allocates %.1f words/fault (budget %.0f)"
      (Policy.Registry.name spec) words ceiling

(* The flattened builtins measure ~60 words/fault on this burst (nearly
   all of it amortized machine/workload setup — the scan loops proper
   are allocation-free); the MG-LRU variants add the aging walk (~75);
   random samples candidate sets (~105).  The SDK guests (s3-fifo,
   sieve, perceptron) funnel through the Guest_host trampoline whose V1
   hook API returns eviction batches as lists by design, so they get a
   wider — but still bounded — budget (~1220 measured).  Every ceiling
   is ~3x the measured native number. *)
let budgets =
  [
    (Policy.Registry.Clock, 180.);
    (Policy.Registry.Fifo, 180.);
    (Policy.Registry.Lru_exact, 180.);
    (Policy.Registry.Random, 320.);
    (Policy.Registry.Mglru_default, 220.);
    (Policy.Registry.Gen14, 220.);
    (Policy.Registry.Scan_all, 220.);
    (Policy.Registry.Scan_none, 220.);
    (Policy.Registry.S3_fifo, 3600.);
    (Policy.Registry.Sieve, 3600.);
    (Policy.Registry.Perceptron, 3600.);
  ]

(* Allocation budget for the trace writer: minor words per event that
   Runner.write_trace streams out, over one small traced cell (TPC-H
   under MG-LRU, --fast, one trial).  Lines go through one reused
   buffer with nothing built per line, so what remains is per-capture
   and per-file setup (~0.004 words/event measured, ~88 k events); the
   ceiling is ~3x that. *)
let trace_writer_budget = 0.012

let check_trace_writer () =
  let module R = Repro_core.Runner in
  let ctx =
    R.make_ctx
      ~profile:{ R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 }
      ~obs:{ Obs.trace = true; sample_every_ns = 0 }
      ()
  in
  R.prefetch ctx
    [
      {
        R.workload = R.Tpch;
        policy = Policy.Registry.Mglru_default;
        ratio = 0.5;
        swap = R.Ssd;
        trial = 0;
      };
    ];
  let path = Filename.temp_file "perf_budget" ".jsonl" in
  let mw0 = Gc.minor_words () in
  let events = R.write_trace ctx ~path in
  let mw1 = Gc.minor_words () in
  Sys.remove path;
  Alcotest.(check bool) "events written" true (events > 10_000);
  let words = (mw1 -. mw0) /. float_of_int events in
  if Sys.getenv_opt "PERF_BUDGET_VERBOSE" <> None then
    Printf.eprintf "write_trace  %8.4f words/event over %d events (budget %g)\n%!"
      words events trace_writer_budget;
  if words >= trace_writer_budget then
    Alcotest.failf "write_trace allocates %.4f words/event (budget %g)" words
      trace_writer_budget

let () =
  Alcotest.run "perf_budget"
    [
      ( "allocs-per-fault",
        List.map
          (fun (spec, ceiling) ->
            Alcotest.test_case (Policy.Registry.name spec) `Quick
              (check_budget (spec, ceiling)))
          budgets );
      ( "allocs-per-trace-event",
        [ Alcotest.test_case "write_trace" `Quick check_trace_writer ] );
    ]
