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

(* The flattened builtins measure ~15 words/fault on this burst (nearly
   all of it amortized machine/workload setup and the swap round trip's
   boxed floats — the scan loops, the random draws, the segment
   continuations and the device completions are allocation-free); the
   MG-LRU variants measure ~16, their refault records being one int per
   page (a hash table of (seq, tier) tuples made them ~37); random
   samples candidate sets (~33).  The SDK guests (s3-fifo, sieve,
   perceptron) funnel through the Guest_host trampoline whose V1 hook
   API returns eviction batches as lists by design, so they get a
   wider — but still bounded — budget (~1190 measured).  Every ceiling
   is ~3x the measured native number or more: ceilings tighten as
   figures fall, never loosen. *)
let budgets =
  [
    (Policy.Registry.Clock, 66.);
    (Policy.Registry.Fifo, 66.);
    (Policy.Registry.Lru_exact, 66.);
    (Policy.Registry.Random, 120.);
    (Policy.Registry.Mglru_default, 66.);
    (Policy.Registry.Gen14, 66.);
    (Policy.Registry.Scan_all, 66.);
    (Policy.Registry.Scan_none, 66.);
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

(* Allocation budgets for the random draws behind every request: minor
   words per call over [draws] calls.  The generator state is unboxed,
   so a draw allocates only its result: nothing for an [int] or a
   [bool], one boxed float (2 words) for a float, one boxed Int64
   (3 words) for [bits64], since the test profile compiles modules
   opaquely and a cross-module call cannot be inlined.  [Zipf.sample]
   returns an int but boxes the float of the [Rng.float] behind each
   attempt, and fewer than 1 % of samples retry.  A closure or a boxed
   state word on the draw path shows up here as 5+ words per call. *)
let draws = 100_000

let words_per_call f =
  let mw0 = Gc.minor_words () in
  for _ = 1 to draws do
    f ()
  done;
  let mw1 = Gc.minor_words () in
  (mw1 -. mw0) /. float_of_int draws

let sink = ref 0

let draw_budgets =
  let module R = Engine.Rng in
  let r = R.create 7 in
  let z = Workload.Zipf.create ~n:100_000 ~exponent:0.99 in
  let keep x = sink := !sink lxor x in
  let keep_float x = if x < 0.5 then incr sink in
  [
    ("Rng.int", 0., fun () -> keep (R.int r 1000));
    ("Rng.int_in", 0., fun () -> keep (R.int_in r ~lo:(-5) ~hi:5));
    ("Rng.bool", 0., fun () -> if R.bool r 0.3 then incr sink);
    ("Rng.bits64", 3., fun () -> keep (Int64.to_int (R.bits64 r)));
    ("Rng.float", 2., fun () -> keep_float (R.float r 1.0));
    ("Rng.jitter", 2., fun () -> keep_float (R.jitter r 0.02));
    ("Rng.exponential", 2., fun () -> keep_float (R.exponential r ~mean:1.0));
    ("Rng.gaussian", 2., fun () -> keep_float (R.gaussian r ~mu:0.0 ~sigma:1.0));
    ("Zipf.sample", 2.01, fun () -> keep (Workload.Zipf.sample z r));
  ]

let check_draw (name, ceiling, f) () =
  f ();
  let words = words_per_call f in
  if Sys.getenv_opt "PERF_BUDGET_VERBOSE" <> None then
    Printf.eprintf "%-16s %6.3f words/call (budget %g)\n%!" name words ceiling;
  if words > ceiling then
    Alcotest.failf "%s allocates %.3f words/call (budget %g)" name words ceiling

(* Allocation budget for one YCSB request in the run phase: what
   [Ycsb.next] builds per request is the [Chunk] value it returns (the
   two-page array, the [Pages] box, the record and the [Chunk] step,
   13 words), plus in the test profile the three [Some]s of
   [Chunk.chunk]'s optional arguments and the zipfian draw's boxed
   float.  21 words measured (13 in a release build); the ceiling is
   ~3x that. *)
let request_budget = 60.

let check_ycsb_request () =
  let module Y = Workload.Ycsb in
  let module C = Workload.Chunk in
  let config =
    { Y.default_config with Y.items = 20_000; requests = 4 * draws; threads = 4 }
  in
  let w = Y.create ~config ~variant:Y.A ~rng:(Engine.Rng.create 5) () in
  (* Run thread 0 through its load phase and barrier. *)
  let rec to_run_phase () =
    match Y.next w ~tid:0 with
    | C.Barrier -> ()
    | C.Chunk _ -> to_run_phase ()
    | C.Finished -> Alcotest.fail "thread finished during load"
  in
  to_run_phase ();
  let requests = ref 0 in
  let mw0 = Gc.minor_words () in
  let rec go () =
    match Y.next w ~tid:0 with
    | C.Chunk _ ->
      incr requests;
      go ()
    | C.Barrier | C.Finished -> ()
  in
  go ();
  let mw1 = Gc.minor_words () in
  Alcotest.(check int) "requests drawn" draws !requests;
  let words = (mw1 -. mw0) /. float_of_int !requests in
  if Sys.getenv_opt "PERF_BUDGET_VERBOSE" <> None then
    Printf.eprintf "Ycsb.next        %6.2f words/request (budget %g)\n%!" words
      request_budget;
  if words >= request_budget then
    Alcotest.failf "Ycsb.next allocates %.2f words/request (budget %g)" words
      request_budget

(* Allocation budget for the swap round trip on a ZRAM device: minor
   words per [swap_out_slot], [swap_in_slot] and [release].  The slot
   stack, the compressed-size sum and the device's completion record
   are all updated in place, so what remains is the boxed floats that
   cross module boundaries in the test profile: the page's size
   fraction and the device's service-time jitter.  A per-operation
   result record, list cell or boxed sum shows up here as 3+ words. *)
let swap_batch = 1024
let swap_rounds = 100

let swap_op_words () =
  let module SM = Swapdev.Swap_manager in
  let dev = Swapdev.Zram.create ~rng:(Engine.Rng.create 3) () in
  let m = SM.create ~device:dev ~seed:9 () in
  let slots = Array.make swap_batch 0 in
  let out_w = ref 0. and in_w = ref 0. and rel_w = ref 0. in
  let now = ref 0 in
  (* Round 0 warms up: the slot arrays reach their final size. *)
  for round = 0 to swap_rounds do
    let mw0 = Gc.minor_words () in
    for i = 0 to swap_batch - 1 do
      slots.(i) <-
        SM.swap_out_slot m ~now:!now ~klass:Swapdev.Compress.Numeric ~page_key:i;
      now := SM.last_finish_ns m
    done;
    let mw1 = Gc.minor_words () in
    for i = 0 to swap_batch - 1 do
      SM.swap_in_slot m ~now:!now ~slot:slots.(i);
      now := SM.last_finish_ns m
    done;
    let mw2 = Gc.minor_words () in
    for i = 0 to swap_batch - 1 do
      SM.release m ~slot:slots.(i)
    done;
    let mw3 = Gc.minor_words () in
    if round > 0 then begin
      out_w := !out_w +. (mw1 -. mw0);
      in_w := !in_w +. (mw2 -. mw1);
      rel_w := !rel_w +. (mw3 -. mw2)
    end
  done;
  Alcotest.(check int) "every write landed" ((swap_rounds + 1) * swap_batch)
    (SM.swap_outs m);
  let per w = w /. float_of_int (swap_rounds * swap_batch) in
  [ ("swap_out_slot", per !out_w); ("swap_in_slot", per !in_w); ("release", per !rel_w) ]

let swap_op_budgets = [ ("swap_out_slot", 6.); ("swap_in_slot", 4.); ("release", 0.) ]

let check_swap_ops () =
  let measured = swap_op_words () in
  List.iter
    (fun (name, ceiling) ->
      let words = List.assoc name measured in
      if Sys.getenv_opt "PERF_BUDGET_VERBOSE" <> None then
        Printf.eprintf "%-16s %6.3f words/op (budget %g)\n%!" name words ceiling;
      if words > ceiling then
        Alcotest.failf "%s allocates %.3f words/op (budget %g)" name words ceiling)
    swap_op_budgets

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
      ( "allocs-per-draw",
        List.map
          (fun ((name, _, _) as b) -> Alcotest.test_case name `Quick (check_draw b))
          draw_budgets );
      ( "allocs-per-request",
        [ Alcotest.test_case "Ycsb.next" `Quick check_ycsb_request ] );
      ( "allocs-per-swap-op",
        [ Alcotest.test_case "zram round trip" `Quick check_swap_ops ] );
    ]
