module D = Swapdev.Device
module F = Swapdev.Faulty_device
module M = Repro_core.Machine
module C = Repro_core.Chaos

let inner () =
  let config = { Swapdev.Zram.default_config with Swapdev.Zram.jitter = 0.0 } in
  Swapdev.Zram.create ~config ~rng:(Engine.Rng.create 3) ()

let wrap ?(seed = 42) plan =
  F.wrap ~plan ~rng:(Engine.Rng.create seed) (inner ())

(* A device refills one completion record per submit: keep a copy of
   each outcome. *)
let drive dev n =
  List.init n (fun i ->
      let op = if i mod 3 = 0 then D.Write else D.Read in
      let c = dev.D.submit ~now:(i * 50_000) ~op ~size_fraction:0.5 in
      { D.finish_ns = c.D.finish_ns; cpu_ns = c.D.cpu_ns; status = c.D.status })

(* Completion time and status (0 done, 1 transient, 2 permanent). *)
let outcomes dev n =
  List.map
    (fun c ->
      ( c.D.finish_ns,
        match c.D.status with
        | D.Done -> 0
        | D.Failed D.Transient -> 1
        | D.Failed D.Permanent -> 2 ))
    (drive dev n)

(* ------------------------------------------------------------------ *)
(* Device-level: the plan                                              *)
(* ------------------------------------------------------------------ *)

let test_none_injects_nothing () =
  Alcotest.(check bool) "none is none" true (F.is_none F.none);
  Alcotest.(check bool) "light is not" false (F.is_none F.light);
  Alcotest.(check bool) "heavy is not" false (F.is_none F.heavy);
  let dev, inj = wrap F.none in
  let plain = inner () in
  List.iter2
    (fun c p ->
      Alcotest.(check bool) "status ok" true (D.ok c);
      Alcotest.(check int) "timing untouched" p.D.finish_ns c.D.finish_ns)
    (drive dev 200) (drive plain 200);
  Alcotest.(check int) "no injections" 0 (F.injected (F.counters inj))

let test_deterministic_replay () =
  let once () =
    let dev, inj = wrap F.heavy in
    let completions = outcomes dev 500 in
    (completions, F.injected (F.counters inj))
  in
  let r1, n1 = once () in
  let r2, n2 = once () in
  Alcotest.(check bool) "same completions" true (r1 = r2);
  Alcotest.(check int) "same injection count" n1 n2;
  Alcotest.(check bool) "something was injected" true (n1 > 0)

let test_burst_window () =
  let plan =
    { F.none with F.burst_every_ops = 10; burst_len_ops = 3; burst_permanent = true }
  in
  let dev, inj = wrap plan in
  let statuses = List.map (fun c -> c.D.status) (drive dev 40) in
  List.iteri
    (fun i status ->
      let expect_fail = i mod 10 < 3 in
      Alcotest.(check bool)
        (Printf.sprintf "op %d %s" i (if expect_fail then "fails" else "succeeds"))
        expect_fail
        (status = D.Failed D.Permanent))
    statuses;
  Alcotest.(check int) "permanent counter" 12 (F.counters inj).F.permanent_errors;
  Alcotest.(check int) "no transient" 0 (F.counters inj).F.transient_errors

let test_stall_cadence () =
  let plan = { F.none with F.stall_every_ops = 8; stall_ns = 1_000_000 } in
  let dev, inj = wrap plan in
  let faulty = drive dev 32 in
  let plain = drive (inner ()) 32 in
  List.iteri
    (fun i (f, p) ->
      let expect = if i mod 8 = 7 then 1_000_000 else 0 in
      Alcotest.(check int)
        (Printf.sprintf "op %d stall" i)
        expect
        (f.D.finish_ns - p.D.finish_ns))
    (List.combine faulty plain);
  Alcotest.(check int) "stalls counted" 4 (F.counters inj).F.stalls

let test_tail_spike_scales_latency () =
  let plan = { F.none with F.tail_prob = 1.0; tail_multiplier = 10.0 } in
  let dev, inj = wrap plan in
  let c = dev.D.submit ~now:1_000 ~op:D.Read ~size_fraction:0.5 in
  let p = (inner ()).D.submit ~now:1_000 ~op:D.Read ~size_fraction:0.5 in
  Alcotest.(check int) "observed latency x10"
    ((p.D.finish_ns - 1_000) * 10)
    (c.D.finish_ns - 1_000);
  Alcotest.(check int) "spike counted" 1 (F.counters inj).F.tail_spikes

let test_latency_stretches_service () =
  let dev, inj = wrap F.none in
  F.degrade inj ~latency:3.0 ();
  let c = dev.D.submit ~now:1_000 ~op:D.Read ~size_fraction:0.5 in
  let p = (inner ()).D.submit ~now:1_000 ~op:D.Read ~size_fraction:0.5 in
  Alcotest.(check int) "service time x3"
    ((p.D.finish_ns - 1_000) * 3)
    (c.D.finish_ns - 1_000);
  Alcotest.(check int) "a stretch is not an injection" 0
    (F.injected (F.counters inj))

let test_probabilistic_rates () =
  let dev, inj =
    wrap { F.none with F.read_error_prob = 0.2; write_error_prob = 0.2 }
  in
  ignore (drive dev 2000);
  let c = F.counters inj in
  let errors = c.F.transient_errors + c.F.permanent_errors in
  Alcotest.(check bool)
    (Printf.sprintf "error rate near 20%% (got %d/2000)" errors)
    true
    (errors > 300 && errors < 500);
  (* permanent = 0 -> every error is transient *)
  Alcotest.(check int) "all transient" 0 c.F.permanent_errors

let test_permanent_split () =
  (* A fraction p of ops fail, a fraction f of those permanently,
     although the transient draw is conditional on the wear draw
     missing: P(permanent) = p·f and P(transient) = p·(1-f). *)
  let n = 20_000 in
  let dev, inj =
    wrap
      { F.none with
        F.read_error_prob = 0.2; write_error_prob = 0.2; permanent_fraction = 0.25 }
  in
  ignore (drive dev n);
  let c = F.counters inj in
  let near what got want =
    Alcotest.(check bool)
      (Printf.sprintf "%s near %d (got %d)" what want got)
      true
      (abs (got - want) < want / 10)
  in
  near "permanent" c.F.permanent_errors (n / 20);
  near "transient" c.F.transient_errors (n * 3 / 20)

let test_failed_ops_occupy_channel () =
  (* Errors happen after the op ran: device counters and queueing state
     advance exactly as on the clean device. *)
  let dev, _ = wrap { F.none with F.burst_every_ops = 1; burst_len_ops = 1 } in
  ignore (drive dev 10);
  let plain = inner () in
  ignore (drive plain 10);
  Alcotest.(check int) "reads counted" (plain.D.reads ()) (dev.D.reads ());
  Alcotest.(check int) "writes counted" (plain.D.writes ()) (dev.D.writes ());
  Alcotest.(check int) "busy horizon equal" (plain.D.busy_until ()) (dev.D.busy_until ())

let test_rewrites_inner_record () =
  (* Injection edits the inner device's completion record in place. *)
  let plain = inner () in
  let dev, _ =
    F.wrap
      ~plan:{ F.none with F.burst_every_ops = 2; burst_len_ops = 1 }
      ~rng:(Engine.Rng.create 1) plain
  in
  let c = dev.D.submit ~now:0 ~op:D.Read ~size_fraction:0.5 in
  Alcotest.(check bool) "burst op failed" true (c.D.status = D.Failed D.Transient);
  let c' = dev.D.submit ~now:0 ~op:D.Read ~size_fraction:0.5 in
  Alcotest.(check bool) "one record" true (c == c');
  Alcotest.(check bool) "the next op succeeded" true (D.ok c);
  Alcotest.(check bool) "the inner device's record" true
    (c == plain.D.submit ~now:0 ~op:D.Read ~size_fraction:0.5)

let test_plan_of_name () =
  Alcotest.(check bool) "none" true (F.plan_of_name "none" = Some F.none);
  Alcotest.(check bool) "light" true (F.plan_of_name "light" = Some F.light);
  Alcotest.(check bool) "heavy" true (F.plan_of_name "heavy" = Some F.heavy);
  Alcotest.(check bool) "unknown" true (F.plan_of_name "broken" = None)

(* ------------------------------------------------------------------ *)
(* Device-level: the knob block                                        *)
(* ------------------------------------------------------------------ *)

let test_degrade_window_over_plan () =
  let heavy_ops () = outcomes (fst (wrap F.heavy)) 600 in
  (* The window changes what the heavy plan does... *)
  let dev, inj = wrap F.heavy in
  F.degrade inj ~latency:4.0 ~errors:0.5 ();
  Alcotest.(check bool) "the window turns knobs" false
    (outcomes dev 600 = heavy_ops ());
  (* ...and closing it hands every knob back to the plan. *)
  let dev, inj = wrap F.heavy in
  F.degrade inj ~latency:4.0 ~errors:0.5 ~wear:0.0 ();
  F.restore inj;
  Alcotest.(check bool) "closing restores the plan's knobs" true
    (outcomes dev 600 = heavy_ops ())

let test_degrade_names_knobs () =
  (* Every op fails transiently under this plan; only named knobs
     move, and a named 0 switches the plan's errors off. *)
  let dev, inj =
    wrap { F.none with F.read_error_prob = 1.0; write_error_prob = 1.0 }
  in
  let statuses () = List.sort_uniq compare (List.map snd (outcomes dev 30)) in
  Alcotest.(check (list int)) "plan: all transient" [ 1 ] (statuses ());
  F.degrade inj ~wear:1.0 ();
  Alcotest.(check (list int)) "wear named: all permanent" [ 2 ] (statuses ());
  F.degrade inj ~wear:0.0 ~latency:2.0 ();
  Alcotest.(check (list int)) "errors unnamed: still transient" [ 1 ] (statuses ());
  F.degrade inj ~errors:0.0 ();
  Alcotest.(check (list int)) "errors=0 named: all succeed" [ 0 ] (statuses ());
  F.restore inj;
  Alcotest.(check (list int)) "restored: all transient" [ 1 ] (statuses ())

let test_degrade_window_counts () =
  let dev, inj = wrap F.none in
  ignore (drive dev 100);
  Alcotest.(check int) "quiet before the window" 0 (F.injected (F.counters inj));
  F.degrade inj ~errors:0.3 ~wear:0.1 ();
  ignore (drive dev 1000);
  let c = F.counters inj in
  Alcotest.(check bool) "transients counted" true (c.F.transient_errors > 0);
  Alcotest.(check bool) "wear counted" true (c.F.permanent_errors > 0);
  F.restore inj;
  let before = F.injected c in
  List.iter
    (fun c -> Alcotest.(check bool) "quiet after the window" true (D.ok c))
    (drive dev 100);
  Alcotest.(check int) "nothing more injected" before (F.injected c)

(* ------------------------------------------------------------------ *)
(* Machine-level                                                       *)
(* ------------------------------------------------------------------ *)

let mk_trace_workload () =
  let lists =
    List.init 4 (fun t ->
        Array.init 512 (fun i -> ((i * (t + 3)) + (t * 61)) mod 256))
  in
  Workload.Trace.of_page_lists ~footprint:256 lists

let run_machine ?(plan = F.none) chaos =
  let chaos =
    Option.map
      (fun s -> match C.parse_spec s with Ok s -> s | Error e -> failwith e)
      chaos
  in
  M.run
    {
      (M.default_config ~capacity_frames:64 ~seed:11) with
      M.kthread_jitter_ns = 0;
      fault_plan = plan;
      chaos;
    }
    ~policy:(Policy.Registry.create Policy.Registry.Mglru_default)
    ~workload:(Workload.Chunk.Packed ((module Workload.Trace), mk_trace_workload ()))

let degrade_spec = "degrade:at=2s,for=4s,latency=3x,errors=0.3,wear=0.05"

(* Every simulated quantity except the injector's own counters, which
   chaos-only runs did not report before the injectors were merged. *)
let digest (r : M.result) =
  let b = Buffer.create 4096 in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let floats a =
    int (Array.length a);
    Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a
  in
  List.iter int
    [ r.M.runtime_ns; r.M.major_faults; r.M.minor_faults; r.M.swap_ins;
      r.M.swap_outs; r.M.direct_reclaims; r.M.direct_reclaim_ns;
      r.M.cpu_busy_ns; r.M.resident_at_end; r.M.io_retries; r.M.io_remaps;
      r.M.poisoned_reads; r.M.writeback_failures; r.M.oom_kills;
      r.M.oom_discarded_pages; r.M.invariant_violations ];
  floats r.M.read_latencies;
  floats r.M.write_latencies;
  Array.iter int r.M.per_thread_finish;
  List.iter (fun (k, v) -> Buffer.add_string b k; int v) r.M.policy_stats;
  Option.iter (fun s -> Buffer.add_string b (C.summary_to_string s)) r.M.chaos;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Both digests were pinned before the two injectors were merged. *)
let test_machine_none_unwrapped () =
  (* The none plan installs no injector: nothing is counted and no
     random draw moves. *)
  let r = run_machine None in
  Alcotest.(check int) "nothing injected" 0
    (r.M.injected_transient + r.M.injected_permanent + r.M.injected_stalls
    + r.M.injected_tail_spikes);
  Alcotest.(check string) "fault-free digest"
    "50469960fcc96bf67f80bd87c22bff15" (digest r)

let test_machine_degrade_draws_unchanged () =
  (* A chaos-only degrade run draws the same numbers in the same order,
     and only its counters are new. *)
  Alcotest.(check string) "chaos-only degrade digest"
    "cd8c57a11645cbbb0a70493919c3565a"
    (digest (run_machine (Some degrade_spec)))

let test_machine_degrade_counted () =
  let r = run_machine (Some degrade_spec) in
  Alcotest.(check bool) "window transients counted" true
    (r.M.injected_transient > 0);
  Alcotest.(check bool) "window wear counted" true (r.M.injected_permanent > 0);
  Alcotest.(check bool) "and retried" true (r.M.io_retries > 0);
  Alcotest.(check int) "audits clean" 0 r.M.invariant_violations

let test_machine_window_over_plan () =
  let plan = F.light in
  let r = run_machine ~plan (Some degrade_spec) in
  let plain = run_machine ~plan None in
  Alcotest.(check bool) "the window adds failures" true
    (r.M.injected_transient > plain.M.injected_transient);
  Alcotest.(check int) "audits clean" 0 r.M.invariant_violations

let () =
  Alcotest.run "faulty_device"
    [
      ( "plan",
        [
          Alcotest.test_case "none injects nothing" `Quick test_none_injects_nothing;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "burst window" `Quick test_burst_window;
          Alcotest.test_case "stall cadence" `Quick test_stall_cadence;
          Alcotest.test_case "tail spike" `Quick test_tail_spike_scales_latency;
          Alcotest.test_case "latency stretch" `Quick test_latency_stretches_service;
          Alcotest.test_case "probabilistic rates" `Quick test_probabilistic_rates;
          Alcotest.test_case "permanent split" `Quick test_permanent_split;
          Alcotest.test_case "failed ops occupy channel" `Quick
            test_failed_ops_occupy_channel;
          Alcotest.test_case "rewrites the inner record" `Quick
            test_rewrites_inner_record;
          Alcotest.test_case "plan names" `Quick test_plan_of_name;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "window over a plan restores it" `Quick
            test_degrade_window_over_plan;
          Alcotest.test_case "window turns only named knobs" `Quick
            test_degrade_names_knobs;
          Alcotest.test_case "window failures counted" `Quick
            test_degrade_window_counts;
        ] );
      ( "machine",
        [
          Alcotest.test_case "none installs no injector" `Quick
            test_machine_none_unwrapped;
          Alcotest.test_case "degrade failures counted" `Quick
            test_machine_degrade_counted;
          Alcotest.test_case "chaos-only draws unchanged" `Quick
            test_machine_degrade_draws_unchanged;
          Alcotest.test_case "window over light" `Quick
            test_machine_window_over_plan;
        ] );
    ]
