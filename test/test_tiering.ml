module M = Repro_core.Machine
module TR = Tiering.Tier_registry
module C = Workload.Chunk

let trace_workload ?(footprint = 128) lists =
  C.Packed
    ((module Workload.Trace), Workload.Trace.of_page_lists ~footprint lists)

let config ?(fast = 32) ?(slow = 128) policy =
  {
    (M.default_config ~capacity_frames:(fast + slow) ~seed:11) with
    M.kthread_jitter_ns = 0;
    tiering = Some (M.tiering ~fast_frames:fast (TR.create policy));
  }

let run_cfg cfg workload =
  M.run cfg ~policy:(Policy.Registry.create Policy.Registry.Clock) ~workload

let run ?fast ?slow ~policy lists =
  run_cfg (config ?fast ?slow policy) (trace_workload lists)

let tier r =
  match r.M.tier with
  | Some t -> t
  | None -> Alcotest.fail "tiered run without tier counters"

let seq n = Array.init n (fun i -> i)

let test_static_placement () =
  (* 48 pages, 32 fast frames: first 32 land fast, the rest slow. *)
  let r = run ~policy:TR.Static [ seq 48; seq 48 ] in
  let t = tier r in
  Alcotest.(check int) "cold touches" 48 r.M.minor_faults;
  Alcotest.(check int) "fast resident" 32 t.M.fast_resident;
  Alcotest.(check int) "slow resident" 16 t.M.slow_resident;
  Alcotest.(check int) "no migrations" 0 (t.M.promotions + t.M.demotions);
  (* Second pass: 32 fast + 16 slow touches. *)
  Alcotest.(check int) "fast touches" 32 t.M.fast_touches;
  Alcotest.(check int) "slow touches" 16 t.M.slow_touches;
  Alcotest.(check string) "migration policy" "static" t.M.migration_name

let test_slow_touches_cost_more () =
  let all_fast = run ~fast:128 ~slow:64 ~policy:TR.Static [ seq 48; seq 48 ] in
  let half_slow = run ~fast:24 ~slow:128 ~policy:TR.Static [ seq 48; seq 48 ] in
  Alcotest.(check bool) "slow placement slower" true
    (half_slow.M.runtime_ns > all_fast.M.runtime_ns)

let test_capacity_check () =
  Alcotest.check_raises "fast pool must leave a slow pool"
    (Invalid_argument "Machine.run: tiering fast_frames")
    (fun () ->
      ignore
        (run_cfg (config ~fast:8 ~slow:0 TR.Static)
           (trace_workload ~footprint:128 [ seq 16 ])))

let test_untiered_has_no_tier () =
  let r =
    run_cfg
      { (config TR.Static) with M.tiering = None }
      (trace_workload [ seq 48; seq 48 ])
  in
  Alcotest.(check bool) "no tier counters" true (r.M.tier = None)

(* Tiers smaller than the footprint are one chain: the replacement
   policy swaps pages out of either pool and refaults land wherever the
   migration policy places them. *)
let test_tiers_swap () =
  let r =
    run_cfg
      { (config ~fast:8 ~slow:24 TR.Tpp) with M.audit_every_ns = 1_000_000 }
      (trace_workload ~footprint:128 [ seq 64; seq 64; seq 64 ])
  in
  let t = tier r in
  Alcotest.(check bool) "swapped out" true (r.M.swap_outs > 0);
  Alcotest.(check bool) "refaulted" true (r.M.major_faults > 0);
  Alcotest.(check bool) "fast within capacity" true (t.M.fast_resident <= 8);
  Alcotest.(check int) "audits clean" 0 r.M.invariant_violations

(* A skewed workload: 16 hot pages touched constantly, 100 cold pages
   touched once after placement fills the fast tier with cold pages. *)
let skew_steps =
  (* Cold pages 16..115 first (fill fast with junk), then hot 0..15
     hammered repeatedly. *)
  Array.init 100 (fun i -> 16 + i)
  :: List.concat_map
       (fun _ -> [ Array.init 16 (fun i -> i) ])
       (List.init 60 (fun i -> i))

let test_tpp_promotes_hot_set () =
  let static_r = run ~fast:32 ~slow:128 ~policy:TR.Static skew_steps in
  let tpp_r = run ~fast:32 ~slow:128 ~policy:TR.Tpp skew_steps in
  let static = tier static_r and tpp = tier tpp_r in
  Alcotest.(check bool) "tpp promoted something" true (tpp.M.promotions > 0);
  Alcotest.(check bool) "tpp demoted to make room" true (tpp.M.demotions > 0);
  Alcotest.(check bool)
    (Printf.sprintf "tpp slow share %.2f < static %.2f" (M.slow_fraction tpp)
       (M.slow_fraction static))
    true
    (M.slow_fraction tpp < M.slow_fraction static);
  Alcotest.(check bool) "tpp faster" true (tpp_r.M.runtime_ns < static_r.M.runtime_ns)

let test_thermostat_migrates () =
  (* Thermostat is epoch-based, so the trial must span several epochs of
     virtual time: attach compute to each hot pass. *)
  (* Hot pages 0-15 get their own page-table region; the cold filler
     lives in regions of its own (Thermostat classifies per region). *)
  let steps =
    [|
      Array.of_list
        (C.Chunk (C.chunk (C.Pages (Array.init 100 (fun i -> 64 + i))))
        :: List.init 120 (fun _ ->
               C.Chunk
                 (C.chunk ~cpu_ns:2_000_000 (C.Pages (Array.init 16 (fun i -> i))))));
    |]
  in
  let w =
    Workload.Trace.create
      {
        Workload.Trace.steps;
        footprint = 192;
        klass = (fun _ -> Swapdev.Compress.Numeric);
        file_backed_pages = (fun _ -> false);
      }
  in
  let r =
    tier
      (run_cfg
         (config ~fast:32 ~slow:192 TR.Thermostat)
         (C.Packed ((module Workload.Trace), w)))
  in
  Alcotest.(check bool) "sampled" true
    (List.assoc "samples_armed" r.M.migration_stats > 0);
  Alcotest.(check bool) "hint faults observed" true (r.M.hint_faults > 0);
  Alcotest.(check bool) "promoted hot regions" true (r.M.promotions > 0)

let test_autonuma_cannot_demote () =
  let r = tier (run ~fast:32 ~slow:128 ~policy:TR.Autonuma skew_steps) in
  Alcotest.(check int) "no demotions ever" 0 r.M.demotions;
  (* Fast tier was filled by cold pages; promotions must fail. *)
  Alcotest.(check int) "no promotions possible" 0 r.M.promotions;
  Alcotest.(check bool) "failed promotions recorded" true (r.M.failed_promotions > 0)

let test_conservation () =
  List.iter
    (fun policy ->
      let r = tier (run ~fast:32 ~slow:128 ~policy skew_steps) in
      Alcotest.(check int)
        (TR.name policy ^ ": residency = footprint")
        116
        (r.M.fast_resident + r.M.slow_resident);
      Alcotest.(check bool)
        (TR.name policy ^ ": fast within capacity")
        true (r.M.fast_resident <= 32))
    TR.all

(* Every migration policy under periodic audits: pool counts, tier bits
   and the reverse map stay consistent through promotions, demotions
   and hint faults. *)
let test_audited () =
  List.iter
    (fun policy ->
      let r =
        run_cfg
          { (config ~fast:32 ~slow:128 policy) with M.audit_every_ns = 1_000_000 }
          (trace_workload skew_steps)
      in
      Alcotest.(check int)
        (TR.name policy ^ ": invariant violations")
        0 r.M.invariant_violations)
    TR.all

(* Hotplug on a tiered machine: offlining takes the slow pool's top
   frames and migrates their pages to lower frames — possibly fast ones,
   whose tier bit the move must rewrite. *)
let test_hotplug_tiered () =
  let chaos =
    match Repro_core.Chaos.parse_spec "hotplug:at=50ms,shrink=40%,restore=200ms" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun policy ->
      let r =
        run_cfg
          { (config ~fast:32 ~slow:128 policy) with M.chaos = Some chaos }
          (trace_workload skew_steps)
      in
      let cs = Option.get r.M.chaos in
      Alcotest.(check bool) (TR.name policy ^ ": offlined") true
        (cs.Repro_core.Chaos.s_offlined > 0);
      Alcotest.(check int)
        (TR.name policy ^ ": invariant violations")
        0 r.M.invariant_violations)
    TR.all

(* The profiler observes a tiered run without perturbing it: hint-fault
   cost is attributed to fault handling and the migration kthread is a
   profiled thread of its own. *)
let test_profiled () =
  let cfg = config ~fast:32 ~slow:128 TR.Tpp in
  let plain = run_cfg cfg (trace_workload skew_steps) in
  let profiled =
    run_cfg
      { cfg with M.prof = { Obs.Prof.enabled = true; spans = false } }
      (trace_workload skew_steps)
  in
  Alcotest.(check bool) "results identical" true
    ({ plain with M.profile = None } = { profiled with M.profile = None });
  let cap = Option.get profiled.M.profile in
  Alcotest.(check bool) "tpp kthread registered" true
    (Array.exists (fun (_, name, _) -> name = "tpp") cap.Obs.Prof.threads);
  let fault_ns =
    Array.fold_left
      (fun acc (_, code, ns) ->
        if List.mem Obs.Prof.Fault_handling (Obs.Prof.path_phases code) then acc + ns
        else acc)
      0 cap.Obs.Prof.totals
  in
  let hint_ns =
    (tier profiled).M.hint_faults * (Option.get cfg.M.tiering).M.hint_fault_ns
  in
  Alcotest.(check bool)
    (Printf.sprintf "fault handling %d ns covers %d ns of hint faults" fault_ns hint_ns)
    true
    (hint_ns > 0 && fault_ns >= hint_ns)

let test_registry () =
  List.iter
    (fun n ->
      match TR.of_name n with
      | Some spec -> Alcotest.(check string) n n (TR.name spec)
      | None -> Alcotest.fail n)
    TR.known_names;
  Alcotest.(check bool) "unknown" true (TR.of_name "nope" = None)

let test_determinism () =
  let a = run ~policy:TR.Tpp skew_steps in
  let b = run ~policy:TR.Tpp skew_steps in
  Alcotest.(check int) "same runtime" a.M.runtime_ns b.M.runtime_ns;
  Alcotest.(check int) "same promotions" (tier a).M.promotions (tier b).M.promotions

(* ---- The study's findings, on the fast profile with one trial ---- *)

let study_ctx =
  Repro_core.Runner.make_ctx
    ~profile:
      { Repro_core.Runner.trials = 1; ycsb_trials = 1; fast = true; scale = 1 }
    ()

let study_run =
  let memo = Hashtbl.create 16 in
  fun workload policy ->
    let key = (Repro_core.Runner.workload_kind_name workload, TR.name policy) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r =
        Repro_core.Tier_study.run_one study_ctx ~workload ~policy ~fast_frac:0.5
          ~trial:0
      in
      Hashtbl.add memo key r;
      r

let study_workloads =
  [ Repro_core.Runner.Tpch; Repro_core.Runner.Pagerank;
    Repro_core.Runner.Ycsb Workload.Ycsb.B ]

let test_finding_autonuma_stalls () =
  List.iter
    (fun workload ->
      let name = Repro_core.Runner.workload_kind_name workload in
      let t = tier (study_run workload TR.Autonuma) in
      Alcotest.(check int) (name ^ ": autonuma never demotes") 0 t.M.demotions;
      Alcotest.(check bool)
        (name ^ ": autonuma promotions fail")
        true (t.M.failed_promotions > 0))
    study_workloads

let test_finding_tpp_leads () =
  List.iter
    (fun workload ->
      let name = Repro_core.Runner.workload_kind_name workload in
      let tpp = study_run workload TR.Tpp in
      List.iter
        (fun other ->
          if other <> TR.Tpp then begin
            let o = study_run workload other in
            Alcotest.(check bool)
              (Printf.sprintf "%s: tpp slow share %.3f < %s %.3f" name
                 (M.slow_fraction (tier tpp)) (TR.name other)
                 (M.slow_fraction (tier o)))
              true
              (M.slow_fraction (tier tpp) < M.slow_fraction (tier o));
            Alcotest.(check bool)
              (Printf.sprintf "%s: tpp runtime %d < %s %d" name tpp.M.runtime_ns
                 (TR.name other) o.M.runtime_ns)
              true
              (tpp.M.runtime_ns < o.M.runtime_ns)
          end)
        TR.all)
    [ Repro_core.Runner.Pagerank; Repro_core.Runner.Ycsb Workload.Ycsb.B ]

let () =
  Alcotest.run "tiering"
    [
      ( "machine",
        [
          Alcotest.test_case "static placement" `Quick test_static_placement;
          Alcotest.test_case "slow cost" `Quick test_slow_touches_cost_more;
          Alcotest.test_case "capacity check" `Quick test_capacity_check;
          Alcotest.test_case "untiered has no tier" `Quick test_untiered_has_no_tier;
          Alcotest.test_case "tiers swap" `Quick test_tiers_swap;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "audited" `Quick test_audited;
          Alcotest.test_case "hotplug" `Quick test_hotplug_tiered;
          Alcotest.test_case "profiled" `Quick test_profiled;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "policies",
        [
          Alcotest.test_case "tpp promotes hot set" `Quick test_tpp_promotes_hot_set;
          Alcotest.test_case "thermostat migrates" `Quick test_thermostat_migrates;
          Alcotest.test_case "autonuma cannot demote" `Quick test_autonuma_cannot_demote;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "findings",
        [
          Alcotest.test_case "autonuma stalls" `Quick test_finding_autonuma_stalls;
          Alcotest.test_case "tpp leads" `Quick test_finding_tpp_leads;
        ] );
    ]
