module M = Policy.Mglru
module PI = Policy.Policy_intf

let make ?(config = M.default_config) ?(frames = 16) ?(pages = 64) () =
  let world = Testsupport.Harness.make_world ~frames ~pages () in
  let policy = M.create_with ~config world.Testsupport.Harness.env in
  let packed = PI.Packed ((module M), policy) in
  (world, policy, packed)

let test_initial_window () =
  let _, policy, _ = make () in
  Alcotest.(check int) "window starts at min_gens" M.default_config.M.min_gens
    (M.nr_gens policy);
  M.check_invariants policy

let test_new_pages_young () =
  let world, policy, packed = make () in
  ignore (Testsupport.Harness.map_page world packed 0);
  Alcotest.(check int) "youngest gen holds it" 1 (M.gen_size policy (M.max_seq policy));
  M.check_invariants policy

let test_speculative_pages_old () =
  let world, policy, packed = make () in
  ignore (Testsupport.Harness.map_page world packed ~speculative:true 0);
  (* With the initial 2-generation window, "one above the eviction
     generation" coincides with the youngest; the invariant is that the
     page never lands below min_seq + 1. *)
  let old_seq = min (M.min_seq policy + 1) (M.max_seq policy) in
  Alcotest.(check int) "placed at min_seq+1" 1 (M.gen_size policy old_seq);
  Alcotest.(check int) "eviction gen empty" 0 (M.gen_size policy (M.min_seq policy));
  M.check_invariants policy

let test_direct_reclaim_frees () =
  let world, policy, packed = make ~frames:8 ~pages:32 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  ignore (Testsupport.Harness.map_page world packed 20);
  Alcotest.(check int) "one eviction" 1 (List.length world.Testsupport.Harness.reclaimed);
  M.check_invariants policy

let test_eviction_prefers_cold () =
  let world, policy, packed = make ~frames:8 ~pages:64 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Cold set 0..3: clear accessed bits; hot set keeps them. *)
  for vpn = 0 to 3 do
    Mem.Page_table.set world.Testsupport.Harness.pt vpn
      (Mem.Pte.clear_accessed (Mem.Page_table.get world.Testsupport.Harness.pt vpn))
  done;
  let stats = M.direct_reclaim policy ~want:2 in
  Alcotest.(check bool) "freed" true (stats.PI.freed >= 1);
  List.iter
    (fun vpn ->
      Alcotest.(check bool) (Printf.sprintf "vpn %d cold" vpn) true (vpn < 4))
    world.Testsupport.Harness.reclaimed_vpns;
  M.check_invariants policy

let test_accessed_candidate_promoted () =
  let world, policy, packed = make ~frames:4 ~pages:16 () in
  for vpn = 0 to 3 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* All accessed: reclaim must still free (escalation) but should
     promote at least one page first. *)
  let stats = M.direct_reclaim policy ~want:1 in
  Alcotest.(check bool) "freed" true (stats.PI.freed >= 1);
  Alcotest.(check bool) "promotions or forced evictions happened" true
    (stats.PI.promoted > 0 || List.mem_assoc "forced_evictions" (M.stats policy));
  M.check_invariants policy

let test_aging_pass_rotates_generations () =
  let world, policy, packed = make ~frames:8 ~pages:32 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  let seq_before = M.max_seq policy in
  (* Force the window to the bottom by reclaiming repeatedly, then run
     the kernel threads so a requested aging pass completes. *)
  ignore (M.direct_reclaim policy ~want:4);
  Testsupport.Harness.run_kthreads world packed;
  Alcotest.(check bool) "max_seq advanced" true (M.max_seq policy >= seq_before);
  M.check_invariants policy

let test_aging_clears_accessed_bits () =
  let config = { M.default_config with M.scan_mode = M.Scan_all } in
  let world, policy, packed = make ~config ~frames:8 ~pages:32 () in
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Drain the window so an aging pass is requested, then run it. *)
  ignore (M.direct_reclaim policy ~want:6);
  Testsupport.Harness.run_kthreads world packed;
  let still_accessed = ref 0 in
  for vpn = 0 to 7 do
    let pte = Mem.Page_table.get world.Testsupport.Harness.pt vpn in
    if Mem.Pte.present pte && Mem.Pte.accessed pte then incr still_accessed
  done;
  Alcotest.(check int) "scan-all pass cleared every accessed bit" 0 !still_accessed

let test_scan_none_never_scans () =
  let config = { M.default_config with M.scan_mode = M.Scan_none } in
  let world, policy, packed = make ~config ~frames:8 ~pages:64 () in
  for vpn = 0 to 20 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  Testsupport.Harness.run_kthreads world packed;
  Alcotest.(check int) "no aging PTE scans" 0
    (List.assoc "regions_scanned" (M.stats policy))

let test_gen14_can_always_grow () =
  let config = M.gen14_config in
  let world, policy, packed = make ~config ~frames:8 ~pages:64 () in
  for vpn = 0 to 30 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  Testsupport.Harness.run_kthreads world packed;
  Alcotest.(check int) "never stuck at the cap" 0
    (List.assoc "stuck_full_window" (M.stats policy));
  M.check_invariants policy

let test_window_bounded () =
  let world, policy, packed = make ~frames:8 ~pages:64 () in
  for round = 0 to 5 do
    for vpn = 0 to 20 do
      ignore (Testsupport.Harness.map_page world packed ((round * 7 mod 3) + vpn))
    done;
    Testsupport.Harness.run_kthreads world packed
  done;
  Alcotest.(check bool) "window within max_gens" true
    (M.nr_gens policy <= M.default_config.M.max_gens);
  M.check_invariants policy

let test_refault_distance_placement () =
  let world, policy, packed = make ~frames:4 ~pages:32 () in
  (* Fill memory; vpn 0 gets evicted. *)
  for vpn = 0 to 3 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  for vpn = 0 to 3 do
    Mem.Page_table.set world.Testsupport.Harness.pt vpn
      (Mem.Pte.clear_accessed (Mem.Page_table.get world.Testsupport.Harness.pt vpn))
  done;
  ignore (Testsupport.Harness.map_page world packed 10);
  let evicted = List.hd world.Testsupport.Harness.reclaimed_vpns in
  (* Immediate refault: distance is small, so it should land young. *)
  let young_before = M.gen_size policy (M.max_seq policy) in
  ignore (Testsupport.Harness.map_page world packed evicted);
  Alcotest.(check bool) "refault placed young" true
    (M.gen_size policy (M.max_seq policy) >= young_before);
  M.check_invariants policy

let test_spatial_scan_promotes_neighbors () =
  let config = { M.default_config with M.scan_mode = M.Scan_none } in
  let world, policy, packed = make ~config ~frames:12 ~pages:64 () in
  (* Map 8 pages in one region; make them all accessed. *)
  for vpn = 0 to 7 do
    ignore (Testsupport.Harness.map_page world packed vpn)
  done;
  (* Reclaim: the walker sees accessed candidates and the spatial scan
     should promote several neighbours per rmap walk. *)
  let stats = M.direct_reclaim policy ~want:1 in
  ignore stats;
  Alcotest.(check bool) "spatial promotions happened" true
    (List.assoc "spatial_promotions" (M.stats policy) > 0)

let test_registry_variants_construct () =
  List.iter
    (fun spec ->
      let world = Testsupport.Harness.make_world () in
      let packed = Policy.Registry.create spec world.Testsupport.Harness.env in
      Alcotest.(check bool)
        (Policy.Registry.name spec ^ " constructs")
        true
        (String.length (PI.packed_name packed) > 0))
    Policy.Registry.all_paper_specs

(* ------------------------------------------------------------------ *)
(* Refault records                                                     *)
(* ------------------------------------------------------------------ *)

module H = Testsupport.Harness

(* No Bloom filter, spatial scan or tier shield: which page goes and
   where a refault lands depend on the refault record alone.  16 frames
   keep kswapd asleep (free >= high watermark) while at most 8 are in
   use, so only [evict] reclaims. *)
let refault_config =
  {
    M.default_config with
    M.scan_mode = M.Scan_none;
    spatial_scan = false;
    tier_protection = false;
  }

let fillers = [ 32; 33; 34; 35 ]

let refault_world ?(file_backed = false) () =
  let world, policy, packed = make ~config:refault_config ~frames:16 ~pages:64 () in
  ignore (H.map_page world packed ~file_backed 0);
  List.iter (fun v -> ignore (H.map_page world packed v)) fillers;
  (world, policy, packed)

let refaults policy = List.assoc "refaults" (M.stats policy)

(* Evict exactly [vpn]: every other resident page looks accessed, so
   reclaim promotes them and frees the one cold page. *)
let evict world policy vpn =
  let pt = world.H.pt in
  for v = 0 to Mem.Page_table.pages pt - 1 do
    let pte = Mem.Page_table.get pt v in
    if Mem.Pte.present pte then
      Mem.Page_table.set pt v
        (if v = vpn then Mem.Pte.clear_accessed pte else Mem.Pte.set_accessed pte)
  done;
  let stats = M.direct_reclaim policy ~want:1 in
  Alcotest.(check int) "one page freed" 1 stats.PI.freed;
  Alcotest.(check int) "the chosen page went" vpn (List.hd world.H.reclaimed_vpns)

(* Drop a resident page's contents and map it again as a fresh page,
   as the machine does after a poisoned read or an OOM kill: the next
   mapping is not a refault. *)
let forget world packed ?(file_backed = false) vpn =
  Mem.Page_table.set world.H.pt vpn Mem.Pte.empty;
  H.map_page world packed ~file_backed vpn

(* Move a resident page to a fresh frame the way [Machine.move_page]
   does, announcing it with [~refault:true]. *)
let migrate world policy vpn =
  let pt = world.H.pt in
  let pte = Mem.Page_table.get pt vpn in
  let src = Mem.Pte.pfn pte in
  let dst = Mem.Phys_mem.alloc_pfn world.H.mem in
  Mem.Page_table.set pt vpn (Mem.Pte.remap pte ~pfn:dst);
  Mem.Frame_table.clear_owner world.H.frames ~pfn:src;
  Mem.Frame_table.set_owner world.H.frames ~pfn:dst ~asid:0 ~vpn;
  M.on_page_mapped policy ~pfn:dst ~asid:0 ~vpn ~refault:true
    ~file_backed:(Mem.Pte.file_backed pte) ~speculative:false;
  dst

(* Advance [max_seq] past [target]: evict a filler (reclaim asks for an
   aging pass when the window is at its floor), let the aging thread
   run, and fault the filler back in. *)
let age_until world policy packed target =
  let i = ref 0 in
  while M.max_seq policy <= target do
    let v = List.nth fillers (!i mod List.length fillers) in
    incr i;
    if !i > 100 then Alcotest.fail "aging never advanced max_seq";
    evict world policy v;
    H.run_kthreads world packed;
    ignore (H.map_page world packed v)
  done

let test_long_distance_refault_old () =
  let world, policy, packed = refault_world () in
  evict world policy 0;
  let evicted_at = M.max_seq policy in
  age_until world policy packed (evicted_at + M.default_config.M.max_gens);
  Alcotest.(check bool) "window spans an old and a young generation" true
    (M.nr_gens policy >= 3);
  let pfn = H.map_page world packed 0 in
  Alcotest.(check int) "long-distance refault placed old"
    (M.min_seq policy + 1) (M.frame_gen policy pfn);
  (* The same page refaulting right after its eviction is working set. *)
  evict world policy 0;
  let pfn = H.map_page world packed 0 in
  Alcotest.(check int) "short-distance refault placed young" (M.max_seq policy)
    (M.frame_gen policy pfn);
  M.check_invariants policy

let test_file_tiers_climb () =
  Alcotest.(check int) "four tiers by default" 4 M.default_config.M.tiers;
  let world, policy, packed = refault_world ~file_backed:true () in
  List.iter
    (fun want ->
      evict world policy 0;
      let pfn = H.map_page world packed ~file_backed:true 0 in
      Alcotest.(check int) (Printf.sprintf "tier %d" want) want (M.frame_tier policy pfn))
    [ 1; 2; 3; 3; 3 ];
  M.check_invariants policy

let test_anon_refault_resets_tier () =
  let world, policy, packed = refault_world ~file_backed:true () in
  for _ = 1 to 2 do
    evict world policy 0;
    ignore (H.map_page world packed ~file_backed:true 0)
  done;
  Alcotest.(check int) "climbed to tier 2" 2
    (M.frame_tier policy (Mem.Pte.pfn (Mem.Page_table.get world.H.pt 0)));
  evict world policy 0;
  let pfn = H.map_page world packed ~file_backed:false 0 in
  Alcotest.(check int) "anonymous refault at tier 0" 0 (M.frame_tier policy pfn);
  Alcotest.(check int) "placed young" (M.max_seq policy) (M.frame_gen policy pfn)

let test_refault_without_record () =
  let world, policy, packed = refault_world () in
  age_until world policy packed (M.max_seq policy + 1);
  Alcotest.(check bool) "window spans an old and a young generation" true
    (M.nr_gens policy >= 3);
  (* Swapped out behind the policy's back: the fault is a refault, but
     no eviction left a record. *)
  Mem.Page_table.set world.H.pt 7
    (Mem.Pte.to_swapped (Mem.Pte.mapped ~pfn:0 ~file_backed:false) ~slot:99);
  let before = refaults policy in
  let pfn = H.map_page world packed 7 in
  Alcotest.(check int) "counted as a refault" (before + 1) (refaults policy);
  Alcotest.(check int) "placed young" (M.max_seq policy) (M.frame_gen policy pfn);
  Alcotest.(check int) "tier 0" 0 (M.frame_tier policy pfn)

let test_eviction_overwrites_record () =
  let world, policy, packed = refault_world ~file_backed:true () in
  for _ = 1 to 2 do
    evict world policy 0;
    ignore (H.map_page world packed ~file_backed:true 0)
  done;
  (* Record: tier 2.  A fresh mapping leaves it in place... *)
  evict world policy 0;
  let pfn = forget world packed ~file_backed:true 0 in
  Alcotest.(check int) "fresh page at tier 0" 0 (M.frame_tier policy pfn);
  (* ...until the next eviction replaces it with tier 0. *)
  evict world policy 0;
  let pfn = H.map_page world packed ~file_backed:true 0 in
  Alcotest.(check int) "refault climbs from the newer record" 1
    (M.frame_tier policy pfn)

let test_record_consumed_once () =
  let world, policy, packed = refault_world ~file_backed:true () in
  evict world policy 0;
  let before = refaults policy in
  let pfn = H.map_page world packed ~file_backed:true 0 in
  Alcotest.(check int) "first refault reads the record" 1 (M.frame_tier policy pfn);
  let pfn = migrate world policy 0 in
  Alcotest.(check int) "second lookup finds none" 0 (M.frame_tier policy pfn);
  Alcotest.(check int) "both counted as refaults" (before + 2) (refaults policy)

let test_stale_record_survives () =
  (* A record nobody consumed — the page came back through a poisoned
     read or after an OOM kill — stays until a later refault lookup,
     which a migration performs. *)
  let world, policy, packed = refault_world ~file_backed:true () in
  evict world policy 0;
  let before = refaults policy in
  let pfn = forget world packed ~file_backed:true 0 in
  Alcotest.(check int) "fresh mapping is no refault" before (refaults policy);
  Alcotest.(check int) "fresh page at tier 0" 0 (M.frame_tier policy pfn);
  let pfn = migrate world policy 0 in
  Alcotest.(check int) "migration consumes the stale record" 1
    (M.frame_tier policy pfn)

let () =
  Alcotest.run "mglru"
    [
      ( "unit",
        [
          Alcotest.test_case "initial window" `Quick test_initial_window;
          Alcotest.test_case "new pages young" `Quick test_new_pages_young;
          Alcotest.test_case "speculative old" `Quick test_speculative_pages_old;
          Alcotest.test_case "direct reclaim" `Quick test_direct_reclaim_frees;
          Alcotest.test_case "evicts cold" `Quick test_eviction_prefers_cold;
          Alcotest.test_case "promotes accessed" `Quick test_accessed_candidate_promoted;
          Alcotest.test_case "aging rotates" `Quick test_aging_pass_rotates_generations;
          Alcotest.test_case "aging clears bits" `Quick test_aging_clears_accessed_bits;
          Alcotest.test_case "scan-none never scans" `Quick test_scan_none_never_scans;
          Alcotest.test_case "gen14 never capped" `Quick test_gen14_can_always_grow;
          Alcotest.test_case "window bounded" `Quick test_window_bounded;
          Alcotest.test_case "refault distance" `Quick test_refault_distance_placement;
          Alcotest.test_case "spatial scan" `Quick test_spatial_scan_promotes_neighbors;
          Alcotest.test_case "registry variants" `Quick test_registry_variants_construct;
        ] );
      ( "refault records",
        [
          Alcotest.test_case "long distance placed old" `Quick
            test_long_distance_refault_old;
          Alcotest.test_case "file tiers climb and stop" `Quick test_file_tiers_climb;
          Alcotest.test_case "anonymous refault resets tier" `Quick
            test_anon_refault_resets_tier;
          Alcotest.test_case "no record lands young" `Quick test_refault_without_record;
          Alcotest.test_case "eviction overwrites" `Quick test_eviction_overwrites_record;
          Alcotest.test_case "consumed once" `Quick test_record_consumed_once;
          Alcotest.test_case "stale record survives" `Quick test_stale_record_survives;
        ] );
    ]
