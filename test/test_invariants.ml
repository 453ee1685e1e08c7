module I = Repro_core.Invariants
module SM = Swapdev.Swap_manager

type world = {
  pt : Mem.Page_table.t;
  frames : Mem.Frame_table.t;
  mem : Mem.Phys_mem.t;
  swap : SM.t;
  retained : int array;
}

let pages = 32

let make_world () =
  let dev = Swapdev.Zram.create ~rng:(Engine.Rng.create 1) () in
  {
    pt = Mem.Page_table.create ~region_size:8 ~asid:0 ~pages ();
    frames = Mem.Frame_table.create ~frames:8;
    mem = Mem.Phys_mem.create ~frames:8 ();
    swap = SM.create ~device:dev ~seed:5 ();
    retained = Array.make pages (-1);
  }

let audit w =
  I.audit ~last_chaos:None ~memcg:None ~owners:None ~pt:w.pt ~frames:w.frames
    ~mem:w.mem ~swap:w.swap ~retained_slot:w.retained

let map w ~vpn =
  match Mem.Phys_mem.alloc w.mem with
  | None -> Alcotest.fail "out of frames in test setup"
  | Some pfn ->
    Mem.Frame_table.set_owner w.frames ~pfn ~asid:0 ~vpn;
    Mem.Page_table.set w.pt vpn (Mem.Pte.mapped ~pfn ~file_backed:false);
    pfn

let swap_out w ~vpn =
  let slot =
    SM.swap_out_slot w.swap ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:vpn
  in
  if slot < 0 then Alcotest.fail "swap_out failed on a fault-free device";
  Mem.Page_table.set w.pt vpn
    (Mem.Pte.to_swapped (Mem.Page_table.get w.pt vpn) ~slot);
  slot

let checks violations = List.map (fun v -> v.I.check) violations

let test_empty_world_clean () =
  Alcotest.(check (list string)) "no violations" [] (checks (audit (make_world ())))

let test_populated_world_clean () =
  let w = make_world () in
  let _pfn = map w ~vpn:3 in
  let pfn5 = map w ~vpn:5 in
  let slot9 = swap_out w ~vpn:9 in
  ignore slot9;
  (* resident page 5 with a clean swap-cache copy *)
  let slot5 =
    SM.swap_out_slot w.swap ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:5
  in
  if slot5 < 0 then Alcotest.fail "swap_out failed";
  w.retained.(5) <- slot5;
  ignore pfn5;
  Alcotest.(check (list string)) "no violations" [] (checks (audit w))

let test_detects_rmap_mismatch () =
  let w = make_world () in
  let pfn = map w ~vpn:3 in
  (* frame claims vpn 4, PTE 3 still points at the frame *)
  Mem.Frame_table.set_owner w.frames ~pfn ~asid:0 ~vpn:4;
  let cs = checks (audit w) in
  Alcotest.(check bool) "frame->pte mismatch seen" true
    (List.mem "frame-pte-absent" cs || List.mem "frame-pte-mismatch" cs);
  Alcotest.(check bool) "pte->rmap mismatch seen" true (List.mem "pte-rmap-mismatch" cs)

let test_detects_free_mapped_frame () =
  let w = make_world () in
  let pfn = map w ~vpn:2 in
  Mem.Phys_mem.free w.mem pfn;
  let cs = checks (audit w) in
  Alcotest.(check bool) "freed-but-mapped frame seen" true (List.mem "frame-free" cs)

let test_detects_dead_slot () =
  let w = make_world () in
  let slot = swap_out w ~vpn:7 in
  SM.release w.swap ~slot;
  let cs = checks (audit w) in
  Alcotest.(check bool) "dead slot seen" true (List.mem "pte-dead-slot" cs)

let test_detects_stale_swap_cache () =
  let w = make_world () in
  w.retained.(11) <- 0;
  let cs = checks (audit w) in
  Alcotest.(check bool) "non-resident swap cache seen" true
    (List.mem "swap-cache-nonresident" cs);
  Alcotest.(check bool) "dead cached slot seen" true (List.mem "swap-cache-dead-slot" cs)

let test_detects_leaked_frame () =
  let w = make_world () in
  (* allocated but never mapped: used_count diverges from mapped_count *)
  ignore (Mem.Phys_mem.alloc w.mem);
  let cs = checks (audit w) in
  Alcotest.(check bool) "leak seen" true (List.mem "count-used-mapped" cs)

let test_report_readable () =
  Alcotest.(check string) "clean" "invariants: ok" (I.report []);
  let w = make_world () in
  w.retained.(1) <- 0;
  let s = I.report (audit w) in
  Alcotest.(check bool) "mentions violation count" true
    (String.length s > 0 && s.[String.length s - 1] = '\n')

let test_machine_runs_audited () =
  (* End-to-end: a thrashing trial with a periodic audit cadence must
     come back clean. *)
  let lists = [ Array.init 48 (fun i -> i); Array.init 48 (fun i -> (i * 5) mod 48) ] in
  let w = Workload.Trace.of_page_lists ~footprint:64 lists in
  let cfg =
    {
      (Repro_core.Machine.default_config ~capacity_frames:16 ~seed:11) with
      Repro_core.Machine.kthread_jitter_ns = 0;
      audit_every_ns = 1_000_000;
    }
  in
  let r =
    Repro_core.Machine.run cfg
      ~policy:(Policy.Registry.create Policy.Registry.Mglru_default)
      ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w))
  in
  Alcotest.(check int) "no violations across audits" 0 r.Repro_core.Machine.invariant_violations

let () =
  Alcotest.run "invariants"
    [
      ( "unit",
        [
          Alcotest.test_case "empty world clean" `Quick test_empty_world_clean;
          Alcotest.test_case "populated world clean" `Quick test_populated_world_clean;
          Alcotest.test_case "rmap mismatch" `Quick test_detects_rmap_mismatch;
          Alcotest.test_case "free mapped frame" `Quick test_detects_free_mapped_frame;
          Alcotest.test_case "dead slot" `Quick test_detects_dead_slot;
          Alcotest.test_case "stale swap cache" `Quick test_detects_stale_swap_cache;
          Alcotest.test_case "leaked frame" `Quick test_detects_leaked_frame;
          Alcotest.test_case "report readable" `Quick test_report_readable;
          Alcotest.test_case "machine runs audited" `Quick test_machine_runs_audited;
        ] );
    ]
