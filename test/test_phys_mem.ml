module M = Mem.Phys_mem

let test_alloc_free () =
  let m = M.create ~frames:4 () in
  Alcotest.(check int) "free" 4 (M.free_count m);
  let a = Option.get (M.alloc m) in
  let b = Option.get (M.alloc m) in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "used" 2 (M.used_count m);
  M.free m a;
  Alcotest.(check int) "free again" 3 (M.free_count m);
  Alcotest.(check bool) "is_free" true (M.is_free m a);
  Alcotest.(check bool) "not free" false (M.is_free m b)

let test_exhaustion () =
  let m = M.create ~frames:2 () in
  ignore (M.alloc m);
  ignore (M.alloc m);
  Alcotest.(check (option int)) "exhausted" None (M.alloc m)

let test_double_free_rejected () =
  let m = M.create ~frames:2 () in
  let a = Option.get (M.alloc m) in
  M.free m a;
  Alcotest.check_raises "double free" (Invalid_argument "Phys_mem.free: double free")
    (fun () -> M.free m a)

let test_watermarks () =
  let m = M.create ~frames:100 ~low_watermark:10 ~high_watermark:20 () in
  Alcotest.(check int) "low" 10 (M.low_watermark m);
  Alcotest.(check int) "high" 20 (M.high_watermark m);
  Alcotest.(check bool) "above high initially" true (M.above_high m);
  let held = ref [] in
  for _ = 1 to 95 do
    held := Option.get (M.alloc m) :: !held
  done;
  Alcotest.(check bool) "below low at 5 free" true (M.below_low m);
  Alcotest.(check bool) "not above high" false (M.above_high m);
  List.iter (M.free m) !held;
  Alcotest.(check bool) "recovered" true (M.above_high m)

let test_default_watermarks_ordered () =
  let m = M.create ~frames:10_000 () in
  Alcotest.(check bool) "0 < low <= high" true
    (M.low_watermark m > 0 && M.low_watermark m <= M.high_watermark m)

let test_bad_watermarks () =
  Alcotest.check_raises "low > high" (Invalid_argument "Phys_mem.create: bad watermarks")
    (fun () -> ignore (M.create ~frames:10 ~low_watermark:5 ~high_watermark:2 ()))

(* Two pools, like a tiered machine: pfns 0-3 fast, 4-9 slow. *)
let pooled () = M.create ~pools:[| 4; 6 |] ~frames:10 ()

let test_pool_layout () =
  let m = pooled () in
  Alcotest.(check int) "pools" 2 (M.pools m);
  Alcotest.(check int) "pfn 3 fast" 0 (M.pool_of m 3);
  Alcotest.(check int) "pfn 4 slow" 1 (M.pool_of m 4);
  Alcotest.(check int) "fast free" 4 (M.pool_free m 0);
  Alcotest.(check int) "slow free" 6 (M.pool_free m 1);
  Alcotest.check_raises "sizes must cover the frames"
    (Invalid_argument "Phys_mem.create: pool sizes must be positive and sum to frames")
    (fun () -> ignore (M.create ~pools:[| 4; 5 |] ~frames:10 ()));
  Alcotest.check_raises "no empty pool"
    (Invalid_argument "Phys_mem.create: pool sizes must be positive and sum to frames")
    (fun () -> ignore (M.create ~pools:[| 10; 0 |] ~frames:10 ()))

let test_pool_preferred () =
  let m = pooled () in
  let s = M.alloc_pfn_in m ~pool:1 in
  Alcotest.(check int) "slow pool pops its lowest pfn" 4 s;
  Alcotest.(check int) "slow free" 5 (M.pool_free m 1);
  Alcotest.(check int) "fast untouched" 4 (M.pool_free m 0);
  Alcotest.(check int) "slow used" 1 (M.pool_used m 1);
  Alcotest.(check int) "total free" 9 (M.free_count m);
  (* The untiered allocator takes the lowest pool first. *)
  Alcotest.(check int) "alloc_pfn from fast" 0 (M.alloc_pfn m);
  M.free m s;
  Alcotest.(check int) "freed back to its pool" 6 (M.pool_free m 1)

let test_pool_fallback () =
  let m = pooled () in
  for _ = 1 to 4 do
    ignore (M.alloc_pfn_in m ~pool:0)
  done;
  Alcotest.(check int) "fast exhausted" (-1) (M.alloc_pfn_in m ~pool:0);
  let p = M.alloc_pfn m in
  Alcotest.(check int) "falls back to slow" 1 (M.pool_of m p);
  Alcotest.(check int) "fast used" 4 (M.pool_used m 0);
  Alcotest.(check int) "slow used" 1 (M.pool_used m 1);
  for _ = 1 to 5 do
    ignore (M.alloc_pfn m)
  done;
  Alcotest.(check int) "all exhausted" (-1) (M.alloc_pfn m)

let test_pool_hotplug () =
  let m = pooled () in
  let used = M.alloc_pfn_in m ~pool:1 in
  (* Offline one free and one used slow frame, then a fast one. *)
  M.offline_free m 9;
  M.offline_used m used;
  M.offline_free m 2;
  Alcotest.(check int) "online" 7 (M.online_count m);
  Alcotest.(check int) "slow free" 4 (M.pool_free m 1);
  Alcotest.(check int) "slow used" 0 (M.pool_used m 1);
  Alcotest.(check int) "fast free" 3 (M.pool_free m 0);
  Alcotest.(check int) "total free" 7 (M.free_count m);
  for _ = 1 to 3 do
    Alcotest.(check bool) "fast alloc skips offline" true (M.alloc_pfn_in m ~pool:0 <> 2)
  done;
  Alcotest.(check int) "fast exhausted" (-1) (M.alloc_pfn_in m ~pool:0);
  M.online m 2;
  M.online m 9;
  Alcotest.(check int) "fast frame back in its pool" 2 (M.alloc_pfn_in m ~pool:0);
  Alcotest.(check int) "slow frame back in its pool" 5 (M.pool_free m 1);
  Alcotest.(check int) "online after" 9 (M.online_count m)

let prop_pool_conservation =
  QCheck.Test.make ~name:"per-pool free + used = pool online under random ops"
    ~count:200
    QCheck.(list (pair (int_bound 2) bool))
    (fun ops ->
      let m = pooled () in
      let held = ref [] in
      List.iter
        (fun (pool, alloc) ->
          if alloc then begin
            let pfn = if pool = 2 then M.alloc_pfn m else M.alloc_pfn_in m ~pool in
            if pfn >= 0 then held := pfn :: !held
          end
          else
            match !held with
            | pfn :: rest ->
              M.free m pfn;
              held := rest
            | [] -> ())
        ops;
      let in_pool p = List.length (List.filter (fun pfn -> M.pool_of m pfn = p) !held) in
      M.pool_used m 0 = in_pool 0
      && M.pool_used m 1 = in_pool 1
      && M.pool_free m 0 + M.pool_used m 0 = 4
      && M.pool_free m 1 + M.pool_used m 1 = 6
      && M.pool_free m 0 + M.pool_free m 1 = M.free_count m)

let prop_conservation =
  QCheck.Test.make ~name:"free + used = total under random ops" ~count:200
    QCheck.(list bool)
    (fun ops ->
      let m = M.create ~frames:8 () in
      let held = ref [] in
      List.iter
        (fun alloc ->
          if alloc then (
            match M.alloc m with Some pfn -> held := pfn :: !held | None -> ())
          else
            match !held with
            | pfn :: rest ->
              M.free m pfn;
              held := rest
            | [] -> ())
        ops;
      M.free_count m + M.used_count m = M.frames m
      && M.used_count m = List.length !held)

let prop_alloc_unique =
  QCheck.Test.make ~name:"allocations are unique" ~count:100
    QCheck.(int_range 1 64)
    (fun n ->
      let m = M.create ~frames:n () in
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to n do
        match M.alloc m with
        | Some pfn ->
          if Hashtbl.mem seen pfn then ok := false;
          Hashtbl.add seen pfn ()
        | None -> ok := false
      done;
      !ok)

let () =
  Alcotest.run "phys_mem"
    [
      ( "unit",
        [
          Alcotest.test_case "alloc/free" `Quick test_alloc_free;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "double free" `Quick test_double_free_rejected;
          Alcotest.test_case "watermarks" `Quick test_watermarks;
          Alcotest.test_case "default watermarks" `Quick test_default_watermarks_ordered;
          Alcotest.test_case "bad watermarks" `Quick test_bad_watermarks;
        ] );
      ( "pools",
        [
          Alcotest.test_case "layout" `Quick test_pool_layout;
          Alcotest.test_case "preferred pool" `Quick test_pool_preferred;
          Alcotest.test_case "fallback" `Quick test_pool_fallback;
          Alcotest.test_case "hotplug" `Quick test_pool_hotplug;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_conservation; prop_alloc_unique; prop_pool_conservation ] );
    ]
