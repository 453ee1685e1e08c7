module SM = Swapdev.Swap_manager

let make () =
  let dev = Swapdev.Zram.create ~rng:(Engine.Rng.create 1) () in
  SM.create ~device:dev ~seed:9 ()

(* swap_out on a fault-free device always yields a slot. *)
let out_exn m ~now ~klass ~page_key =
  let slot = SM.swap_out_slot m ~now ~klass ~page_key in
  if slot < 0 then Alcotest.fail "swap_out failed on a fault-free device";
  slot

let test_out_in_release () =
  let m = make () in
  let slot = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:5 in
  Alcotest.(check bool) "write completion in future" true (SM.last_finish_ns m > 0);
  Alcotest.(check bool) "write cost host CPU" true (SM.last_cpu_ns m > 0);
  Alcotest.(check bool) "no retries needed" true
    (SM.io_retries m = 0 && not (SM.last_failed m));
  Alcotest.(check bool) "slot in use" true (SM.slot_in_use m slot);
  Alcotest.(check int) "used" 1 (SM.used_slots m);
  (* swap_in keeps the slot (swap cache) *)
  SM.swap_in_slot m ~now:100 ~slot;
  Alcotest.(check bool) "read succeeded" false (SM.last_failed m);
  Alcotest.(check bool) "read completes after submission" true
    (SM.last_finish_ns m > 100);
  Alcotest.(check bool) "still in use" true (SM.slot_in_use m slot);
  Alcotest.(check int) "ins" 1 (SM.swap_ins m);
  SM.release m ~slot;
  Alcotest.(check bool) "released" false (SM.slot_in_use m slot);
  Alcotest.(check int) "used back to zero" 0 (SM.used_slots m)

let test_slot_reuse () =
  let m = make () in
  let s1 = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:1 in
  SM.release m ~slot:s1;
  let s2 = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:2 in
  Alcotest.(check int) "freed slot reused" s1 s2

(* Freed slots come back last-freed first, whatever the order of the
   frees (the fault path's slot numbers, and so the device's queueing,
   depend on it). *)
let test_slot_reuse_lifo () =
  let m = make () in
  let slots =
    List.init 6 (fun i -> out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:i)
  in
  let freed = [ List.nth slots 4; List.nth slots 1; List.nth slots 3 ] in
  List.iter (fun slot -> SM.release m ~slot) freed;
  let again =
    List.init 4 (fun i ->
        out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:(10 + i))
  in
  Alcotest.(check (list int)) "last freed first, then a fresh slot"
    (List.rev freed @ [ 6 ])
    again

let test_bad_slot_ops () =
  let m = make () in
  Alcotest.check_raises "swap_in bad slot"
    (Invalid_argument "Swap_manager.swap_in: slot not in use") (fun () ->
      SM.swap_in_slot m ~now:0 ~slot:3);
  Alcotest.check_raises "release bad slot"
    (Invalid_argument "Swap_manager.release: slot not in use") (fun () ->
      SM.release m ~slot:3)

let test_double_release () =
  let m = make () in
  let slot = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:1 in
  SM.release m ~slot;
  Alcotest.check_raises "double release rejected"
    (Invalid_argument "Swap_manager.release: slot not in use") (fun () ->
      SM.release m ~slot)

let test_peak_tracking () =
  let m = make () in
  let slots =
    List.init 5 (fun i ->
        out_exn m ~now:0 ~klass:Swapdev.Compress.Kv_item ~page_key:i)
  in
  List.iter (fun slot -> SM.release m ~slot) slots;
  Alcotest.(check int) "peak" 5 (SM.peak_slots m);
  Alcotest.(check int) "now zero" 0 (SM.used_slots m)

let test_compressed_accounting () =
  let m = make () in
  let slot = out_exn m ~now:0 ~klass:Swapdev.Compress.Columnar ~page_key:7 in
  let bytes = SM.compressed_bytes m in
  Alcotest.(check bool) "positive and under a page" true (bytes > 0.0 && bytes < 4096.0);
  SM.release m ~slot;
  Alcotest.(check (float 1e-6)) "empty pool" 0.0 (SM.compressed_bytes m)

let test_many_slots_grow () =
  let m = make () in
  for i = 0 to 4999 do
    ignore (SM.swap_out_slot m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:i)
  done;
  Alcotest.(check int) "all live" 5000 (SM.used_slots m);
  Alcotest.(check int) "outs counted" 5000 (SM.swap_outs m)

(* The slot array starts at 1024 entries; crossing the boundary must not
   lose or corrupt accounting for slots on either side. *)
let test_grow_boundary () =
  let m = make () in
  let slots =
    Array.init 1025 (fun i ->
        out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:i)
  in
  Alcotest.(check int) "1025 live across the boundary" 1025 (SM.used_slots m);
  Alcotest.(check bool) "slot 1023 live" true (SM.slot_in_use m slots.(1023));
  Alcotest.(check bool) "slot 1024 live" true (SM.slot_in_use m slots.(1024));
  SM.release m ~slot:slots.(1023);
  SM.release m ~slot:slots.(1024);
  Alcotest.(check bool) "1023 released" false (SM.slot_in_use m slots.(1023));
  Alcotest.(check bool) "1024 released" false (SM.slot_in_use m slots.(1024));
  Alcotest.(check int) "used tracks releases" 1023 (SM.used_slots m);
  (* both freed slots come back before the array grows again *)
  let s1 = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:2000 in
  let s2 = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:2001 in
  Alcotest.(check bool) "freed boundary slots reused" true
    (List.sort compare [ s1; s2 ] = List.sort compare [ slots.(1023); slots.(1024) ])

let prop_used_never_negative =
  QCheck.Test.make ~name:"slot accounting stays consistent" ~count:100
    QCheck.(list bool)
    (fun ops ->
      let m = make () in
      let live = ref [] in
      List.iter
        (fun out ->
          if out then
            live :=
              out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:0
              :: !live
          else
            match !live with
            | slot :: rest ->
              SM.release m ~slot;
              live := rest
            | [] -> ())
        ops;
      SM.used_slots m = List.length !live)

let () =
  Alcotest.run "swap_manager"
    [
      ( "unit",
        [
          Alcotest.test_case "out/in/release" `Quick test_out_in_release;
          Alcotest.test_case "slot reuse" `Quick test_slot_reuse;
          Alcotest.test_case "slot reuse is LIFO" `Quick test_slot_reuse_lifo;
          Alcotest.test_case "bad slot ops" `Quick test_bad_slot_ops;
          Alcotest.test_case "double release" `Quick test_double_release;
          Alcotest.test_case "peak tracking" `Quick test_peak_tracking;
          Alcotest.test_case "compressed accounting" `Quick test_compressed_accounting;
          Alcotest.test_case "many slots" `Quick test_many_slots_grow;
          Alcotest.test_case "grow at 1024 boundary" `Quick test_grow_boundary;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_used_never_negative ]);
    ]
