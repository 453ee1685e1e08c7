module D = Swapdev.Device

let submit_read dev ~now = dev.D.submit ~now ~op:D.Read ~size_fraction:0.5

let test_ssd_service_time () =
  let dev = Swapdev.Ssd.create ~rng:(Engine.Rng.create 1) () in
  let c = submit_read dev ~now:0 in
  let base = Swapdev.Ssd.default_config.Swapdev.Ssd.read_ns in
  Alcotest.(check bool) "service near 7.5ms" true
    (c.D.finish_ns > base * 9 / 10 && c.D.finish_ns < base * 11 / 10);
  Alcotest.(check int) "reads counted" 1 (dev.D.reads ())

let test_ssd_queueing () =
  let config = { Swapdev.Ssd.default_config with Swapdev.Ssd.channels = 1; jitter = 0.0 } in
  let dev = Swapdev.Ssd.create ~config ~rng:(Engine.Rng.create 1) () in
  let f1 = (submit_read dev ~now:0).D.finish_ns in
  let f2 = (submit_read dev ~now:0).D.finish_ns in
  Alcotest.(check int) "second queues behind first"
    (2 * config.Swapdev.Ssd.read_ns) f2;
  Alcotest.(check int) "first on time" config.Swapdev.Ssd.read_ns f1

let test_ssd_parallel_channels () =
  let config = { Swapdev.Ssd.default_config with Swapdev.Ssd.channels = 4; jitter = 0.0 } in
  let dev = Swapdev.Ssd.create ~config ~rng:(Engine.Rng.create 1) () in
  let finishes = List.init 4 (fun _ -> (submit_read dev ~now:0).D.finish_ns) in
  List.iter
    (fun f -> Alcotest.(check int) "all run in parallel" config.Swapdev.Ssd.read_ns f)
    finishes

let test_ssd_idle_gap () =
  let config = { Swapdev.Ssd.default_config with Swapdev.Ssd.channels = 1; jitter = 0.0 } in
  let dev = Swapdev.Ssd.create ~config ~rng:(Engine.Rng.create 1) () in
  ignore (submit_read dev ~now:0);
  let c = submit_read dev ~now:100_000_000 in
  Alcotest.(check int) "no queueing after idle"
    (100_000_000 + config.Swapdev.Ssd.read_ns) c.D.finish_ns

let test_zram_much_faster () =
  let ssd = Swapdev.Ssd.create ~rng:(Engine.Rng.create 1) () in
  let zram = Swapdev.Zram.create ~rng:(Engine.Rng.create 1) () in
  let cs = submit_read ssd ~now:0 in
  let cz = submit_read zram ~now:0 in
  Alcotest.(check bool) "two orders of magnitude" true
    (cz.D.finish_ns * 100 < cs.D.finish_ns)

let test_zram_write_slower_than_read () =
  let config = { Swapdev.Zram.default_config with Swapdev.Zram.jitter = 0.0 } in
  let dev = Swapdev.Zram.create ~config ~rng:(Engine.Rng.create 1) () in
  let r = (dev.D.submit ~now:0 ~op:D.Read ~size_fraction:0.5).D.finish_ns in
  let w = (dev.D.submit ~now:0 ~op:D.Write ~size_fraction:0.5).D.finish_ns in
  Alcotest.(check bool) "write > read" true (w - 0 > r - 0)

let test_zram_cpu_coupled () =
  let dev = Swapdev.Zram.create ~rng:(Engine.Rng.create 1) () in
  let c = dev.D.submit ~now:0 ~op:D.Read ~size_fraction:0.5 in
  Alcotest.(check int) "compression runs on the CPU" c.D.finish_ns c.D.cpu_ns;
  let ssd = Swapdev.Ssd.create ~rng:(Engine.Rng.create 1) () in
  let cs = ssd.D.submit ~now:0 ~op:D.Read ~size_fraction:0.5 in
  Alcotest.(check bool) "ssd cpu tiny" true (cs.D.cpu_ns * 100 < cs.D.finish_ns)

let test_zram_size_sensitivity () =
  let config = { Swapdev.Zram.default_config with Swapdev.Zram.jitter = 0.0 } in
  let dev = Swapdev.Zram.create ~config ~rng:(Engine.Rng.create 1) () in
  let small = dev.D.submit ~now:0 ~op:D.Read ~size_fraction:0.1 in
  let dev2 = Swapdev.Zram.create ~config ~rng:(Engine.Rng.create 1) () in
  let big = dev2.D.submit ~now:0 ~op:D.Read ~size_fraction:1.0 in
  Alcotest.(check bool) "compressible pages faster" true
    (small.D.finish_ns < big.D.finish_ns)

let test_ssd_size_insensitive_by_default () =
  (* Swap moves whole pages: with the default config, service time must
     not depend on the stored fraction. *)
  let config = { Swapdev.Ssd.default_config with Swapdev.Ssd.jitter = 0.0 } in
  let small = (Swapdev.Ssd.create ~config ~rng:(Engine.Rng.create 1) ()).D.submit
                ~now:0 ~op:D.Read ~size_fraction:0.1 in
  let big = (Swapdev.Ssd.create ~config ~rng:(Engine.Rng.create 1) ()).D.submit
              ~now:0 ~op:D.Read ~size_fraction:1.0 in
  Alcotest.(check int) "same service time" big.D.finish_ns small.D.finish_ns;
  Alcotest.(check int) "base service time" config.Swapdev.Ssd.read_ns big.D.finish_ns

let test_ssd_size_sensitivity_opt_in () =
  let config =
    { Swapdev.Ssd.default_config with Swapdev.Ssd.jitter = 0.0; size_sensitivity = 0.5 }
  in
  let at f =
    ((Swapdev.Ssd.create ~config ~rng:(Engine.Rng.create 1) ()).D.submit
       ~now:0 ~op:D.Read ~size_fraction:f).D.finish_ns
  in
  (* a full-page transfer still costs exactly the base time... *)
  Alcotest.(check int) "full page unchanged" config.Swapdev.Ssd.read_ns (at 1.0);
  (* ...while compressible pages get proportionally cheaper *)
  Alcotest.(check bool) "half page cheaper" true (at 0.5 < at 1.0);
  Alcotest.(check int) "interpolated cost"
    (int_of_float (float_of_int config.Swapdev.Ssd.read_ns *. 0.75))
    (at 0.5)

(* Property: under any op sequence, a device's busy horizon never moves
   backwards and completions never finish before submission. *)
let prop_time_sanity name make_dev =
  let rng = Engine.Rng.create 77 in
  let dev = make_dev () in
  let now = ref 0 in
  let last_busy = ref (dev.D.busy_until ()) in
  for i = 0 to 499 do
    now := !now + Engine.Rng.int rng 3_000_000;
    let op = if Engine.Rng.bool rng 0.5 then D.Read else D.Write in
    let size_fraction = 0.05 +. (0.95 *. Engine.Rng.float rng 1.0) in
    let c = dev.D.submit ~now:!now ~op ~size_fraction in
    if c.D.finish_ns < !now then
      Alcotest.failf "%s op %d: finish %d before submit %d" name i c.D.finish_ns !now;
    let busy = dev.D.busy_until () in
    if busy < !last_busy then
      Alcotest.failf "%s op %d: busy_until went backwards (%d < %d)" name i busy
        !last_busy;
    last_busy := busy
  done

let test_ssd_time_sanity () =
  prop_time_sanity "ssd" (fun () -> Swapdev.Ssd.create ~rng:(Engine.Rng.create 5) ())

let test_zram_time_sanity () =
  prop_time_sanity "zram" (fun () -> Swapdev.Zram.create ~rng:(Engine.Rng.create 5) ())

(* A device owns one completion record: each submit refills and returns
   it rather than allocating a new one. *)
let test_one_completion_record name dev =
  let c1 = dev.D.submit ~now:0 ~op:D.Write ~size_fraction:0.5 in
  let f1 = c1.D.finish_ns in
  let c2 = dev.D.submit ~now:f1 ~op:D.Read ~size_fraction:0.5 in
  Alcotest.(check bool) (name ^ ": the same record") true (c1 == c2);
  Alcotest.(check bool) (name ^ ": refilled by the second submit") true
    (c1.D.finish_ns > f1 && D.ok c1)

let test_completion_reused () =
  test_one_completion_record "ssd" (Swapdev.Ssd.create ~rng:(Engine.Rng.create 1) ());
  test_one_completion_record "zram" (Swapdev.Zram.create ~rng:(Engine.Rng.create 1) ())

let test_stored_bytes_estimate () =
  Alcotest.(check int) "estimate" (4096 * 25)
    (Swapdev.Zram.stored_bytes_estimate ~pages:100 ~mean_ratio:0.25)

let () =
  Alcotest.run "devices"
    [
      ( "ssd",
        [
          Alcotest.test_case "service time" `Quick test_ssd_service_time;
          Alcotest.test_case "queueing" `Quick test_ssd_queueing;
          Alcotest.test_case "parallel channels" `Quick test_ssd_parallel_channels;
          Alcotest.test_case "idle gap" `Quick test_ssd_idle_gap;
          Alcotest.test_case "size-insensitive default" `Quick
            test_ssd_size_insensitive_by_default;
          Alcotest.test_case "size sensitivity opt-in" `Quick
            test_ssd_size_sensitivity_opt_in;
        ] );
      ( "properties",
        [
          Alcotest.test_case "ssd time sanity" `Quick test_ssd_time_sanity;
          Alcotest.test_case "zram time sanity" `Quick test_zram_time_sanity;
          Alcotest.test_case "one completion record" `Quick test_completion_reused;
        ] );
      ( "zram",
        [
          Alcotest.test_case "much faster than ssd" `Quick test_zram_much_faster;
          Alcotest.test_case "write slower than read" `Quick test_zram_write_slower_than_read;
          Alcotest.test_case "cpu coupled" `Quick test_zram_cpu_coupled;
          Alcotest.test_case "size sensitivity" `Quick test_zram_size_sensitivity;
          Alcotest.test_case "stored bytes" `Quick test_stored_bytes_estimate;
        ] );
    ]
