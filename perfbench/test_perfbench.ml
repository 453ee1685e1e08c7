(* Tests of the benchmark harness itself: span accounting, the digest
   check, and the mirrored trial configuration the traced runs rely on. *)

module M = Repro_core.Machine
module R = Repro_core.Runner

let small_ctx ?(telemetry = false) ~scale () =
  let profile = { R.trials = 1; ycsb_trials = 1; fast = true; scale } in
  if telemetry then R.make_ctx ~profile ~obs:Cells.telemetry_obs ~vmstat:true ()
  else R.make_ctx ~profile ()

let exp ?(ratio = 0.5) workload policy swap =
  { R.workload; policy; ratio; swap; trial = 1 }

let tpch = exp R.Tpch Policy.Registry.Mglru_default R.Zram

let digest_of ?traced ctx e =
  Span.reset ();
  Cells.digest (Cells.run_cell ?traced (Cells.runner_cell ctx e))

(* ------------------------------------------------------------------ *)

let busy_ns n =
  let t0 = Span.now_ns () in
  while Span.now_ns () - t0 < n do
    ()
  done

let test_spans_nest () =
  Span.reset ();
  Span.timed "outer" (fun () ->
      busy_ns 200_000;
      Span.timed "inner" (fun () ->
          for _ = 1 to 100 do
            Span.enter "leaf";
            busy_ns 1_000;
            Span.exit ()
          done);
      Span.timed "inner" (fun () -> busy_ns 100_000));
  Alcotest.(check bool) "logged spans nest" true (Span.nesting_ok (Span.logged ()));
  Alcotest.(check int) "three logged spans" 3 (List.length (Span.logged ()));
  let tree = Span.flatten () in
  Alcotest.(check (list string)) "tree paths" [ "outer"; "outer/inner"; "outer/inner/leaf" ]
    (List.map fst tree);
  List.iter
    (fun (path, (n : Span.node)) ->
      let children =
        List.fold_left (fun acc (c : Span.node) -> acc + c.Span.total_ns) 0 n.Span.children
      in
      Alcotest.(check bool) (path ^ ": children within parent") true
        (children <= n.Span.total_ns);
      Alcotest.(check bool) (path ^ ": self time non-negative") true (Span.self_ns n >= 0))
    tree;
  let outer = List.assoc "outer" tree in
  let self_sum = List.fold_left (fun acc (_, n) -> acc + Span.self_ns n) 0 tree in
  Alcotest.(check int) "self times sum to the root span" outer.Span.total_ns self_sum;
  Alcotest.(check int) "leaf calls aggregated" 100 (List.assoc "outer/inner/leaf" tree).Span.calls;
  Alcotest.(check int) "inner calls aggregated" 2 (List.assoc "outer/inner" tree).Span.calls

let test_bad_nesting_detected () =
  let s id parent t0 t1 = { Span.id; parent; span_name = "s"; t0_ns = t0; t1_ns = t1 } in
  Alcotest.(check bool) "child outliving its parent" false
    (Span.nesting_ok [ s 0 (-1) 0 10; s 1 0 5 11 ])

(* ------------------------------------------------------------------ *)

let test_perturbed_cell_fails_digest () =
  let ctx = small_ctx ~scale:1 () in
  let reference = digest_of ctx tpch in
  Alcotest.(check string) "deterministic" reference (digest_of ctx tpch);
  Alcotest.(check bool) "ratio 0.49 changes the digest" true
    (reference <> digest_of ctx { tpch with R.ratio = 0.49 })

(* The traced runs replay trials through a mirror of Runner's private
   per-trial configuration; it must reproduce [Runner.run_exp] exactly,
   including the --scale cost model and telemetry-on contexts. *)
let test_mirror_matches_runner () =
  List.iter
    (fun (name, ctx, e) ->
      Alcotest.(check string) name
        (Cells.digest (R.run_exp ctx e))
        (digest_of ctx e))
    [
      ("tpch fast", small_ctx ~scale:1 (), tpch);
      ("tpch fast x2", small_ctx ~scale:2 (), tpch);
      ("pagerank ssd", small_ctx ~scale:1 (), exp R.Pagerank Policy.Registry.Clock R.Ssd);
      ( "ycsb-a telemetry",
        small_ctx ~telemetry:true ~scale:1 (),
        exp (R.Ycsb Workload.Ycsb.A) Policy.Registry.Mglru_default R.Zram );
    ]

let test_wrappers_do_not_perturb () =
  let ctx = small_ctx ~scale:1 () in
  Wrap.reset ();
  let plain = digest_of ctx tpch in
  let traced = digest_of ~traced:true ctx tpch in
  Alcotest.(check string) "traced digest equals untraced" plain traced;
  let tree = Span.flatten () in
  let calls name =
    List.fold_left
      (fun acc (path, (n : Span.node)) ->
        if Filename.basename path = name then acc + n.Span.calls else acc)
      0 tree
  in
  Alcotest.(check bool) "on_page_mapped traced" true (calls "policy.on_page_mapped" > 0);
  Alcotest.(check bool) "reclaim_page traced" true (calls "machine.reclaim_page" > 0);
  Alcotest.(check bool) "next traced" true (calls "workload.next" > 0);
  Alcotest.(check bool) "on_page_touched counted" true (!Wrap.touched > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and self time" `Quick test_spans_nest;
          Alcotest.test_case "bad nesting detected" `Quick test_bad_nesting_detected;
        ] );
      ( "checks",
        [
          Alcotest.test_case "perturbed cell fails the digest" `Quick
            test_perturbed_cell_fails_digest;
          Alcotest.test_case "mirror matches Runner.run_exp" `Quick test_mirror_matches_runner;
          Alcotest.test_case "wrappers do not perturb" `Quick test_wrappers_do_not_perturb;
        ] );
    ]
