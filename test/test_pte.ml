module P = Mem.Pte

let test_empty () =
  Alcotest.(check bool) "not present" false (P.present P.empty);
  Alcotest.(check bool) "not swapped" false (P.swapped P.empty);
  Alcotest.(check bool) "not accessed" false (P.accessed P.empty)

let test_mapped () =
  let pte = P.mapped ~pfn:123 ~file_backed:true in
  Alcotest.(check bool) "present" true (P.present pte);
  Alcotest.(check int) "pfn" 123 (P.pfn pte);
  Alcotest.(check bool) "file" true (P.file_backed pte);
  Alcotest.(check bool) "clean" false (P.dirty pte);
  Alcotest.(check bool) "idle" false (P.accessed pte)

let test_accessed_dirty_bits () =
  let pte = P.mapped ~pfn:5 ~file_backed:false in
  let pte = P.set_accessed pte in
  Alcotest.(check bool) "accessed" true (P.accessed pte);
  let pte = P.set_dirty pte in
  Alcotest.(check bool) "dirty" true (P.dirty pte);
  let pte = P.clear_accessed pte in
  Alcotest.(check bool) "accessed cleared" false (P.accessed pte);
  Alcotest.(check bool) "dirty preserved" true (P.dirty pte);
  Alcotest.(check int) "pfn preserved" 5 (P.pfn (P.clear_dirty pte))

let test_swap_roundtrip () =
  let pte = P.set_dirty (P.set_accessed (P.mapped ~pfn:77 ~file_backed:true)) in
  let swapped = P.to_swapped pte ~slot:999 in
  Alcotest.(check bool) "swapped" true (P.swapped swapped);
  Alcotest.(check bool) "not present" false (P.present swapped);
  Alcotest.(check int) "slot" 999 (P.swap_slot swapped);
  Alcotest.(check bool) "file flag survives" true (P.file_backed swapped);
  Alcotest.(check bool) "accessed cleared" false (P.accessed swapped);
  Alcotest.(check bool) "dirty cleared" false (P.dirty swapped);
  let back = P.to_mapped swapped ~pfn:42 in
  Alcotest.(check int) "remapped pfn" 42 (P.pfn back);
  Alcotest.(check bool) "file flag still there" true (P.file_backed back)

let test_wrong_state_raises () =
  Alcotest.check_raises "pfn of empty" (Invalid_argument "Pte.pfn: entry not present")
    (fun () -> ignore (P.pfn P.empty));
  Alcotest.check_raises "slot of mapped"
    (Invalid_argument "Pte.swap_slot: entry not swapped") (fun () ->
      ignore (P.swap_slot (P.mapped ~pfn:1 ~file_backed:false)))

let test_large_payload () =
  let pte = P.mapped ~pfn:123_456_789 ~file_backed:false in
  Alcotest.(check int) "big pfn" 123_456_789 (P.pfn pte)

let prop_flags_independent =
  QCheck.Test.make ~name:"bit operations touch only their flag" ~count:300
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (pfn, fb) ->
      let pte = P.mapped ~pfn ~file_backed:fb in
      let pte = P.set_accessed pte in
      P.pfn pte = pfn && P.file_backed pte = fb && not (P.dirty pte)
      && P.accessed (P.set_dirty pte)
      && not (P.accessed (P.clear_accessed pte)))

let prop_swap_preserves_slot =
  QCheck.Test.make ~name:"swap slot roundtrips" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (pfn, slot) ->
      let pte = P.mapped ~pfn ~file_backed:false in
      P.swap_slot (P.to_swapped pte ~slot) = slot)

let test_tier_bits () =
  let pte = P.set_dirty (P.set_accessed (P.mapped ~pfn:7 ~file_backed:true)) in
  Alcotest.(check bool) "plain present is a hit" true (P.hit pte);
  Alcotest.(check bool) "hinted is no hit" false (P.hit (P.set_hint pte));
  Alcotest.(check bool) "slow is no hit" false (P.hit (P.set_slow pte));
  Alcotest.(check bool) "empty is no hit" false (P.hit P.empty);
  Alcotest.(check bool) "hinted still present" true (P.present (P.set_hint pte));
  Alcotest.(check bool) "clear_hint" false (P.hinted (P.clear_hint (P.set_hint pte)));
  let moved = P.remap (P.set_slow (P.set_hint pte)) ~pfn:3 in
  Alcotest.(check int) "remap pfn" 3 (P.pfn moved);
  Alcotest.(check bool) "remap keeps accessed" true (P.accessed moved);
  Alcotest.(check bool) "remap keeps dirty" true (P.dirty moved);
  Alcotest.(check bool) "remap keeps file" true (P.file_backed moved);
  Alcotest.(check bool) "remap keeps hint" true (P.hinted moved);
  Alcotest.(check bool) "remap drops tier" false (P.slow moved);
  let swapped = P.to_swapped (P.set_slow (P.set_hint pte)) ~slot:1 in
  Alcotest.(check bool) "swap-out drops hint" false (P.hinted swapped);
  Alcotest.(check bool) "swap-out drops tier" false (P.slow swapped)

let () =
  Alcotest.run "pte"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "mapped" `Quick test_mapped;
          Alcotest.test_case "accessed/dirty" `Quick test_accessed_dirty_bits;
          Alcotest.test_case "swap roundtrip" `Quick test_swap_roundtrip;
          Alcotest.test_case "wrong state raises" `Quick test_wrong_state_raises;
          Alcotest.test_case "large payload" `Quick test_large_payload;
          Alcotest.test_case "tier bits" `Quick test_tier_bits;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_flags_independent; prop_swap_preserves_slot ] );
    ]
