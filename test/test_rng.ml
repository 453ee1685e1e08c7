module R = Engine.Rng

let test_determinism () =
  let a = R.create 123 and b = R.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (R.bits64 a) (R.bits64 b)
  done

let test_seeds_differ () =
  let a = R.create 1 and b = R.create 2 in
  Alcotest.(check bool) "different streams" true (R.bits64 a <> R.bits64 b)

let test_copy_independent () =
  let a = R.create 9 in
  let b = R.copy a in
  Alcotest.(check int64) "copy aligned" (R.bits64 a) (R.bits64 b);
  ignore (R.bits64 a);
  (* b not advanced by a's draw *)
  let a2 = R.bits64 a and b2 = R.bits64 b in
  Alcotest.(check bool) "diverged" true (a2 <> b2)

let test_int_range () =
  let rng = R.create 5 in
  for _ = 1 to 10_000 do
    let v = R.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (R.int rng 0))

let test_int_in () =
  let rng = R.create 5 in
  for _ = 1 to 1000 do
    let v = R.int_in rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "inclusive range" true (v >= -5 && v <= 5)
  done

let test_int_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 100k draws, each within 20% of
     expectation. *)
  let rng = R.create 77 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = R.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d" i c)
        true
        (c > n / 10 * 8 / 10 && c < n / 10 * 12 / 10))
    counts

let test_float_range () =
  let rng = R.create 11 in
  for _ = 1 to 10_000 do
    let v = R.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bool_probability () =
  let rng = R.create 13 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if R.bool rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f near 0.3" rate) true
    (Float.abs (rate -. 0.3) < 0.01)

let test_gaussian_moments () =
  let rng = R.create 17 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> R.gaussian rng ~mu:3.0 ~sigma:2.0) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs /. float_of_int n
  in
  Alcotest.(check bool) "mean" true (Float.abs (mean -. 3.0) < 0.05);
  Alcotest.(check bool) "variance" true (Float.abs (var -. 4.0) < 0.15)

let test_exponential_mean () =
  let rng = R.create 19 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = R.exponential rng ~mean:5.0 in
    Alcotest.(check bool) "nonnegative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.0) < 0.2)

let test_jitter_bounds () =
  let rng = R.create 23 in
  for _ = 1 to 1000 do
    let v = R.jitter rng 0.1 in
    Alcotest.(check bool) "in [0.9, 1.1)" true (v >= 0.9 && v < 1.1)
  done

let test_shuffle_permutes () =
  let rng = R.create 29 in
  let a = Array.init 100 (fun i -> i) in
  R.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted;
  Alcotest.(check bool) "actually moved" true (a <> Array.init 100 (fun i -> i))

let test_split_independent () =
  let parent = R.create 31 in
  let c1 = R.split parent in
  let c2 = R.split parent in
  Alcotest.(check bool) "children differ" true (R.bits64 c1 <> R.bits64 c2)

(* Known answers: the first draws of each stream for three seeds,
   recorded from the reference implementation.  Any change to the state
   representation or the draw arithmetic that moves a stream fails here
   before it reaches a golden figure. *)
type kat = {
  seed : int;
  bits64 : int64 list;
  ints : int list; (* [int t 1000] x4 *)
  int_big : int; (* [int t max_int] *)
  floats : float list; (* [float t 1.0] x3 *)
  bools : bool list; (* [bool t 0.5] x8 *)
  split_child : int64;
  split_parent : int64;
  copied : int64; (* first draw of [copy t], equal to t's next draw *)
  gaussian : float; (* mu 3, sigma 2 *)
  exponential : float; (* mean 5 *)
  jitter : float; (* eps 0.1 *)
  int_in : int; (* lo -5, hi 5 *)
  shuffled : int array; (* shuffle of 0..9 *)
  after : int64;
}

let kats =
  [
    {
      seed = 0;
      bits64 =
        [ 0x53175d61490b23dfL; 0x61da6f3dc380d507L; 0x5c0fdf91ec9a7bfcL; 0x2eebf8c3bbe5e1aL ];
      ints = [ 218; 214; 451; 638 ];
      int_big = 1359920133646220351;
      floats = [ 0x1.300fc58c04248p-4; 0x1.421210c81b066p-2; 0x1.0ea073de9aa48p-4 ];
      bools = [ true; true; true; true; false; true; true; true ];
      split_child = 0xf91d481ccfdc172fL;
      split_parent = 0x216c1524cbac57c0L;
      copied = 0xa53eb08063a44dfL;
      gaussian = 0x1.92d5392db648p-5;
      exponential = 0x1.374dd8c0feac5p+2;
      jitter = 0x1.dab5bec3c98bbp-1;
      int_in = -1;
      shuffled = [| 7; 3; 9; 8; 5; 2; 0; 1; 6; 4 |];
      after = 0x29e12b2a1872d7dbL;
    };
    {
      seed = 42;
      bits64 =
        [ 0xd0764d4f4476689fL; 0x519e4174576f3791L; 0xfbe07cfb0c24ed8cL; 0xb37d9f600cd835b8L ];
      ints = [ 332; 991; 269; 857 ];
      int_big = 957926376162554673;
      floats = [ 0x1.dddfac6433694p-1; 0x1.1e7bf530041cfp-1; 0x1.b3371c00f25e6p-1 ];
      bools = [ false; true; true; false; true; true; false; true ];
      split_child = 0x16d9c3ab97f4f561L;
      split_parent = 0xdcda5b94829765e3L;
      copied = 0xa70de5b169e02435L;
      gaussian = 0x1.f4bd7d60f5398p+1;
      exponential = 0x1.377f496f3e055p+3;
      jitter = 0x1.f86fac54c33ddp-1;
      int_in = -2;
      shuffled = [| 5; 6; 9; 8; 0; 4; 1; 7; 2; 3 |];
      after = 0x680386963ebb4053L;
    };
    {
      seed = 123456789;
      bits64 =
        [ 0x99e6bd73ed3f23b6L; 0xc23a804d68730d49L; 0x650e013620979041L; 0x6f44f98493c7f9c3L ];
      ints = [ 37; 6; 741; 440 ];
      int_big = 859357338145245255;
      floats = [ 0x1.347c2b341bf6ep-2; 0x1.65563c85939f4p-3; 0x1.e82a7eb8acd8ap-2 ];
      bools = [ true; true; false; true; true; false; true; true ];
      split_child = 0x9165f13efbca2033L;
      split_parent = 0xeb182223c224be32L;
      copied = 0xd2dd8f4591d87ebdL;
      gaussian = 0x1.18ce226380babp+2;
      exponential = 0x1.02a88ec716b2dp+4;
      jitter = 0x1.1868a8cf21c92p+0;
      int_in = 4;
      shuffled = [| 4; 5; 1; 6; 0; 8; 7; 3; 9; 2 |];
      after = 0xdbf3e56b19eaff9bL;
    };
  ]

(* Floats are compared bit for bit, not within a tolerance. *)
let exact_float = Alcotest.testable (fun ppf x -> Format.fprintf ppf "%h" x) Float.equal

let test_known_answers () =
  List.iter
    (fun k ->
      let name what = Printf.sprintf "seed %d %s" k.seed what in
      let r = R.create k.seed in
      let draws n f = List.init n (fun _ -> f ()) in
      Alcotest.(check (list int64)) (name "bits64") k.bits64 (draws 4 (fun () -> R.bits64 r));
      Alcotest.(check (list int)) (name "int") k.ints (draws 4 (fun () -> R.int r 1000));
      Alcotest.(check int) (name "int max_int") k.int_big (R.int r max_int);
      Alcotest.(check (list exact_float))
        (name "float") k.floats
        (draws 3 (fun () -> R.float r 1.0));
      Alcotest.(check (list bool)) (name "bool") k.bools (draws 8 (fun () -> R.bool r 0.5));
      let child = R.split r in
      Alcotest.(check int64) (name "split child") k.split_child (R.bits64 child);
      Alcotest.(check int64) (name "split parent") k.split_parent (R.bits64 r);
      let c = R.copy r in
      Alcotest.(check int64) (name "copy") k.copied (R.bits64 c);
      Alcotest.(check int64) (name "copy source") k.copied (R.bits64 r);
      Alcotest.(check exact_float) (name "gaussian") k.gaussian (R.gaussian r ~mu:3.0 ~sigma:2.0);
      Alcotest.(check exact_float) (name "exponential") k.exponential (R.exponential r ~mean:5.0);
      Alcotest.(check exact_float) (name "jitter") k.jitter (R.jitter r 0.1);
      Alcotest.(check int) (name "int_in") k.int_in (R.int_in r ~lo:(-5) ~hi:5);
      let a = Array.init 10 Fun.id in
      R.shuffle r a;
      Alcotest.(check (array int)) (name "shuffle") k.shuffled a;
      Alcotest.(check int64) (name "after") k.after (R.bits64 r))
    kats

let prop_int_nonnegative =
  QCheck.Test.make ~name:"int is in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = R.create seed in
      let v = R.int rng bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "rng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bool probability" `Quick test_bool_probability;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_split_independent;
          Alcotest.test_case "known answers" `Quick test_known_answers;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_int_nonnegative ]);
    ]
