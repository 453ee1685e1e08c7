(* The four xoshiro256++ words live in one 32-byte buffer, s0..s3 at
   offsets 0, 8, 16, 24.  Mutable [int64] record fields would box a
   fresh Int64 on every store; [Bytes.get/set_int64_le] keep the words
   unboxed, so a draw allocates nothing once [bits64] is inlined. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (i * 8)

let[@inline] set t i v = Bytes.set_int64_le t (i * 8) v

(* SplitMix64: used only to expand seeds into xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tt = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (logxor s2 tt);
  set t 3 (rotl s3 45);
  result

let split t = of_seed64 (bits64 t)

let copy = Bytes.copy

(* OCaml ints hold 62 value bits; keep the top two off. *)
let[@inline] nonneg t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* Rejection sampling to avoid modulo bias.  Top level rather than a
   local closure, so a draw builds no closure. *)
let rec below t bound =
  let r = nonneg t in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t x =
  (* 53 random bits mapped to [0, 1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (r /. 9007199254740992.0)

let[@inline] bool t p = float t 1.0 < p

(* Uniform in (0, 1): [log] of it is finite.  A loop, not a recursive
   function, so it inlines and the float stays unboxed. *)
let[@inline] nonzero t =
  let u = ref (float t 1.0) in
  while !u <= 0.0 do
    u := float t 1.0
  done;
  !u

let gaussian t ~mu ~sigma =
  let u1 = nonzero t and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let[@inline] jitter t eps = 1.0 -. eps +. float t (2.0 *. eps)

let exponential t ~mean = -.mean *. log (nonzero t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
