type t = int

let flag_present = 1
let flag_accessed = 2
let flag_dirty = 4
let flag_file = 8
let flag_swapped = 16
let flag_hint = 32
let flag_slow = 64
let payload_shift = 8
let flags_mask = (1 lsl payload_shift) - 1

let empty = 0

let present t = t land flag_present <> 0

let accessed t = t land flag_accessed <> 0

let dirty t = t land flag_dirty <> 0

let file_backed t = t land flag_file <> 0

let swapped t = t land flag_swapped <> 0

let hinted t = t land flag_hint <> 0

let slow t = t land flag_slow <> 0

let hit t = t land (flag_present lor flag_hint lor flag_slow) = flag_present

let payload t = t lsr payload_shift

let pfn t =
  if not (present t) then invalid_arg "Pte.pfn: entry not present";
  payload t

let swap_slot t =
  if not (swapped t) then invalid_arg "Pte.swap_slot: entry not swapped";
  payload t

let mapped ~pfn ~file_backed =
  (pfn lsl payload_shift) lor flag_present lor (if file_backed then flag_file else 0)

let set_accessed t = t lor flag_accessed

let clear_accessed t = t land lnot flag_accessed

let set_dirty t = t lor flag_dirty

let clear_dirty t = t land lnot flag_dirty

let set_hint t = t lor flag_hint

let clear_hint t = t land lnot flag_hint

let set_slow t = t lor flag_slow

let to_swapped t ~slot =
  (slot lsl payload_shift) lor flag_swapped lor (t land flag_file)

let to_mapped t ~pfn =
  (pfn lsl payload_shift) lor flag_present lor (t land flag_file)

let remap t ~pfn =
  (pfn lsl payload_shift) lor (t land flags_mask land lnot flag_slow)

let pp fmt t =
  if present t then
    Format.fprintf fmt "pfn=%d%s%s%s%s%s" (pfn t)
      (if accessed t then " A" else "")
      (if dirty t then " D" else "")
      (if file_backed t then " F" else "")
      (if hinted t then " H" else "")
      (if slow t then " S" else "")
  else if swapped t then Format.fprintf fmt "swap=%d" (swap_slot t)
  else Format.fprintf fmt "empty"
