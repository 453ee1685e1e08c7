(** Page table entries as packed integers.

    Layout (one OCaml int per PTE):
    - bit 0: present (mapped to a physical frame)
    - bit 1: accessed — set by simulated hardware on every touch, cleared
      by policy scans, exactly like the x86 A bit the paper's policies
      consume (§II-A)
    - bit 2: dirty
    - bit 3: file-backed (page cache rather than anonymous)
    - bit 4: swapped (contents live in a swap slot)
    - bit 5: hint — a migration policy armed a NUMA-hinting fault on a
      present page (Linux maps it [PROT_NONE]); the next touch traps
    - bit 6: slow — the frame belongs to a slow-tier pool, so every
      touch pays the slow tier's latency
    - bits 8+: payload — the physical frame number while present, the
      swap slot while swapped

    A PTE that is neither present nor swapped has never been populated:
    touching it is a zero-fill minor fault with no device I/O. *)

type t = int

val empty : t

val present : t -> bool

val accessed : t -> bool

val dirty : t -> bool

val file_backed : t -> bool

val swapped : t -> bool

val hinted : t -> bool

val slow : t -> bool

val hit : t -> bool
(** Present, no hint armed, fast tier: the touch completes in hardware
    at full speed.  One mask compare. *)

val payload : t -> int
(** Frame number or swap slot, depending on state. *)

val pfn : t -> int
(** @raise Invalid_argument when not present. *)

val swap_slot : t -> int
(** @raise Invalid_argument when not swapped. *)

val mapped : pfn:int -> file_backed:bool -> t
(** Fresh present entry, accessed and dirty clear. *)

val set_accessed : t -> t

val clear_accessed : t -> t

val set_dirty : t -> t

val clear_dirty : t -> t

val set_hint : t -> t

val clear_hint : t -> t

val set_slow : t -> t

val to_swapped : t -> slot:int -> t
(** Unmap a present entry, recording its swap slot.  Keeps the
    file-backed flag; clears accessed/dirty/hint/slow. *)

val to_mapped : t -> pfn:int -> t
(** Map an entry to a frame.  Keeps the file-backed flag;
    accessed/dirty/hint/slow start clear. *)

val remap : t -> pfn:int -> t
(** Point a present entry at another frame, as page migration does:
    every flag carries over except the tier bit, which belongs to the
    new frame's pool. *)

val pp : Format.formatter -> t -> unit
