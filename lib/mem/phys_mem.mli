(** Physical memory: frame allocation and reclaim watermarks.

    Mirrors the kernel's zone watermarks: background reclaim (kswapd)
    wakes when free frames drop below the low watermark and sleeps once
    they recover past the high watermark; an allocation that finds no
    free frame enters direct reclaim.  Watermarks count free frames
    across every pool.

    The frame range may be split into {e pools} — consecutive pfn
    ranges, each with its own free stack, like NUMA nodes of a tiered
    machine (pool 0 the fast tier, higher pools slower ones).  An
    untiered machine is one pool. *)

type t

val create :
  ?low_watermark:int -> ?high_watermark:int -> ?pools:int array -> frames:int ->
  unit -> t
(** Watermarks default to 1 % / 2 % of [frames] (at least 16 / 32
    frames), kernel-like fractions small enough that bursty allocation
    can outrun background reclaim.  [pools] gives the pool sizes, pool 0
    at the lowest pfns (default: one pool of [frames]).
    @raise Invalid_argument unless
    [0 <= low_watermark <= high_watermark <= frames] and the pool sizes
    are positive and sum to [frames]. *)

val frames : t -> int
(** Total frame-number range, including offlined frames. *)

val free_count : t -> int

val used_count : t -> int
(** Allocated online frames: [online_count - free_count]. *)

val online_count : t -> int
(** Frames currently online (all of them until a hotplug injector
    offlines some). *)

val low_watermark : t -> int

val high_watermark : t -> int

val pools : t -> int

val pool_of : t -> int -> int
(** The pool a frame belongs to. *)

val pool_free : t -> int -> int
(** Free frames of one pool. *)

val pool_used : t -> int -> int
(** Allocated online frames of one pool. *)

val alloc : t -> int option
(** Take a free frame (LIFO within a pool, lowest pool first), or
    [None] when memory is exhausted. *)

val alloc_pfn : t -> int
(** Allocation-free {!alloc}: the frame number, or [-1] when memory is
    exhausted.  The fault path's allocator. *)

val alloc_pfn_in : t -> pool:int -> int
(** Take a free frame of [pool] only, or [-1] when that pool is
    exhausted. *)

val free : t -> int -> unit
(** Return a frame.  @raise Invalid_argument on double free. *)

val is_free : t -> int -> bool

val is_online : t -> int -> bool

val offline_free : t -> int -> unit
(** Memory-hotplug offline of a {e free} frame: remove it from its
    pool's free stack and from the online counts.  @raise Invalid_argument if the
    frame is allocated or already offline. *)

val offline_used : t -> int -> unit
(** Offline an {e allocated} frame whose contents the caller has already
    migrated or reclaimed-and-refreed elsewhere: the frame leaves the
    online count without ever returning to the free stack.
    @raise Invalid_argument if the frame is free or already offline. *)

val online : t -> int -> unit
(** Re-online a previously offlined frame; it rejoins its pool's free
    stack.
    @raise Invalid_argument if the frame is already online. *)

val below_low : t -> bool
(** Free count strictly below the low watermark — kswapd should run. *)

val above_high : t -> bool
(** Free count at or above the high watermark — kswapd can sleep. *)
