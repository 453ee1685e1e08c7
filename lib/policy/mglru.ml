module Prof = Obs.Prof

type scan_mode =
  | Bloom_filtered
  | Scan_all
  | Scan_none
  | Scan_rand of float

type config = {
  max_gens : int;
  min_gens : int;
  scan_mode : scan_mode;
  bloom_bits : int;
  bloom_hashes : int;
  bloom_density_shift : int;
  tiers : int;
  tier_protection : bool;
  evict_batch : int;
  aging_regions_per_step : int;
  spatial_scan : bool;
}

let default_config =
  {
    max_gens = 4;
    min_gens = 2;
    scan_mode = Bloom_filtered;
    bloom_bits = 1 lsl 15;
    bloom_hashes = 2;
    bloom_density_shift = 3;
    tiers = 4;
    tier_protection = true;
    evict_batch = 32;
    aging_regions_per_step = 16;
    spatial_scan = true;
  }

let gen14_config = { default_config with max_gens = 1 lsl 14 }

let with_mode scan_mode config = { config with scan_mode }

type t = {
  env : Policy_intf.env;
  config : config;
  lists : Structures.Dlist.t; (* slot = seq mod max_gens *)
  gen_of : int array;         (* pfn -> generation seq; -1 detached *)
  tier_of : int array;        (* pfn -> access tier *)
  mutable max_seq : int;
  mutable min_seq : int;
  mutable bloom_cur : Structures.Bloom.t;
  mutable bloom_next : Structures.Bloom.t;
  mutable bloom_primed : bool; (* first pass scans everything *)
  (* Aging walker state: a pass walks this region list.  A pass is
     requested only when eviction hits the bottom of the generation
     window (try_to_inc_max_seq), and eviction that fully drains the
     oldest generation before the pass completes must wait for it — the
     serialization behind MG-LRU's reclaim stalls (paper §VI-A).
     The list is flattened into parallel arrays (page table / region
     index) rebuilt only when the region count changes, so starting a
     pass does not rebuild a tuple list every time. *)
  mutable walk_pts : Mem.Page_table.t array;
  mutable walk_regions : int array;
  mutable walk_len : int;
  mutable walk_pos : int;
  mutable aging_active : bool;
  mutable aging_requested : bool;
  (* Refault records, packed like Linux's shadow entries: per address
     space, a vpn-indexed array holding [evict_seq * tiers + tier] of
     the page's last eviction, or [no_record].  An address space's
     array is allocated at its first eviction. *)
  mutable records : int array array; (* asid -> vpn -> record *)
  pid : Structures.Pid.t;
  mutable protected_tiers : int;
  tier_evictions : int array;
  tier_refaults : int array;
  (* Metrics. *)
  mutable aging_passes : int;
  mutable regions_scanned : int;
  mutable regions_skipped : int;
  mutable ptes_scanned : int;
  mutable aging_promotions : int;
  mutable evict_promotions : int;
  mutable spatial_promotions : int;
  mutable evictions : int;
  mutable refaults : int;
  mutable forced_evictions : int;
  mutable tier_protected_saves : int;
  mutable stuck_full_window : int; (* aging wanted a new gen but was at cap *)
}

let policy_name = "mglru"

let create_with ?(config = default_config) (env : Policy_intf.env) =
  if config.max_gens < config.min_gens then invalid_arg "Mglru: max_gens < min_gens";
  if config.min_gens < 1 then invalid_arg "Mglru: min_gens < 1";
  let nodes = env.Policy_intf.total_frames in
  let mk_bloom () =
    Structures.Bloom.create ~hashes:config.bloom_hashes ~bits:config.bloom_bits
      ~seed:(Engine.Rng.int env.Policy_intf.rng max_int)
      ()
  in
  {
    env;
    config;
    lists = Structures.Dlist.create ~nodes ~lists:config.max_gens;
    gen_of = Array.make nodes (-1);
    tier_of = Array.make nodes 0;
    max_seq = config.min_gens - 1;
    min_seq = 0;
    bloom_cur = mk_bloom ();
    bloom_next = mk_bloom ();
    bloom_primed = false;
    walk_pts = [||];
    walk_regions = [||];
    walk_len = 0;
    walk_pos = 0;
    aging_active = false;
    aging_requested = false;
    records = [||];
    pid = Structures.Pid.create ~kp:0.5 ~ki:0.2 ~integral_limit:10.0 ~setpoint:0.0 ();
    protected_tiers = 0;
    tier_evictions = Array.make config.tiers 0;
    tier_refaults = Array.make config.tiers 0;
    aging_passes = 0;
    regions_scanned = 0;
    regions_skipped = 0;
    ptes_scanned = 0;
    aging_promotions = 0;
    evict_promotions = 0;
    spatial_promotions = 0;
    evictions = 0;
    refaults = 0;
    forced_evictions = 0;
    tier_protected_saves = 0;
    stuck_full_window = 0;
  }

let create env = create_with env

let max_seq t = t.max_seq

let min_seq t = t.min_seq

let nr_gens t = t.max_seq - t.min_seq + 1

let slot t seq = seq mod t.config.max_gens

let gen_size t seq = Structures.Dlist.size t.lists (slot t seq)

let frame_gen t pfn = t.gen_of.(pfn)

let frame_tier t pfn = t.tier_of.(pfn)

let config_of t = t.config

let costs t = t.env.Policy_intf.costs

let vm t = t.env.Policy_intf.vmstat

let no_record = -1

let records_of t asid =
  if asid >= Array.length t.records then begin
    let grown = Array.make (asid + 1) [||] in
    Array.blit t.records 0 grown 0 (Array.length t.records);
    t.records <- grown
  end;
  if Array.length t.records.(asid) = 0 then begin
    let pages = Mem.Page_table.pages (t.env.Policy_intf.page_table_of asid) in
    t.records.(asid) <- Array.make pages no_record
  end;
  t.records.(asid)

(* The first lookup after an eviction consumes its record. *)
let take_record t ~asid ~vpn =
  if asid >= Array.length t.records then no_record
  else begin
    let r = t.records.(asid) in
    if vpn >= Array.length r then no_record
    else begin
      let record = r.(vpn) in
      r.(vpn) <- no_record;
      record
    end
  end

(* Attach a frame to a generation list (detaching it first if needed). *)
let place t ~pfn ~seq ~tier =
  t.gen_of.(pfn) <- seq;
  t.tier_of.(pfn) <- tier;
  Structures.Dlist.move_head t.lists ~list:(slot t seq) ~node:pfn

let promote_to_youngest t ~pfn =
  if t.gen_of.(pfn) <> t.max_seq then place t ~pfn ~seq:t.max_seq ~tier:t.tier_of.(pfn)
  else Structures.Dlist.move_head t.lists ~list:(slot t t.max_seq) ~node:pfn

let on_page_mapped t ~pfn ~asid ~vpn ~refault ~file_backed ~speculative =
  let record =
    if refault then begin
      t.refaults <- t.refaults + 1;
      take_record t ~asid ~vpn
    end
    else no_record
  in
  let tiers = t.config.tiers in
  let tier =
    if file_backed && record <> no_record then
      min ((record mod tiers) + 1) (tiers - 1)
    else 0
  in
  if record <> no_record then t.tier_refaults.(tier) <- t.tier_refaults.(tier) + 1;
  (* Workingset detection: pages refaulting within one generation window
     of their eviction are working set and start young; pages that
     stayed out longer — and speculative readahead and fresh file pages
     — start one generation above the eviction generation, so one-hit
     and long-idle pages cannot flood the young generations (file pages
     then climb by tier, paper §III-D). *)
  let old_seq = min (t.min_seq + 1) t.max_seq in
  let seq =
    if file_backed || speculative then old_seq
    else if
      record <> no_record && t.max_seq - (record / tiers) > t.config.max_gens
    then old_seq
    else t.max_seq
  in
  place t ~pfn ~seq ~tier

let on_page_touched _t ~pfn:_ ~write:_ = ()

(* ------------------------------------------------------------------ *)
(* Aging: linear page-table walks filtered by the Bloom filter.        *)
(* ------------------------------------------------------------------ *)

let inc_max_seq t =
  if nr_gens t < t.config.max_gens then begin
    t.max_seq <- t.max_seq + 1;
    true
  end
  else begin
    t.stuck_full_window <- t.stuck_full_window + 1;
    false
  end

let should_scan_region t region =
  match t.config.scan_mode with
  | Scan_all -> true
  | Scan_none -> false
  | Scan_rand p -> Engine.Rng.bool t.env.Policy_intf.rng p
  | Bloom_filtered ->
    (not t.bloom_primed) || Structures.Bloom.mem t.bloom_cur region

let scan_region t pt region (work : int ref) =
  let c = costs t in
  let prof = t.env.Policy_intf.prof in
  let accessed_here = ref 0 in
  let entries = ref 0 in
  Mem.Page_table.iter_region pt region (fun vpn pte ->
      incr entries;
      work := !work + c.Mem.Costs.pte_scan_ns;
      t.ptes_scanned <- t.ptes_scanned + 1;
      if Mem.Pte.present pte && Mem.Pte.accessed pte then begin
        incr accessed_here;
        Mem.Page_table.set pt vpn (Mem.Pte.clear_accessed pte);
        let pfn = Mem.Pte.pfn pte in
        promote_to_youngest t ~pfn;
        t.aging_promotions <- t.aging_promotions + 1;
        (* Generational promotion, not a Clock-style pgactivate: the
           paper's "fewer ping-pongs" claim is exactly this split. *)
        Obs.Vmstat.incr (vm t) Obs.Vmstat.mglru_promoted;
        if Obs.enabled t.env.Policy_intf.obs then
          Obs.emit t.env.Policy_intf.obs ~t_ns:(t.env.Policy_intf.now ())
            (Obs.Promote { pfn; reason = Obs.Aging });
        work := !work + c.Mem.Costs.list_op_ns
      end);
  Prof.charge_phase prof Prof.Pte_scan (!entries * c.Mem.Costs.pte_scan_ns);
  Prof.charge_phase prof Prof.Aging_walk
    (!accessed_here * c.Mem.Costs.list_op_ns);
  let threshold = max 1 (!entries lsr t.config.bloom_density_shift) in
  if !accessed_here >= threshold then begin
    Structures.Bloom.add t.bloom_next region;
    work := !work + c.Mem.Costs.bloom_update_ns;
    Prof.charge_phase prof Prof.Aging_walk c.Mem.Costs.bloom_update_ns
  end

let update_tier_protection t =
  if t.config.tier_protection && t.config.tiers > 1 then begin
    let rate k =
      let ev = t.tier_evictions.(k) and rf = t.tier_refaults.(k) in
      if ev + rf = 0 then 0.0 else float_of_int rf /. float_of_int (ev + rf)
    in
    let base = rate 0 in
    let hi = ref 0.0 and n = ref 0 in
    for k = 1 to t.config.tiers - 1 do
      if t.tier_evictions.(k) + t.tier_refaults.(k) > 0 then begin
        hi := !hi +. rate k;
        incr n
      end
    done;
    if !n > 0 then begin
      let measurement = base -. (!hi /. float_of_int !n) in
      (* Setpoint 0: positive output means higher tiers refault more than
         tier 0 and deserve protection. *)
      let out = Structures.Pid.update t.pid ~measurement ~dt:1.0 in
      let level = int_of_float (Float.round (out *. float_of_int (t.config.tiers - 1))) in
      t.protected_tiers <- max 0 (min (t.config.tiers - 1) level)
    end;
    Array.fill t.tier_evictions 0 t.config.tiers 0;
    Array.fill t.tier_refaults 0 t.config.tiers 0
  end

let start_aging_pass t =
  (match t.config.scan_mode with
  | Scan_none -> t.walk_len <- 0 (* pure generation rotation, no walk *)
  | Bloom_filtered | Scan_all | Scan_rand _ ->
    let spaces = t.env.Policy_intf.address_spaces () in
    let total =
      List.fold_left (fun acc pt -> acc + Mem.Page_table.regions pt) 0 spaces
    in
    (* Address spaces are fixed for a machine's lifetime, so the region
       count changing is the only rebuild trigger in practice. *)
    if total <> Array.length t.walk_regions then begin
      match spaces with
      | [] ->
        t.walk_pts <- [||];
        t.walk_regions <- [||]
      | pt0 :: _ ->
        let pts = Array.make total pt0 in
        let regs = Array.make total 0 in
        let i = ref 0 in
        List.iter
          (fun pt ->
            for r = 0 to Mem.Page_table.regions pt - 1 do
              pts.(!i) <- pt;
              regs.(!i) <- r;
              incr i
            done)
          spaces;
        t.walk_pts <- pts;
        t.walk_regions <- regs
    end;
    t.walk_len <- total);
  t.walk_pos <- 0;
  t.aging_active <- true

let finish_aging_pass t =
  t.aging_active <- false;
  t.aging_requested <- false;
  t.aging_passes <- t.aging_passes + 1;
  Obs.Vmstat.incr (vm t) Obs.Vmstat.mglru_aging_passes;
  ignore (inc_max_seq t);
  (* The filter built during this pass guides the next one. *)
  let cur = t.bloom_cur in
  t.bloom_cur <- t.bloom_next;
  Structures.Bloom.clear cur;
  t.bloom_next <- cur;
  t.bloom_primed <- true;
  update_tier_protection t;
  Obs.emit t.env.Policy_intf.obs ~t_ns:(t.env.Policy_intf.now ())
    (Obs.Aging_pass
       { pass = t.aging_passes; max_seq = t.max_seq; min_seq = t.min_seq })

(* One bounded aging step; returns CPU work consumed. *)
let aging_step t ~budget:step_budget =
  if not t.aging_active then start_aging_pass t;
  let c = costs t in
  let work = ref 0 in
  let budget = ref step_budget in
  while !budget > 0 && t.walk_pos < t.walk_len do
    let pt = t.walk_pts.(t.walk_pos) in
    let region = t.walk_regions.(t.walk_pos) in
    t.walk_pos <- t.walk_pos + 1;
    work := !work + c.Mem.Costs.bloom_query_ns;
    if should_scan_region t region then begin
      t.regions_scanned <- t.regions_scanned + 1;
      scan_region t pt region work
    end
    else t.regions_skipped <- t.regions_skipped + 1;
    decr budget
  done;
  Prof.charge_phase t.env.Policy_intf.prof Prof.Aging_walk
    ((step_budget - !budget) * c.Mem.Costs.bloom_query_ns);
  if t.walk_pos >= t.walk_len then finish_aging_pass t;
  max !work 200

(* ------------------------------------------------------------------ *)
(* Eviction: scan the oldest generation through the reverse map.       *)
(* ------------------------------------------------------------------ *)

let request_aging t = t.aging_requested <- true

(* Advance min_seq past empty generations, but never shrink the window
   below [min_gens] (the kernel's MIN_NR_GENS invariant): once at the
   bottom, a new generation must come from an aging pass. *)
let refresh_min_seq t =
  while
    nr_gens t > t.config.min_gens
    && Structures.Dlist.is_empty t.lists (slot t t.min_seq)
  do
    t.min_seq <- t.min_seq + 1
  done

let spatial_scan_region t pt region (stats : Policy_intf.reclaim_stats) =
  let c = costs t in
  let prof = t.env.Policy_intf.prof in
  let scanned = ref 0 in
  let promoted = ref 0 in
  Mem.Page_table.iter_region pt region (fun vpn pte ->
      if !scanned < c.Mem.Costs.spatial_scan_max then begin
        incr scanned;
        stats.pte_scans <- stats.pte_scans + 1;
        stats.cpu_ns <- stats.cpu_ns + c.Mem.Costs.pte_scan_ns;
        t.ptes_scanned <- t.ptes_scanned + 1;
        if Mem.Pte.present pte && Mem.Pte.accessed pte then begin
          Mem.Page_table.set pt vpn (Mem.Pte.clear_accessed pte);
          let pfn = Mem.Pte.pfn pte in
          promote_to_youngest t ~pfn;
          incr promoted;
          t.spatial_promotions <- t.spatial_promotions + 1;
          Obs.Vmstat.incr (vm t) Obs.Vmstat.mglru_promoted;
          if Obs.enabled t.env.Policy_intf.obs then
            Obs.emit t.env.Policy_intf.obs ~t_ns:(t.env.Policy_intf.now ())
              (Obs.Promote { pfn; reason = Obs.Spatial });
          stats.cpu_ns <- stats.cpu_ns + c.Mem.Costs.list_op_ns
        end
      end);
  Prof.charge_phase prof Prof.Pte_scan (!scanned * c.Mem.Costs.pte_scan_ns);
  Prof.charge_phase prof Prof.Evict_scan (!promoted * c.Mem.Costs.list_op_ns);
  Structures.Bloom.add t.bloom_next region;
  stats.cpu_ns <- stats.cpu_ns + c.Mem.Costs.bloom_update_ns;
  Prof.charge_phase prof Prof.Evict_scan c.Mem.Costs.bloom_update_ns

let evict_candidate t ~force (stats : Policy_intf.reclaim_stats) =
  refresh_min_seq t;
  if nr_gens t <= t.config.min_gens then request_aging t;
  let pfn = Structures.Dlist.tail_node t.lists (slot t t.min_seq) in
  if pfn < 0 then
    if force && t.min_seq < t.max_seq then begin
      (* Emergency: eat into a younger generation rather than deadlock. *)
      t.min_seq <- t.min_seq + 1;
      `Scanned
    end
    else begin
      (* Window at the bottom and its oldest generation is drained:
         reclaim must wait for the aging walk. *)
      request_aging t;
      `Need_aging
    end
  else begin
    let c = costs t in
    stats.scanned <- stats.scanned + 1;
    stats.rmap_walks <- stats.rmap_walks + 1;
    stats.cpu_ns <- stats.cpu_ns + c.Mem.Costs.rmap_walk_ns;
    Prof.charge_phase t.env.Policy_intf.prof Prof.Rmap_walk
      c.Mem.Costs.rmap_walk_ns;
    let frames = t.env.Policy_intf.frames in
    let vpn = Mem.Frame_table.owner_vpn frames pfn in
    if vpn < 0 then begin
      Structures.Dlist.remove t.lists ~node:pfn;
      t.gen_of.(pfn) <- -1;
      `Scanned
    end
    else begin
      let asid = Mem.Frame_table.owner_asid frames pfn in
      let pt = t.env.Policy_intf.page_table_of asid in
      let pte = Mem.Page_table.get pt vpn in
      if Mem.Pte.accessed pte && not force then begin
        Mem.Page_table.set pt vpn (Mem.Pte.clear_accessed pte);
        promote_to_youngest t ~pfn;
        t.evict_promotions <- t.evict_promotions + 1;
        stats.promoted <- stats.promoted + 1;
        Obs.Vmstat.incr (vm t) Obs.Vmstat.mglru_promoted;
        if Obs.enabled t.env.Policy_intf.obs then
          Obs.emit t.env.Policy_intf.obs ~t_ns:(t.env.Policy_intf.now ())
            (Obs.Promote { pfn; reason = Obs.Evict_scan });
        stats.cpu_ns <- stats.cpu_ns + c.Mem.Costs.list_op_ns;
        Prof.charge_phase t.env.Policy_intf.prof Prof.Evict_scan
          c.Mem.Costs.list_op_ns;
        (* Unlike Clock, exploit page-table locality around the hit and
           feed the region back to the aging filter (paper §III-C). *)
        if t.config.spatial_scan then
          spatial_scan_region t pt (Mem.Page_table.region_of pt vpn) stats;
        `Scanned
      end
      else begin
        let tier = t.tier_of.(pfn) in
        if
          (not force) && t.config.tier_protection && Mem.Pte.file_backed pte
          && tier > 0
          && tier <= t.protected_tiers
        then begin
          (* Shielded tier: give it one more generation instead. *)
          place t ~pfn ~seq:(min (t.min_seq + 1) t.max_seq) ~tier;
          t.tier_protected_saves <- t.tier_protected_saves + 1;
          Obs.Vmstat.incr (vm t) Obs.Vmstat.mglru_tier_protected;
          stats.cpu_ns <- stats.cpu_ns + c.Mem.Costs.list_op_ns;
          Prof.charge_phase t.env.Policy_intf.prof Prof.Evict_scan
            c.Mem.Costs.list_op_ns;
          `Scanned
        end
        else if not (t.env.Policy_intf.evictable ~pfn ~force) then begin
          (* Cgroup gate: outside the targeted group or shielded by
             memory.low — park it one generation up, like a protected
             tier, and keep scanning. *)
          place t ~pfn ~seq:(min (t.min_seq + 1) t.max_seq) ~tier;
          stats.cpu_ns <- stats.cpu_ns + c.Mem.Costs.list_op_ns;
          Prof.charge_phase t.env.Policy_intf.prof Prof.Evict_scan
            c.Mem.Costs.list_op_ns;
          `Scanned
        end
        else begin
          Structures.Dlist.remove t.lists ~node:pfn;
          t.gen_of.(pfn) <- -1;
          t.tier_evictions.(min tier (t.config.tiers - 1)) <-
            t.tier_evictions.(min tier (t.config.tiers - 1)) + 1;
          (records_of t asid).(vpn) <- (t.max_seq * t.config.tiers) + tier;
          t.env.Policy_intf.reclaim_page ~pfn;
          t.evictions <- t.evictions + 1;
          if force then t.forced_evictions <- t.forced_evictions + 1;
          stats.freed <- stats.freed + 1;
          `Freed
        end
      end
    end
  end

let shrink t ~want ~force stats =
  let budget = ref (max (4 * t.config.evict_batch) (8 * want)) in
  let progress = ref true in
  while stats.Policy_intf.freed < want && !budget > 0 && !progress do
    (match evict_candidate t ~force stats with
    | `Need_aging -> progress := false
    | `Scanned | `Freed -> ());
    decr budget
  done

(* Run the pending aging pass to completion in the caller's context,
   charging its CPU to [stats] — a direct reclaimer stalls for exactly
   this long. *)
let finish_aging_synchronously t (stats : Policy_intf.reclaim_stats) =
  let guard = ref (t.walk_len + (t.env.Policy_intf.total_frames / 8) + 64) in
  while (t.aging_active || t.aging_requested) && !guard > 0 do
    stats.Policy_intf.cpu_ns <-
      stats.Policy_intf.cpu_ns + aging_step t ~budget:t.config.aging_regions_per_step;
    decr guard
  done

let direct_reclaim t ~want =
  let stats = Policy_intf.fresh_stats () in
  shrink t ~want ~force:false stats;
  if stats.Policy_intf.freed = 0 && (t.aging_active || t.aging_requested) then begin
    finish_aging_synchronously t stats;
    shrink t ~want ~force:false stats
  end;
  if stats.Policy_intf.freed = 0 then begin
    (* The whole window may be freshly accessed; escalate rather than
       deadlock (the kernel's priority mechanism). *)
    request_aging t;
    finish_aging_synchronously t stats;
    shrink t ~want ~force:true stats
  end;
  Obs.Vmstat.add (vm t) Obs.Vmstat.pgscan_direct stats.Policy_intf.scanned;
  stats

let kswapd t () =
  let env = t.env in
  if env.Policy_intf.free_count () >= env.Policy_intf.high_watermark then
    Policy_intf.Sleep_until_woken
  else begin
    let stats = Policy_intf.fresh_stats () in
    shrink t ~want:t.config.evict_batch ~force:false stats;
    Obs.Vmstat.add (vm t) Obs.Vmstat.pgscan_kswapd stats.Policy_intf.scanned;
    if stats.Policy_intf.freed = 0 then
      if t.aging_active || t.aging_requested then
        (* Blocked on the walk: lend this kswapd step to it. *)
        Policy_intf.Work
          (stats.Policy_intf.cpu_ns
          + aging_step t ~budget:t.config.aging_regions_per_step)
      else begin
        request_aging t;
        Policy_intf.Sleep 50_000
      end
    else Policy_intf.Work (max stats.Policy_intf.cpu_ns 1_000)
  end

let aging_thread t () =
  (* Demand-driven, as in the kernel: a pass starts only when eviction
     finds the generation window too small (try_to_inc_max_seq). *)
  if t.aging_active || t.aging_requested then
    Policy_intf.Work (aging_step t ~budget:t.config.aging_regions_per_step)
  else Policy_intf.Sleep_until_woken

let kthreads t =
  [
    { Policy_intf.kname = "kswapd"; kstep = kswapd t };
    { Policy_intf.kname = "lru_gen_aging"; kstep = aging_thread t };
  ]

let stats t =
  [
    ("max_seq", t.max_seq);
    ("min_seq", t.min_seq);
    ("nr_gens", nr_gens t);
    ("aging_passes", t.aging_passes);
    ("regions_scanned", t.regions_scanned);
    ("regions_skipped", t.regions_skipped);
    ("ptes_scanned", t.ptes_scanned);
    ("aging_promotions", t.aging_promotions);
    ("evict_promotions", t.evict_promotions);
    ("spatial_promotions", t.spatial_promotions);
    ("evictions", t.evictions);
    ("refaults", t.refaults);
    ("forced_evictions", t.forced_evictions);
    ("tier_protected_saves", t.tier_protected_saves);
    ("stuck_full_window", t.stuck_full_window);
    ("protected_tiers", t.protected_tiers);
  ]

(* Per-generation occupancy keyed by age (0 = youngest) so series stay
   comparable across trials; gen14's 16k-generation window collapses
   into age buckets 0-7 plus an "older" remainder. *)
let gauges t =
  let ages = min (nr_gens t) 8 in
  let by_age =
    List.init ages (fun age ->
        ( Printf.sprintf "gen_age%d" age,
          float_of_int (gen_size t (t.max_seq - age)) ))
  in
  let older = ref 0 in
  for seq = t.min_seq to t.max_seq - ages do
    older := !older + gen_size t seq
  done;
  by_age
  @ [
      ("gen_older", float_of_int !older);
      ("nr_gens", float_of_int (nr_gens t));
      ("max_seq", float_of_int t.max_seq);
      ("min_seq", float_of_int t.min_seq);
      ("refaults", float_of_int t.refaults);
      ("protected_tiers", float_of_int t.protected_tiers);
      ("pid_error", Structures.Pid.last_error t.pid);
      ("pid_output", Structures.Pid.output t.pid);
    ]

let check_invariants t =
  Structures.Dlist.check_invariants t.lists;
  if t.min_seq > t.max_seq then failwith "Mglru: min_seq > max_seq";
  if nr_gens t > t.config.max_gens then failwith "Mglru: window exceeds max_gens";
  Array.iteri
    (fun pfn seq ->
      match Structures.Dlist.list_of t.lists pfn with
      | None -> if seq <> -1 then failwith "Mglru: detached frame has a generation"
      | Some l ->
        if seq < t.min_seq || seq > t.max_seq then
          failwith "Mglru: generation outside window";
        if l <> slot t seq then failwith "Mglru: frame on wrong generation list")
    t.gen_of
