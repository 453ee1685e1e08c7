(** AutoNUMA-style hint-fault balancing (paper §II-C).

    Linux's default tiering mechanism: a scanner walks the address space
    poisoning PTEs in chunks; a hint fault on a slow-tier page promotes
    it toward the faulting task's node.  Crucially — the limitation the
    paper highlights — it was not designed for CPU-less memory nodes and
    {e has no demotion path}: once the fast tier fills, promotions fail
    and the placement freezes wherever it happens to be. *)

type config = {
  scan_chunk : int;     (** pages poisoned per scan step *)
  scan_period_ns : int;
}

let default_config = { scan_chunk = 256; scan_period_ns = 20_000_000 }

type t = {
  env : Migration_intf.env;
  config : config;
  mutable cursor : int;
  mutable just_worked : bool;
  mutable hint_promotions : int;
  mutable failed : int;
  mutable scan_steps : int;
}

let policy_name = "autonuma"

let create_with ?(config = default_config) env =
  { env; config; cursor = 0; just_worked = false; hint_promotions = 0;
    failed = 0; scan_steps = 0 }

let create env = create_with env

(* Fast first; the machine places the page slow once fast is full. *)
let initial_tier _t ~vpn:_ = Migration_intf.Fast

let on_placed _t ~vpn:_ _tier = ()

let on_hint_fault t ~vpn tier ~write:_ =
  match tier with
  | Migration_intf.Fast -> ()
  | Migration_intf.Slow ->
    if t.env.Migration_intf.promote ~vpn then
      t.hint_promotions <- t.hint_promotions + 1
    else t.failed <- t.failed + 1

let kthread t () =
  if t.just_worked then begin
    t.just_worked <- false;
    Policy.Policy_intf.Sleep t.config.scan_period_ns
  end
  else begin
    let pages = Mem.Page_table.pages t.env.Migration_intf.pt in
    let c = t.env.Migration_intf.costs in
    let work = ref 1_000 in
    for _ = 1 to t.config.scan_chunk do
      let vpn = t.cursor in
      t.cursor <- (t.cursor + 1) mod pages;
      work := !work + c.Mem.Costs.pte_scan_ns;
      if t.env.Migration_intf.tier_of vpn <> None then
        t.env.Migration_intf.poison ~vpn
    done;
    t.scan_steps <- t.scan_steps + 1;
    t.just_worked <- true;
    Policy.Policy_intf.Work !work
  end

let kthreads t = [ { Policy.Policy_intf.kname = "numa_balancer"; kstep = kthread t } ]

let stats t =
  [
    ("hint_promotions", t.hint_promotions);
    ("failed_promotions", t.failed);
    ("scan_steps", t.scan_steps);
  ]
