(** First-touch placement with no migration: pages land in the fast
    tier until it fills, then in the slow tier, and never move.  The
    baseline every migration policy must beat — and what a tiered system
    degenerates to when its policy cannot keep up. *)

type t = unit

let policy_name = "static"

let create _env = ()

(* Fast first; the machine places the page slow once fast is full. *)
let initial_tier () ~vpn:_ = Migration_intf.Fast

let on_placed _t ~vpn:_ _tier = ()

let on_hint_fault _t ~vpn:_ _tier ~write:_ = ()

let kthreads _t = []

let stats _t = []
