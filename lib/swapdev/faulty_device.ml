type plan = {
  read_error_prob : float;
  write_error_prob : float;
  permanent_fraction : float;
  burst_every_ops : int;
  burst_len_ops : int;
  burst_permanent : bool;
  stall_every_ops : int;
  stall_ns : int;
  tail_prob : float;
  tail_multiplier : float;
}

let none =
  {
    read_error_prob = 0.0;
    write_error_prob = 0.0;
    permanent_fraction = 0.0;
    burst_every_ops = 0;
    burst_len_ops = 0;
    burst_permanent = false;
    stall_every_ops = 0;
    stall_ns = 0;
    tail_prob = 0.0;
    tail_multiplier = 1.0;
  }

let is_none p =
  p.read_error_prob = 0.0 && p.write_error_prob = 0.0
  && (p.burst_every_ops <= 0 || p.burst_len_ops <= 0)
  && (p.stall_every_ops <= 0 || p.stall_ns <= 0)
  && (p.tail_prob = 0.0 || p.tail_multiplier <= 1.0)

(* Occasional recoverable hiccups: rare per-op errors, firmware pauses,
   a thin tail of slow completions. *)
let light =
  {
    none with
    read_error_prob = 0.002;
    write_error_prob = 0.002;
    permanent_fraction = 0.02;
    stall_every_ops = 4096;
    stall_ns = 5_000_000;
    tail_prob = 0.005;
    tail_multiplier = 8.0;
  }

(* A device on its way out: dense error bursts that are permanent (worn
   blocks), frequent stalls, a heavy latency tail. *)
let heavy =
  {
    read_error_prob = 0.01;
    write_error_prob = 0.01;
    permanent_fraction = 0.25;
    burst_every_ops = 600;
    burst_len_ops = 400;
    burst_permanent = true;
    stall_every_ops = 1024;
    stall_ns = 20_000_000;
    tail_prob = 0.02;
    tail_multiplier = 20.0;
  }

let plan_of_name = function
  | "none" -> Some none
  | "light" -> Some light
  | "heavy" -> Some heavy
  | _ -> None

type counters = {
  mutable transient_errors : int;
  mutable permanent_errors : int;
  mutable stalls : int;
  mutable tail_spikes : int;
}

let injected c =
  c.transient_errors + c.permanent_errors + c.stalls + c.tail_spikes

(* Wear is drawn before transient errors, so the transient draw is
   conditional on wear missing; its probability is scaled up to keep the
   marginal rate p·(1 - permanent). *)
type rates = { wear : float; errors : float }

let rates ~p ~permanent =
  let wear = p *. permanent in
  let errors =
    if wear >= 1.0 then 0.0 else p *. (1.0 -. permanent) /. (1.0 -. wear)
  in
  { wear; errors }

let no_errors = { wear = 0.0; errors = 0.0 }

type t = {
  plan : plan;
  mutable read : rates;
  mutable write : rates;
  mutable latency : float;
  rng : Engine.Rng.t;
  counters : counters;
  mutable ops : int;
}

let counters t = t.counters

let restore t =
  t.read <- rates ~p:t.plan.read_error_prob ~permanent:t.plan.permanent_fraction;
  t.write <- rates ~p:t.plan.write_error_prob ~permanent:t.plan.permanent_fraction;
  t.latency <- 1.0

let degrade t ?latency ?errors ?wear () =
  let turn r =
    {
      wear = Option.value wear ~default:r.wear;
      errors = Option.value errors ~default:r.errors;
    }
  in
  t.read <- turn t.read;
  t.write <- turn t.write;
  Option.iter (fun l -> t.latency <- l) latency

(* The wrapper rewrites the inner device's completion record in place;
   [Failed Transient] and [Failed Permanent] are static constants, so
   an injected outcome allocates nothing either. *)
let fail t (c : Device.completion) kind =
  let n = t.counters in
  (match kind with
  | Device.Transient ->
    n.transient_errors <- n.transient_errors + 1;
    c.Device.status <- Device.Failed Device.Transient
  | Device.Permanent ->
    n.permanent_errors <- n.permanent_errors + 1;
    c.Device.status <- Device.Failed Device.Permanent);
  c

let submit t inner ~now ~op ~size_fraction =
  let k = t.plan in
  let seq = t.ops in
  t.ops <- seq + 1;
  let busy0 = if t.latency <> 1.0 then inner.Device.busy_until () else 0 in
  let c = inner.Device.submit ~now ~op ~size_fraction in
  let r = match op with Device.Read -> t.read | Device.Write -> t.write in
  if k.burst_every_ops > 0 && k.burst_len_ops > 0
     && seq mod k.burst_every_ops < k.burst_len_ops
  then fail t c (if k.burst_permanent then Device.Permanent else Device.Transient)
  (* Wear is drawn before transient errors, so each knob consumes a
     stable number of draws per op while it is set. *)
  else if r.wear > 0.0 && Engine.Rng.bool t.rng r.wear then
    fail t c Device.Permanent
  else if r.errors > 0.0 && Engine.Rng.bool t.rng r.errors then
    fail t c Device.Transient
  else begin
    (* Latency, stalls and tail spikes delay only this completion
       (host-visible latency: throughput collapse, firmware pauses,
       retries inside the controller); they do not extend the device's
       channel occupancy. *)
    let finish = ref c.Device.finish_ns in
    if t.latency <> 1.0 then begin
      (* Stretch only the service portion — the completion minus the
         device's pre-submit busy floor — never the queueing delta.
         Thread-local cursors legitimately run ahead of simulated time
         here, so a stretched queue delta would be re-observed by the
         next submitter and multiplied again: the skew compounds
         exponentially in the multiplier.  Service time is bounded per
         op, so this keeps the slowdown linear and the window finite. *)
      let service = max 1 (!finish - max now busy0) in
      finish :=
        !finish + int_of_float (float_of_int service *. (t.latency -. 1.0))
    end;
    if k.stall_every_ops > 0 && k.stall_ns > 0
       && seq mod k.stall_every_ops = k.stall_every_ops - 1
    then begin
      t.counters.stalls <- t.counters.stalls + 1;
      finish := !finish + k.stall_ns
    end;
    if k.tail_prob > 0.0 && k.tail_multiplier > 1.0
       && Engine.Rng.bool t.rng k.tail_prob
    then begin
      t.counters.tail_spikes <- t.counters.tail_spikes + 1;
      let observed = max 1 (!finish - now) in
      finish :=
        now + int_of_float (float_of_int observed *. k.tail_multiplier)
    end;
    c.Device.finish_ns <- !finish;
    c
  end

let wrap ~plan ~rng inner =
  let t =
    {
      plan;
      read = no_errors;
      write = no_errors;
      latency = 1.0;
      rng;
      counters =
        { transient_errors = 0; permanent_errors = 0; stalls = 0; tail_spikes = 0 };
      ops = 0;
    }
  in
  restore t;
  ( {
      Device.name = inner.Device.name ^ "+faults";
      submit = submit t inner;
      reads = inner.Device.reads;
      writes = inner.Device.writes;
      busy_until = inner.Device.busy_until;
    },
    t )
