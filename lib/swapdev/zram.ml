type config = {
  read_ns : int;
  write_ns : int;
  channels : int;
  jitter : float;
  size_sensitivity : float;
}

let default_config =
  { read_ns = 20_000; write_ns = 35_000; channels = 12; jitter = 0.10;
    size_sensitivity = 0.5 }

let create ?(config = default_config) ~rng () =
  if config.channels <= 0 then invalid_arg "Zram.create: channels must be positive";
  let free_at = Array.make config.channels 0 in
  let reads = ref 0 and writes = ref 0 in
  let c = Device.completion () in
  let earliest_channel () =
    let best = ref 0 in
    for i = 1 to config.channels - 1 do
      if free_at.(i) < free_at.(!best) then best := i
    done;
    !best
  in
  let submit ~now ~op ~size_fraction =
    let base =
      match op with
      | Device.Read ->
        incr reads;
        config.read_ns
      | Device.Write ->
        incr writes;
        config.write_ns
    in
    let s = config.size_sensitivity in
    let size_scale = 1.0 -. s +. (s *. (Float.max 0.01 size_fraction /. 0.5)) in
    let service =
      int_of_float
        (float_of_int base *. size_scale *. Engine.Rng.jitter rng config.jitter)
    in
    let ch = earliest_channel () in
    let start = max now free_at.(ch) in
    let finish = start + service in
    free_at.(ch) <- finish;
    (* Compression work runs on the host CPU, not a device controller. *)
    c.Device.finish_ns <- finish;
    c.Device.cpu_ns <- service;
    c.Device.status <- Device.Done;
    c
  in
  {
    Device.name = "zram";
    submit;
    reads = (fun () -> !reads);
    writes = (fun () -> !writes);
    busy_until = (fun () -> Array.fold_left max 0 free_at);
  }

let stored_bytes_estimate ~pages ~mean_ratio =
  int_of_float (float_of_int pages *. 4096.0 *. mean_ratio)
