let run_one ctx ~workload ~policy ~fast_frac ~trial =
  let w = Runner.make_workload ctx workload ~trial in
  let footprint = Workload.Chunk.packed_footprint w in
  let fast = max 64 (int_of_float (float_of_int footprint *. fast_frac)) in
  let slow = footprint - fast + (footprint / 10) in
  let cfg =
    {
      (Machine.default_config ~capacity_frames:(fast + slow)
         ~seed:(1_000_003 * (trial + 1)))
      with
      Machine.tiering =
        Some
          (Machine.tiering ~fast_frames:fast (Tiering.Tier_registry.create policy));
    }
  in
  Machine.run cfg
    ~policy:(Policy.Registry.create Policy.Registry.Clock)
    ~workload:w

let study_workloads = [ Runner.Tpch; Runner.Pagerank; Runner.Ycsb Workload.Ycsb.B ]

let study ?(fast_frac = 0.5) ?(trials = 3) ctx () =
  Report.section
    (Printf.sprintf "Tiered memory study: fast tier = %.0f%% of footprint"
       (fast_frac *. 100.0));
  Report.note
    "Runtime, slow-tier access share and migration traffic per policy; the";
  Report.note
    "tiers hold the footprint, so nothing swaps - slow touches cost more.";
  (* The whole workload x policy x trial grid runs through the domain
     pool in one batch; each trial builds its own workload and tiered
     machine, so cells are independent.  Results come back in input
     order and feed the serial table pass below. *)
  let grid =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun policy ->
            List.init trials (fun trial -> (workload, policy, trial)))
          Tiering.Tier_registry.all)
      study_workloads
  in
  let all_results =
    Engine.Pool.with_pool
      ~jobs:(min (Runner.jobs ctx) (List.length grid))
      (fun pool ->
        Engine.Pool.map_list pool
          (fun (workload, policy, trial) ->
            run_one ctx ~workload ~policy ~fast_frac ~trial)
          grid)
  in
  let results_of =
    let tbl = Hashtbl.create 16 in
    List.iter2
      (fun (workload, policy, _trial) r ->
        let key = (workload, Tiering.Tier_registry.name policy) in
        Hashtbl.replace tbl key
          (match Hashtbl.find_opt tbl key with
          | Some rs -> rs @ [ r ]
          | None -> [ r ]))
      grid all_results;
    fun workload policy ->
      match Hashtbl.find_opt tbl (workload, Tiering.Tier_registry.name policy) with
      | Some rs -> rs
      | None -> []
  in
  List.iter
    (fun workload ->
      Report.subsection (Runner.workload_kind_name workload);
      let rows =
        List.map
          (fun policy ->
            let results = results_of workload policy in
            let mean f =
              List.fold_left (fun acc r -> acc +. f r) 0.0 results
              /. float_of_int trials
            in
            let tier f r = f (Option.get r.Machine.tier) in
            [
              Tiering.Tier_registry.name policy;
              Report.fsec
                (mean (fun r -> float_of_int r.Machine.runtime_ns /. 1e9));
              Printf.sprintf "%.1f%%" (100.0 *. mean (tier Machine.slow_fraction));
              Report.fcount
                (mean (tier (fun t -> float_of_int t.Machine.promotions)));
              Report.fcount
                (mean (tier (fun t -> float_of_int t.Machine.demotions)));
              Report.fcount
                (mean (tier (fun t -> float_of_int t.Machine.hint_faults)));
              Report.fcount
                (mean (tier (fun t -> float_of_int t.Machine.failed_promotions)));
            ])
          Tiering.Tier_registry.all
      in
      Report.table
        ~header:
          [ "policy"; "runtime"; "slow touches"; "promotions"; "demotions";
            "hint faults"; "failed promo" ]
        rows)
    study_workloads;
  Report.note
    "Expected shape (paper SII-C): static pins whatever loaded first;";
  Report.note
    "autonuma promotes but cannot demote, so it stalls once the fast tier";
  Report.note
    "fills (failed promotions); thermostat and tpp keep migrating and hold";
  Report.note "the lowest slow-touch share."
