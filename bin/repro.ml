(* Command-line interface to the characterization harness.

   repro fig 1 .. 12 | all    reproduce the paper's figures
   repro run ...              run one experiment cell
   repro list                 show available workloads and policies
   repro sweep ...            capacity-ratio sweep for one workload
   repro profile ...          per-phase CPU attribution tables
   repro regret ...           faults-over-Belady scoreboard
   repro trace-summary FILE   aggregate a JSONL trace into tables
   repro fleet ...            multi-tenant containment experiment
   repro chaos ...            runtime-transient resilience report
   repro fuzz ...             config-fuzz soak with shrinking repros
   repro --list-policies      versioned policy descriptor table

   Every subcommand builds one explicit Repro_core.Runner.ctx from its
   flags (scaling profile, fault plan, audit cadence, --jobs, telemetry,
   durability) and threads it through the drivers; the REPRO_TRIALS /
   REPRO_YCSB_TRIALS / REPRO_FAST environment variables remain as
   documented fallbacks, read in exactly one place
   (Runner.profile_from_env).  --trace / --sample-every write their
   files after the experiment output, from the deterministic trace log,
   so traced runs stay byte-identical across --jobs values.

   Durability: --journal FILE appends each completed trial's outcome as
   a checksummed, fsynced JSONL record; --resume warm-starts the cache
   from it so a killed sweep recomputes only what is missing, with
   byte-identical final output.  --trial-timeout SEC cancels runaway
   trials between simulation events; failures render as explicit
   "failed" cells, summarized on stderr at exit, and the exit status is
   non-zero unless --keep-going. *)

open Cmdliner

(* ---------------- the shared run-context terms ---------------- *)

let trials_arg =
  Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"N"
         ~doc:"Trials per TPC-H/PageRank cell (default 25, or \\$REPRO_TRIALS).")

let ycsb_trials_arg =
  Arg.(value & opt (some int) None & info [ "ycsb-trials" ] ~docv:"N"
         ~doc:"Trials per YCSB cell (default 2, or \\$REPRO_YCSB_TRIALS).")

let fast_arg =
  Arg.(value & flag & info [ "fast" ] ~doc:"Shrink workloads ~4x for a quick look.")

let scale_arg =
  Arg.(value & opt (some int) None & info [ "scale" ] ~docv:"N"
         ~doc:
           "Multiply workload footprints by N toward the paper's native \
            page counts (the default experiments run at 1/256 scale; \
            $(b,--scale 256) reaches 3-4M-page footprints).  Per-page \
            simulated costs shrink by the same factor; $(b,--scale 1) is \
            byte-identical to the default profile.  Also \\$REPRO_SCALE.")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:
           "Run trials on N domains in parallel (default: the machine's \
            recommended domain count). Output is bit-identical to $(b,--jobs 1): \
            every trial owns its seeded RNG and simulator, and aggregation \
            is deterministic.")

let fault_plan_conv =
  let parse s =
    match Swapdev.Faulty_device.plan_of_name (String.lowercase_ascii s) with
    | Some plan -> Ok plan
    | None -> Error (`Msg (Printf.sprintf "unknown fault plan %S" s))
  in
  Arg.conv (parse, fun fmt _ -> Format.pp_print_string fmt "<fault-plan>")

let faults_arg =
  Arg.(value & opt fault_plan_conv Swapdev.Faulty_device.none
       & info [ "faults" ] ~docv:"PLAN"
           ~doc:
             "Swap I/O fault-injection plan: none | light | heavy. Deterministic \
              per seed; $(b,none) leaves results bit-identical.")

let audit_every_arg =
  Arg.(value & opt int 0
       & info [ "audit-every" ] ~docv:"MS"
           ~doc:
             "Audit machine-state invariants every MS simulated milliseconds \
              (0 = end-of-run only).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:
             "Record every reclaim/eviction/promotion/swap/OOM event with its \
              simulated timestamp and write them as JSON Lines to FILE after \
              the run. Observation only: results are identical to an untraced \
              run, and the file is byte-identical for every $(b,--jobs) value.")

let sample_every_arg =
  Arg.(value & opt int 0
       & info [ "sample-every" ] ~docv:"NS"
           ~doc:
             "Sample machine state (free frames, residency, refault rate, \
              swap occupancy, per-policy gauges) every NS simulated \
              nanoseconds; 0 disables. Written as long-format CSV (see \
              $(b,--samples)).")

let samples_arg =
  Arg.(value & opt string "samples.csv"
       & info [ "samples" ] ~docv:"FILE"
           ~doc:"Destination for the $(b,--sample-every) time series.")

let folded_arg =
  Arg.(value & opt (some string) None
       & info [ "folded" ] ~docv:"FILE"
           ~doc:
             "Write merged per-cell phase totals as folded stacks \
              (flamegraph.pl / speedscope input) to FILE after the run.  \
              Implies profiling.  Like the profiler itself, observation \
              only: results are identical to an unprofiled run and the \
              file is byte-identical for every $(b,--jobs) value.")

let perfetto_arg =
  Arg.(value & opt (some string) None
       & info [ "perfetto" ] ~docv:"FILE"
           ~doc:
             "Write per-trial phase span timelines as Chrome trace-event \
              JSON (loadable in Perfetto or chrome://tracing) to FILE \
              after the run.  Implies profiling with span recording, \
              which disables $(b,--resume) warm-starts (journal records \
              carry no spans).")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:
             "Append every completed trial's outcome to FILE as a checksummed \
              JSONL record (fsynced per trial): a killed run loses at most \
              its in-flight trials.  Enables $(b,--resume).")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:
             "Warm-start the result cache from the $(b,--journal) file and \
              recompute only the missing trials; final output is \
              byte-identical to an uninterrupted run.  Torn or corrupt tail \
              records are reported on stderr and re-run.")

let trial_timeout_arg =
  Arg.(value & opt float 0.0
       & info [ "trial-timeout" ] ~docv:"SEC"
           ~doc:
             "Per-trial wall-clock deadline in seconds (0 = none).  A trial \
              that exceeds it is cancelled between simulation events and \
              reported as a $(b,failed) cell; the rest of the sweep \
              continues.")

let keep_going_arg =
  Arg.(value & flag
       & info [ "k"; "keep-going" ]
           ~doc:
             "Exit 0 even if some trials failed or timed out.  Without this \
              flag, failed trials still render as explicit $(b,failed) cells \
              and the whole sweep completes, but the exit status is \
              non-zero.")

let cgroups_conv =
  let parse s =
    match Mem.Memcg.parse_spec s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun fmt spec -> Format.pp_print_string fmt (Mem.Memcg.spec_to_string spec))

let cgroups_arg =
  Arg.(value & opt (some cgroups_conv) None
       & info [ "cgroups" ] ~docv:"SPEC"
           ~doc:
             "Partition threads into memory cgroups with Linux-style limits,               e.g. $(b,hot:threads=0-1,max=40%;bg:threads=2-5,low=15%).               Fields per group: $(b,threads=LO-HI) (ranges joined with +),               $(b,low=), $(b,high=), $(b,max=) (pages or % of capacity).               Reserved group $(b,proactive) (interval=, threshold=, step=)               enables the proactive-reclaim probe; $(b,psi) (interval=)               retunes PSI sampling. Without this flag, output is               byte-identical to builds without the controller.")

let chaos_conv =
  let parse s =
    if String.lowercase_ascii s = "none" then Ok None
    else
      match Repro_core.Chaos.parse_spec s with
      | Ok spec -> Ok (Some spec)
      | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt spec ->
        Format.pp_print_string fmt
          (match spec with
          | None -> "none"
          | Some s -> Repro_core.Chaos.spec_to_string s) )

let chaos_arg =
  Arg.(value & opt (some chaos_conv) None
       & info [ "chaos" ] ~docv:"SPEC"
           ~doc:
             "Inject deterministic runtime transients, e.g.               $(b,hotplug:at=5s,shrink=40%,restore=15s;degrade:at=20s,for=8s,latency=8x).               Segments: $(b,hotplug:) (offline/online capacity),               $(b,degrade:) (swap-device latency/error/wear windows),               $(b,churn:) (rewrite a cgroup's low/high/max; needs               $(b,--cgroups)), $(b,burst:) (thread stall pulses), and the               test-only $(b,corrupt:).  Times take ns/us/ms/s suffixes,               amounts are pages or % of capacity.  Every injection forces an               invariant audit and lands in the $(b,--trace) stream.  With               $(b,none) (or unset) output is byte-identical to builds without               the chaos layer.")

(* Everything a subcommand needs: the run context plus where to flush
   its telemetry afterwards and how to treat failed trials at exit. *)
type setup = {
  ctx : Repro_core.Runner.ctx;
  trace_file : string option;
  samples_file : string option;
  folded_file : string option;
  perfetto_file : string option;
  journal : Repro_core.Journal.t option;
  keep_going : bool;
}

(* Flags override the environment fallbacks; the fast flag is sticky in
   the or-direction so REPRO_FAST=1 keeps working under any flags.
   [profile_default] is true only for the profile subcommand, which
   collects phase totals even without --folded/--perfetto;
   [vmstat_default] likewise for the vmstat subcommand. *)
let build_setup profile_default vmstat_default trials ycsb_trials fast scale jobs faults
    audit_every_ms trace sample_every samples folded perfetto journal_path
    resume trial_timeout keep_going cgroups chaos =
  let base = Repro_core.Runner.profile_from_env () in
  let profile =
    {
      Repro_core.Runner.trials =
        (match trials with Some n -> max 1 n | None -> base.Repro_core.Runner.trials);
      ycsb_trials =
        (match ycsb_trials with
        | Some n -> max 1 n
        | None -> base.Repro_core.Runner.ycsb_trials);
      fast = fast || base.Repro_core.Runner.fast;
      scale =
        (match scale with Some n -> max 1 n | None -> base.Repro_core.Runner.scale);
    }
  in
  let jobs =
    match jobs with Some n -> max 1 n | None -> Engine.Pool.default_jobs ()
  in
  let sample_every = max 0 sample_every in
  let obs = { Obs.trace = trace <> None; sample_every_ns = sample_every } in
  let prof =
    {
      Obs.Prof.enabled = profile_default || folded <> None || perfetto <> None;
      spans = perfetto <> None;
    }
  in
  if resume && journal_path = None then
    prerr_endline "repro: warning: --resume has no effect without --journal";
  let journal, records =
    match journal_path with
    | None -> (None, [])
    | Some path ->
      let j, records = Repro_core.Journal.open_ ~path ~resume in
      (Some j, records)
  in
  let ctx =
    Repro_core.Runner.make_ctx ~profile ~fault_plan:faults
      ~audit_every_ns:(max 0 audit_every_ms * 1_000_000)
      ~jobs ~obs ~prof ~vmstat:vmstat_default ~trial_timeout_s:trial_timeout
      ?journal ?cgroups ?chaos:(Option.join chaos) ()
  in
  (* Resume notes go to stderr so stdout stays byte-identical to an
     uninterrupted run. *)
  if resume then begin
    match journal_path with
    | Some path ->
      let n = Repro_core.Runner.warm_start ctx records in
      Printf.eprintf "journal: warm-started %d trial result(s) from %s\n%!" n
        path
    | None -> ()
  end;
  { ctx; trace_file = trace; samples_file = (if sample_every > 0 then Some samples else None);
    folded_file = folded; perfetto_file = perfetto; journal; keep_going }

(* Flush the telemetry recorded under [setup.ctx], close the journal,
   and report failed trials; called by every subcommand after its own
   output.  Exits non-zero on failures unless --keep-going. *)
let finalize setup =
  (match setup.trace_file with
  | None -> ()
  | Some path ->
    let n = Repro_core.Runner.write_trace setup.ctx ~path in
    Printf.printf "wrote %d trace event(s) to %s\n" n path);
  (match setup.samples_file with
  | None -> ()
  | Some path ->
    let n = Repro_core.Runner.write_samples setup.ctx ~path in
    Printf.printf "wrote %d sample row(s) to %s\n" n path);
  (match setup.folded_file with
  | None -> ()
  | Some path ->
    let n = Repro_core.Runner.write_folded setup.ctx ~path in
    Printf.printf "wrote %d folded stack line(s) to %s\n" n path);
  (match setup.perfetto_file with
  | None -> ()
  | Some path ->
    let n = Repro_core.Runner.write_perfetto setup.ctx ~path in
    Printf.printf "wrote %d span event(s) to %s\n" n path);
  (match setup.journal with
  | Some j -> Repro_core.Journal.close j
  | None -> ());
  match Repro_core.Runner.failures setup.ctx with
  | [] -> ()
  | fails ->
    Printf.eprintf "repro: %d trial(s) failed:\n" (List.length fails);
    List.iter
      (fun (e, reason, timed_out) ->
        Printf.eprintf "  %s: %s%s\n"
          (Repro_core.Runner.exp_name e)
          (if timed_out then "[timeout] " else "")
          reason)
      fails;
    if setup.keep_going then
      Printf.eprintf "repro: continuing despite failures (--keep-going)\n%!"
    else begin
      Printf.eprintf
        "repro: exiting non-zero; pass --keep-going to tolerate failed \
         trials\n\
         %!";
      exit 1
    end

let setup_term ?(profile = false) ?(vmstat = false) () =
  Term.(
    const (build_setup profile vmstat) $ trials_arg $ ycsb_trials_arg $ fast_arg
    $ scale_arg $ jobs_arg $ faults_arg $ audit_every_arg $ trace_arg $ sample_every_arg
    $ samples_arg $ folded_arg $ perfetto_arg $ journal_arg $ resume_arg
    $ trial_timeout_arg $ keep_going_arg $ cgroups_arg $ chaos_arg)

(* ---------------- argument converters ---------------- *)

let workload_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "tpch" -> Ok Repro_core.Runner.Tpch
    | "pagerank" -> Ok Repro_core.Runner.Pagerank
    | "ycsb-a" -> Ok (Repro_core.Runner.Ycsb Workload.Ycsb.A)
    | "ycsb-b" -> Ok (Repro_core.Runner.Ycsb Workload.Ycsb.B)
    | "ycsb-c" -> Ok (Repro_core.Runner.Ycsb Workload.Ycsb.C)
    | _ -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  Arg.conv
    (parse, fun fmt w -> Format.pp_print_string fmt (Repro_core.Runner.workload_kind_name w))

let policy_conv =
  let parse s =
    match Policy.Registry.of_name (String.lowercase_ascii s) with
    | Some spec -> Ok spec
    | None ->
      let hint =
        match Policy.Registry.suggest s with
        | Some near -> Printf.sprintf " (did you mean %S?)" near
        | None -> ""
      in
      Error
        (`Msg
          (Printf.sprintf
             "unknown policy %S%s; `repro --list-policies` shows the table" s
             hint))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Policy.Registry.name p))

let swap_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "ssd" -> Ok Repro_core.Runner.Ssd
    | "zram" -> Ok Repro_core.Runner.Zram
    | _ -> Error (`Msg (Printf.sprintf "unknown swap medium %S" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Repro_core.Runner.swap_name s))

(* ---------------- fig ---------------- *)

let fig_cmd =
  let figures =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FIGURE" ~doc:"Figure numbers (1-12) or $(b,all).")
  in
  let run setup figures =
    let ctx = setup.ctx in
    try
      if List.mem "all" figures then Repro_core.Figures.run_all ctx
      else
        List.iter
          (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 1 && n <= 12 -> Repro_core.Figures.run ctx n
            | Some _ | None ->
              raise (Invalid_argument (Printf.sprintf "no figure %S" s)))
          figures;
      finalize setup;
      `Ok ()
    with Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Reproduce one or more of the paper's figures (1-12).")
    Term.(ret (const run $ setup_term () $ figures))

(* ---------------- run ---------------- *)

let run_cmd =
  let workload =
    Arg.(value & opt workload_conv Repro_core.Runner.Tpch
         & info [ "w"; "workload" ] ~docv:"WORKLOAD"
             ~doc:"tpch | pagerank | ycsb-a | ycsb-b | ycsb-c")
  in
  let policy =
    Arg.(value & opt policy_conv Policy.Registry.Mglru_default
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:
               "clock | mglru | gen14 | scan-all | scan-none | scan-rand | fifo | \
                random | lru-exact | crash-test (always fails; exercises \
                failure isolation) | s3-fifo | sieve | perceptron (hook-API \
                guests; see $(b,repro --list-policies))")
  in
  let ratio =
    Arg.(value & opt float 0.5
         & info [ "r"; "ratio" ] ~docv:"R" ~doc:"Memory capacity / footprint.")
  in
  let swap =
    Arg.(value & opt swap_conv Repro_core.Runner.Ssd
         & info [ "s"; "swap" ] ~docv:"MEDIUM" ~doc:"ssd | zram")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-policy internal counters.")
  in
  let run setup workload policy ratio swap verbose =
    let ctx = setup.ctx in
    let injects =
      Repro_core.Machine.injects ~fault_plan:(Repro_core.Runner.fault_plan ctx)
        ~chaos:(Repro_core.Runner.chaos ctx)
    in
    let audits_on = Repro_core.Runner.audit_every_ns ctx > 0 in
    let n = Repro_core.Runner.trials_for ctx workload in
    Printf.printf "%s / %s / %.0f%% / %s  (%d trial%s)\n"
      (Repro_core.Runner.workload_kind_name workload)
      (Policy.Registry.name policy) (ratio *. 100.0)
      (Repro_core.Runner.swap_name swap) n
      (if n = 1 then "" else "s");
    (* The cell's trials compute in parallel; the per-trial lines print
       from the cache afterwards, in trial order.  Failed trials print
       as explicit lines instead of aborting the command. *)
    let outcomes = Repro_core.Runner.try_cell ctx ~workload ~policy ~ratio ~swap in
    List.iteri
      (fun trial o ->
        match o with
        | Repro_core.Runner.Done r ->
          Printf.printf
            "  trial %2d: runtime %10s  major %9s  ins %9s  outs %9s  direct %6d\n%!"
            trial
            (Repro_core.Report.fsec (float_of_int r.Repro_core.Machine.runtime_ns /. 1e9))
            (Repro_core.Report.fcount (float_of_int r.Repro_core.Machine.major_faults))
            (Repro_core.Report.fcount (float_of_int r.Repro_core.Machine.swap_ins))
            (Repro_core.Report.fcount (float_of_int r.Repro_core.Machine.swap_outs))
            r.Repro_core.Machine.direct_reclaims;
          if injects || audits_on then Repro_core.Report.fault_summary r;
          (match r.Repro_core.Machine.memcg with
          | Some s ->
            Repro_core.Report.memcg_summary
              ~runtime_ns:r.Repro_core.Machine.runtime_ns s
          | None -> ());
          if verbose then
            List.iter
              (fun (k, v) -> Printf.printf "      %-24s %d\n" k v)
              r.Repro_core.Machine.policy_stats
        | Repro_core.Runner.Failed { reason; timed_out } ->
          Printf.printf "  trial %2d: failed%s: %s\n%!" trial
            (if timed_out then " (timeout)" else "")
            reason)
      outcomes;
    let results =
      List.filter_map
        (function
          | Repro_core.Runner.Done r -> Some r
          | Repro_core.Runner.Failed _ -> None)
        outcomes
    in
    let clean = List.length results = List.length outcomes in
    if n > 1 && clean then begin
      let rt = Stats.Summary.of_array (Repro_core.Runner.runtimes_s results) in
      let fl = Stats.Summary.of_array (Repro_core.Runner.faults results) in
      Printf.printf "  mean runtime %s (min %s, max %s, spread %.2fx)\n"
        (Repro_core.Report.fsec rt.Stats.Summary.mean)
        (Repro_core.Report.fsec rt.Stats.Summary.min)
        (Repro_core.Report.fsec rt.Stats.Summary.max)
        (Stats.Summary.spread rt);
      Printf.printf "  mean faults %s (CV %.3f)\n"
        (Repro_core.Report.fcount fl.Stats.Summary.mean)
        (Stats.Summary.cv fl)
    end;
    (* Pooled latency tails would silently cover only the surviving
       trials, so they print for clean cells only. *)
    let reads =
      if clean then Repro_core.Runner.pooled_read_latencies results else [||]
    in
    if Array.length reads > 0 then
      Format.printf "  read latency: %a@."
        Stats.Percentile.pp_tail
        (Stats.Percentile.tail_of reads);
    let writes =
      if clean then Repro_core.Runner.pooled_write_latencies results else [||]
    in
    if Array.length writes > 0 then
      Format.printf "  write latency: %a@."
        Stats.Percentile.pp_tail
        (Stats.Percentile.tail_of writes);
    (* Telemetry-only digest: printed only when tracing is on, so
       untraced output stays byte-identical to pre-telemetry builds. *)
    if Obs.config_enabled (Repro_core.Runner.obs ctx) then
      List.iter
        (fun (pname, h) ->
          if Stats.Histogram.count h > 0 then
            Printf.printf
              "  direct-reclaim latency [%s]: n=%s p50=%s p90=%s p99=%s max=%s\n"
              pname
              (Repro_core.Report.fcount (float_of_int (Stats.Histogram.count h)))
              (Repro_core.Report.fns (Stats.Histogram.quantile h 0.5))
              (Repro_core.Report.fns (Stats.Histogram.quantile h 0.9))
              (Repro_core.Report.fns (Stats.Histogram.quantile h 0.99))
              (Repro_core.Report.fns (Stats.Histogram.max_seen h)))
        (Repro_core.Runner.merged_reclaim_hists ctx);
    finalize setup
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment cell and print its metrics.")
    Term.(const run $ setup_term () $ workload $ policy $ ratio $ swap $ verbose)

(* ---------------- list ---------------- *)

let policy_table () =
  Repro_core.Report.table
    ~header:[ "policy"; "kind"; "doc"; "default knobs" ]
    (List.map
       (fun d ->
         [
           d.Policy.Registry.d_name;
           Policy.Registry.kind_label d.Policy.Registry.d_kind;
           d.Policy.Registry.d_doc;
           String.concat " "
             (List.map (fun (k, v) -> k ^ "=" ^ v) d.Policy.Registry.d_knobs);
         ])
       Policy.Registry.descriptors)

let list_cmd =
  let run () =
    print_endline "workloads:";
    List.iter
      (fun w -> Printf.printf "  %s\n" (Repro_core.Runner.workload_kind_name w))
      Repro_core.Runner.all_workloads;
    print_endline "policies:";
    policy_table ();
    print_endline "swap media:";
    print_endline "  ssd   (~7.5 ms / 4 KB op, the paper's measured device)";
    print_endline "  zram  (20/35 us, LZO-RLE-like compression)"
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, policies, and swap media.")
    Term.(const run $ const ())

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let workload =
    Arg.(value & opt workload_conv Repro_core.Runner.Tpch
         & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload to sweep.")
  in
  let swap =
    Arg.(value & opt swap_conv Repro_core.Runner.Ssd
         & info [ "s"; "swap" ] ~docv:"MEDIUM" ~doc:"ssd | zram")
  in
  let run setup workload swap =
    let ctx = setup.ctx in
    let ratios = [ 0.5; 0.75; 0.9 ] in
    (* Fan the whole policy x ratio grid out through the pool at once. *)
    Repro_core.Runner.prefetch ctx
      (List.concat_map
         (fun policy ->
           List.concat_map
             (fun ratio ->
               Repro_core.Runner.cell_exps ctx ~workload ~policy ~ratio ~swap)
             ratios)
         Policy.Registry.all_paper_specs);
    let header =
      ("policy"
      :: List.map (fun r -> Printf.sprintf "%.0f%% rt" (r *. 100.0)) ratios)
      @ List.map (fun r -> Printf.sprintf "%.0f%% faults" (r *. 100.0)) ratios
    in
    (* A cell with any failed trial renders as "failed" (NaN through the
       formatters) instead of a silently partial mean. *)
    let cell_means policy ratio =
      let outcomes = Repro_core.Runner.try_cell ctx ~workload ~policy ~ratio ~swap in
      let results =
        List.filter_map
          (function
            | Repro_core.Runner.Done r -> Some r
            | Repro_core.Runner.Failed _ -> None)
          outcomes
      in
      if List.length results < List.length outcomes then (Float.nan, Float.nan)
      else
        ( Repro_core.Runner.mean_runtime_s results,
          Repro_core.Runner.mean_faults results )
    in
    let rows =
      List.map
        (fun policy ->
          let cells = List.map (cell_means policy) ratios in
          (Policy.Registry.name policy
          :: List.map (fun (rt, _) -> Repro_core.Report.fsec rt) cells)
          @ List.map (fun (_, fl) -> Repro_core.Report.fcount fl) cells)
        Policy.Registry.all_paper_specs
    in
    Repro_core.Report.section
      (Printf.sprintf "Capacity sweep: %s on %s"
         (Repro_core.Runner.workload_kind_name workload)
         (Repro_core.Runner.swap_name swap));
    Repro_core.Report.table ~header rows;
    finalize setup
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep capacity ratios for every paper policy.")
    Term.(const run $ setup_term () $ workload $ swap)

(* ---------------- ablate ---------------- *)

let ablate_cmd =
  let studies =
    Arg.(
      value & pos_all string [ "all" ]
      & info [] ~docv:"STUDY"
          ~doc:
            "generations | bloom | spatial | readahead | scan-rand | all")
  in
  let run setup studies =
    let ctx = setup.ctx in
    let dispatch = function
      | "generations" -> Repro_core.Ablation.generations ctx
      | "bloom" -> Repro_core.Ablation.bloom_density ctx
      | "spatial" -> Repro_core.Ablation.spatial_scan ctx
      | "readahead" -> Repro_core.Ablation.readahead ctx
      | "scan-rand" -> Repro_core.Ablation.scan_probability ctx
      | "all" -> Repro_core.Ablation.run_all ctx
      | s -> raise (Invalid_argument (Printf.sprintf "no ablation study %S" s))
    in
    try
      List.iter dispatch studies;
      finalize setup;
      `Ok ()
    with Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Ablate MG-LRU/machine design choices (DESIGN.md \\S5).")
    Term.(ret (const run $ setup_term () $ studies))

(* ---------------- tier ---------------- *)

let tier_cmd =
  let fast_frac =
    Arg.(value & opt float 0.5
         & info [ "fast-frac" ] ~docv:"F"
             ~doc:"Fast-tier size as a fraction of the footprint.")
  in
  let tier_trials =
    Arg.(value & opt int 3 & info [ "tier-trials" ] ~docv:"N" ~doc:"Trials per cell.")
  in
  let run setup fast_frac tier_trials =
    Repro_core.Tier_study.study ~fast_frac ~trials:tier_trials setup.ctx ();
    finalize setup
  in
  Cmd.v
    (Cmd.info "tier"
       ~doc:"Compare page-migration policies (TPP/Thermostat/AutoNUMA) on tiered memory.")
    Term.(const run $ setup_term () $ fast_frac $ tier_trials)

(* ---------------- export ---------------- *)

let export_cmd =
  let dir =
    Arg.(value & opt string "figures-csv"
         & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Output directory for CSV files.")
  in
  let run setup dir =
    Repro_core.Csv_export.export_all setup.ctx ~dir;
    Printf.printf "wrote figure CSVs to %s/\n" dir;
    finalize setup
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export every figure's underlying data as CSV.")
    Term.(const run $ setup_term () $ dir)

(* ---------------- grid commands ---------------- *)

let or_default default = function [] -> default | l -> l

let default_workloads = [ Repro_core.Runner.Tpch; Repro_core.Runner.Pagerank ]

let default_policies = [ Policy.Registry.Clock; Policy.Registry.Mglru_default ]

let grid workloads policies ratios =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun policy -> List.map (fun ratio -> (workload, policy, ratio)) ratios)
        policies)
    workloads

(* Fan the whole grid out through the pool, then read each cell back
   serially so the captures print from the cache in grid order. *)
let run_grid ctx ~swap cells =
  Repro_core.Runner.prefetch ctx
    (List.concat_map
       (fun (workload, policy, ratio) ->
         Repro_core.Runner.cell_exps ctx ~workload ~policy ~ratio ~swap)
       cells);
  List.iter
    (fun (workload, policy, ratio) ->
      ignore (Repro_core.Runner.try_cell ctx ~workload ~policy ~ratio ~swap))
    cells

(* ---------------- profile ---------------- *)

let profile_cmd =
  let workloads =
    Arg.(value & opt_all workload_conv []
         & info [ "w"; "workload" ] ~docv:"WORKLOAD"
             ~doc:
               "Workload to profile (repeatable; default: tpch and \
                pagerank).")
  in
  let policies =
    Arg.(value & opt_all policy_conv []
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:"Policy to profile (repeatable; default: clock and mglru).")
  in
  let ratios =
    Arg.(value & opt_all float []
         & info [ "r"; "ratio" ] ~docv:"R"
             ~doc:
               "Memory capacity / footprint (repeatable; default: 0.5 and \
                0.9).")
  in
  let swap =
    Arg.(value & opt swap_conv Repro_core.Runner.Ssd
         & info [ "s"; "swap" ] ~docv:"MEDIUM" ~doc:"ssd | zram")
  in
  let run setup workloads policies ratios swap =
    let ctx = setup.ctx in
    run_grid ctx ~swap
      (grid
         (or_default default_workloads workloads)
         (or_default default_policies policies)
         (or_default [ 0.5; 0.9 ] ratios));
    List.iter
      (fun (cell, m) ->
        Repro_core.Report.section
          (Printf.sprintf "Profile: %s / %s / %.0f%% / %s"
             (Repro_core.Runner.workload_kind_name cell.Repro_core.Runner.workload)
             (Policy.Registry.name cell.Repro_core.Runner.policy)
             (cell.Repro_core.Runner.ratio *. 100.0)
             (Repro_core.Runner.swap_name cell.Repro_core.Runner.swap));
        Repro_core.Report.profile_table m)
      (Repro_core.Runner.profile_cells ctx);
    finalize setup
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Attribute every simulated CPU nanosecond to a kernel-phase \
          taxonomy (fault handling, rmap walks, PTE scans, aging, \
          eviction, waits) and print a perf-style table per grid cell.  \
          Observation only: simulation results are identical to an \
          unprofiled run, and output is byte-identical for every \
          $(b,--jobs) value.  Combine with $(b,--folded) and \
          $(b,--perfetto) for flamegraph and timeline exports.")
    Term.(const run $ setup_term ~profile:true () $ workloads $ policies
          $ ratios $ swap)

(* ---------------- vmstat ---------------- *)

let vmstat_cmd =
  let workloads =
    Arg.(value & opt_all workload_conv []
         & info [ "w"; "workload" ] ~docv:"WORKLOAD"
             ~doc:"Workload to count (repeatable; default: tpch and pagerank).")
  in
  let policies =
    Arg.(value & opt_all policy_conv []
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:
               "Policy to count (repeatable; default: clock and mglru, which \
                prints the paper's counter deltas).")
  in
  let ratios =
    Arg.(value & opt_all float []
         & info [ "r"; "ratio" ] ~docv:"R"
             ~doc:"Memory capacity / footprint (repeatable; default: 0.5).")
  in
  let swap =
    Arg.(value & opt swap_conv Repro_core.Runner.Ssd
         & info [ "s"; "swap" ] ~docv:"MEDIUM" ~doc:"ssd | zram")
  in
  let run setup workloads policies ratios swap =
    let ctx = setup.ctx in
    let workloads = or_default default_workloads workloads in
    let policies = or_default default_policies policies in
    let ratios = or_default [ 0.5 ] ratios in
    run_grid ctx ~swap (grid workloads policies ratios);
    let captured = Repro_core.Runner.vmstat_cells ctx in
    (* One section per (workload, ratio), policies as columns: the
       counters line up side by side and the two-policy delta column is
       exactly the Clock-vs-MG-LRU comparison the paper reads. *)
    List.iter
      (fun workload ->
        List.iter
          (fun ratio ->
            let cols =
              List.filter_map
                (fun policy ->
                  List.find_opt
                    (fun ((e : Repro_core.Runner.exp), _) ->
                      e.Repro_core.Runner.workload = workload
                      && e.Repro_core.Runner.policy = policy
                      && e.Repro_core.Runner.ratio = ratio
                      && e.Repro_core.Runner.swap = swap)
                    captured
                  |> Option.map (fun (_, cap) ->
                         (Policy.Registry.name policy, cap)))
                policies
            in
            if cols <> [] then begin
              Repro_core.Report.section
                (Printf.sprintf "Vmstat: %s / %.0f%% / %s"
                   (Repro_core.Runner.workload_kind_name workload)
                   (ratio *. 100.0)
                   (Repro_core.Runner.swap_name swap));
              Repro_core.Report.vmstat_table cols;
              Repro_core.Report.vmstat_refault_hist cols
            end)
          ratios)
      workloads;
    finalize setup
  in
  Cmd.v
    (Cmd.info "vmstat"
       ~doc:
         "Run the grid with the kernel-style counter registry captured \
          and print per-cell $(b,/proc/vmstat)-flavoured tables \
          (pgscan/pgsteal, pgactivate vs mglru_promoted, workingset \
          refault classification, a log2 refault-distance histogram) \
          with a delta column when exactly two policies are compared.  \
          Counting is always on and observation-only: results are \
          identical to an uncounted run, and output is byte-identical \
          for every $(b,--jobs) value.")
    Term.(const run $ setup_term ~vmstat:true () $ workloads $ policies
          $ ratios $ swap)

(* ---------------- heatmap ---------------- *)

let heatmap_cmd =
  let workload =
    Arg.(value & opt workload_conv Repro_core.Runner.Tpch
         & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload to monitor.")
  in
  let policies =
    Arg.(value & opt_all policy_conv []
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:"Policy to monitor (repeatable; default: clock and mglru).")
  in
  let ratio =
    Arg.(value & opt float 0.5
         & info [ "r"; "ratio" ] ~docv:"R" ~doc:"Memory capacity / footprint.")
  in
  let swap =
    Arg.(value & opt swap_conv Repro_core.Runner.Ssd
         & info [ "s"; "swap" ] ~docv:"MEDIUM" ~doc:"ssd | zram")
  in
  let interval =
    Arg.(value & opt int 100
         & info [ "interval" ] ~docv:"MS"
             ~doc:"Aggregation window in simulated milliseconds (default 100).")
  in
  let max_regions =
    Arg.(value & opt int Mem.Damon.default_config.Mem.Damon.max_regions
         & info [ "max-regions" ] ~docv:"N"
             ~doc:"Adaptive region cap per address space.")
  in
  let out =
    Arg.(value & opt string "heatmap.csv"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"CSV output path.")
  in
  let gnuplot =
    Arg.(value & opt (some string) None
         & info [ "gnuplot" ] ~docv:"FILE"
             ~doc:
               "Also write a gnuplot script that renders the CSV as a \
                time-vs-address heatmap.")
  in
  let run setup workload policies ratio swap interval max_regions out gnuplot =
    let config =
      {
        Mem.Damon.default_config with
        Mem.Damon.aggregate_every_ns = max 1 interval * 1_000_000;
        max_regions =
          max Mem.Damon.default_config.Mem.Damon.min_regions max_regions;
      }
    in
    let ctx = Repro_core.Runner.with_damon setup.ctx config in
    run_grid ctx ~swap
      (grid [ workload ] (or_default default_policies policies) [ ratio ]);
    let n = Repro_core.Runner.write_heatmap ctx ~path:out in
    Printf.printf "wrote %d heatmap row(s) to %s\n" n out;
    (match gnuplot with
    | None -> ()
    | Some script ->
      (* Column numbers refer to heatmap_csv_header; each point is one
         region snapshot at its band's midpoint, coloured by access
         count.  Filter the CSV by policy first when plotting a
         multi-policy run. *)
      let oc = open_out script in
      Printf.fprintf oc
        "# Heatmap of %s — columns: %s\n\
         set datafile separator ','\n\
         set key off\n\
         set xlabel 'simulated time (s)'\n\
         set ylabel 'virtual page number'\n\
         set cblabel 'accesses / window'\n\
         set palette defined (0 'black', 1 'dark-blue', 2 'red', 3 'yellow')\n\
         plot '%s' skip 1 using ($6/1e9):($8+$9/2):10 with points pt 5 ps \
         0.5 palette\n"
        out Repro_core.Runner.heatmap_csv_header out;
      close_out oc;
      Printf.printf "wrote gnuplot script to %s\n" script);
    finalize { setup with ctx }
  in
  Cmd.v
    (Cmd.info "heatmap"
       ~doc:
         "Attach a DAMON-style adaptive region monitor to each trial and \
          export its access heatmap as CSV (one row per region snapshot: \
          cell, trial, window timestamp, region bounds, access count).  \
          Region splitting and merging adapt to where accesses \
          concentrate, so hot working-set bands stay finely resolved.  \
          Monitoring is observation-only (the access bits are read, \
          never cleared) and the CSV is byte-identical for every \
          $(b,--jobs) value.")
    Term.(const run $ setup_term () $ workload $ policies $ ratio $ swap
          $ interval $ max_regions $ out $ gnuplot)

(* ---------------- fleet ---------------- *)

let fleet_cmd =
  let tenants =
    Arg.(value & opt int 3
         & info [ "tenants" ] ~docv:"N"
             ~doc:"Number of YCSB tenants sharing the machine (2 threads each).")
  in
  let hot =
    Arg.(value & opt int 0
         & info [ "hot" ] ~docv:"I"
             ~doc:"Index of the hot (runaway) tenant: zipf 1.1, double requests.")
  in
  let policy =
    Arg.(value & opt policy_conv Policy.Registry.Mglru_default
         & info [ "p"; "policy" ] ~docv:"POLICY" ~doc:"Replacement policy.")
  in
  let ratio =
    Arg.(value & opt float 0.5
         & info [ "r"; "ratio" ] ~docv:"R" ~doc:"Memory capacity / footprint.")
  in
  let swap =
    Arg.(value & opt swap_conv Repro_core.Runner.Ssd
         & info [ "s"; "swap" ] ~docv:"MEDIUM" ~doc:"ssd | zram")
  in
  let run setup tenants hot policy ratio swap =
    try
      ignore
        (Repro_core.Fleet.run setup.ctx ~tenants ~hot ~policy ~ratio ~swap);
      finalize setup;
      `Ok ()
    with Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run N YCSB tenants of different temperatures under per-tenant           memory cgroups and report per-tenant latency tails, PSI,           throttling and scoped OOM kills.  Without $(b,--cgroups), a           default containment spec is applied: the hot tenant throttled           at 30% and hard-capped at 40% of capacity, neighbours           protected by memory.low, proactive reclaim on.")
    Term.(ret (const run $ setup_term () $ tenants $ hot $ policy $ ratio $ swap))

(* ---------------- regret ---------------- *)

let regret_cmd =
  let workloads =
    Arg.(value & opt_all workload_conv []
         & info [ "w"; "workload" ] ~docv:"WORKLOAD"
             ~doc:"Workload to score (repeatable; default: tpch and pagerank).")
  in
  let policies =
    Arg.(value & opt_all policy_conv []
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:
               "Policy to score (repeatable; default: clock, mglru, s3-fifo, \
                sieve, perceptron).")
  in
  let ratios =
    Arg.(value & opt_all float []
         & info [ "r"; "ratio" ] ~docv:"R"
             ~doc:
               "Memory capacity / footprint (repeatable; default: 0.5 and \
                0.9).")
  in
  let swap =
    Arg.(value & opt swap_conv Repro_core.Runner.Ssd
         & info [ "s"; "swap" ] ~docv:"MEDIUM" ~doc:"ssd | zram")
  in
  let run setup workloads policies ratios swap =
    let ctx = setup.ctx in
    let workloads =
      match workloads with [] -> Repro_core.Regret.default_workloads | ws -> ws
    in
    let policies =
      match policies with [] -> Repro_core.Regret.default_policies | ps -> ps
    in
    let ratios =
      match ratios with [] -> Repro_core.Regret.default_ratios | rs -> rs
    in
    let cells = Repro_core.Regret.compute ctx ~workloads ~policies ~ratios ~swap in
    Repro_core.Regret.print ~swap cells;
    finalize setup
  in
  Cmd.v
    (Cmd.info "regret"
       ~doc:
         "Score policies against Belady's offline optimum: for each \
          workload x pressure cell, print mean demand faults over the \
          OPT refetch count on the same deterministically derived \
          reference trace.  The standing scoreboard every policy — \
          builtin or hook-API guest — lands on.  Output is byte-identical \
          for every $(b,--jobs) value.")
    Term.(const run $ setup_term () $ workloads $ policies $ ratios $ swap)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let classes =
    Arg.(value & opt_all string []
         & info [ "class" ] ~docv:"CLASS"
             ~doc:
               "Transient class to report (repeatable): hotplug | degrade | \
                churn.  Default: all three.")
  in
  let workloads =
    Arg.(value & opt_all workload_conv []
         & info [ "w"; "workload" ] ~docv:"WORKLOAD"
             ~doc:"Workload to stress (repeatable; default: tpch and ycsb-a).")
  in
  let policies =
    Arg.(value & opt_all policy_conv []
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:"Policy to stress (repeatable; default: clock and mglru).")
  in
  let ratio =
    Arg.(value & opt float 0.5
         & info [ "r"; "ratio" ] ~docv:"R" ~doc:"Memory capacity / footprint.")
  in
  let swap =
    Arg.(value & opt swap_conv Repro_core.Runner.Ssd
         & info [ "s"; "swap" ] ~docv:"MEDIUM" ~doc:"ssd | zram")
  in
  let run setup classes workloads policies ratio swap =
    let classes =
      match classes with
      | [] -> Repro_core.Chaos_report.default_classes
      | cs -> List.map String.lowercase_ascii cs
    in
    let workloads =
      or_default
        [ Repro_core.Runner.Tpch; Repro_core.Runner.Ycsb Workload.Ycsb.A ]
        workloads
    in
    let policies = or_default default_policies policies in
    try
      Repro_core.Chaos_report.run setup.ctx ~classes ~workloads ~policies
        ~ratio ~swap;
      finalize setup;
      `Ok ()
    with Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Resilience report: calibrate each workload x policy cell with a \
          baseline trial, inject one transient class (memory hotplug, \
          swap-device degradation, cgroup limit churn) into the \
          [0.3R, 0.55R] window, and report fault-latency p99/p999 during \
          vs after the disturbance, time-to-recover to the steady-state \
          fault rate, and OOM/poison counts.  Deterministic: \
          byte-identical for every $(b,--jobs) value.")
    Term.(ret (const run $ setup_term () $ classes $ workloads $ policies
               $ ratio $ swap))

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let iterations =
    Arg.(value & opt int 25
         & info [ "iterations" ] ~docv:"N" ~doc:"Configurations to try.")
  in
  let seed =
    Arg.(value & opt int 9
         & info [ "seed" ] ~docv:"S"
             ~doc:"Base seed; iteration i derives its RNG from S + 7919*i.")
  in
  let with_corrupt =
    Arg.(value & flag
         & info [ "with-corrupt" ]
             ~doc:
               "Let the sampler emit the test-only $(b,corrupt:) chaos \
                segment, which plants an invariant violation the audit \
                oracle must catch (and the shrinker must isolate).")
  in
  let config =
    Arg.(value & opt (some string) None
         & info [ "config" ] ~docv:"STR"
             ~doc:
               "Replay one encoded configuration (as printed by a failing \
                run's 'minimal repro' line) instead of sampling.")
  in
  let run iterations seed with_corrupt config =
    let failures =
      match config with
      | Some line -> Repro_core.Fuzz.replay line
      | None ->
        Repro_core.Fuzz.run ~seed ~iterations:(max 1 iterations) ~with_corrupt
    in
    if failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Config-fuzz soak: run short random configurations (workload, \
          policy, ratio, swap, faults, cgroups, chaos) against the \
          machine's oracles — completion, invariant audits, $(b,--jobs) \
          1-vs-4 byte-identity, journal round-trip/resume identity — and \
          shrink any failure to a minimal deterministic $(b,--config) \
          repro line.  Exits non-zero if any configuration fails.")
    Term.(const run $ iterations $ seed $ with_corrupt $ config)

(* ---------------- trace-summary ---------------- *)

let trace_summary_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"JSONL trace written by $(b,--trace).")
  in
  let run file =
    try
      Repro_core.Report.trace_summary ~path:file;
      `Ok ()
    with
    | Failure msg -> `Error (false, msg)
    | Sys_error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:
         "Aggregate a JSONL trace into per-cell event counts and \
          direct-reclaim latency quantiles.")
    Term.(ret (const run $ file))

let main =
  let doc =
    "reproduction harness for 'Characterizing Emerging Page Replacement Policies'"
  in
  (* `repro --list-policies` (no subcommand) prints the descriptor
     table; any other bare invocation shows help, as before. *)
  let default =
    let list_policies =
      Arg.(value & flag
           & info [ "list-policies" ]
               ~doc:
                 "Print the policy descriptor table (name, kind with hook-API \
                  version, doc, default knobs) and exit.")
    in
    Term.(
      ret
        (const (fun lp ->
             if lp then begin
               policy_table ();
               `Ok ()
             end
             else `Help (`Pager, None))
        $ list_policies))
  in
  Cmd.group ~default
    (Cmd.info "repro" ~version:"1.0.0" ~doc)
    [
      fig_cmd; run_cmd; list_cmd; sweep_cmd; ablate_cmd; tier_cmd; export_cmd;
      profile_cmd; vmstat_cmd; heatmap_cmd; regret_cmd; trace_summary_cmd;
      fleet_cmd; chaos_cmd; fuzz_cmd;
    ]

let () = exit (Cmd.eval main)
