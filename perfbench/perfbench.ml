(* Child process of the benchmark: one cold repetition per process.

     perfbench.exe setup  WORKLOAD --trial N
     perfbench.exe rep    WORKLOAD --trial N --jobs J --out DIR
     perfbench.exe replay WORKLOAD --trial N [--traced] [--telemetry off] --out DIR
     perfbench.exe pin    WORKLOAD --trial N

   [setup] stops after set-up; [rep] runs the timed section the way a
   [repro] invocation would; [replay] runs the workload's trials
   serially through [Machine.run], with the outside-in wrappers when
   [--traced]; [pin] prints the reference values the output checks use.
   The last line of stdout is "PERFBENCH " followed by one JSON object;
   perfbench/run.py reads it. *)

module M = Repro_core.Machine
module R = Repro_core.Runner

(* ------------------------------------------------------------------ *)
(* Minimal JSON output.                                                *)
(* ------------------------------------------------------------------ *)

type json =
  | I of int
  | F of float
  | S of string
  | L of json list
  | O of (string * json) list

let rec to_json = function
  | I n -> string_of_int n
  | F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | S s -> Obs.json_string s
  | L l -> "[" ^ String.concat "," (List.map to_json l) ^ "]"
  | O kv ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Obs.json_string k ^ ":" ^ to_json v) kv)
    ^ "}"

let emit fields =
  print_string "\nPERFBENCH ";
  print_endline (to_json (O fields))

(* ------------------------------------------------------------------ *)
(* Host measurements.                                                  *)
(* ------------------------------------------------------------------ *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

let gc_fields () =
  let s = Gc.quick_stat () in
  [
    ("minor_collections", I s.Gc.minor_collections);
    ("major_collections", I s.Gc.major_collections);
    ("promoted_words", F s.Gc.promoted_words);
    ("heap_top_words", I s.Gc.top_heap_words);
  ]

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Simulated statistics of a set of trials.                            *)
(* ------------------------------------------------------------------ *)

let sim_fields (results : M.result list) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let p99 =
    (* Single-trial runs only: sorting the sweep's pooled request
       latencies would cost more than its simulation. *)
    match results with
    | [ r ] when Array.length r.M.read_latencies > 0 ->
      [ ("read_p99_ns", F (Stats.Percentile.quantile r.M.read_latencies 0.99)) ]
    | _ -> []
  in
  [
    ("major_faults", I (sum (fun r -> r.M.major_faults)));
    ("minor_faults", I (sum (fun r -> r.M.minor_faults)));
    ("swap_ins", I (sum (fun r -> r.M.swap_ins)));
    ("swap_outs", I (sum (fun r -> r.M.swap_outs)));
  ]
  @ p99

let trial_json label = function
  | Ok r -> O [ ("label", S label); ("digest", S (Cells.digest r)) ]
  | Error reason -> O [ ("label", S label); ("error", S reason) ]

(* ------------------------------------------------------------------ *)
(* One repetition: set-up, then the timed section.                     *)
(* ------------------------------------------------------------------ *)

type timed = {
  compute : unit -> unit;  (** the simulation work *)
  render : unit -> unit;   (** figure printing or capture writing *)
  collect : unit -> (string * (M.result, string) result) list * (string * json) list;
      (** per-trial outcomes and extra fields, read after timing *)
}

let outcome_of = function
  | R.Done r -> Ok r
  | R.Failed { reason; _ } -> Error reason

let prepare workload ~trial ~jobs ~out =
  match workload with
  | Cells.Paper_sweep ->
    let ctx = Cells.sweep_ctx ~jobs in
    let exps = Cells.sweep_exps ctx in
    {
      compute = (fun () -> Repro_core.Figures.prefetch ctx Cells.sweep_figures);
      render =
        (fun () ->
          print_endline "@@figure 1";
          ignore (Repro_core.Figures.fig1 ctx);
          print_endline "@@figure 9";
          ignore (Repro_core.Figures.fig9 ctx);
          print_endline "@@end";
          flush stdout);
      collect =
        (fun () ->
          (List.map (fun e -> (R.exp_key e, outcome_of (R.try_exp ctx e))) exps, []));
    }
  | Cells.Ycsb_telemetry ->
    let ctx = Cells.single_trial_ctx ~telemetry:true ~scale:1 () in
    let e = Cells.ycsb_exp ~trial in
    let result = ref (Error "not run") in
    let counts = ref [] in
    {
      compute = (fun () -> result := outcome_of (R.try_exp ctx e));
      render =
        (fun () ->
          let path name = Filename.concat out name in
          let events = R.write_trace ctx ~path:(path "trace.jsonl") in
          let rows = R.write_samples ctx ~path:(path "samples.csv") in
          ignore (R.write_folded ctx ~path:(path "profile.folded"));
          ignore (R.write_heatmap ctx ~path:(path "heatmap.csv"));
          let files = [ "trace.jsonl"; "samples.csv"; "profile.folded"; "heatmap.csv" ] in
          let bytes = List.fold_left (fun acc f -> acc + file_size (path f)) 0 files in
          List.iter (fun f -> Sys.remove (path f)) files;
          counts :=
            [
              ("trace_events", I events);
              ("sample_rows", I rows);
              ("bytes_written", I bytes);
            ]);
      collect = (fun () -> ([ (R.exp_key e, !result) ], !counts));
    }
  | Cells.Fullscale_clock | Cells.Tpch_x16 ->
    let c = List.hd (Cells.cells workload ~trial) in
    let cfg, w = c.Cells.setup () in
    let result = ref (Error "not run") in
    {
      compute =
        (fun () ->
          result :=
            match M.run cfg ~policy:(Policy.Registry.create c.Cells.policy) ~workload:w with
            | r -> Ok r
            | exception exn -> Error (Printexc.to_string exn));
      render = ignore;
      collect = (fun () -> ([ (c.Cells.label, !result) ], []));
    }

let rep workload ~trial ~jobs ~out =
  let t = prepare workload ~trial ~jobs ~out in
  let setup_done = Unix.gettimeofday () in
  let words0 = (Gc.quick_stat ()).Gc.minor_words in
  let cpu0 = cpu_s () in
  let t0 = Span.now_ns () in
  t.compute ();
  let t1 = Span.now_ns () in
  t.render ();
  let t2 = Span.now_ns () in
  let secs a b = float_of_int (b - a) /. 1e9 in
  let cpu1 = cpu_s () in
  (* Read after the pool has joined: [quick_stat] folds in the counts
     of terminated domains, [Gc.minor_words] would not. *)
  let words1 = (Gc.quick_stat ()).Gc.minor_words in
  let outcomes, extra = t.collect () in
  let ok = List.filter_map (fun (_, o) -> Result.to_option o) outcomes in
  emit
    ([
       ("setup_done", F setup_done);
       ("wall_s", F (secs t0 t2));
       ("compute_s", F (secs t0 t1));
       ("render_s", F (secs t1 t2));
       ("cpu_s", F (cpu1 -. cpu0));
       ("minor_words", F (words1 -. words0));
       ("vm_hwm_kb", I (vm_hwm_kb ()));
       ("gc", O (gc_fields ()));
       ("sim", O (sim_fields ok));
       ("trials", L (List.map (fun (l, o) -> trial_json l o) outcomes));
     ]
    @ extra)

let setup_only workload ~trial =
  ignore (prepare workload ~trial ~jobs:1 ~out:Filename.current_dir_name);
  emit [ ("setup_done", F (Unix.gettimeofday ())) ]

(* ------------------------------------------------------------------ *)
(* Serial replay, optionally traced.                                   *)
(* ------------------------------------------------------------------ *)

let node_json (path, n) =
  O
    [
      ("path", S path);
      ("calls", I n.Span.calls);
      ("total_ns", I n.Span.total_ns);
      ("self_ns", I (Span.self_ns n));
      ("words", I n.Span.words);
      ("self_words", I (Span.self_words n));
    ]

let replay ~name workload ~trial ~traced ~telemetry ~out =
  Span.reset ();
  Wrap.reset ();
  let cells = Cells.cells ~telemetry workload ~trial in
  let pgsteal = ref 0 and pgscan = ref 0 and events = ref 0 and rows = ref 0 in
  let outcomes =
    Span.timed "replay" (fun () ->
        List.map
          (fun (c : Cells.cell) ->
            let t0 = Span.now_ns () in
            let o =
              match Span.timed "trial" (fun () -> Cells.run_cell ~traced c) with
              | r -> Ok r
              | exception exn -> Error (Printexc.to_string exn)
            in
            let trial_s = float_of_int (Span.now_ns () - t0) /. 1e9 in
            (match !Wrap.last_vmstat with
            | Some v ->
              pgsteal := !pgsteal + Obs.Vmstat.get v Obs.Vmstat.pgsteal;
              pgscan :=
                !pgscan
                + Obs.Vmstat.get v Obs.Vmstat.pgscan_kswapd
                + Obs.Vmstat.get v Obs.Vmstat.pgscan_direct
            | None -> ());
            (match o with
            | Ok { M.trace = Some cap; _ } ->
              events := !events + Array.length cap.Obs.events;
              rows :=
                !rows
                + Array.fold_left
                    (fun acc (_, ms) -> acc + List.length ms)
                    0 cap.Obs.samples
            | _ -> ());
            (c.Cells.label, o, trial_s))
          cells)
  in
  Span.write_log
    ~path:
      (Filename.concat out
         (Printf.sprintf "spans-%s-%s.jsonl" name (if traced then "traced" else "plain")));
  let ok = List.filter_map (fun (_, o, _) -> Result.to_option o) outcomes in
  emit
    [
      ("spans_nest", I (if Span.nesting_ok (Span.logged ()) then 1 else 0));
      ("tree", L (List.map node_json (Span.flatten ())));
      ( "trials",
        L
          (List.map
             (fun (l, o, trial_s) ->
               match trial_json l o with
               | O kv -> O (kv @ [ ("trial_s", F trial_s) ])
               | j -> j)
             outcomes) );
      ("sim", O (sim_fields ok));
      ("on_page_touched_calls", I !Wrap.touched);
      ("evictable_calls", I !Wrap.evictable_calls);
      ("pgsteal", I !pgsteal);
      ("pgscan", I !pgscan);
      ("trace_events", I !events);
      ("sample_rows", I !rows);
      ("gc", O (gc_fields ()));
    ]

(* ------------------------------------------------------------------ *)
(* Reference values for the output checks.                             *)
(* ------------------------------------------------------------------ *)

let pin workload ~trial =
  let digest_off =
    match Cells.cells ~telemetry:false workload ~trial with
    | [ c ] -> Cells.digest (Cells.run_cell c)
    | _ -> invalid_arg "pin: the sweep is checked against the figure output"
  in
  let counts =
    match workload with
    | Cells.Ycsb_telemetry -> (
      match Cells.cells ~telemetry:true workload ~trial with
      | [ c ] -> (
        match (Cells.run_cell c).M.trace with
        | Some cap ->
          [
            ("trace_events", I (Array.length cap.Obs.events));
            ( "sample_rows",
              I
                (Array.fold_left
                   (fun acc (_, ms) -> acc + List.length ms)
                   0 cap.Obs.samples) );
          ]
        | None -> [])
      | _ -> [])
    | _ -> []
  in
  emit (("digest", S digest_off) :: counts)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let usage () =
    prerr_endline
      "usage: perfbench.exe (setup|rep|replay|pin) WORKLOAD [--trial N] [--jobs J] \
       [--traced] [--telemetry on|off] [--out DIR]";
    exit 2
  in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name default =
    match opt name args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  match args with
  | mode :: wname :: _ -> (
    let workload =
      match Cells.workload_of_name wname with Some w -> w | None -> usage ()
    in
    let trial = int_opt "--trial" 0 in
    let out = Option.value (opt "--out" args) ~default:Filename.current_dir_name in
    match mode with
    | "setup" -> setup_only workload ~trial
    | "rep" -> rep workload ~trial ~jobs:(int_opt "--jobs" 1) ~out
    | "replay" ->
      replay ~name:wname workload ~trial ~traced:(List.mem "--traced" args)
        ~telemetry:(opt "--telemetry" args <> Some "off")
        ~out
    | "pin" -> pin workload ~trial
    | _ -> usage ())
  | _ -> usage ()
