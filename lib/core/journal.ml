type status = Trial_ok | Trial_failed | Trial_timeout

type record = {
  key : string;
  status : status;
  reason : string;
  result : Machine.result option;
}

let status_name = function
  | Trial_ok -> "ok"
  | Trial_failed -> "failed"
  | Trial_timeout -> "timeout"

let status_of_name = function
  | "ok" -> Some Trial_ok
  | "failed" -> Some Trial_failed
  | "timeout" -> Some Trial_timeout
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Result (de)serialization.  Scalars are JSON ints; arrays are space- *)
(* joined strings — floats in %h (hex) form so latencies round-trip    *)
(* bit-exactly and a resumed sweep stays byte-identical to an          *)
(* uninterrupted one.  policy_stats keys are identifier-like by        *)
(* convention, so "k=v;k=v" needs no quoting.                          *)
(* ------------------------------------------------------------------ *)

let floats_to_s a =
  String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list a))

let floats_of_s s =
  if s = "" then [||]
  else Array.of_list (List.map float_of_string (String.split_on_char ' ' s))

let ints_to_s a = String.concat " " (List.map string_of_int (Array.to_list a))

let ints_of_s s =
  if s = "" then [||]
  else Array.of_list (List.map int_of_string (String.split_on_char ' ' s))

let stats_to_s l =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)

let stats_of_s s =
  if s = "" then []
  else
    List.map
      (fun kv ->
        let i = String.index kv '=' in
        ( String.sub kv 0 i,
          int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) ))
      (String.split_on_char ';' s)

let result_fields (r : Machine.result) =
  [
    ("runtime_ns", Obs.Int r.runtime_ns);
    ("major_faults", Obs.Int r.major_faults);
    ("minor_faults", Obs.Int r.minor_faults);
    ("swap_ins", Obs.Int r.swap_ins);
    ("swap_outs", Obs.Int r.swap_outs);
    ("direct_reclaims", Obs.Int r.direct_reclaims);
    ("direct_reclaim_ns", Obs.Int r.direct_reclaim_ns);
    ("read_latencies", Obs.Str (floats_to_s r.read_latencies));
    ("write_latencies", Obs.Str (floats_to_s r.write_latencies));
    ("per_thread_finish", Obs.Str (ints_to_s r.per_thread_finish));
    ("cpu_busy_ns", Obs.Int r.cpu_busy_ns);
    ("policy_stats", Obs.Str (stats_to_s r.policy_stats));
    ("policy_name", Obs.Str r.policy_name);
    ("resident_at_end", Obs.Int r.resident_at_end);
    ("io_retries", Obs.Int r.io_retries);
    ("io_remaps", Obs.Int r.io_remaps);
    ("injected_transient", Obs.Int r.injected_transient);
    ("injected_permanent", Obs.Int r.injected_permanent);
    ("injected_stalls", Obs.Int r.injected_stalls);
    ("injected_tail_spikes", Obs.Int r.injected_tail_spikes);
    ("poisoned_reads", Obs.Int r.poisoned_reads);
    ("writeback_failures", Obs.Int r.writeback_failures);
    ("oom_kills", Obs.Int r.oom_kills);
    ("oom_discarded_pages", Obs.Int r.oom_discarded_pages);
    ("invariant_violations", Obs.Int r.invariant_violations);
  ]
  (* Emitted only when present so profiler-off journals stay
     byte-identical to builds without the profiler.  Spans are dropped
     by the encoding (the runner never warm-starts span-bearing runs). *)
  @ (match r.profile with
    | None -> []
    | Some cap -> [ ("profile", Obs.Str (Obs.Prof.encode_capture cap)) ])
  (* Same pattern for the cgroup summary: absent without [--cgroups]. *)
  @ (match r.memcg with
    | None -> []
    | Some s -> [ ("cgroups", Obs.Str (Mem.Memcg.summary_to_string s)) ])
  (* And for the chaos tallies: absent without [--chaos]. *)
  @ (match r.chaos with
    | None -> []
    | Some s -> [ ("chaos", Obs.Str (Chaos.summary_to_string s)) ])
  (* And for the vmstat counters: absent unless [config.vmstat] was
     set, so telemetry-off journals are byte-identical to builds
     without the counter registry.  The heatmap is stripped like the
     trace — region rows are bulky and the runner never warm-starts
     monitor-bearing runs. *)
  @ (match r.vmstat with
    | None -> []
    | Some cap -> [ ("vmstat", Obs.Str (Obs.Vmstat.encode_capture cap)) ])

exception Decode of string

let req fields name =
  match Obs.field fields name with
  | Some v -> v
  | None -> raise (Decode (Printf.sprintf "missing field %S" name))

let req_int fields name =
  match Obs.field_int fields name with
  | Some v -> v
  | None -> raise (Decode (Printf.sprintf "missing int field %S" name))

let req_str fields name =
  match req fields name with
  | Obs.Str s -> s
  | _ -> raise (Decode (Printf.sprintf "field %S is not a string" name))

let result_of_fields fields : Machine.result =
  let int = req_int fields and str = req_str fields in
  {
    runtime_ns = int "runtime_ns";
    major_faults = int "major_faults";
    minor_faults = int "minor_faults";
    swap_ins = int "swap_ins";
    swap_outs = int "swap_outs";
    direct_reclaims = int "direct_reclaims";
    direct_reclaim_ns = int "direct_reclaim_ns";
    read_latencies = floats_of_s (str "read_latencies");
    write_latencies = floats_of_s (str "write_latencies");
    per_thread_finish = ints_of_s (str "per_thread_finish");
    cpu_busy_ns = int "cpu_busy_ns";
    policy_stats = stats_of_s (str "policy_stats");
    policy_name = str "policy_name";
    resident_at_end = int "resident_at_end";
    io_retries = int "io_retries";
    io_remaps = int "io_remaps";
    injected_transient = int "injected_transient";
    injected_permanent = int "injected_permanent";
    injected_stalls = int "injected_stalls";
    injected_tail_spikes = int "injected_tail_spikes";
    poisoned_reads = int "poisoned_reads";
    writeback_failures = int "writeback_failures";
    oom_kills = int "oom_kills";
    oom_discarded_pages = int "oom_discarded_pages";
    invariant_violations = int "invariant_violations";
    memcg =
      (match Obs.field_string fields "cgroups" with
      | None -> None
      | Some s -> (
        match Mem.Memcg.summary_of_string s with
        | Some _ as sm -> sm
        | None -> raise (Decode "malformed cgroups summary")));
    chaos =
      (match Obs.field_string fields "chaos" with
      | None -> None
      | Some s -> (
        match Chaos.summary_of_string s with
        | Some _ as cs -> cs
        | None -> raise (Decode "malformed chaos summary")));
    trace = None;
    profile =
      (match Obs.field_string fields "profile" with
      | None -> None
      | Some s -> (
        try Some (Obs.Prof.decode_capture s)
        with Failure msg -> raise (Decode msg)));
    vmstat =
      (match Obs.field_string fields "vmstat" with
      | None -> None
      | Some s -> (
        try Some (Obs.Vmstat.decode_capture s)
        with Failure msg -> raise (Decode msg)));
    heatmap = None;
    tier = None;
  }

(* ------------------------------------------------------------------ *)
(* Line framing: {"sum":"<32 hex md5>",<payload>  where the digest     *)
(* covers everything after the 42-byte prefix.  The whole line is      *)
(* still one flat JSON object, so Obs.parse_line reads it unchanged.   *)
(* ------------------------------------------------------------------ *)

let frame_prefix = "{\"sum\":\""
let frame_prefix_len = String.length frame_prefix (* 8 *)
let digest_hex_len = 32
let payload_start = frame_prefix_len + digest_hex_len + 2 (* quote+comma = 42 *)

let frame payload =
  let sum = Digest.to_hex (Digest.string payload) in
  String.concat "" [ frame_prefix; sum; "\","; payload ]

let unframe line =
  let len = String.length line in
  if len <= payload_start then Error "truncated record (framing)"
  else if
    String.sub line 0 frame_prefix_len <> frame_prefix
    || line.[payload_start - 2] <> '"'
    || line.[payload_start - 1] <> ','
  then Error "malformed checksum framing"
  else
    let sum = String.sub line frame_prefix_len digest_hex_len in
    let payload = String.sub line payload_start (len - payload_start) in
    if Digest.to_hex (Digest.string payload) <> String.lowercase_ascii sum then
      Error "checksum mismatch (torn or corrupt record)"
    else Ok payload

let record_to_line r =
  let fields =
    ("key", Obs.Str r.key)
    :: ("status", Obs.Str (status_name r.status))
    :: ("reason", Obs.Str r.reason)
    :: (match r.result with Some res -> result_fields res | None -> [])
  in
  let obj = Obs.json_object fields in
  (* Drop the opening brace: the frame supplies it ahead of "sum". *)
  frame (String.sub obj 1 (String.length obj - 1))

let record_of_line line =
  match unframe line with
  | Error _ as e -> e
  | Ok _ -> (
    match Obs.parse_line line with
    | Error e -> Error e
    | Ok fields -> (
      try
        let key = req_str fields "key" in
        let status =
          match status_of_name (req_str fields "status") with
          | Some s -> s
          | None -> raise (Decode "unknown status")
        in
        let reason = req_str fields "reason" in
        let result =
          match status with
          | Trial_ok -> Some (result_of_fields fields)
          | Trial_failed | Trial_timeout -> None
        in
        Ok { key; status; reason; result }
      with Decode msg -> Error msg))

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

(* Last occurrence of a key wins: a resumed run's retry of a previously
   failed trial supersedes the failure record. *)
let dedup_last records =
  let seen = Hashtbl.create 64 in
  List.rev
    (List.filter
       (fun r ->
         if Hashtbl.mem seen r.key then false
         else begin
           Hashtbl.add seen r.key ();
           true
         end)
       (List.rev records))

let load ~path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let records = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lineno = ref 0 in
        let offset = ref 0 in
        try
          while true do
            let line = input_line ic in
            incr lineno;
            (match record_of_line line with
            | Ok r -> records := r :: !records
            | Error msg ->
              Printf.eprintf
                "journal: %s: skipping invalid record at line %d (byte \
                 offset %d): %s\n\
                 %!"
                path !lineno !offset msg);
            offset := !offset + String.length line + 1
          done
        with End_of_file -> ());
    dedup_last (List.rev !records)
  end

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

type t = { oc : out_channel; lock : Mutex.t; mutable closed : bool }

let open_ ~path ~resume =
  let records = if resume then load ~path else [] in
  (* Rewrite the compacted segment atomically, then append to it: the
     file on disk is wholly valid (no torn tail, no duplicates) from the
     first new append on.  A fresh / non-resume open writes an empty
     segment, replacing any previous journal. *)
  Atomic_io.replace ~path (fun oc ->
      List.iter
        (fun r ->
          output_string oc (record_to_line r);
          output_char oc '\n')
        records);
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  ({ oc; lock = Mutex.create (); closed = false }, records)

let append t r =
  let line = record_to_line r in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      Atomic_io.fsync_out t.oc)

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc
  end;
  Mutex.unlock t.lock
