module Prof = Prof
module Vmstat = Vmstat

type promote_reason =
  | Aging
  | Evict_scan
  | Spatial
  | Second_chance

type event =
  | Evict of { vpn : int; dirty : bool }
  | Promote of { pfn : int; reason : promote_reason }
  | Demote of { pfn : int }
  | Aging_pass of { pass : int; max_seq : int; min_seq : int }
  | Reclaim of { want : int; freed : int; scanned : int; latency_ns : int }
  | Swap_read of { slot : int; latency_ns : int; retries : int; failed : bool }
  | Swap_write of {
      slot : int;
      latency_ns : int;
      retries : int;
      failed : bool;
      remapped : bool;
    }
  | Oom_kill of { tid : int; discarded : int }
  | Throttle of { tid : int; cg : string; usage : int; high : int; stall_ns : int }
  | Cgroup_reclaim of {
      cg : string;
      want : int;
      freed : int;
      scanned : int;
      latency_ns : int;
    }
  | Cgroup_oom of { cg : string; tid : int; discarded : int }
  | Psi of {
      cg : string;
      some_ns : int;
      full_ns : int;
      window_ns : int;
      limit : int;
    }
  | Chaos of { injector : string; action : string; arg : int }
  | Workingset_refault of {
      vpn : int;
      distance : int;
      shadow : bool;
      activated : bool;
      restored : bool;
    }

let kind_name = function
  | Evict _ -> "evict"
  | Promote _ -> "promote"
  | Demote _ -> "demote"
  | Aging_pass _ -> "aging_pass"
  | Reclaim _ -> "reclaim"
  | Swap_read _ -> "swap_read"
  | Swap_write _ -> "swap_write"
  | Oom_kill _ -> "oom_kill"
  | Throttle _ -> "throttle"
  | Cgroup_reclaim _ -> "cgroup_reclaim"
  | Cgroup_oom _ -> "cgroup_oom"
  | Psi _ -> "psi"
  | Chaos _ -> "chaos"
  | Workingset_refault _ -> "workingset_refault"

let promote_reason_name = function
  | Aging -> "aging"
  | Evict_scan -> "evict_scan"
  | Spatial -> "spatial"
  | Second_chance -> "second_chance"

type config = {
  trace : bool;
  sample_every_ns : int;
}

let off = { trace = false; sample_every_ns = 0 }

let config_enabled c = c.trace || c.sample_every_ns > 0

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* Direct-reclaim latencies span sub-microsecond list pops to multi-
   second writeback stalls; one shared layout lets per-trial histograms
   merge into per-policy ones. *)
let reclaim_hist_lo = 100.0

let reclaim_hist_hi = 1e11

type sink = {
  config : config;
  mutable ev_times : int array;
  mutable ev : event array;
  mutable ev_len : int;
  mutable samples_rev : (int * (string * float) list) list;
  mutable samples_n : int;
  hist : Stats.Histogram.t;
}

type t = sink option

let disabled : t = None

let create config =
  if not (config_enabled config) then None
  else
    Some
      {
        config;
        ev_times = [||];
        ev = [||];
        ev_len = 0;
        samples_rev = [];
        samples_n = 0;
        hist =
          Stats.Histogram.create ~buckets_per_decade:10 ~lo:reclaim_hist_lo
            ~hi:reclaim_hist_hi ();
      }

let enabled = function None -> false | Some _ -> true

let tracing = function None -> false | Some s -> s.config.trace

let sample_every_ns = function None -> 0 | Some s -> s.config.sample_every_ns

let push s ~t_ns ev =
  let cap = Array.length s.ev in
  if s.ev_len >= cap then begin
    let cap' = max 256 (2 * cap) in
    let times' = Array.make cap' 0 in
    let ev' = Array.make cap' ev in
    Array.blit s.ev_times 0 times' 0 s.ev_len;
    Array.blit s.ev 0 ev' 0 s.ev_len;
    s.ev_times <- times';
    s.ev <- ev'
  end;
  s.ev_times.(s.ev_len) <- t_ns;
  s.ev.(s.ev_len) <- ev;
  s.ev_len <- s.ev_len + 1

let emit t ~t_ns ev =
  match t with
  | None -> ()
  | Some s ->
    (match ev with
    | Reclaim { latency_ns; _ } ->
      Stats.Histogram.add s.hist (float_of_int (max 1 latency_ns))
    | _ -> ());
    if s.config.trace then push s ~t_ns ev

let push_sample t ~t_ns metrics =
  match t with
  | None -> ()
  | Some s ->
    s.samples_rev <- (t_ns, metrics) :: s.samples_rev;
    s.samples_n <- s.samples_n + 1

type capture = {
  events : (int * event) array;
  samples : (int * (string * float) list) array;
  reclaim_hist : Stats.Histogram.t;
}

let capture = function
  | None -> None
  | Some s ->
    let events = Array.init s.ev_len (fun i -> (s.ev_times.(i), s.ev.(i))) in
    let samples = Array.make s.samples_n (0, []) in
    List.iteri
      (fun i sm -> samples.(s.samples_n - 1 - i) <- sm)
      s.samples_rev;
    Some { events; samples; reclaim_hist = s.hist }

(* ------------------------------------------------------------------ *)
(* JSONL and CSV output                                               *)
(* ------------------------------------------------------------------ *)

type value = Int of int | Float of float | Bool of bool | Str of string

(* The C formatter behind Printf's %g/%f conversions: same bytes,
   without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

module Out = struct
  type t = { buf : Buffer.t; oc : out_channel option }

  (* A channel-backed writer hands its buffer to the channel once a
     line ends past this many bytes. *)
  let block_bytes = 65536

  let create () = { buf = Buffer.create 256; oc = None }

  let contents t = Buffer.contents t.buf

  let flush t =
    match t.oc with
    | None -> ()
    | Some oc ->
      Buffer.output_buffer oc t.buf;
      Buffer.clear t.buf

  let with_channel oc f =
    let t = { buf = Buffer.create (2 * block_bytes); oc = Some oc } in
    let v = f t in
    flush t;
    v

  let string t s = Buffer.add_string t.buf s

  let char t c = Buffer.add_char t.buf c

  let rec digits buf n =
    if n >= 10 then digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

  (* Digit by digit: the bytes of [string_of_int], without its string.
     [min_int] has no positive counterpart to print. *)
  let int t i =
    if i >= 0 then digits t.buf i
    else if i > min_int then begin
      Buffer.add_char t.buf '-';
      digits t.buf (-i)
    end
    else Buffer.add_string t.buf (string_of_int i)

  let bool t b = Buffer.add_string t.buf (if b then "true" else "false")

  (* [%.9g] prints an integer below 1e9 as its digits; [-0.] is the one
     integral value whose bytes differ from its [int_of_float]. *)
  let float_g t f =
    if
      Float.is_integer f && Float.abs f < 1e9
      && not (f = 0. && Float.sign_bit f)
    then int t (int_of_float f)
    else Buffer.add_string t.buf (format_float "%.9g" f)

  let end_line t =
    Buffer.add_char t.buf '\n';
    if Buffer.length t.buf >= block_bytes then flush t

  let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

  (* [String.exists] would allocate a closure per call. *)
  let rec plain s i n =
    i = n || ((not (needs_escape (String.unsafe_get s i))) && plain s (i + 1) n)

  let hex_digits = "0123456789abcdef"

  let escape_char buf c =
    match c with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex_digits.[Char.code c lsr 4];
      Buffer.add_char buf hex_digits.[Char.code c land 15]
    | c -> Buffer.add_char buf c

  let json_string t s =
    Buffer.add_char t.buf '"';
    if plain s 0 (String.length s) then Buffer.add_string t.buf s
    else String.iter (escape_char t.buf) s;
    Buffer.add_char t.buf '"'

  let json_key t k =
    json_string t k;
    Buffer.add_char t.buf ':'

  let json_value t = function
    | Int i -> int t i
    | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        string t (format_float "%.0f" f)
      else float_g t f
    | Bool b -> bool t b
    | Str s -> json_string t s
end

(* The one place that names each payload field and fixes its order:
   the trace writer and [event_fields] both walk events through it. *)
type 'a field_visitor = {
  int : 'a -> string -> int -> unit;
  bool : 'a -> string -> bool -> unit;
  str : 'a -> string -> string -> unit;
}

let visit_fields v x = function
  | Evict { vpn; dirty } -> v.int x "vpn" vpn; v.bool x "dirty" dirty
  | Promote { pfn; reason } ->
    v.int x "pfn" pfn; v.str x "reason" (promote_reason_name reason)
  | Demote { pfn } -> v.int x "pfn" pfn
  | Aging_pass { pass; max_seq; min_seq } ->
    v.int x "pass" pass; v.int x "max_seq" max_seq; v.int x "min_seq" min_seq
  | Reclaim { want; freed; scanned; latency_ns } ->
    v.int x "want" want; v.int x "freed" freed; v.int x "scanned" scanned;
    v.int x "latency_ns" latency_ns
  | Swap_read { slot; latency_ns; retries; failed } ->
    v.int x "slot" slot; v.int x "latency_ns" latency_ns;
    v.int x "retries" retries; v.bool x "failed" failed
  | Swap_write { slot; latency_ns; retries; failed; remapped } ->
    v.int x "slot" slot; v.int x "latency_ns" latency_ns;
    v.int x "retries" retries; v.bool x "failed" failed;
    v.bool x "remapped" remapped
  | Oom_kill { tid; discarded } ->
    v.int x "tid" tid; v.int x "discarded" discarded
  | Throttle { tid; cg; usage; high; stall_ns } ->
    v.int x "tid" tid; v.str x "cg" cg; v.int x "usage" usage;
    v.int x "high" high; v.int x "stall_ns" stall_ns
  | Cgroup_reclaim { cg; want; freed; scanned; latency_ns } ->
    v.str x "cg" cg; v.int x "want" want; v.int x "freed" freed;
    v.int x "scanned" scanned; v.int x "latency_ns" latency_ns
  | Cgroup_oom { cg; tid; discarded } ->
    v.str x "cg" cg; v.int x "tid" tid; v.int x "discarded" discarded
  | Chaos { injector; action; arg } ->
    v.str x "injector" injector; v.str x "action" action; v.int x "arg" arg
  | Psi { cg; some_ns; full_ns; window_ns; limit } ->
    v.str x "cg" cg; v.int x "some_ns" some_ns; v.int x "full_ns" full_ns;
    v.int x "window_ns" window_ns; v.int x "limit" limit
  | Workingset_refault { vpn; distance; shadow; activated; restored } ->
    v.int x "vpn" vpn; v.int x "distance" distance; v.bool x "shadow" shadow;
    v.bool x "activated" activated; v.bool x "restored" restored

let event_fields ev =
  let acc = ref [] in
  let add r k v = r := (k, v) :: !r in
  visit_fields
    {
      int = (fun r k i -> add r k (Int i));
      bool = (fun r k b -> add r k (Bool b));
      str = (fun r k s -> add r k (Str s));
    }
    acc ev;
  List.rev !acc

let json_fields out fields =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Out.char out ',';
      Out.json_key out k;
      Out.json_value out v)
    fields

let json_string s =
  let out = Out.create () in
  Out.json_string out s;
  Out.contents out

let json_object fields =
  let out = Out.create () in
  Out.char out '{';
  json_fields out fields;
  Out.char out '}';
  Out.contents out

(* Everything a trace line holds before the event's own stamp: the
   opening brace, the cell fields and the ["t_ns":] key. *)
type cell_prefix = string

let cell_prefix cell =
  let out = Out.create () in
  Out.char out '{';
  json_fields out cell;
  if cell <> [] then Out.char out ',';
  Out.string out "\"t_ns\":";
  Out.contents out

(* Payload fields follow [t_ns] and [kind], so each one opens with a
   comma. *)
let payload_writer =
  let field out k =
    Out.char out ',';
    Out.json_key out k
  in
  {
    int = (fun out k i -> field out k; Out.int out i);
    bool = (fun out k b -> field out k; Out.bool out b);
    str = (fun out k s -> field out k; Out.json_string out s);
  }

let add_jsonl out prefix ~t_ns ev =
  Out.string out prefix;
  Out.int out t_ns;
  Out.string out ",\"kind\":";
  Out.json_string out (kind_name ev);
  visit_fields payload_writer out ev;
  Out.char out '}'

let write_jsonl out prefix ~t_ns ev =
  add_jsonl out prefix ~t_ns ev;
  Out.end_line out

let jsonl_line ~cell ~t_ns ev =
  let out = Out.create () in
  add_jsonl out (cell_prefix cell) ~t_ns ev;
  Out.contents out

(* Flat-object JSON parser: exactly the subset [jsonl_line] emits
   (strings, numbers, booleans, null), with standard escapes.  Kept
   dependency-free so `repro trace-summary` and the CI parse check need
   nothing beyond this library. *)

exception Parse_error of string

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub line !pos 4 in
            pos := !pos + 4;
            (* Strict hex digits only: [int_of_string "0x.."] would
               also accept underscores ("\u00_1"). *)
            let hex_digit c =
              match c with
              | '0' .. '9' -> Char.code c - Char.code '0'
              | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
              | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
              | _ -> fail "bad \\u escape"
            in
            let code =
              String.fold_left (fun acc c -> (acc * 16) + hex_digit c) 0 hex
            in
            (* Only BMP code points below 0x80 round-trip from our
               writer; encode the rest as UTF-8 for robustness. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | _ -> fail "unknown escape");
          loop ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub line !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char line.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    let s = String.sub line start (!pos - start) in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "malformed number")
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some 'n' -> parse_literal "null" (Str "null")
    | Some _ -> parse_number ()
    | None -> fail "expected a value"
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    (match peek () with
    | Some '}' -> advance ()
    | _ ->
      let rec members () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ());
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    Ok (List.rev !fields)
  with Parse_error msg -> Error msg

let field fields k = List.assoc_opt k fields

let field_int fields k =
  match field fields k with
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let field_string fields k =
  match field fields k with Some (Str s) -> Some s | _ -> None
