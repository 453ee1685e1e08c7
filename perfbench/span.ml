(* Outside-in span recorder for the traced benchmark runs.

   Two views of the same clock:

   - an aggregated call tree: one node per distinct span path, holding
     call count, inclusive and child nanoseconds and minor-heap words.
     Hot leaf calls (millions of [on_page_mapped] / [next] per trial) go
     here, so a traced run never grows with the number of calls;
   - a log of coarse spans (name, start, end, parent), kept in memory
     and written out when the run ends.

   Self time of a node is its inclusive time minus the inclusive time of
   its children; summed over a subtree it equals the root's inclusive
   time.  The recorder is single-domain: traced runs are serial.

   [enter] / [exit] neither allocate nor box: the clock is the
   [noalloc] monotonic stub and minor words are read unboxed, so the
   words a node reports are the wrapped call's own.  The clock reads
   themselves land in the parent's self time; the benchmark reports
   that cost as the traced-vs-untraced overhead. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let minor_words () = int_of_float (Gc.minor_words ())

type node = {
  name : string;
  mutable children : node list;
  mutable calls : int;
  mutable total_ns : int;
  mutable child_ns : int;
  mutable words : int;
  mutable child_words : int;
}

let make_node name =
  {
    name;
    children = [];
    calls = 0;
    total_ns = 0;
    child_ns = 0;
    words = 0;
    child_words = 0;
  }

let max_depth = 64

let root = ref (make_node "root")
let stack = Array.make max_depth !root
let start_ns = Array.make max_depth 0
let start_words = Array.make max_depth 0
let depth = ref 0

type logged = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  span_name : string;
  t0_ns : int;
  t1_ns : int;
}

let log : logged list ref = ref []
let log_stack = ref [ -1 ]
let next_id = ref 0

let reset () =
  root := make_node "root";
  stack.(0) <- !root;
  depth := 0;
  log := [];
  log_stack := [ -1 ];
  next_id := 0

(* Returns [missing] rather than an option: [enter] must not allocate. *)
let missing = make_node ""

let rec find name = function
  | [] -> missing
  | n :: rest -> if n.name == name || String.equal n.name name then n else find name rest

let enter name =
  let parent = stack.(!depth) in
  let node =
    let n = find name parent.children in
    if n != missing then n
    else begin
      let n = make_node name in
      parent.children <- n :: parent.children;
      n
    end
  in
  incr depth;
  if !depth >= max_depth then failwith "Span.enter: spans nested too deep";
  stack.(!depth) <- node;
  start_words.(!depth) <- minor_words ();
  start_ns.(!depth) <- now_ns ()

let exit () =
  let t1 = now_ns () in
  let w1 = minor_words () in
  let d = !depth in
  if d = 0 then failwith "Span.exit: no open span";
  let node = stack.(d) and parent = stack.(d - 1) in
  let dt = t1 - start_ns.(d) and dw = w1 - start_words.(d) in
  node.calls <- node.calls + 1;
  node.total_ns <- node.total_ns + dt;
  node.words <- node.words + dw;
  parent.child_ns <- parent.child_ns + dt;
  parent.child_words <- parent.child_words + dw;
  depth := d - 1

(* A coarse span: recorded in the tree and in the log.  Allocates, so
   keep it off per-call paths. *)
let timed name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !log_stack in
  log_stack := id :: !log_stack;
  enter name;
  let t0 = start_ns.(!depth) in
  let finish () =
    let t1 = now_ns () in
    exit ();
    log_stack := List.tl !log_stack;
    log := { id; parent; span_name = name; t0_ns = t0; t1_ns = t1 } :: !log
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Flattened tree: (path, node) in depth-first order, paths joined with
   '/'. *)
let flatten () =
  let acc = ref [] in
  let rec go prefix n =
    let path = if prefix = "" then n.name else prefix ^ "/" ^ n.name in
    acc := (path, n) :: !acc;
    List.iter (go path) (List.rev n.children)
  in
  List.iter (go "") (List.rev !root.children);
  List.rev !acc

let self_ns n = n.total_ns - n.child_ns

let self_words n = n.words - n.child_words

let logged () = List.rev !log

(* Every logged span lies inside its parent's interval. *)
let nesting_ok spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.for_all
    (fun s ->
      s.t0_ns <= s.t1_ns
      &&
      match Hashtbl.find_opt by_id s.parent with
      | None -> s.parent = -1
      | Some p -> p.t0_ns <= s.t0_ns && s.t1_ns <= p.t1_ns)
    spans

let write_log ~path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.parent s.span_name s.t0_ns s.t1_ns)
    (logged ());
  close_out oc
