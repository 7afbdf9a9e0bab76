(* Span recorder for the traced run.

   Everything the benchmark measures runs on one event-loop thread, so a
   span stack is enough: a span opened inside another is its child, and a
   span's self time is its duration minus the durations of its children.
   Self time is charged to the span's layer as the span closes, which
   partitions the loop thread's time exactly between the layers.  Spans
   are also kept in memory (up to [cap]) and written out at the end.

   With tracing off every wrapper is a single branch. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Layers, named after the modules they stand for. *)
let client = 0
let wire = 1
let transport = 2
let head = 3
let mid = 4
let tail = 5
let control = 6
let engine = 7
let query_pool = 8
let durability = 9
let loadgen = 10
let idle = 11

let layer_names =
  [| "client"; "wire"; "transport"; "replication.head"; "replication.mid";
     "replication.tail"; "replication.control"; "engine"; "query_pool";
     "durability"; "loadgen"; "idle" |]

let on = ref false
let self_ns = Array.make (Array.length layer_names) 0

(* per span name: count and summed self time *)
let by_name : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 32

type frame = {
  name : string;
  layer : int;
  t0 : int;
  mutable child : int;
  idx : int;
}

let stack : frame list ref = ref []

(* Recorded spans, allocated on first use so untraced runs pay nothing. *)
let cap = 100_000

type store = {
  s_name : string array;
  s_t0 : int array;
  s_t1 : int array;
  s_parent : int array;
  s_client : int array;
  s_req : int array;
}

let store = ref None
let n_spans = ref 0

let get_store () =
  match !store with
  | Some s -> s
  | None ->
    let s =
      { s_name = Array.make cap ""; s_t0 = Array.make cap 0;
        s_t1 = Array.make cap 0; s_parent = Array.make cap (-1);
        s_client = Array.make cap (-1); s_req = Array.make cap (-1) }
    in
    store := Some s;
    s

let reset () =
  Array.fill self_ns 0 (Array.length self_ns) 0;
  Hashtbl.reset by_name;
  n_spans := 0

let start () =
  ignore (get_store ());
  reset ();
  on := true

let stop () = on := false

let loop_name = "loop"

let finish fr =
  let t1 = now_ns () in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  let dur = t1 - fr.t0 in
  let self = dur - fr.child in
  let layer = if fr.name == loop_name && fr.child = 0 then idle else fr.layer in
  self_ns.(layer) <- self_ns.(layer) + self;
  (match Hashtbl.find_opt by_name fr.name with
   | Some (n, s) -> incr n; s := !s + self
   | None -> Hashtbl.replace by_name fr.name (ref 1, ref self));
  (match !stack with p :: _ -> p.child <- p.child + dur | [] -> ());
  if fr.idx >= 0 then begin
    let s = get_store () in
    s.s_t1.(fr.idx) <- t1
  end

let span ?(link = (-1, -1)) ~layer name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.idx | [] -> -1 in
    let idx =
      if !n_spans < cap then begin
        let i = !n_spans in
        incr n_spans;
        let s = get_store () in
        s.s_name.(i) <- name;
        s.s_parent.(i) <- parent;
        s.s_client.(i) <- fst link;
        s.s_req.(i) <- snd link;
        i
      end
      else -1
    in
    let fr = { name; layer; t0 = now_ns (); child = 0; idx } in
    if idx >= 0 then (get_store ()).s_t0.(idx) <- fr.t0;
    stack := fr :: !stack;
    match f () with
    | r -> finish fr; r
    | exception e -> finish fr; raise e
  end

(* One event-loop iteration; it counts as idle when it dispatched nothing. *)
let loop_iter f = span ~layer:transport loop_name f

let current_layer () =
  match !stack with p :: _ -> p.layer | [] -> transport

(* Re-attribute part of a closed span's self time to another layer: work
   the wrapped function did that no outside wrapper can split off as a
   child span (engine applies inside a replica handler, snapshot encoding
   inside a commit). *)
let move ~from ~to_ ns =
  if !on then begin
    self_ns.(from) <- self_ns.(from) - ns;
    self_ns.(to_) <- self_ns.(to_) + ns
  end

let count name = match Hashtbl.find_opt by_name name with Some (n, _) -> !n | None -> 0
let self_of name = match Hashtbl.find_opt by_name name with Some (_, s) -> !s | None -> 0

let total_self () = Array.fold_left ( + ) 0 self_ns

let dump path =
  match !store with
  | None -> ()
  | Some s ->
    let oc = open_out path in
    output_string oc "idx\tparent\tname\tstart_ns\tend_ns\tclient\treq_id\n";
    for i = 0 to !n_spans - 1 do
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" i s.s_parent.(i)
        s.s_name.(i) s.s_t0.(i) s.s_t1.(i) s.s_client.(i) s.s_req.(i)
    done;
    close_out oc
