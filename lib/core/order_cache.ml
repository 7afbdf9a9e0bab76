(* The cache over flat int arrays (DESIGN.md §17).  A node is an index
   [n]; its eight fields sit side by side in [nodes] from [n * 8], so one
   node is one or two cache lines rather than eight.  Indices 0 .. size-1
   are exactly the live nodes, because a node is only freed by an eviction
   whose index [add_edge] refills at once, or by [clear].  Every cached
   fact is stored as its stable edge [src -> dst]; the normalized pair is
   [(min, max)] of the two and its relation bit is [src < dst].  Event
   identifiers are non-negative, so [nil] (-1) marks an empty slot or the
   end of a list. *)

let nil = -1

(* node fields *)
let src = 0
let dst = 1
let prev = 2    (* LRU list, most recently used first *)
let next = 3
let a_prev = 4  (* "afters of src" list, newest indexed first *)
let a_next = 5
let b_prev = 6  (* "befores of dst" list, newest indexed first *)
let b_next = 7
let node_words = 8

(* event-table fields: the event, then the heads of its two lists *)
let ev_key = 0
let ev_afters = 1
let ev_befores = 2
let ev_words = 3

type t = {
  capacity : int;
  prefill_fanout : int;
  mutable nodes : int array;
  mutable size : int;
  mutable head : int;
  mutable tail : int;
  (* pair -> node: open addressing with linear probing over node indices *)
  mutable slots : int array;
  (* event -> heads of its two adjacency lists, same probing scheme *)
  mutable events : int array;
  mutable ev_count : int;
  scratch : int array;  (* pre-fill candidates, copied before any fill *)
  mutable hits : int;
  mutable misses : int;
  mutable prefills : int;
  mutable evictions : int;
}

let[@inline] get t n f = t.nodes.((n * node_words) + f)
let[@inline] set t n f v = t.nodes.((n * node_words) + f) <- v
let[@inline] ev_get t i f = t.events.((i * ev_words) + f)
let[@inline] ev_set t i f v = t.events.((i * ev_words) + f) <- v
let ev_slots t = Array.length t.events / ev_words

let initial_nodes = 1024

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(prefill_fanout = 16) ~capacity () =
  if capacity <= 0 then invalid_arg "Order_cache.create: capacity";
  if prefill_fanout < 0 then invalid_arg "Order_cache.create: prefill_fanout";
  let nodes = min capacity initial_nodes in
  let table = pow2_at_least (2 * nodes) 1 in
  {
    capacity;
    prefill_fanout;
    nodes = Array.make (nodes * node_words) nil;
    size = 0;
    head = nil;
    tail = nil;
    slots = Array.make table nil;
    events = Array.make (table * ev_words) nil;
    ev_count = 0;
    scratch = Array.make (2 * prefill_fanout) nil;
    hits = 0;
    misses = 0;
    prefills = 0;
    evictions = 0;
  }

let size t = t.size
let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses
let prefills t = t.prefills
let evictions t = t.evictions

type stats = {
  stat_size : int;
  stat_capacity : int;
  stat_hits : int;
  stat_misses : int;
  stat_prefills : int;
  stat_evictions : int;
}

let stats t =
  {
    stat_size = t.size;
    stat_capacity = t.capacity;
    stat_hits = t.hits;
    stat_misses = t.misses;
    stat_prefills = t.prefills;
    stat_evictions = t.evictions;
  }

let hit_rate s =
  let total = s.stat_hits + s.stat_misses in
  if total = 0 then 0.0 else float_of_int s.stat_hits /. float_of_int total

(* ---- hashing and probing ---- *)

let mix x =
  let x = (x lxor (x lsr 32)) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let pair_hash a b = if a < b then mix (mix a + b) else mix (mix b + a)

let node_home t n = pair_hash (get t n src) (get t n dst)

let rec find_slot t lo hi mask i =
  let n = Array.unsafe_get t.slots i in
  if n = nil then nil
  else
    let s = get t n src and d = get t n dst in
    if (s = lo && d = hi) || (s = hi && d = lo) then n
    else find_slot t lo hi mask ((i + 1) land mask)

(* The node caching the pair {a, b}, or [nil]. *)
let find_node t a b =
  let mask = Array.length t.slots - 1 in
  find_slot t a b mask (pair_hash a b land mask)

let rec place slots mask i n =
  if Array.unsafe_get slots i = nil then slots.(i) <- n
  else place slots mask ((i + 1) land mask) n

let table_add t n =
  let mask = Array.length t.slots - 1 in
  place t.slots mask (node_home t n land mask) n

(* Backward-shift deletion: walk the run after the hole and pull back every
   entry whose home does not lie cyclically inside (hole, j]. *)
let rec shift_back t mask hole j =
  let j = (j + 1) land mask in
  let m = t.slots.(j) in
  if m = nil then t.slots.(hole) <- nil
  else if (j - node_home t m) land mask >= (j - hole) land mask then begin
    t.slots.(hole) <- m;
    shift_back t mask j j
  end
  else shift_back t mask hole j

let rec slot_of slots mask i n =
  if Array.unsafe_get slots i = n then i
  else slot_of slots mask ((i + 1) land mask) n

let table_remove t n =
  let mask = Array.length t.slots - 1 in
  let i = slot_of t.slots mask (node_home t n land mask) n in
  shift_back t mask i i

let rec ev_probe t mask e i =
  let k = ev_get t i ev_key in
  if k = e || k = nil then i else ev_probe t mask e ((i + 1) land mask)

(* The event table's slot for [e], or [nil] when [e] has no cached edge. *)
let ev_find t e =
  let mask = ev_slots t - 1 in
  let i = ev_probe t mask e (mix e land mask) in
  if ev_get t i ev_key = nil then nil else i

let ev_grow t =
  let old = t.events in
  t.events <- Array.make (2 * Array.length old) nil;
  let mask = ev_slots t - 1 in
  for i = 0 to (Array.length old / ev_words) - 1 do
    let e = old.(i * ev_words) in
    if e <> nil then
      Array.blit old (i * ev_words) t.events
        (ev_probe t mask e (mix e land mask) * ev_words)
        ev_words
  done

(* The event table's slot for [e], adding an empty one if needed. *)
let ev_slot t e =
  if 2 * (t.ev_count + 1) > ev_slots t then ev_grow t;
  let mask = ev_slots t - 1 in
  let i = ev_probe t mask e (mix e land mask) in
  if ev_get t i ev_key = nil then begin
    ev_set t i ev_key e;
    ev_set t i ev_afters nil;
    ev_set t i ev_befores nil;
    t.ev_count <- t.ev_count + 1
  end;
  i

let rec ev_shift_back t mask hole j =
  let j = (j + 1) land mask in
  let e = ev_get t j ev_key in
  if e = nil then ev_set t hole ev_key nil
  else if (j - mix e) land mask >= (j - hole) land mask then begin
    ev_set t hole ev_key e;
    ev_set t hole ev_afters (ev_get t j ev_afters);
    ev_set t hole ev_befores (ev_get t j ev_befores);
    ev_shift_back t mask j j
  end
  else ev_shift_back t mask hole j

(* Drop slot [i] once both of its lists are empty. *)
let ev_release t i =
  if ev_get t i ev_afters = nil && ev_get t i ev_befores = nil then begin
    t.ev_count <- t.ev_count - 1;
    ev_shift_back t (ev_slots t - 1) i i
  end

(* ---- node storage ---- *)

let grow_nodes t =
  let len = min t.capacity (2 * Array.length t.nodes / node_words) in
  let nodes = Array.make (len * node_words) nil in
  Array.blit t.nodes 0 nodes 0 (t.size * node_words);
  t.nodes <- nodes;
  if Array.length t.slots < 2 * len then begin
    t.slots <- Array.make (pow2_at_least (2 * len) 1) nil;
    for n = 0 to t.size - 1 do table_add t n done
  end

(* ---- LRU list ---- *)

let unlink t n =
  let p = get t n prev and x = get t n next in
  if p = nil then t.head <- x else set t p next x;
  if x = nil then t.tail <- p else set t x prev p

let push_front t n =
  set t n prev nil;
  set t n next t.head;
  if t.head = nil then t.tail <- n else set t t.head prev n;
  t.head <- n

let touch t n = if t.head <> n then begin unlink t n; push_front t n end

(* ---- adjacency: every cached edge src -> dst is on the afters list of
   src and the befores list of dst ---- *)

(* Push [n] on the list headed in event-table field [heads] of [e], linked
   through node fields [lprev]/[lnext]. *)
let link t n e heads lprev lnext =
  let i = ev_slot t e in
  let h = ev_get t i heads in
  set t n lprev nil;
  set t n lnext h;
  if h <> nil then set t h lprev n;
  ev_set t i heads n

let cut t n e heads lprev lnext =
  let p = get t n lprev and x = get t n lnext in
  if x <> nil then set t x lprev p;
  if p <> nil then set t p lnext x
  else begin
    let i = ev_find t e in
    ev_set t i heads x;
    ev_release t i
  end

let index t n =
  link t n (get t n src) ev_afters a_prev a_next;
  link t n (get t n dst) ev_befores b_prev b_next

let unindex t n =
  cut t n (get t n src) ev_afters a_prev a_next;
  cut t n (get t n dst) ev_befores b_prev b_next

(* Drop the least recently used node and return its (now free) index. *)
let evict t =
  let n = t.tail in
  unlink t n;
  table_remove t n;
  unindex t n;
  t.size <- t.size - 1;
  t.evictions <- t.evictions + 1;
  n

(* Cache the edge [s -> d], whose pair is known to be absent. *)
let add_edge t s d =
  let n =
    if t.size >= t.capacity then evict t
    else begin
      if t.size * node_words = Array.length t.nodes then grow_nodes t;
      t.size
    end
  in
  t.size <- t.size + 1;
  set t n src s;
  set t n dst d;
  table_add t n;
  push_front t n;
  index t n

(* Copy the [end_] event of each node on the list from [n] (linked through
   [lnext]) into the scratch buffer from [k], stopping at [stop]. *)
let rec gather t end_ lnext n k stop =
  if n = nil || k = stop then k
  else begin
    t.scratch.(k) <- get t n end_;
    gather t end_ lnext (get t n lnext) (k + 1) stop
  end

let fill t b a =
  if b <> a && find_node t b a = nil then begin
    t.prefills <- t.prefills + 1;
    add_edge t b a
  end

let list_head t e heads =
  let i = ev_find t e in
  if i = nil then nil else ev_get t i heads

(* Pre-fill one transitive hop each way around the new edge [before ->
   after]: [before -> w] for the newest cached [after -> w], [u -> after]
   for the newest cached [u -> before].  Candidates are copied out first,
   since the fills may evict the nodes they were read from. *)
let prefill t before after =
  let f = t.prefill_fanout in
  let nf = gather t dst a_next (list_head t after ev_afters) 0 f in
  let nb = gather t src b_next (list_head t before ev_befores) f (2 * f) in
  for k = 0 to nf - 1 do fill t before t.scratch.(k) done;
  for k = f to nb - 1 do fill t t.scratch.(k) after done

(* Insert a stable [before -> after] fact and pre-fill one transitive hop
   (never recursively, so a single service answer costs at most
   2 * fanout extra entries). *)
let insert_stable t before after =
  if before <> after then begin
    let n = find_node t before after in
    if n = nil then begin
      add_edge t before after;
      prefill t before after
    end
    else begin
      if get t n src <> before then begin
        unindex t n;
        set t n src before;
        set t n dst after;
        index t n
      end;
      touch t n
    end
  end

let insert t (e1 : Event_id.t) (e2 : Event_id.t) rel =
  match (rel : Order.relation) with
  | Concurrent | Same -> ()
  | Before -> insert_stable t (e1 :> int) (e2 :> int)
  | After -> insert_stable t (e2 :> int) (e1 :> int)

let find t (e1 : Event_id.t) (e2 : Event_id.t) =
  let a = (e1 :> int) and b = (e2 :> int) in
  if a = b then Some Order.Same
  else begin
    let n = find_node t a b in
    if n = nil then begin
      t.misses <- t.misses + 1;
      None
    end
    else begin
      touch t n;
      t.hits <- t.hits + 1;
      if get t n src = a then Some Order.Before else Some Order.After
    end
  end

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) nil;
  Array.fill t.events 0 (Array.length t.events) nil;
  t.ev_count <- 0;
  t.head <- nil;
  t.tail <- nil;
  t.size <- 0
