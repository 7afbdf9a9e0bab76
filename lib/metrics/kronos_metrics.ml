(* One process-wide flag gates every recording operation: with it off the
   instruments are a no-op sink and instrumented code runs bit-identically
   to uninstrumented code (the deterministic benches depend on that). *)
let on = ref true

let set_enabled v = on := v
let enabled () = !on

module Counter = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let incr c = if !on then c.v <- c.v + 1
  let add c n = if !on then c.v <- c.v + n
  let value c = c.v
end

(* For the few counters bumped off the loop thread (the certify prover runs
   on query-pool reader domains): a plain [mutable int] would lose
   concurrent increments. *)
module Atomic_counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let incr c = if !on then Atomic.incr c
  let add c n = if !on then ignore (Atomic.fetch_and_add c n)
  let value c = Atomic.get c
end

module Gauge = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let set g n = if !on then g.v <- n
  let add g n = if !on then g.v <- g.v + n
  let value g = g.v
end

module Histogram = struct
  (* Power-of-two buckets: bucket [i] holds values in
     [2^(i-31), 2^(i-30)) seconds, clamped at both ends.  48 buckets cover
     ~0.5 ns up to 2^17 s (~36 hours) — any latency the system can emit. *)
  let bucket_count = 48

  let bucket_of v =
    if v <= 0. then 0
    else begin
      (* frexp v = (m, e) with v = m * 2^e, m in [0.5, 1): v < 2^e. *)
      let e = snd (Float.frexp v) in
      let i = e + 30 in
      if i < 0 then 0 else if i >= bucket_count then bucket_count - 1 else i
    end

  let bucket_upper i = Float.ldexp 1.0 (i - 30)

  (* Geometric midpoint of a bucket's bounds — the quantile representative. *)
  let representative i = bucket_upper i *. 0.7071067811865476

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable max : float;
  }

  let make () = { buckets = Array.make bucket_count 0; count = 0; sum = 0.; max = 0. }

  let observe h v =
    if !on then begin
      let i = bucket_of v in
      h.buckets.(i) <- h.buckets.(i) + 1;
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v > h.max then h.max <- v
    end

  let count h = h.count
  let sum h = h.sum
  let max_value h = h.max

  let quantile h q =
    if h.count = 0 then 0.
    else if q >= 1. then h.max
    else begin
      let rank = q *. float_of_int h.count in
      let rec go i cum =
        if i >= bucket_count - 1 then h.max
        else
          let cum = cum + h.buckets.(i) in
          if float_of_int cum >= rank && cum > 0 then
            Float.min (representative i) h.max
          else go (i + 1) cum
      in
      go 0 0
    end

  let reset h =
    Array.fill h.buckets 0 bucket_count 0;
    h.count <- 0;
    h.sum <- 0.;
    h.max <- 0.
end

(* {1 Registry} *)

type scope = string

let scope name = name

type value =
  | C of Counter.t
  | A of Atomic_counter.t
  | G of Gauge.t
  | K of int
  | H of Histogram.t

type entry = { base : string; labels : (string * string) list; value : value }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let series base labels = base ^ render_labels labels

let kind_name = function
  | C _ -> "counter"
  | A _ -> "atomic counter"
  | G _ -> "gauge"
  | K _ -> "read-only gauge"
  | H _ -> "histogram"

let find_or_add scope_ labels name wrap unwrap make =
  let base = "kronos_" ^ scope_ ^ "_" ^ name in
  let key = series base labels in
  match Hashtbl.find_opt registry key with
  | Some entry -> (
      match unwrap entry.value with
      | Some v -> v
      | None ->
        invalid_arg
          (Printf.sprintf "Kronos_metrics: %s already registered as a %s" key
             (kind_name entry.value)))
  | None ->
    let v = make () in
    Hashtbl.replace registry key { base; labels; value = wrap v };
    v

let counter scope_ ?(labels = []) name =
  find_or_add scope_ labels name
    (fun c -> C c)
    (function C c -> Some c | A _ | G _ | K _ | H _ -> None)
    Counter.make

let atomic_counter scope_ ?(labels = []) name =
  find_or_add scope_ labels name
    (fun c -> A c)
    (function A c -> Some c | C _ | G _ | K _ | H _ -> None)
    Atomic_counter.make

let gauge scope_ ?(labels = []) name =
  find_or_add scope_ labels name
    (fun g -> G g)
    (function G g -> Some g | C _ | A _ | K _ | H _ -> None)
    Gauge.make

let histogram scope_ ?(labels = []) name =
  find_or_add scope_ labels name
    (fun h -> H h)
    (function H h -> Some h | C _ | A _ | G _ | K _ -> None)
    Histogram.make

let read_only_gauge scope_ ?(labels = []) name v =
  ignore
    (find_or_add scope_ labels name
       (fun v -> K v)
       (function K v' when v' = v -> Some v' | C _ | A _ | G _ | K _ | H _ -> None)
       (fun () -> v))

(* {1 Export} *)

let quantiles = [ 0.5; 0.9; 0.99 ]

let quantile_label q =
  if Float.is_integer q then Printf.sprintf "%.0f" q else Printf.sprintf "%g" q

let sorted_entries () =
  Hashtbl.fold (fun key entry acc -> (key, entry) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_samples base labels h =
  List.map
    (fun q ->
      ( series base (labels @ [ ("quantile", quantile_label q) ]),
        Histogram.quantile h q ))
    quantiles
  @ [
      (series (base ^ "_count") labels, float_of_int (Histogram.count h));
      (series (base ^ "_sum") labels, Histogram.sum h);
      (series (base ^ "_max") labels, Histogram.max_value h);
    ]

let samples () =
  sorted_entries ()
  |> List.concat_map (fun (key, entry) ->
         match entry.value with
         | C c -> [ (key, float_of_int (Counter.value c)) ]
         | A c -> [ (key, float_of_int (Atomic_counter.value c)) ]
         | G g -> [ (key, float_of_int (Gauge.value g)) ]
         | K v -> [ (key, float_of_int v) ]
         | H h -> histogram_samples entry.base entry.labels h)
  (* flattening histograms breaks key order (base{q=..} vs base_count) *)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let render () =
  let b = Buffer.create 4096 in
  let typed = Hashtbl.create 32 in
  List.iter
    (fun (key, entry) ->
      if not (Hashtbl.mem typed entry.base) then begin
        Hashtbl.replace typed entry.base ();
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" entry.base
             (match entry.value with
              | C _ | A _ -> "counter"
              | G _ | K _ -> "gauge"
              | H _ -> "summary"))
      end;
      match entry.value with
      | C c -> Buffer.add_string b (Printf.sprintf "%s %d\n" key (Counter.value c))
      | A c ->
        Buffer.add_string b (Printf.sprintf "%s %d\n" key (Atomic_counter.value c))
      | G g -> Buffer.add_string b (Printf.sprintf "%s %d\n" key (Gauge.value g))
      | K v -> Buffer.add_string b (Printf.sprintf "%s %d\n" key v)
      | H h ->
        List.iter
          (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s %.9g\n" name v))
          (histogram_samples entry.base entry.labels h))
    (sorted_entries ());
  Buffer.contents b

let reset () =
  Hashtbl.iter
    (fun _ entry ->
      match entry.value with
      | C c -> c.Counter.v <- 0
      | A c -> Atomic.set c 0
      | G g -> g.Gauge.v <- 0
      | K _ -> ()
      | H h -> Histogram.reset h)
    registry
