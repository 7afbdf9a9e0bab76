(* Growable buffer of integer samples (nanoseconds) with exact order
   statistics. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }
let clear t = t.n <- 0
let length t = t.n

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort compare s;
  s

(* Nearest-rank quantile; 0 when empty. *)
let quantile t q =
  let s = sorted t in
  let n = Array.length s in
  if n = 0 then 0
  else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
