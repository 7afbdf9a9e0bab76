type t = {
  mutable sparse : int array;
  mutable dense : int array;
  mutable ptr : int;
}

(* The arrays deliberately start uninitialized in spirit: Array.make fills
   them with 0, but correctness never depends on the fill value, exactly as in
   the paper's uninitialized-memory construction. *)
let create capacity =
  let capacity = max capacity 1 in
  { sparse = Array.make capacity 0; dense = Array.make capacity 0; ptr = 0 }

let capacity s = Array.length s.sparse
let cardinal s = s.ptr

let check s i =
  if i < 0 || i >= Array.length s.sparse then
    invalid_arg "Sparse_set: element out of range"

let mem s i =
  check s i;
  let slot = Array.unsafe_get s.sparse i in
  slot < s.ptr && Array.unsafe_get s.dense slot = i

let add s i =
  check s i;
  if not (mem s i) then begin
    Array.unsafe_set s.sparse i s.ptr;
    Array.unsafe_set s.dense s.ptr i;
    s.ptr <- s.ptr + 1
  end

let clear s = s.ptr <- 0

let grow s capacity =
  if capacity > Array.length s.sparse then begin
    let sparse = Array.make capacity 0 in
    let dense = Array.make capacity 0 in
    Array.blit s.sparse 0 sparse 0 (Array.length s.sparse);
    Array.blit s.dense 0 dense 0 (Array.length s.dense);
    s.sparse <- sparse;
    s.dense <- dense
  end

let iter f s =
  for slot = 0 to s.ptr - 1 do
    f s.dense.(slot)
  done
