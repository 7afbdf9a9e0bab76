type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 4) () =
  let capacity = max capacity 1 in
  { data = Array.make capacity 0; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Int_vec: index out of bounds"

let get v i = check v i; Array.unsafe_get v.data i
let unsafe_data v = v.data
let set v i x = check v i; Array.unsafe_set v.data i x

let grow v =
  let data = Array.make (2 * Array.length v.data) 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Int_vec.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let last v =
  if v.len = 0 then invalid_arg "Int_vec.last: empty";
  Array.unsafe_get v.data (v.len - 1)

let clear v = v.len <- 0

let mem v x =
  let rec loop i = i < v.len && (Array.unsafe_get v.data i = x || loop (i + 1)) in
  loop 0

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let fold f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (get v i :: acc) in
  loop (v.len - 1) []

let of_list xs =
  let v = create ~capacity:(max 1 (List.length xs)) () in
  List.iter (push v) xs;
  v

let remove_first v x =
  let rec find i = if i >= v.len then -1 else if get v i = x then i else find (i + 1) in
  let i = find 0 in
  if i < 0 then false
  else begin
    v.len <- v.len - 1;
    if i < v.len then Array.unsafe_set v.data i (Array.unsafe_get v.data v.len);
    true
  end

