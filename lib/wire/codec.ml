exception Decode_error of string

type encoder = Buffer.t

let encoder () = Buffer.create 64
let to_string = Buffer.contents

let put_u8 b v =
  if v < 0 || v > 0xff then invalid_arg "Codec.put_u8";
  Buffer.add_char b (Char.chr v)

let put_u16 b v =
  if v < 0 || v > 0xffff then invalid_arg "Codec.put_u16";
  Buffer.add_char b (Char.chr (v lsr 8));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Codec.put_u32";
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_i64 b v =
  for shift = 7 downto 0 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * shift)) 0xffL)))
  done

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_float b v = put_i64 b (Int64.bits_of_float v)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b f xs =
  put_u32 b (List.length xs);
  List.iter (f b) xs

type decoder = { data : string; mutable pos : int }

let decoder ?(off = 0) data =
  if off < 0 || off > String.length data then invalid_arg "Codec.decoder";
  { data; pos = off }

let remaining d = String.length d.data - d.pos
let at_end d = remaining d = 0

let need d n what =
  if remaining d < n then
    raise (Decode_error (Printf.sprintf "truncated %s: need %d, have %d" what n (remaining d)))

let get_u8 d =
  need d 1 "u8";
  let v = Char.code d.data.[d.pos] in
  d.pos <- d.pos + 1;
  v

let get_u16 d =
  need d 2 "u16";
  let v = (Char.code d.data.[d.pos] lsl 8) lor Char.code d.data.[d.pos + 1] in
  d.pos <- d.pos + 2;
  v

let get_u32 d =
  need d 4 "u32";
  let byte i = Char.code d.data.[d.pos + i] in
  let v = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  d.pos <- d.pos + 4;
  v

let get_i64 d =
  need d 8 "i64";
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code d.data.[d.pos + i]))
  done;
  d.pos <- d.pos + 8;
  !v

let get_bool d =
  match get_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Decode_error (Printf.sprintf "bad bool %d" n))

let get_float d = Int64.float_of_bits (get_i64 d)

let get_string d =
  let n = get_u32 d in
  need d n "string";
  let s = String.sub d.data d.pos n in
  d.pos <- d.pos + n;
  s

let get_list d f =
  let n = get_u32 d in
  let rec loop i acc = if i = n then List.rev acc else loop (i + 1) (f d :: acc) in
  loop 0 []

let expect_end d =
  if not (at_end d) then
    raise (Decode_error (Printf.sprintf "%d trailing bytes" (remaining d)))
