(* Table-driven CRC-32 over the reversed IEEE polynomial.  The running
   value is kept in the low 32 bits of an OCaml int (63 bits wide), so the
   byte loop allocates nothing; only the result is boxed as an [int32]. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc32.update: out of bounds";
  let c = ref (lnot (Int32.to_int crc) land 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land 0xFFFFFFFF)

let string ?off ?len s = update 0l ?off ?len s
