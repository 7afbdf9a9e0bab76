(* SHA-256, two ways: the SHA-NI compression of sha256_stubs.c when the
   CPU has it, and [Portable], over native ints.  Portable words live in
   the low 32 bits of an OCaml int (we require a 64-bit platform, as the
   rest of the engine already does); [mask] truncates after additions.
   Keeping everything in immediate ints avoids the Int32 boxing that would
   otherwise dominate the per-edge commitment fold. *)

let mask = 0xffffffff

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5;
  0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
  0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
  0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
  0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
  0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
  0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
  0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3;
  0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5;
  0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
  0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
|]

let iv = [|
  0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
  0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
|]

let digest_length = 32

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* One compression round over the 64-byte block at [off] in [s], updating
   the state array [h] in place.  [w] is a scratch schedule of 64 ints. *)
let compress h w (s : string) off =
  (* all indices below are statically within [w] (64), [h] (8), [k] (64)
     and the 64-byte block at [off] the callers validated, so unsafe
     accesses are sound; the bounds checks were ~25% of the round loop *)
  for i = 0 to 15 do
    let j = off + (i * 4) in
    Array.unsafe_set w i
      ((Char.code (String.unsafe_get s j) lsl 24)
      lor (Char.code (String.unsafe_get s (j + 1)) lsl 16)
      lor (Char.code (String.unsafe_get s (j + 2)) lsl 8)
      lor Char.code (String.unsafe_get s (j + 3)))
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 =
      (!hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask
    in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let state_to_string h =
  let out = Bytes.create digest_length in
  for i = 0 to 7 do
    let v = h.(i) in
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let check_pair a b =
  if String.length a <> digest_length || String.length b <> digest_length then
    invalid_arg "Sha256.compress_pair: arguments must be 32 bytes"

module Portable = struct
  (* Stage the padded tail of [msg], whose first [full] bytes are whole
     blocks, in [tail]: the remaining bytes, 0x80, zeros and the 64-bit
     big-endian bit length.  Returns the tail's block count (1, or 2 when
     fewer than 9 bytes of the last block are free). *)
  let pad_tail tail msg full =
    let len = String.length msg in
    let rem = len - full in
    let n = if rem <= 55 then 64 else 128 in
    Bytes.fill tail 0 n '\000';
    Bytes.blit_string msg full tail 0 rem;
    Bytes.set tail rem '\x80';
    Bytes.set_int64_be tail (n - 8) (Int64.of_int (len * 8));
    n / 64

  (* Per-domain scratch: state, schedule and a two-block staging buffer.
     Domain-local (rather than global with a single-writer caveat) because
     certificate verification folds links on whatever domain the client or
     a query-pool worker happens to run on, concurrently with the writer.
     The 32-byte result string is the only allocation on the hot paths. *)
  type scratch = { h : int array; w : int array; block : Bytes.t }

  let scratch_key =
    Domain.DLS.new_key (fun () ->
        { h = Array.make 8 0; w = Array.make 64 0; block = Bytes.create 128 })

  let digest_string msg =
    let s = Domain.DLS.get scratch_key in
    Array.blit iv 0 s.h 0 8;
    let full = String.length msg / 64 * 64 in
    for b = 0 to (full / 64) - 1 do
      compress s.h s.w msg (b * 64)
    done;
    let tail = pad_tail s.block msg full in
    for b = 0 to tail - 1 do
      compress s.h s.w (Bytes.unsafe_to_string s.block) (b * 64)
    done;
    state_to_string s.h

  let compress_pair a b =
    check_pair a b;
    let s = Domain.DLS.get scratch_key in
    Bytes.blit_string a 0 s.block 0 digest_length;
    Bytes.blit_string b 0 s.block digest_length digest_length;
    Array.blit iv 0 s.h 0 8;
    compress s.h s.w (Bytes.unsafe_to_string s.block) 0;
    state_to_string s.h
end

(* The SHA-NI path (sha256_stubs.c): the stubs hash into a result buffer
   allocated here, so the digest string is the only allocation. *)
external cpu_has_sha : unit -> bool = "kronos_sha256_accelerated" [@@noalloc]

external hw_digest : string -> Bytes.t -> unit = "kronos_sha256_digest"
[@@noalloc]

external hw_compress_pair : string -> string -> Bytes.t -> unit
  = "kronos_sha256_compress_pair"
[@@noalloc]

let accelerated = cpu_has_sha ()

let () =
  Kronos_metrics.read_only_gauge (Kronos_metrics.scope "sha256") "accelerated"
    (Bool.to_int accelerated)

let digest_string msg =
  if not accelerated then Portable.digest_string msg
  else begin
    let out = Bytes.create digest_length in
    hw_digest msg out;
    Bytes.unsafe_to_string out
  end

let compress_pair a b =
  if not accelerated then Portable.compress_pair a b
  else begin
    check_pair a b;
    let out = Bytes.create digest_length in
    hw_compress_pair a b out;
    Bytes.unsafe_to_string out
  end

let hex s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      let d n = "0123456789abcdef".[n] in
      Bytes.set out (2 * i) (d (v lsr 4));
      Bytes.set out ((2 * i) + 1) (d (v land 0xf)))
    s;
  Bytes.unsafe_to_string out
