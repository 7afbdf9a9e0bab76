let max_frame = 16 * 1024 * 1024
let header = 4

let encode payload =
  let b = Codec.encoder () in
  Codec.put_u32 b (String.length payload);
  Buffer.add_string b payload;
  Codec.to_string b

module Reassembler = struct
  (* Only a frame that straddles two feeds is ever buffered: whole frames
     are cut straight out of the caller's bytes, so a payload byte is copied
     once, into its own string, and nothing returned aliases the caller's
     buffer.  [part.(0) .. part.(fill - 1)] is the head of the straddling
     frame, length prefix included. *)
  type t = { mutable part : Bytes.t; mutable fill : int; limit : int }

  (* A partial-frame buffer up to this size is kept for the next straddling
     frame; a larger one (a snapshot transfer) is released once drained. *)
  let retain = 64 * 1024

  let create ?(max_frame = max_frame) () = { part = Bytes.empty; fill = 0; limit = max_frame }

  let pending_bytes t = t.fill

  let frame_length t b off =
    let len = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff in
    if len > t.limit then
      raise (Codec.Decode_error (Printf.sprintf "frame too large: %d" len));
    len

  let stash t src off n =
    if t.fill + n > Bytes.length t.part then begin
      let part = Bytes.create (max (t.fill + n) (2 * Bytes.length t.part)) in
      Bytes.blit t.part 0 part 0 t.fill;
      t.part <- part
    end;
    Bytes.blit src off t.part t.fill n;
    t.fill <- t.fill + n

  let feed_sub t src off len =
    if off < 0 || len < 0 || off > Bytes.length src - len then
      invalid_arg "Frame.Reassembler.feed_sub";
    let stop = off + len in
    let pos = ref off and out = ref [] in
    (* complete the straddling frame, taking no more of [src] than it needs *)
    while t.fill > 0 && !pos < stop do
      let want =
        if t.fill < header then header - t.fill
        else header + frame_length t t.part 0 - t.fill
      in
      let n = min want (stop - !pos) in
      stash t src !pos n;
      pos := !pos + n;
      if t.fill >= header then begin
        let flen = frame_length t t.part 0 in
        if t.fill = header + flen then begin
          out := Bytes.sub_string t.part header flen :: !out;
          t.fill <- 0;
          if Bytes.length t.part > retain then t.part <- Bytes.empty
        end
      end
    done;
    if t.fill = 0 then begin
      let rec cut () =
        if stop - !pos >= header then begin
          let flen = frame_length t src !pos in
          if stop - !pos - header >= flen then begin
            out := Bytes.sub_string src (!pos + header) flen :: !out;
            pos := !pos + header + flen;
            cut ()
          end
        end
      in
      cut ();
      if !pos < stop then stash t src !pos (stop - !pos)
    end;
    List.rev !out

  let feed t chunk = feed_sub t (Bytes.unsafe_of_string chunk) 0 (String.length chunk)
end
