(** Length-prefixed message framing for byte-stream transports.

    A frame is a u32 big-endian length followed by that many payload bytes.
    {!Reassembler} incrementally consumes arbitrary chunk boundaries and
    yields complete payloads, as a real TCP receive loop would. *)

val header : int
(** Bytes of the length prefix (4). *)

val encode : string -> string
(** [encode payload] is the framed bytes. *)

val max_frame : int
(** Maximum accepted payload size (16 MiB); larger frames are rejected to
    bound memory under malformed input. *)

module Reassembler : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] (default {!max_frame}) bounds accepted payload sizes. *)

  val feed : t -> string -> string list
  (** [feed t chunk] consumes [chunk] and returns the payloads of all
      frames completed by it, in order.
      @raise Codec.Decode_error if a frame announces more than the
      reassembler's [max_frame] bytes. *)

  val feed_sub : t -> Bytes.t -> int -> int -> string list
  (** [feed_sub t buf off len] is [feed t (Bytes.sub_string buf off len)]
      without the copy.  Returned payloads are fresh strings and only the
      tail of a frame left incomplete is kept, in the reassembler's own
      buffer, so the caller may overwrite [buf] as soon as the call
      returns — a receive loop reuses one buffer for every read.
      @raise Invalid_argument if [off] and [len] do not designate a valid
      range of [buf]. *)

  val pending_bytes : t -> int
  (** Bytes buffered towards an incomplete frame. *)
end
