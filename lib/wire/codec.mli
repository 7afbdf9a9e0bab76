(** Minimal binary codec: big-endian fixed-width integers and
    length-prefixed strings over [Buffer]/[string].

    Decoding is performed through a {!decoder} cursor; all decode functions
    raise {!Decode_error} on truncated or malformed input, never an
    out-of-bounds exception. *)

exception Decode_error of string

(** {1 Encoding} *)

type encoder = Buffer.t

val encoder : unit -> encoder
val to_string : encoder -> string

val put_u8 : encoder -> int -> unit
(** @raise Invalid_argument unless [0 <= v < 256]. *)

val put_u16 : encoder -> int -> unit
val put_u32 : encoder -> int -> unit
(** @raise Invalid_argument unless the value fits. *)

val put_i64 : encoder -> int64 -> unit
val put_bool : encoder -> bool -> unit
val put_float : encoder -> float -> unit
val put_string : encoder -> string -> unit
(** u32 length prefix followed by the bytes. *)

val put_list : encoder -> (encoder -> 'a -> unit) -> 'a list -> unit
(** u32 count prefix followed by each element. *)

(** {1 Decoding} *)

type decoder

val decoder : ?off:int -> string -> decoder
(** [decoder ~off s] is a cursor over [s] from byte [off] (default 0)
    to its end.
    @raise Invalid_argument if [off] is outside [[0, String.length s]]. *)

val remaining : decoder -> int
val at_end : decoder -> bool

val get_u8 : decoder -> int
val get_u16 : decoder -> int
val get_u32 : decoder -> int
val get_i64 : decoder -> int64
val get_bool : decoder -> bool
val get_float : decoder -> float
val get_string : decoder -> string
val get_list : decoder -> (decoder -> 'a) -> 'a list

val expect_end : decoder -> unit
(** @raise Decode_error if trailing bytes remain. *)
