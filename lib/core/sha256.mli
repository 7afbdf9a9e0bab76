(** SHA-256 (FIPS 180-4).

    Two implementations with bit-identical output.  On x86-64 CPUs with
    the SHA extensions (CPUID leaf 7 EBX bit 29, plus SSSE3 and SSE4.1)
    every block goes through a SHA-NI compression stub; elsewhere the
    pure-OCaml {!Portable} code runs.  CPUID alone makes the choice, once,
    when the module initialises ({!accelerated}); it is published as the
    read-only gauge [kronos_sha256_accelerated] (0 or 1).  Either way
    hashing allocates nothing beyond the result string, so it can sit on
    the engine's edge-admission hot path.

    Besides the standard full hash, {!compress_pair} exposes a single
    application of the SHA-256 compression function to two 32-byte digests
    (one 64-byte block, standard IV, no padding).  That is the primitive the
    event commitment chains fold links with: collision resistance of the
    compression function is all the chain construction needs, and one
    compression per edge is half the cost of a padded two-block hash. *)

val digest_length : int
(** 32. *)

val digest_string : string -> string
(** Full SHA-256 of a string, as 32 raw bytes. *)

val compress_pair : string -> string -> string
(** [compress_pair a b] is one application of the SHA-256 compression
    function to the 64-byte block [a ^ b], starting from the standard IV.
    Both arguments must be exactly 32 bytes.
    @raise Invalid_argument otherwise. *)

val accelerated : bool
(** Whether {!digest_string} and {!compress_pair} run on the SHA-NI
    stub (true) or on {!Portable} (false). *)

(** The pure-OCaml implementation, over native [int]s (all words masked
    to 32 bits): the fallback on CPUs without SHA extensions and the
    oracle the accelerated path is tested against. *)
module Portable : sig
  val digest_string : string -> string
  val compress_pair : string -> string -> string
end

val hex : string -> string
(** Lowercase hex rendering of a raw digest. *)
