/* SHA-256 block compression with the x86-64 SHA extensions (SHA-NI).

   [Sha256] asks [kronos_sha256_accelerated] once, at module
   initialisation, whether this CPU has the instructions; when it does,
   every hash goes through [kronos_sha256_digest] or
   [kronos_sha256_compress_pair], otherwise the pure-OCaml
   [Sha256.Portable] code runs.  On other architectures and compilers the
   probe answers false and the hashing stubs are never called.

   Both hashing stubs write the 32-byte big-endian digest into a result
   buffer the caller allocated, so the digest string is the only
   allocation.  None of the stubs allocate or raise, hence [@@noalloc] on
   the OCaml side. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
  0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
  0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
  0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
  0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
  0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/* Four rounds on message vector [w] (words 4i..4i+3, round constants
   [k]): SHA256RNDS2 does two rounds on the low half of its third
   operand, the shuffle brings the high half down for the next two. */
#define ROUNDS4(w, k)                                                    \
  do {                                                                   \
    __m128i m_ = _mm_add_epi32((w), _mm_loadu_si128((const __m128i *)(k))); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m_);                        \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(m_, 0x0e)); \
  } while (0)

/* Message schedule: overwrite w0 = W[t-16..t-13] with W[t..t+3], given
   w1 = W[t-12..t-9], w2 = W[t-8..t-5], w3 = W[t-4..t-1]. */
#define SCHEDULE(w0, w1, w2, w3)                                         \
  ((w0) = _mm_sha256msg2_epu32(                                          \
       _mm_add_epi32(_mm_sha256msg1_epu32((w0), (w1)),                   \
                     _mm_alignr_epi8((w3), (w2), 4)),                    \
       (w3)))

/* Compress one 64-byte block, given as two 32-byte halves, into the
   state at [st], held as the digest encoding: words A..H, big-endian. */
SHA_TARGET static void compress(uint8_t *st, const uint8_t *lo,
                                const uint8_t *hi)
{
  const __m128i bswap_words =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  /* Big-endian state bytes to words A..H, then to the lane order the
     instructions use: abef = {F, E, B, A}, cdgh = {H, G, D, C} (low lane
     first). */
  __m128i dcba = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)st),
                                  bswap_words);
  __m128i hgfe = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(st + 16)),
                                  bswap_words);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef0 = abef, cdgh0 = cdgh;

  __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)lo),
                                bswap_words);
  __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(lo + 16)),
                                bswap_words);
  __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)hi),
                                bswap_words);
  __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(hi + 16)),
                                bswap_words);
  ROUNDS4(w0, K + 0);
  ROUNDS4(w1, K + 4);
  ROUNDS4(w2, K + 8);
  ROUNDS4(w3, K + 12);
  for (int i = 16; i < 64; i += 16) {
    SCHEDULE(w0, w1, w2, w3);
    ROUNDS4(w0, K + i);
    SCHEDULE(w1, w2, w3, w0);
    ROUNDS4(w1, K + i + 4);
    SCHEDULE(w2, w3, w0, w1);
    ROUNDS4(w2, K + i + 8);
    SCHEDULE(w3, w0, w1, w2);
    ROUNDS4(w3, K + i + 12);
  }
  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);

  /* Back to A..H order and big-endian bytes. */
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128((__m128i *)st, _mm_shuffle_epi8(dcba, bswap_words));
  _mm_storeu_si128((__m128i *)(st + 16), _mm_shuffle_epi8(hgfe, bswap_words));
}

static int probe(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (__get_cpuid_max(0, NULL) < 7) return 0;
  __cpuid_count(7, 0, a, b, c, d);
  return (b >> 29) & 1; /* leaf 7 EBX bit 29: SHA extensions */
}

value kronos_sha256_accelerated(value unit)
{
  (void)unit;
  return Val_bool(probe());
}

static const uint8_t IV[32] = {
  0x6a, 0x09, 0xe6, 0x67, 0xbb, 0x67, 0xae, 0x85,
  0x3c, 0x6e, 0xf3, 0x72, 0xa5, 0x4f, 0xf5, 0x3a,
  0x51, 0x0e, 0x52, 0x7f, 0x9b, 0x05, 0x68, 0x8c,
  0x1f, 0x83, 0xd9, 0xab, 0x5b, 0xe0, 0xcd, 0x19,
};

/* [kronos_sha256_digest msg out]: the SHA-256 of [msg] into the 32-byte
   [out].  Whole blocks are compressed where they lie; the padded tail
   (the rest of the message, 0x80, zeros, the 64-bit big-endian bit
   length: one block, or two when fewer than 9 bytes are free) is staged
   on the stack. */
value kronos_sha256_digest(value msg, value out)
{
  uint8_t *st = Bytes_val(out);
  const uint8_t *p = (const uint8_t *)String_val(msg);
  size_t len = caml_string_length(msg);
  size_t full = len & ~(size_t)63;
  size_t rem = len - full;
  size_t tail = rem <= 55 ? 64 : 128;
  uint8_t block[128] = { 0 };
  uint64_t bits = (uint64_t)len * 8;
  memcpy(st, IV, 32);
  for (size_t i = 0; i < full; i += 64)
    compress(st, p + i, p + i + 32);
  memcpy(block, p + full, rem);
  block[rem] = 0x80;
  for (int i = 0; i < 8; i++)
    block[tail - 1 - i] = (uint8_t)(bits >> (8 * i));
  for (size_t i = 0; i < tail; i += 64)
    compress(st, block + i, block + i + 32);
  return Val_unit;
}

/* [kronos_sha256_compress_pair a b out]: one compression of the block
   [a ^ b] of two 32-byte strings from the IV, into the 32-byte [out]. */
value kronos_sha256_compress_pair(value a, value b, value out)
{
  uint8_t *st = Bytes_val(out);
  memcpy(st, IV, 32);
  compress(st, (const uint8_t *)String_val(a), (const uint8_t *)String_val(b));
  return Val_unit;
}

#else

/* No SHA extensions on this target: [Sha256] sees false and never calls
   the hashing stubs. */

value kronos_sha256_accelerated(value unit)
{
  (void)unit;
  return Val_false;
}

value kronos_sha256_digest(value msg, value out)
{
  (void)msg; (void)out;
  abort();
}

value kronos_sha256_compress_pair(value a, value b, value out)
{
  (void)a; (void)b; (void)out;
  abort();
}

#endif
