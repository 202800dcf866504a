// x86 SHA-NI SHA-256 compression backend, selected at runtime by the
// dispatch in sha256.cpp. It is built with a function-level target attribute
// so the translation unit compiles under the project's baseline -march and
// the kernel is simply never called on CPUs without SHA-NI (cpuid-gated).
//
// State is carried as two packed vectors (ABEF / CDGH); each SHA256RNDS2
// advances two rounds, message words flow through SHA256MSG1/SHA256MSG2 with
// one ALIGNR fix-up per four-round group, 16 groups per block.
#include "crypto/sha256_backends.h"

#if DIALED_SHA256_HAVE_X86

#include <immintrin.h>

namespace dialed::crypto::detail {

__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
  const __m128i bswap = _mm_set_epi64x(
      static_cast<long long>(0x0c0d0e0f08090a0bULL),
      static_cast<long long>(0x0405060700010203ULL));
  const auto kvec = [](int g) {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_k.data() + 4 * g));
  };

  // Pack a,b,...,h into ABEF / CDGH.
  __m128i tmp =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));  // DCBA
  __m128i st1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                              // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);                              // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);                      // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);                           // CDGH

  while (n-- != 0) {
    const __m128i abef_save = st0;
    const __m128i cdgh_save = st1;
    __m128i msg;

    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks)), bswap);
    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16)),
        bswap);
    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 32)),
        bswap);
    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 48)),
        bswap);

    // Rounds 0-3
    msg = _mm_add_epi32(msg0, kvec(0));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));

    // Rounds 4-7
    msg = _mm_add_epi32(msg1, kvec(1));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11
    msg = _mm_add_epi32(msg2, kvec(2));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15
    msg = _mm_add_epi32(msg3, kvec(3));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg0 = _mm_add_epi32(msg0, _mm_alignr_epi8(msg3, msg2, 4));
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-19
    msg = _mm_add_epi32(msg0, kvec(4));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg1 = _mm_add_epi32(msg1, _mm_alignr_epi8(msg0, msg3, 4));
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 20-23
    msg = _mm_add_epi32(msg1, kvec(5));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg2 = _mm_add_epi32(msg2, _mm_alignr_epi8(msg1, msg0, 4));
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 24-27
    msg = _mm_add_epi32(msg2, kvec(6));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg3 = _mm_add_epi32(msg3, _mm_alignr_epi8(msg2, msg1, 4));
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 28-31
    msg = _mm_add_epi32(msg3, kvec(7));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg0 = _mm_add_epi32(msg0, _mm_alignr_epi8(msg3, msg2, 4));
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 32-35
    msg = _mm_add_epi32(msg0, kvec(8));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg1 = _mm_add_epi32(msg1, _mm_alignr_epi8(msg0, msg3, 4));
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 36-39
    msg = _mm_add_epi32(msg1, kvec(9));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg2 = _mm_add_epi32(msg2, _mm_alignr_epi8(msg1, msg0, 4));
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 40-43
    msg = _mm_add_epi32(msg2, kvec(10));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg3 = _mm_add_epi32(msg3, _mm_alignr_epi8(msg2, msg1, 4));
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 44-47
    msg = _mm_add_epi32(msg3, kvec(11));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg0 = _mm_add_epi32(msg0, _mm_alignr_epi8(msg3, msg2, 4));
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 48-51
    msg = _mm_add_epi32(msg0, kvec(12));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg1 = _mm_add_epi32(msg1, _mm_alignr_epi8(msg0, msg3, 4));
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 52-55
    msg = _mm_add_epi32(msg1, kvec(13));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg2 = _mm_add_epi32(msg2, _mm_alignr_epi8(msg1, msg0, 4));
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));

    // Rounds 56-59
    msg = _mm_add_epi32(msg2, kvec(14));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg3 = _mm_add_epi32(msg3, _mm_alignr_epi8(msg2, msg1, 4));
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));

    // Rounds 60-63
    msg = _mm_add_epi32(msg3, kvec(15));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(msg, 0x0E));

    st0 = _mm_add_epi32(st0, abef_save);
    st1 = _mm_add_epi32(st1, cdgh_save);
    blocks += 64;
  }

  // Unpack ABEF/CDGH back to a..h memory order.
  tmp = _mm_shuffle_epi32(st0, 0x1B);                 // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);                 // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);              // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);                 // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), st1);
}

}  // namespace dialed::crypto::detail

#endif  // DIALED_SHA256_HAVE_X86
