// SHA-256 compression on the x86 SHA extensions. This translation unit is
// the only code compiled with -msha -msse4.1 (see src/CMakeLists.txt); it
// must never execute unless util/sha256.cpp's probe confirmed
// __builtin_cpu_supports("sha") and ("sse4.1"), so nothing here may leak
// into a header or be called at static-init time.
//
// SHA256RNDS2 runs two rounds on the state held as two registers, ABEF and
// CDGH (A and C in the top lane), taking W[t] + K[t] for its two rounds from
// the low two lanes of its third operand. SHA256MSG1 and SHA256MSG2 extend
// the message schedule four words at a time.

#include "util/simd/sha_ni.hpp"

#if defined(GRAPHENE_SIMD_X86)

#include <immintrin.h>

namespace graphene::util::detail {
namespace {

/// Rounds t..t+3, given the schedule words W[t..t+3].
inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w, std::size_t t) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256RoundConstants[t])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// W[t..t+3] from the four quads before it, oldest first:
/// W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
inline __m128i next_quad(__m128i w16, __m128i w12, __m128i w8, __m128i w4) {
  const __m128i partial =
      _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(partial, w4);
}

}  // namespace

void sha256_compress_sha_ni(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t n_blocks) {
  // Message words are big-endian: reverse the bytes of each 32-bit lane.
  const __m128i bswap32 = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  const auto load_words = [&](const std::uint8_t* p) {
    return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap32);
  };

  // Lanes low to high: {a,b,c,d}, {e,f,g,h} -> ABEF = {f,e,b,a}, CDGH = {h,g,d,c}.
  const __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1b);
  const __m128i hgfe =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_unpackhi_epi64(hgfe, dcba);
  __m128i cdgh = _mm_unpacklo_epi64(hgfe, dcba);

  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(blocks);
    __m128i w1 = load_words(blocks + 16);
    __m128i w2 = load_words(blocks + 32);
    __m128i w3 = load_words(blocks + 48);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 4);
    four_rounds(abef, cdgh, w2, 8);
    four_rounds(abef, cdgh, w3, 12);
    for (std::size_t t = 16; t < 64; t += 16) {
      w0 = next_quad(w0, w1, w2, w3);
      four_rounds(abef, cdgh, w0, t);
      w1 = next_quad(w1, w2, w3, w0);
      four_rounds(abef, cdgh, w1, t + 4);
      w2 = next_quad(w2, w3, w0, w1);
      four_rounds(abef, cdgh, w2, t + 8);
      w3 = next_quad(w3, w0, w1, w2);
      four_rounds(abef, cdgh, w3, t + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(_mm_unpackhi_epi64(cdgh, abef), 0x1b));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_shuffle_epi32(_mm_unpacklo_epi64(cdgh, abef), 0x1b));
}

}  // namespace graphene::util::detail

#endif  // GRAPHENE_SIMD_X86
