// AVX2 kernel variants. This translation unit is the only x86 code compiled
// with -mavx2 (see src/CMakeLists.txt); it must never execute unless
// dispatch.cpp confirmed __builtin_cpu_supports("avx2"), so nothing here may
// leak into a header or be called at static-init time. The SHA-256 slot
// keeps the portable body here; dispatch.cpp swaps in sha_ni.cpp's when the
// CPU has the SHA extensions.

#include "util/simd/kernels.hpp"

#if defined(GRAPHENE_SIMD_X86)

#include <immintrin.h>

#include <cstring>

namespace graphene::util::simd::detail {
namespace {

constexpr std::size_t kCellBytes = 16;

// Two 16-byte cells per 256-bit lane: XOR the whole vector (right for
// key_sum and check_sum), subtract the epi32 lanes (right for count), then
// blend the count lanes (epi32 lanes 2 and 6) from the arithmetic result.
void cells_sub_avx2(void* dst, const void* src, std::size_t n_cells) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  std::size_t c = 0;
  for (; c + 2 <= n_cells; c += 2, d += 2 * kCellBytes, s += 2 * kCellBytes) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
    const __m256i x = _mm256_xor_si256(a, b);
    const __m256i m = _mm256_sub_epi32(a, b);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d),
                        _mm256_blend_epi32(x, m, 0b01000100));
  }
  if (c < n_cells) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
    const __m128i x = _mm_xor_si128(a, b);
    const __m128i m = _mm_sub_epi32(a, b);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d),
                     _mm_blend_epi32(x, m, 0b0100));
  }
}

void xor_bytes_avx2(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

bool all_zero_avx2(const std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 32 <= n; i += 32) {
    acc = _mm256_or_si256(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)));
  }
  if (_mm256_testz_si256(acc, acc) == 0) return false;
  std::uint64_t tail = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    tail |= w;
  }
  for (; i < n; ++i) tail |= p[i];
  return tail == 0;
}

}  // namespace

const Kernels& avx2_kernels() noexcept {
  static constexpr Kernels kTable{
      &cells_sub_avx2,
      &xor_bytes_avx2,
      &all_zero_avx2,
      &sha256_compress_portable,
  };
  return kTable;
}

}  // namespace graphene::util::simd::detail

#endif  // GRAPHENE_SIMD_X86
