// Portable scalar reference kernels. Every ISA variant is tested bit-exact
// against these; keep them boring and obviously correct.

#include <cstring>

#include "util/simd/kernels.hpp"

namespace graphene::util::simd::detail {
namespace {

constexpr std::size_t kCellBytes = 16;

// Cell lanes are folded through fixed-width unsigned types via memcpy, so
// the arithmetic (XOR / wrapping subtract) matches the in-memory
// representation the vector variants operate on directly.
void cells_sub_portable(void* dst, const void* src, std::size_t n_cells) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  for (std::size_t c = 0; c < n_cells; ++c, d += kCellBytes, s += kCellBytes) {
    std::uint64_t dk = 0;
    std::uint64_t sk = 0;
    std::memcpy(&dk, d, 8);
    std::memcpy(&sk, s, 8);
    dk ^= sk;
    std::memcpy(d, &dk, 8);
    std::uint32_t dc = 0;
    std::uint32_t sc = 0;
    std::memcpy(&dc, d + 8, 4);
    std::memcpy(&sc, s + 8, 4);
    dc -= sc;
    std::memcpy(d + 8, &dc, 4);
    std::uint32_t dh = 0;
    std::uint32_t sh = 0;
    std::memcpy(&dh, d + 12, 4);
    std::memcpy(&sh, s + 12, 4);
    dh ^= sh;
    std::memcpy(d + 12, &dh, 4);
  }
}

void xor_bytes_portable(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n) {
  std::size_t i = 0;
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

bool all_zero_portable(const std::uint8_t* p, std::size_t n) {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    acc |= w;
  }
  for (; i < n; ++i) acc |= p[i];
  return acc == 0;
}

}  // namespace

const Kernels& portable_kernels() noexcept {
  static constexpr Kernels kTable{
      &cells_sub_portable,
      &xor_bytes_portable,
      &all_zero_portable,
  };
  return kTable;
}

}  // namespace graphene::util::simd::detail
