// Portable scalar reference kernels. Every ISA variant is tested bit-exact
// against these; keep them boring and obviously correct.

#include <bit>
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

inline std::uint32_t big_sigma0(std::uint32_t x) noexcept {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
inline std::uint32_t big_sigma1(std::uint32_t x) noexcept {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
inline std::uint32_t small_sigma0(std::uint32_t x) noexcept {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
inline std::uint32_t small_sigma1(std::uint32_t x) noexcept {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}
inline std::uint32_t ch(std::uint32_t x, std::uint32_t y, std::uint32_t z) noexcept {
  return (x & y) ^ (~x & z);
}
inline std::uint32_t maj(std::uint32_t x, std::uint32_t y, std::uint32_t z) noexcept {
  return (x & y) ^ (x & z) ^ (y & z);
}

}  // namespace

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                              std::size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + big_sigma1(e) + ch(e, f, g) + kSha256RoundConstants[i] + w[i];
      const std::uint32_t t2 = big_sigma0(a) + maj(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

const Kernels& portable_kernels() noexcept {
  static constexpr Kernels kTable{
      &cells_sub_portable,
      &xor_bytes_portable,
      &all_zero_portable,
      &sha256_compress_portable,
  };
  return kTable;
}

}  // namespace graphene::util::simd::detail
