#include "util/sha256.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "util/simd/sha_ni.hpp"

namespace graphene::util {
namespace {

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

/// The body Sha256 runs, picked on first use. GRAPHENE_SIMD=off|portable
/// pins the portable body; unset or any other value takes the best one.
std::atomic<Sha256Compress>& active_compress() noexcept {
  static std::atomic<Sha256Compress> body{[] {
    const char* env = std::getenv("GRAPHENE_SIMD");
    if (env != nullptr && (std::strcmp(env, "off") == 0 || std::strcmp(env, "portable") == 0)) {
      return &sha256_compress_portable;
    }
    return sha256_compress_best();
  }()};
  return body;
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
      const std::uint32_t t1 =
          h + big_sigma1(e) + ch(e, f, g) + detail::kSha256RoundConstants[i] + w[i];
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

Sha256Compress sha256_compress_best() noexcept {
#if defined(GRAPHENE_SIMD_X86)
  // sha_ni.cpp's instructions fault on a CPU without these extensions.
  if (__builtin_cpu_supports("sha") != 0 && __builtin_cpu_supports("sse4.1") != 0) {
    return &detail::sha256_compress_sha_ni;
  }
#endif
  return &sha256_compress_portable;
}

Sha256Compress set_sha256_compress(Sha256Compress body) noexcept {
  return active_compress().exchange(body, std::memory_order_relaxed);
}

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256& Sha256::update(const void* data, std::size_t len) noexcept {
  if (len == 0) return *this;
  const auto* p = static_cast<const std::uint8_t*>(data);
  const Sha256Compress compress = active_compress().load(std::memory_order_relaxed);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t fill = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, fill);
    buffer_len_ += fill;
    p += fill;
    len -= fill;
    if (buffer_len_ < 64) return *this;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = len / 64;
  if (blocks > 0) compress(state_.data(), p, blocks);
  p += blocks * 64;
  len -= blocks * 64;
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
  return *this;
}

Sha256& Sha256::update(ByteView data) noexcept { return update(data.data(), data.size()); }

Sha256Digest Sha256::finalize() noexcept {
  const Sha256Compress compress = active_compress().load(std::memory_order_relaxed);
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  // The 8-byte length goes in bytes 56..63: a tail past byte 55 pads out
  // this block and the length takes one more.
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  compress(state_.data(), buffer_.data(), 1);

  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest sha256(ByteView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Sha256Digest sha256d(ByteView data) noexcept {
  const Sha256Digest first = sha256(data);
  return sha256(ByteView(first.data(), first.size()));
}

}  // namespace graphene::util
