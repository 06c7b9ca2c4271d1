#include "util/sha256.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/simd/simd.hpp"

namespace graphene::util {

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256& Sha256::update(const void* data, std::size_t len) noexcept {
  if (len == 0) return *this;
  const auto* p = static_cast<const std::uint8_t*>(data);
  const simd::Kernels& k = simd::active();
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t fill = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, fill);
    buffer_len_ += fill;
    p += fill;
    len -= fill;
    if (buffer_len_ < 64) return *this;
    k.sha256_compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = len / 64;
  if (blocks > 0) k.sha256_compress(state_.data(), p, blocks);
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
  const simd::Kernels& k = simd::active();
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  // The 8-byte length goes in bytes 56..63: a tail past byte 55 pads out
  // this block and the length takes one more.
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    k.sha256_compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  k.sha256_compress(state_.data(), buffer_.data(), 1);

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
