// From-scratch SHA-256 (FIPS 180-4).
//
// The blockchain substrate derives transaction IDs and Merkle roots from
// SHA-256, mirroring Bitcoin's double-SHA256 convention. Implemented here so
// the library carries no external dependencies. The compression function is
// the util::simd sha256_compress slot: SHA-NI where the CPU has it, the
// portable body otherwise.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace graphene::util {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  /// Resets to the initial state so the object can be reused.
  void reset() noexcept;

  /// Absorbs `data` into the hash state.
  Sha256& update(ByteView data) noexcept;
  Sha256& update(const void* data, std::size_t len) noexcept;

  /// Finalizes and returns the digest. The object must be reset() before
  /// further use.
  [[nodiscard]] Sha256Digest finalize() noexcept;

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience wrapper.
[[nodiscard]] Sha256Digest sha256(ByteView data) noexcept;

/// Bitcoin-style double SHA-256.
[[nodiscard]] Sha256Digest sha256d(ByteView data) noexcept;

}  // namespace graphene::util
