// From-scratch SHA-256 (FIPS 180-4).
//
// The blockchain substrate derives transaction IDs and Merkle roots from
// SHA-256, mirroring Bitcoin's double-SHA256 convention. Implemented here so
// the library carries no external dependencies. The compression function has
// two bodies, SHA-NI and portable; Sha256 runs the one it picks on first use
// (see set_sha256_compress below).
#pragma once

#include <array>
#include <cstddef>
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

/// SHA-256 compression (FIPS 180-4 §6.2.2): folds n_blocks consecutive
/// 64-byte message blocks, in order, into the eight-word hash state.
/// `blocks` need not be aligned; n_blocks = 0 leaves the state unchanged.
using Sha256Compress = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                                std::size_t n_blocks);

/// The portable body: the reference every other body matches bit for bit.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                              std::size_t n_blocks);

/// The fastest body this CPU runs: SHA-NI when it reports SHA and SSE4.1,
/// the portable body otherwise. Ignores GRAPHENE_SIMD.
[[nodiscard]] Sha256Compress sha256_compress_best() noexcept;

/// Sha256's active body is picked once, on first use: the portable body when
/// GRAPHENE_SIMD is `off` or `portable`, sha256_compress_best() otherwise.
/// Test and bench hook: makes Sha256 run `body` from now on and returns the
/// body it ran before. The bodies agree bit for bit, so a swap never changes
/// a digest, not even one being computed on another thread.
Sha256Compress set_sha256_compress(Sha256Compress body) noexcept;

}  // namespace graphene::util
