// Fast non-cryptographic hashing for Bloom filter and IBLT index derivation.
//
// Two strategies are provided:
//
//  * mix64 — the splitmix64 finalizer, used when the input is an arbitrary
//    64-bit word (IBLT cell indexing, coded-symbol mapping, and util::Rng,
//    which draws the hypergraph edges).
//
//  * split_digest_words — §6.3's optimization: a transaction ID is already a
//    cryptographic hash, so instead of re-hashing it k times a client can
//    slice the 32-byte ID into k words. bench_bloom_hashing quantifies the
//    speedup over k-fold SipHash.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace graphene::util {

/// splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Slices a 32-byte digest into four 64-bit little-endian words (§6.3).
/// For k > 4 hash functions, callers extend with double hashing over the
/// first two words, which preserves the "no extra crypto hashing" property.
///
/// Inline with a word-wise fast path: this runs once per item in every
/// Bloom insert/query, and a byte-at-a-time assembly was the single largest
/// cost in the receiver's mempool scan. The fallback produces identical
/// words on any byte order.
[[nodiscard]] inline std::array<std::uint64_t, 4> split_digest_words(
    ByteView digest32) noexcept {
  std::array<std::uint64_t, 4> words{};
  if (digest32.size() >= 32) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(words.data(), digest32.data(), 32);
    } else {
      for (std::size_t i = 0; i < 32; ++i) {
        words[i / 8] |= static_cast<std::uint64_t>(digest32[i]) << (8 * (i % 8));
      }
    }
    return words;
  }
  for (std::size_t i = 0; i < digest32.size(); ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(digest32[i]) << (8 * (i % 8));
  }
  return words;
}

/// Hash functor for unordered containers of 32-byte digests (txids, set
/// items). It chain-mixes all four words: digests that agree in any one
/// word, which an adversary can grind for, must not share a bucket.
struct DigestHasher {
  [[nodiscard]] std::size_t operator()(const std::array<std::uint8_t, 32>& d) const noexcept {
    const std::array<std::uint64_t, 4> words =
        split_digest_words(ByteView(d.data(), d.size()));
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (const std::uint64_t w : words) h = mix64(h ^ w);
    return static_cast<std::size_t>(h);
  }
};

/// Folds an arbitrary byte string to 64 bits (FNV-1a then mixed); used where
/// an input is not already a digest.
[[nodiscard]] std::uint64_t hash64(ByteView data, std::uint64_t seed = 0) noexcept;

/// Exact n % d for a divisor fixed at construction, computed with multiplies
/// instead of a hardware divide (Lemire–Kaser–Kurz fastmod with a 128-bit
/// reciprocal). Index derivation in the Bloom/IBLT hot loops reduces a full
/// 64-bit hash by an invariant table size per probe, and the ~20–40 cycle
/// `div` there dominates the hash itself; this replaces it with four
/// multiplies while returning bit-identical results for every n.
class FastMod64 {
#if defined(__SIZEOF_INT128__)
  // __extension__ silences -Wpedantic: __int128 is a GCC/Clang extension,
  // and both CI compilers provide it on every supported target.
  __extension__ typedef unsigned __int128 Uint128;
#endif

 public:
  FastMod64() = default;

  explicit FastMod64(std::uint64_t d) noexcept : d_(d) {
#if defined(__SIZEOF_INT128__)
    // M = floor((2^128 - 1) / d) + 1, split into two 64-bit halves. With
    // F = 128 ≥ 64 + ceil(log2 d) the fastmod theorem guarantees exactness
    // for all 64-bit n and any d ≥ 1 (d = 1 wraps M to 0, which correctly
    // maps every n to 0).
    const Uint128 m = ~static_cast<Uint128>(0) / d + 1;
    m_hi_ = static_cast<std::uint64_t>(m >> 64);
    m_lo_ = static_cast<std::uint64_t>(m);
#endif
  }

  [[nodiscard]] std::uint64_t divisor() const noexcept { return d_; }

  /// Returns n % divisor(); divisor() must be non-zero.
  [[nodiscard]] std::uint64_t mod(std::uint64_t n) const noexcept {
#if defined(__SIZEOF_INT128__)
    // lowbits = (M * n) mod 2^128, then result = floor(lowbits * d / 2^128).
    const Uint128 bottom = static_cast<Uint128>(m_lo_) * n;
    const std::uint64_t low_hi =
        m_hi_ * n + static_cast<std::uint64_t>(bottom >> 64);  // wraps mod 2^64
    const std::uint64_t low_lo = static_cast<std::uint64_t>(bottom);
    const Uint128 t = static_cast<Uint128>(low_lo) * d_;
    const Uint128 u =
        static_cast<Uint128>(low_hi) * d_ + static_cast<std::uint64_t>(t >> 64);
    return static_cast<std::uint64_t>(u >> 64);
#else
    return n % d_;
#endif
  }

 private:
  std::uint64_t d_ = 0;
#if defined(__SIZEOF_INT128__)
  std::uint64_t m_hi_ = 0;
  std::uint64_t m_lo_ = 0;
#endif
};

}  // namespace graphene::util
