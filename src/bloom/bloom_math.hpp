// Closed-form Bloom filter sizing used by the Graphene parameter optimizers.
//
// The paper works with the continuous approximation
//     T_BF(n, f) = -n ln(f) / (8 ln² 2) bytes
// but notes (§3.3.1) that real implementations involve ceiling functions, so
// both the continuous and the discretized sizes are exposed here. Graphene's
// a-search uses the discretized forms for a < 100 (the "strictly optimal"
// path) and the continuous form to seed the search elsewhere.
//
// §3.3.2 adds that any alternative to the Bloom filter "can be used if Eqs.
// 2, 3, 4, and 5 are updated appropriately". The updated Eq. 2 for its two
// named alternatives, the Cuckoo filter (Fan et al., CoNEXT 2014) and the
// Golomb-coded set (Golomb 1966; BIP-158), is at the end of this header;
// bench_filter_alternatives prices filter S with them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace graphene::bloom {

/// Continuous-size model in bytes: -n ln(f) / (8 ln² 2). Returns 0 for
/// f >= 1 (a degenerate filter that matches everything costs nothing).
[[nodiscard]] double ideal_bytes(double n, double fpr) noexcept;

/// Number of bits a discrete filter allocates for n items at target FPR f:
/// ceil(-n ln f / ln² 2), minimum 1 (0 when f >= 1).
[[nodiscard]] std::uint64_t optimal_bits(std::uint64_t n, double fpr) noexcept;

/// Optimal hash-function count for a filter of `bits` bits holding n items:
/// round(bits/n · ln 2), clamped to [1, 64].
[[nodiscard]] std::uint32_t optimal_hash_count(std::uint64_t bits, std::uint64_t n) noexcept;

/// Expected FPR of a filter with `bits` bits, `k` hashes, n insertions:
/// (1 - e^{-kn/bits})^k.
[[nodiscard]] double expected_fpr(std::uint64_t bits, std::uint32_t k, std::uint64_t n) noexcept;

/// Serialized size in bytes of a discrete filter for n items at FPR f,
/// including the wire header (varint bit count + hash count + seed).
[[nodiscard]] std::size_t serialized_bytes(std::uint64_t n, double fpr) noexcept;

/// Serialized size of a Cuckoo filter for n items at FPR f, the Eq. 2
/// analogue. Buckets hold 4 fingerprints of w = ceil(log2(8/f)) bits (f ≈
/// 2·4/2^w), clamped to [4, 16]; the bucket count is ceil(n / (0.95·4))
/// rounded up to a power of two, at least 2. Layout: varint(buckets) |
/// u8(w) | u64(seed) | varint(0), an empty stash | packed fingerprints.
/// f >= 1 or n = 0 is the empty, match-everything filter: 11 bytes.
[[nodiscard]] std::size_t cuckoo_serialized_bytes(std::uint64_t n, double fpr) noexcept;

/// Serialized size of a Golomb-coded set for n items at FPR f. Sorted
/// hashes in [0, n/f) are delta-coded with Rice parameter p =
/// round(log2(1/f)), f clamped to [1e-9, 0.5] and p to [1, 40], at about
/// p + 1.5 bits a delta. Layout: varint(n) | u8(p) | u64(seed) | varint(bit
/// count) | coded bits. n = 0 costs 11 bytes.
[[nodiscard]] std::size_t gcs_serialized_bytes(std::uint64_t n, double fpr) noexcept;

}  // namespace graphene::bloom
