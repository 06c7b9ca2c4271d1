// Bloom filter over 32-byte transaction IDs.
//
// Index derivation follows §6.3: a txid is already a cryptographic digest, so
// the filter slices it into 64-bit words and derives all k probe positions by
// double hashing over those words — no additional cryptographic hashing per
// probe. A `RehashStrategy` (k independent SipHash evaluations) is kept for
// the ablation benchmark that reproduces the §6.3 processing-time claim.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace graphene::bloom {

enum class HashStrategy : std::uint8_t {
  kSplitDigest = 0,  ///< §6.3 optimization: slice the digest (default).
  kRehash = 1,       ///< k independent SipHash calls (ablation baseline).
};

class BloomFilter {
 public:
  /// Degenerate match-everything filter (FPR 1). Serializes to a header only;
  /// the paper treats this as "not sending a filter at all".
  BloomFilter() = default;

  /// Builds an empty filter sized for `expected_items` at `target_fpr`.
  /// target_fpr >= 1 yields the degenerate match-everything filter.
  BloomFilter(std::uint64_t expected_items, double target_fpr,
              std::uint64_t seed = 0, HashStrategy strategy = HashStrategy::kSplitDigest);

  /// Inserts a 32-byte txid (any 1..32-byte view accepted; shorter views are
  /// zero-extended by the word splitter). Not thread-safe against other
  /// writers or readers; build the filter first, then query it freely.
  void insert(util::ByteView txid);

  /// Membership test; false positives occur at ~the configured FPR, false
  /// negatives never. Reads only, so concurrent calls are safe.
  [[nodiscard]] bool contains(util::ByteView txid) const;

  /// True when the filter matches every query (zero-bit filter).
  [[nodiscard]] bool matches_everything() const noexcept { return n_bits_ == 0; }

  [[nodiscard]] std::uint64_t bit_count() const noexcept { return n_bits_; }
  [[nodiscard]] std::uint32_t hash_count() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] HashStrategy strategy() const noexcept { return strategy_; }

  /// FPR the filter was constructed for; 1.0 for the degenerate filter and
  /// for deserialized filters (the target is not on the wire).
  [[nodiscard]] double target_fpr() const noexcept { return target_fpr_; }

  /// Wire format: varint(bit count) | u8(k + strategy) | u64(seed) |
  /// ceil(bits/8) payload bytes. The strategy rides in the k byte's high
  /// bit (set = kRehash); k itself is the low 7 bits and must lie in 1..64.
  /// Appends the wire encoding to `w`, where an enclosing message embeds it;
  /// serialize() returns it on its own.
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  [[nodiscard]] std::size_t serialized_size() const noexcept;
  static BloomFilter deserialize(util::ByteReader& reader);

 private:
  void probe_positions(util::ByteView txid, std::uint64_t* out) const;
  void init_divisors();

  std::vector<std::uint64_t> bits_;
  std::uint64_t n_bits_ = 0;
  std::uint32_t k_ = 1;
  std::uint64_t seed_ = 0;
  double target_fpr_ = 1.0;
  HashStrategy strategy_ = HashStrategy::kSplitDigest;
  /// Invariant-divisor reduction by n_bits_ (exact, see util::FastMod64).
  util::FastMod64 bits_div_;
  /// mix64(seed_), hoisted out of the per-item probe derivation.
  std::uint64_t seed_mix_ = 0;
};

/// Batch membership over `count` items: out[i] = 1 iff
/// filter.contains(items[i]), 0 otherwise. This is the scan behind the
/// receiver's candidate pass and the sender's serve() pass.
void contains_all(const BloomFilter& filter, const util::ByteView* items,
                  std::size_t count, std::uint8_t* out);

}  // namespace graphene::bloom
