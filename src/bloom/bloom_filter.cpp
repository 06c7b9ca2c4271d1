#include "bloom/bloom_filter.hpp"

#include "bloom/bloom_math.hpp"
#include "util/siphash.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::bloom {

namespace {
constexpr std::uint32_t kMaxHashCount = 64;
}  // namespace

BloomFilter::BloomFilter(std::uint64_t expected_items, double target_fpr, std::uint64_t seed,
                         HashStrategy strategy)
    : seed_(seed), target_fpr_(target_fpr < 1.0 ? target_fpr : 1.0), strategy_(strategy) {
  n_bits_ = optimal_bits(expected_items, target_fpr);
  if (n_bits_ == 0) {
    // The degenerate filter probes nothing, so every strategy shares one
    // header: the split-digest byte.
    strategy_ = HashStrategy::kSplitDigest;
    return;
  }
  k_ = optimal_hash_count(n_bits_, expected_items == 0 ? 1 : expected_items);
  bits_.assign((n_bits_ + 63) / 64, 0);
  init_divisors();
}

void BloomFilter::init_divisors() {
  seed_mix_ = util::mix64(seed_);
  if (n_bits_ != 0) bits_div_ = util::FastMod64(n_bits_);
}

void BloomFilter::probe_positions(util::ByteView txid, std::uint64_t* out) const {
  if (strategy_ == HashStrategy::kSplitDigest) {
    // §6.3: derive probes from the digest's own entropy; the seed
    // decorrelates filters built by different peers. Enhanced double hashing
    // (Dillinger–Manolios, the paper's [19, 20]) — the quadratic `y += i`
    // term removes plain double hashing's FPR inflation at large k. All
    // reductions go through the invariant-divisor path (exact, so positions
    // are bit-identical to the `%` rule in docs/PROTOCOL.md).
    const auto words = util::split_digest_words(txid);
    std::uint64_t x = bits_div_.mod(words[0] ^ seed_mix_);
    std::uint64_t y = bits_div_.mod(words[1] ^ words[2]);
    for (std::uint32_t i = 0; i < k_; ++i) {
      out[i] = x;
      x += y;  // x, y < n_bits_, so one conditional subtract reduces exactly
      if (x >= n_bits_) x -= n_bits_;
      y += i + 1;
      if (y >= n_bits_) y = bits_div_.mod(y);
    }
  } else {
    for (std::uint32_t i = 0; i < k_; ++i) {
      const util::SipHashKey key{seed_, seed_ ^ (0x5bd1e995UL + i)};
      out[i] = bits_div_.mod(util::siphash24(key, txid));
    }
  }
}

void BloomFilter::insert(util::ByteView txid) {
  if (n_bits_ == 0) return;
  std::uint64_t pos[kMaxHashCount];
  probe_positions(txid, pos);
  for (std::uint32_t i = 0; i < k_; ++i) {
    bits_[pos[i] / 64] |= (1ULL << (pos[i] % 64));
  }
}

bool BloomFilter::contains(util::ByteView txid) const {
  if (n_bits_ == 0) return true;
  std::uint64_t pos[kMaxHashCount];
  probe_positions(txid, pos);
  for (std::uint32_t i = 0; i < k_; ++i) {
    if ((bits_[pos[i] / 64] & (1ULL << (pos[i] % 64))) == 0) return false;
  }
  return true;
}

void BloomFilter::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, n_bits_);
  const auto rehash_bit = static_cast<std::uint8_t>(
      strategy_ == HashStrategy::kRehash ? 0x80 : 0x00);
  w.u8(static_cast<std::uint8_t>((k_ & 0x7f) | rehash_bit));
  w.u64(seed_);
  w.words_le(bits_.data(), static_cast<std::size_t>((n_bits_ + 7) / 8));
}

util::Bytes BloomFilter::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

std::size_t BloomFilter::serialized_size() const noexcept {
  return util::varint_size(n_bits_) + 1 + 8 + static_cast<std::size_t>((n_bits_ + 7) / 8);
}

BloomFilter BloomFilter::deserialize(util::ByteReader& reader) {
  BloomFilter f;
  // Capped before any arithmetic: an unchecked 2^64-range bit count would
  // wrap `(n_bits_ + 7) / 8` to a tiny payload while `(n_bits_ + 63) / 64`
  // still drives a huge allocation.
  f.n_bits_ = util::read_varint_bounded(reader, util::wire::kMaxBloomBits, "BloomFilter bits");
  const std::uint8_t k_byte = reader.u8();
  f.k_ = k_byte & 0x7f;
  f.strategy_ = (k_byte & 0x80) ? HashStrategy::kRehash : HashStrategy::kSplitDigest;
  if (f.k_ == 0 || f.k_ > kMaxHashCount) {
    throw util::DeserializeError("BloomFilter: invalid hash count");
  }
  f.seed_ = reader.u64();
  const std::size_t payload = static_cast<std::size_t>((f.n_bits_ + 7) / 8);
  if (payload > reader.remaining()) {
    throw util::DeserializeError("BloomFilter: bit count exceeds buffer");
  }
  f.bits_.assign((f.n_bits_ + 63) / 64, 0);
  reader.words_le_into(f.bits_.data(), payload);
  f.init_divisors();
  return f;
}

void contains_all(const BloomFilter& filter, const util::ByteView* items,
                  std::size_t count, std::uint8_t* out) {
  for (std::size_t i = 0; i < count; ++i) out[i] = filter.contains(items[i]) ? 1 : 0;
}

}  // namespace graphene::bloom
