#include "bloom/bloom_filter.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::bloom {

namespace {
constexpr std::uint32_t kMaxHashCount = 64;
/// kBlocked carries k in six bits of the strategy byte, so 63 is its cap.
constexpr std::uint32_t kMaxBlockedHashCount = 63;
/// Lookahead tile of the batch pipelines: probe state for a tile is computed
/// (and its blocks prefetched) before any block is tested, so the memory
/// latency of up to 32 cache lines overlaps instead of serializing.
constexpr std::size_t kBatchTile = 32;
constexpr std::uint32_t kBlockMask = BloomFilter::kBlockBits - 1;

inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 1);
#else
  (void)p;
#endif
}

inline void prefetch_write(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 1);
#else
  (void)p;
#endif
}
}  // namespace

BloomFilter::BloomFilter(std::uint64_t expected_items, double target_fpr, std::uint64_t seed,
                         HashStrategy strategy)
    : seed_(seed), target_fpr_(target_fpr < 1.0 ? target_fpr : 1.0), strategy_(strategy) {
  n_bits_ = optimal_bits(expected_items, target_fpr);
  if (n_bits_ == 0) {
    // The degenerate filter has no blocks; keep the legacy header byte so it
    // round-trips through every deserializer version.
    strategy_ = HashStrategy::kSplitDigest;
    return;
  }
  if (strategy_ == HashStrategy::kBlocked) {
    n_bits_ = ((n_bits_ + kBlockBits - 1) / kBlockBits) * kBlockBits;
  }
  k_ = optimal_hash_count(n_bits_, expected_items == 0 ? 1 : expected_items);
  if (strategy_ == HashStrategy::kBlocked) {
    k_ = std::min(k_, kMaxBlockedHashCount);
  }
  bits_.assign((n_bits_ + 63) / 64, 0);
  init_divisors();
}

BloomFilter::BloomFilter(const BloomFilter& other)
    : bits_(other.bits_),
      n_bits_(other.n_bits_),
      k_(other.k_),
      seed_(other.seed_),
      inserted_(other.inserted_.load(std::memory_order_relaxed)),
      target_fpr_(other.target_fpr_),
      queries_(other.queries_.load(std::memory_order_relaxed)),
      hits_(other.hits_.load(std::memory_order_relaxed)),
      strategy_(other.strategy_),
      bits_div_(other.bits_div_),
      block_div_(other.block_div_),
      seed_mix_(other.seed_mix_) {}

BloomFilter& BloomFilter::operator=(const BloomFilter& other) {
  if (this == &other) return *this;
  bits_ = other.bits_;
  n_bits_ = other.n_bits_;
  k_ = other.k_;
  seed_ = other.seed_;
  inserted_.store(other.inserted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  target_fpr_ = other.target_fpr_;
  queries_.store(other.queries_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  hits_.store(other.hits_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  strategy_ = other.strategy_;
  bits_div_ = other.bits_div_;
  block_div_ = other.block_div_;
  seed_mix_ = other.seed_mix_;
  return *this;
}

BloomFilter::BloomFilter(BloomFilter&& other) noexcept
    : bits_(std::move(other.bits_)),
      n_bits_(other.n_bits_),
      k_(other.k_),
      seed_(other.seed_),
      inserted_(other.inserted_.load(std::memory_order_relaxed)),
      target_fpr_(other.target_fpr_),
      queries_(other.queries_.load(std::memory_order_relaxed)),
      hits_(other.hits_.load(std::memory_order_relaxed)),
      strategy_(other.strategy_),
      bits_div_(other.bits_div_),
      block_div_(other.block_div_),
      seed_mix_(other.seed_mix_) {}

BloomFilter& BloomFilter::operator=(BloomFilter&& other) noexcept {
  if (this == &other) return *this;
  bits_ = std::move(other.bits_);
  n_bits_ = other.n_bits_;
  k_ = other.k_;
  seed_ = other.seed_;
  inserted_.store(other.inserted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  target_fpr_ = other.target_fpr_;
  queries_.store(other.queries_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  hits_.store(other.hits_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  strategy_ = other.strategy_;
  bits_div_ = other.bits_div_;
  block_div_ = other.block_div_;
  seed_mix_ = other.seed_mix_;
  return *this;
}

void BloomFilter::init_divisors() {
  seed_mix_ = util::mix64(seed_);
  if (n_bits_ == 0) return;
  bits_div_ = util::FastMod64(n_bits_);
  if (strategy_ == HashStrategy::kBlocked) {
    block_div_ = util::FastMod64(n_bits_ / kBlockBits);
  }
}

void BloomFilter::probe_positions(util::ByteView txid, std::uint64_t* out) const {
  if (strategy_ == HashStrategy::kSplitDigest) {
    // §6.3: derive probes from the digest's own entropy; the seed
    // decorrelates filters built by different peers. Enhanced double hashing
    // (Dillinger–Manolios, the paper's [19, 20]) — the quadratic `y += i`
    // term removes plain double hashing's FPR inflation at large k. All
    // reductions go through the invariant-divisor path (exact, so positions
    // are bit-identical to the original `%` formulation).
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

std::uint64_t BloomFilter::block_base(util::ByteView txid, std::uint32_t* x,
                                      std::uint32_t* y) const {
  const auto words = util::split_digest_words(txid);
  const std::uint64_t block = block_div_.mod(words[0] ^ seed_mix_);
  *x = static_cast<std::uint32_t>(words[1]) & kBlockMask;
  *y = static_cast<std::uint32_t>(words[2]) & kBlockMask;
  return block * (kBlockBits / 64);
}

// The k probes of one item walk its 512-bit block along the recurrence
//   bit = x; x = (x + y) & 511; y = (y + i + 1) & 511   for i in [0, k).
bool BloomFilter::test_block(std::uint64_t base, std::uint32_t x, std::uint32_t y) const {
  const std::uint64_t* block = bits_.data() + base;
  for (std::uint32_t i = 0; i < k_; ++i) {
    if ((block[x >> 6] & (1ULL << (x & 63))) == 0) return false;
    x = (x + y) & kBlockMask;
    y = (y + i + 1) & kBlockMask;
  }
  return true;
}

void BloomFilter::set_block(std::uint64_t base, std::uint32_t x, std::uint32_t y) {
  std::uint64_t* block = bits_.data() + base;
  for (std::uint32_t i = 0; i < k_; ++i) {
    block[x >> 6] |= (1ULL << (x & 63));
    x = (x + y) & kBlockMask;
    y = (y + i + 1) & kBlockMask;
  }
}

bool BloomFilter::test(util::ByteView txid) const {
  if (strategy_ == HashStrategy::kBlocked) {
    std::uint32_t x = 0;
    std::uint32_t y = 0;
    const std::uint64_t base = block_base(txid, &x, &y);
    return test_block(base, x, y);
  }
  std::uint64_t pos[kMaxHashCount];
  probe_positions(txid, pos);
  for (std::uint32_t i = 0; i < k_; ++i) {
    if ((bits_[pos[i] / 64] & (1ULL << (pos[i] % 64))) == 0) return false;
  }
  return true;
}

void BloomFilter::insert(util::ByteView txid) {
  inserted_.fetch_add(1, std::memory_order_relaxed);
  if (n_bits_ == 0) return;
  if (strategy_ == HashStrategy::kBlocked) {
    std::uint32_t x = 0;
    std::uint32_t y = 0;
    const std::uint64_t base = block_base(txid, &x, &y);
    set_block(base, x, y);
    return;
  }
  std::uint64_t pos[kMaxHashCount];
  probe_positions(txid, pos);
  for (std::uint32_t i = 0; i < k_; ++i) {
    bits_[pos[i] / 64] |= (1ULL << (pos[i] % 64));
  }
}

void BloomFilter::insert_batch(const util::ByteView* items, std::size_t count) {
  inserted_.fetch_add(count, std::memory_order_relaxed);
  if (n_bits_ == 0 || count == 0) return;
  if (strategy_ == HashStrategy::kBlocked) {
    std::uint64_t base[kBatchTile];
    std::uint32_t bx[kBatchTile];
    std::uint32_t by[kBatchTile];
    for (std::size_t t = 0; t < count; t += kBatchTile) {
      const std::size_t tile = std::min(kBatchTile, count - t);
      for (std::size_t j = 0; j < tile; ++j) {
        base[j] = block_base(items[t + j], &bx[j], &by[j]);
        prefetch_write(&bits_[base[j]]);
      }
      for (std::size_t j = 0; j < tile; ++j) set_block(base[j], bx[j], by[j]);
    }
    return;
  }
  std::uint64_t pos[kMaxHashCount];
  for (std::size_t idx = 0; idx < count; ++idx) {
    probe_positions(items[idx], pos);
    for (std::uint32_t i = 0; i < k_; ++i) {
      bits_[pos[i] / 64] |= (1ULL << (pos[i] % 64));
    }
  }
}

bool BloomFilter::contains(util::ByteView txid) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (n_bits_ == 0) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const bool hit = test(txid);
  if (hit) hits_.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void BloomFilter::contains_batch(const util::ByteView* items, std::size_t count,
                                 std::uint8_t* out) const {
  if (count == 0) return;
  queries_.fetch_add(count, std::memory_order_relaxed);
  if (n_bits_ == 0) {
    std::fill(out, out + count, std::uint8_t{1});
    hits_.fetch_add(count, std::memory_order_relaxed);
    return;
  }
  std::uint64_t batch_hits = 0;
  if (strategy_ == HashStrategy::kBlocked) {
    std::uint64_t base[kBatchTile];
    std::uint32_t bx[kBatchTile];
    std::uint32_t by[kBatchTile];
    for (std::size_t t = 0; t < count; t += kBatchTile) {
      const std::size_t tile = std::min(kBatchTile, count - t);
      for (std::size_t j = 0; j < tile; ++j) {
        base[j] = block_base(items[t + j], &bx[j], &by[j]);
        prefetch_read(&bits_[base[j]]);
      }
      for (std::size_t j = 0; j < tile; ++j) {
        const bool hit = test_block(base[j], bx[j], by[j]);
        out[t + j] = hit ? 1 : 0;
        batch_hits += hit ? 1 : 0;
      }
    }
  } else {
    for (std::size_t idx = 0; idx < count; ++idx) {
      const bool hit = test(items[idx]);
      out[idx] = hit ? 1 : 0;
      batch_hits += hit ? 1 : 0;
    }
  }
  hits_.fetch_add(batch_hits, std::memory_order_relaxed);
}

void BloomFilter::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, n_bits_);
  std::uint8_t k_byte = 0;
  switch (strategy_) {
    case HashStrategy::kSplitDigest: k_byte = static_cast<std::uint8_t>(k_ & 0x7f); break;
    case HashStrategy::kRehash:
      k_byte = static_cast<std::uint8_t>((k_ & 0x7f) | 0x80);
      break;
    case HashStrategy::kBlocked:
      k_byte = static_cast<std::uint8_t>((k_ & 0x3f) | 0xc0);
      break;
  }
  w.u8(k_byte);
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
  if ((k_byte & 0xc0) == 0xc0 && (k_byte & 0x3f) != 0) {
    // Blocked layout: previously-rejected byte range, so legacy encodings
    // are unaffected (0xc0 itself still parses as rehash k=64 below).
    f.strategy_ = HashStrategy::kBlocked;
    f.k_ = k_byte & 0x3f;
    if (f.n_bits_ == 0 || f.n_bits_ % kBlockBits != 0) {
      throw util::DeserializeError("BloomFilter: blocked layout requires whole blocks");
    }
  } else {
    f.k_ = k_byte & 0x7f;
    f.strategy_ = (k_byte & 0x80) ? HashStrategy::kRehash : HashStrategy::kSplitDigest;
    if (f.k_ == 0 || f.k_ > kMaxHashCount) {
      throw util::DeserializeError("BloomFilter: invalid hash count");
    }
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
                  std::size_t count, std::uint8_t* out, util::ThreadPool* pool) {
  // Chunk size is a constant, so the decomposition — and the per-item output
  // — never depends on the worker count.
  constexpr std::size_t kChunk = 4096;
  if (pool == nullptr || pool->size() == 0 || count < 2 * kChunk) {
    filter.contains_batch(items, count, out);
    return;
  }
  const std::uint64_t chunks = (count + kChunk - 1) / kChunk;
  util::parallel_for(pool, chunks, [&](std::uint64_t c) {
    const std::size_t begin = static_cast<std::size_t>(c) * kChunk;
    const std::size_t len = std::min(kChunk, count - begin);
    filter.contains_batch(items + begin, len, out + begin);
  });
}

}  // namespace graphene::bloom
