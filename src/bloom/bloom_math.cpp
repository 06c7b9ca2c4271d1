#include "bloom/bloom_math.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/varint.hpp"

namespace graphene::bloom {

namespace {
constexpr double kLn2 = 0.6931471805599453;
constexpr double kLn2Sq = kLn2 * kLn2;

constexpr std::uint32_t kCuckooBucketSize = 4;
constexpr double kCuckooTargetLoad = 0.95;
}  // namespace

double ideal_bytes(double n, double fpr) noexcept {
  if (fpr >= 1.0 || n <= 0.0) return 0.0;
  fpr = std::max(fpr, 1e-12);
  return -n * std::log(fpr) / (8.0 * kLn2Sq);
}

std::uint64_t optimal_bits(std::uint64_t n, double fpr) noexcept {
  if (fpr >= 1.0 || n == 0) return 0;
  fpr = std::max(fpr, 1e-12);
  const double bits = -static_cast<double>(n) * std::log(fpr) / kLn2Sq;
  return static_cast<std::uint64_t>(std::max(1.0, std::ceil(bits)));
}

std::uint32_t optimal_hash_count(std::uint64_t bits, std::uint64_t n) noexcept {
  if (n == 0 || bits == 0) return 1;
  const double k = std::round(static_cast<double>(bits) / static_cast<double>(n) * kLn2);
  return static_cast<std::uint32_t>(std::clamp(k, 1.0, 64.0));
}

double expected_fpr(std::uint64_t bits, std::uint32_t k, std::uint64_t n) noexcept {
  if (bits == 0) return 1.0;
  if (n == 0) return 0.0;
  const double exponent =
      -static_cast<double>(k) * static_cast<double>(n) / static_cast<double>(bits);
  return std::pow(1.0 - std::exp(exponent), static_cast<double>(k));
}

std::size_t serialized_bytes(std::uint64_t n, double fpr) noexcept {
  const std::uint64_t bits = optimal_bits(n, fpr);
  const std::size_t payload = static_cast<std::size_t>((bits + 7) / 8);
  // Header: varint(bits) + u8 hash count + u64 seed (matches BloomFilter::serialize).
  return util::varint_size(bits) + 1 + 8 + payload;
}

std::size_t cuckoo_serialized_bytes(std::uint64_t n, double fpr) noexcept {
  if (fpr >= 1.0 || n == 0) return 1 + 1 + 8 + 1;
  fpr = std::max(fpr, 1e-9);
  const double w_continuous = std::log2(2.0 * kCuckooBucketSize / fpr);
  const auto w = static_cast<std::uint32_t>(std::clamp(std::ceil(w_continuous), 4.0, 16.0));
  const auto needed = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(n) / (kCuckooTargetLoad * kCuckooBucketSize)));
  const std::uint64_t buckets = std::bit_ceil(std::max<std::uint64_t>(needed, 2));
  const std::uint64_t bits = buckets * kCuckooBucketSize * w;
  return util::varint_size(buckets) + 1 + 8 + 1 + static_cast<std::size_t>((bits + 7) / 8);
}

std::size_t gcs_serialized_bytes(std::uint64_t n, double fpr) noexcept {
  if (n == 0) return 11;
  fpr = std::clamp(fpr, 1e-9, 0.5);
  const auto p =
      static_cast<std::uint32_t>(std::clamp(std::round(std::log2(1.0 / fpr)), 1.0, 40.0));
  // Golomb-Rice expected cost: ~(p + 1.5) bits per delta.
  const auto bits = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(n) * (static_cast<double>(p) + 1.5)));
  return util::varint_size(n) + 1 + 8 + util::varint_size(bits) +
         static_cast<std::size_t>((bits + 7) / 8);
}

}  // namespace graphene::bloom
