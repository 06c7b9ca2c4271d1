#include "baselines/bloom_only.hpp"

#include <cmath>

#include "bloom/bloom_filter.hpp"
#include "bloom/bloom_math.hpp"

namespace graphene::baselines {

double bloom_only_fpr(std::uint64_t n, std::uint64_t m) noexcept {
  const std::uint64_t diff = m > n ? m - n : 0;
  if (diff == 0) return 1.0;
  return 1.0 / (144.0 * static_cast<double>(diff));
}

std::size_t bloom_only_bytes(std::uint64_t n, std::uint64_t m) noexcept {
  return bloom::serialized_bytes(n, bloom_only_fpr(n, m));
}

double carter_lower_bound_bytes(std::uint64_t n, double fpr) noexcept {
  if (fpr >= 1.0) return 0.0;
  return -static_cast<double>(n) * std::log2(fpr) / 8.0;
}

double exact_description_bound_bytes(std::uint64_t n, std::uint64_t m) noexcept {
  if (n == 0 || m <= n) return 0.0;
  // log2(C(m,n)) via lgamma to avoid overflow.
  const double ln_c = std::lgamma(static_cast<double>(m) + 1.0) -
                      std::lgamma(static_cast<double>(n) + 1.0) -
                      std::lgamma(static_cast<double>(m - n) + 1.0);
  return ln_c / std::log(2.0) / 8.0;
}

BloomOnlyResult run_bloom_only(const chain::Block& block, const chain::Mempool& mempool,
                               std::uint64_t seed) {
  BloomOnlyResult result;
  const std::uint64_t n = block.tx_count();
  const std::uint64_t m = mempool.size();
  const double fpr = bloom_only_fpr(n, m);

  bloom::BloomFilter filter(std::max<std::uint64_t>(n, 1), fpr, seed);
  for (const chain::Transaction& tx : block.transactions()) {
    filter.insert(util::ByteView(tx.id.data(), tx.id.size()));
  }
  result.filter_bytes = filter.serialized_size();

  std::vector<chain::TxId> recovered;
  for (const chain::TxId& id : mempool.id_view()) {
    if (filter.contains(util::ByteView(id.data(), id.size()))) recovered.push_back(id);
  }
  result.false_positives = recovered.size() > n ? recovered.size() - n : 0;
  result.success = block.validates(std::move(recovered));
  return result;
}

}  // namespace graphene::baselines
