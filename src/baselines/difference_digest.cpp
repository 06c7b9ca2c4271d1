#include "baselines/difference_digest.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "iblt/iblt.hpp"
#include "iblt/strata_estimator.hpp"

namespace graphene::baselines {

DifferenceDigestResult run_difference_digest(const chain::Block& block,
                                             const chain::Mempool& mempool,
                                             const DifferenceDigestConfig& cfg) {
  DifferenceDigestResult result;

  std::vector<std::uint64_t> block_sids;
  std::unordered_set<std::uint64_t> block_set;
  for (const chain::Transaction& tx : block.transactions()) {
    const std::uint64_t sid = chain::short_id(tx.id);
    block_sids.push_back(sid);
    block_set.insert(sid);
  }
  std::vector<std::uint64_t> pool_sids;
  std::unordered_set<std::uint64_t> pool_set;
  for (const chain::TxId& id : mempool.id_view()) {
    const std::uint64_t sid = chain::short_id(id);
    pool_sids.push_back(sid);
    pool_set.insert(sid);
  }
  for (const std::uint64_t sid : block_sids) result.true_diff += pool_set.count(sid) == 0;
  for (const std::uint64_t sid : pool_sids) result.true_diff += block_set.count(sid) == 0;

  // Receiver → sender: strata estimator over the mempool. The sender builds
  // the matching strata over the block locally (free) and estimates |△|.
  const iblt::StrataEstimator::Config strata_cfg{cfg.strata_cells, cfg.strata_k, cfg.seed};
  const auto m = std::max<std::uint64_t>(mempool.size(), 2);
  iblt::StrataEstimator pool_strata(m, strata_cfg);
  iblt::StrataEstimator block_strata(m, strata_cfg);
  for (const std::uint64_t sid : pool_sids) pool_strata.insert(sid);
  for (const std::uint64_t sid : block_sids) block_strata.insert(sid);
  result.estimator_bytes = pool_strata.serialized_size();
  result.estimated_diff = block_strata.estimate_difference(pool_strata);

  // Sender → receiver: one IBLT with twice the estimated difference in cells.
  const std::uint64_t d = 2 * result.estimated_diff;
  const std::uint64_t cells = ((std::max<std::uint64_t>(d, cfg.final_k) + cfg.final_k - 1) /
                               cfg.final_k) * cfg.final_k;
  iblt::Iblt sender_iblt(iblt::IbltParams{cfg.final_k, cells}, cfg.seed ^ 0x5a5a);
  for (const std::uint64_t sid : block_sids) sender_iblt.insert(sid);
  result.iblt_bytes = sender_iblt.serialized_size();

  iblt::Iblt receiver_iblt(iblt::IbltParams{cfg.final_k, cells}, cfg.seed ^ 0x5a5a);
  for (const std::uint64_t sid : pool_sids) receiver_iblt.insert(sid);

  const iblt::DecodeResult dec = sender_iblt.subtract(receiver_iblt).decode();
  result.success =
      dec.success && dec.positives.size() + dec.negatives.size() == result.true_diff;
  return result;
}

}  // namespace graphene::baselines
