#include "iblt/param_search.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "iblt/hypergraph.hpp"

namespace graphene::iblt {
namespace {

SearchOptions fast_options() {
  SearchOptions opts;
  opts.max_trials = 3000;
  opts.batch = 64;
  return opts;
}

TEST(ParamSearch, ZeroItemsTrivial) {
  util::Rng rng(1);
  const auto r = search_cells(0, 4, 0.95, rng, fast_options());
  ASSERT_TRUE(r.cells.has_value());
  EXPECT_EQ(*r.cells, 4u);
  EXPECT_TRUE(r.certified);
}

TEST(ParamSearch, ReturnsMultipleOfK) {
  util::Rng rng(2);
  for (const std::uint32_t k : {3u, 4u, 5u}) {
    const auto r = search_cells(25, k, 0.95, rng, fast_options());
    ASSERT_TRUE(r.cells.has_value());
    EXPECT_EQ(*r.cells % k, 0u) << "k=" << k;
  }
}

TEST(ParamSearch, FoundSizeMeetsRate) {
  util::Rng rng(3);
  const double p = 0.95;
  const auto r = search_cells(30, 4, p, rng, fast_options());
  ASSERT_TRUE(r.cells.has_value());
  const double rate = measure_decode_rate(30, 4, *r.cells, 4000, rng);
  EXPECT_GE(rate, p - 0.03);
}

TEST(ParamSearch, OneStepSmallerMissesRate) {
  // The returned c should be near-minimal: shrinking by one k-block must
  // drop the decode rate below (or near) the target.
  util::Rng rng(4);
  const double p = 0.99;
  const std::uint32_t k = 4;
  const auto r = search_cells(40, k, p, rng, fast_options());
  ASSERT_TRUE(r.cells.has_value());
  ASSERT_GT(*r.cells, k);
  const double smaller_rate = measure_decode_rate(40, k, *r.cells - k, 8000, rng);
  EXPECT_LT(smaller_rate, p + 0.005);
}

TEST(ParamSearch, HigherTargetRateNeedsMoreCells) {
  util::Rng rng(5);
  const auto c_low = search_cells(50, 4, 0.90, rng, fast_options());
  const auto c_high = search_cells(50, 4, 0.999, rng, fast_options());
  ASSERT_TRUE(c_low.cells && c_high.cells);
  EXPECT_LT(*c_low.cells, *c_high.cells);
}

TEST(ParamSearch, MoreItemsNeedMoreCells) {
  util::Rng rng(6);
  const auto c10 = search_cells(10, 4, 0.95, rng, fast_options());
  const auto c100 = search_cells(100, 4, 0.95, rng, fast_options());
  ASSERT_TRUE(c10.cells && c100.cells);
  EXPECT_LT(*c10.cells, *c100.cells);
}

TEST(ParamSearch, FullSearchPicksSmallestAcrossK) {
  util::Rng rng(7);
  SearchOptions opts = fast_options();
  opts.k_min = 3;
  opts.k_max = 6;
  const SearchResult best = search_params(60, 0.95, rng, opts);
  ASSERT_NE(best.params.cells, 0u);
  EXPECT_GE(best.params.k, opts.k_min);
  EXPECT_LE(best.params.k, opts.k_max);
  // No individual k should beat the chosen size materially.
  for (std::uint32_t k = opts.k_min; k <= opts.k_max; ++k) {
    const auto r = search_cells(60, k, 0.95, rng, opts);
    if (r.cells) EXPECT_GE(*r.cells + 2 * k, best.params.cells) << "k=" << k;
  }
  EXPECT_GT(best.decode_rate, 0.9);
}

TEST(ParamSearch, HedgeFactorIsReasonable) {
  // Literature: peeling thresholds put c/j in roughly [1.2, 3] for mid-size
  // j at moderate rates.
  util::Rng rng(8);
  const auto r = search_cells(100, 4, 0.95, rng, fast_options());
  ASSERT_TRUE(r.cells.has_value());
  const double tau = static_cast<double>(*r.cells) / 100.0;
  EXPECT_GT(tau, 1.0);
  EXPECT_LT(tau, 3.0);
}

TEST(ParamSearch, UncertifiedWhenTrialCapTooSmall) {
  // One trial per decision: a single Bernoulli sample cannot separate a
  // Wilson CI from an interior p, so every decision falls through to the
  // point-estimate exit and the result must be flagged uncertified.
  util::Rng rng(9);
  SearchOptions opts = fast_options();
  opts.max_trials = 1;
  opts.batch = 1;
  const auto r = search_cells(30, 4, 0.5, rng, opts);
  EXPECT_FALSE(r.certified);

  util::Rng rng2(9);
  const SearchResult full = search_params(30, 0.5, rng2, opts);
  EXPECT_FALSE(full.certified);
}

TEST(ParamSearch, CertifiedPropagatesFromFullSearch) {
  // At p = 0.5 the decode-rate curve is steep around the threshold, so
  // every binary-search decision separates well before the cap with this
  // seed; deterministic given the seed, so this cannot flake.
  util::Rng rng(10);
  SearchOptions opts = fast_options();
  opts.max_trials = 20000;
  const SearchResult best = search_params(25, 0.5, rng, opts);
  ASSERT_NE(best.params.cells, 0u);
  EXPECT_TRUE(best.certified);
}

TEST(ParamSearch, ResultsArePinnedAtFixedSeeds) {
  // Guards the trial schedule: a rate decision runs batch b from
  // batch_seed(root, b) and scans the batches in order, and
  // measure_decode_rate sums 256-trial chunks seeded the same way. The
  // shipped table depends on both.
  util::Rng rng(42);
  SearchOptions opts;
  opts.k_min = 3;
  opts.k_max = 6;
  opts.max_trials = 4000;
  opts.batch = 64;
  const SearchResult r = search_params(50, 0.95, rng, opts);
  EXPECT_EQ(r.params.k, 4u);
  EXPECT_EQ(r.params.cells, 80u);
  EXPECT_EQ(r.decode_rate, 1953.0 / 2000.0);
  EXPECT_FALSE(r.certified);

  util::Rng rate_rng(11);
  EXPECT_EQ(measure_decode_rate(60, 4, 120, 3000, rate_rng), 2997.0 / 3000.0);

  // Decisions capped at 64 trials turn on single samples, so these sizes
  // move with any change to which trials a batch runs.
  SearchOptions capped;
  capped.max_trials = 64;
  capped.batch = 16;
  util::Rng capped_rng(7);
  std::vector<std::uint64_t> cells;
  for (std::uint64_t j = 10; j <= 100; j += 10) {
    cells.push_back(search_cells(j, 4, 0.95, capped_rng, capped).cells.value_or(0));
  }
  EXPECT_EQ(cells, (std::vector<std::uint64_t>{28, 40, 52, 64, 80, 92, 108, 120, 132, 148}));
}

}  // namespace
}  // namespace graphene::iblt
