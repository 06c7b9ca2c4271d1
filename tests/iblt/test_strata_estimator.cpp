#include "iblt/strata_estimator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/random.hpp"

namespace graphene::iblt {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t count, util::Rng& rng) {
  std::set<std::uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.next());
  return {keys.begin(), keys.end()};
}

TEST(StrataEstimator, IdenticalSetsEstimateNearZero) {
  util::Rng rng(1);
  StrataEstimator a(1000), b(1000);
  for (const std::uint64_t k : random_keys(800, rng)) {
    a.insert(k);
    b.insert(k);
  }
  EXPECT_LE(a.estimate_difference(b), 1u);  // floor of 1
}

class StrataAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrataAccuracy, WithinFactorTwoMostly) {
  const std::uint64_t true_diff = GetParam();
  util::Rng rng(true_diff * 17 + 3);
  int within = 0;
  constexpr int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    StrataEstimator::Config cfg;
    cfg.seed = rng.next();
    StrataEstimator a(2000, cfg), b(2000, cfg);
    for (const std::uint64_t k : random_keys(1000, rng)) {
      a.insert(k);
      b.insert(k);
    }
    for (const std::uint64_t k : random_keys(true_diff, rng)) a.insert(k);
    const std::uint64_t est = a.estimate_difference(b);
    const double ratio = static_cast<double>(est) / static_cast<double>(true_diff);
    within += (ratio >= 0.45 && ratio <= 2.5) ? 1 : 0;
  }
  EXPECT_GE(within, kTrials * 2 / 3) << "diff " << true_diff;
}

INSTANTIATE_TEST_SUITE_P(Diffs, StrataAccuracy, ::testing::Values(16, 64, 256, 1024));

TEST(StrataEstimator, SmallDifferencesAreExact) {
  // Differences below one stratum's capacity decode fully: exact estimate.
  util::Rng rng(2);
  StrataEstimator a(500), b(500);
  for (const std::uint64_t k : random_keys(400, rng)) {
    a.insert(k);
    b.insert(k);
  }
  const auto extras = random_keys(10, rng);
  for (const std::uint64_t k : extras) a.insert(k);
  EXPECT_EQ(a.estimate_difference(b), 10u);
}

TEST(StrataEstimator, MismatchedConfigThrows) {
  StrataEstimator a(100);
  StrataEstimator::Config other;
  other.seed = 999;
  StrataEstimator b(100, other);
  EXPECT_THROW((void)a.estimate_difference(b), std::invalid_argument);
}

TEST(StrataEstimator, SerializedSizeIsOneBytePlusEachStratum) {
  // The size bench_difference_digest charges: a stratum-count byte plus one
  // IBLT per stratum, whatever the estimator holds.
  util::Rng rng(3);
  StrataEstimator a(1000);
  ASSERT_EQ(a.strata_count(), 11u);  // ceil(log2 1000) + 1
  const std::size_t expected = 1 + 11 * Iblt::serialized_size_for(StrataConfig{}.strata_cells);
  EXPECT_EQ(a.serialized_size(), expected);
  for (const std::uint64_t k : random_keys(200, rng)) a.insert(k);
  EXPECT_EQ(a.serialized_size(), expected);
}

TEST(StrataEstimator, StrataCountScalesWithUniverse) {
  const StrataEstimator small(100);
  const StrataEstimator large(1000000);
  EXPECT_LT(small.strata_count(), large.strata_count());
}

}  // namespace
}  // namespace graphene::iblt
