#include "graphene/params.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bloom/bloom_filter.hpp"
#include "bloom/bloom_math.hpp"
#include "graphene/bounds.hpp"
#include "iblt/param_table.hpp"
#include "util/stats.hpp"

namespace graphene::core {
namespace {

std::size_t total_for_a(std::uint64_t a, std::uint64_t n, std::uint64_t m,
                        const ProtocolConfig& cfg) {
  const double fpr = std::min(1.0, static_cast<double>(a) / static_cast<double>(m - n));
  const std::uint64_t a_star = bound_a_star(static_cast<double>(a), cfg.beta);
  return bloom::serialized_bytes(n, fpr) +
         iblt::Iblt::serialized_size_for(iblt::lookup_params(a_star, cfg.fail_denom).cells);
}

TEST(OptimizeProtocol1, MatchesBruteForceSmall) {
  const ProtocolConfig cfg;
  for (const auto [n, m] : {std::pair<std::uint64_t, std::uint64_t>{200, 400},
                            {200, 1200}, {50, 80}, {2000, 6000}}) {
    const Protocol1Params p = optimize_protocol1(n, m, cfg);
    std::size_t best = SIZE_MAX;
    for (std::uint64_t a = 1; a <= m - n; ++a) best = std::min(best, total_for_a(a, n, m, cfg));
    EXPECT_LE(p.total_bytes(), best + best / 50)  // within 2% of true optimum
        << "n=" << n << " m=" << m;
  }
}

TEST(OptimizeProtocol1, EqualPoolsDegenerateToIbltOnly) {
  const Protocol1Params p = optimize_protocol1(1000, 1000);
  EXPECT_EQ(p.fpr, 1.0);
  EXPECT_EQ(p.a, 0u);
  EXPECT_GE(p.a_star, 1u);
  EXPECT_LT(p.bloom_bytes, 16u);  // header-only filter
}

TEST(OptimizeProtocol1, FprIsAOverDiff) {
  const Protocol1Params p = optimize_protocol1(2000, 6000);
  EXPECT_NEAR(p.fpr, static_cast<double>(p.a) / 4000.0, 1e-12);
}

TEST(OptimizeProtocol1, AStarRespectsTheorem1) {
  const ProtocolConfig cfg;
  const Protocol1Params p = optimize_protocol1(2000, 6000, cfg);
  EXPECT_EQ(p.a_star, bound_a_star(static_cast<double>(p.a), cfg.beta));
}

TEST(OptimizeProtocol1, TotalGrowsSublinearlyInMempool) {
  // Fig. 14's qualitative claim: cost grows sublinearly as extra mempool
  // transactions accumulate.
  const std::size_t at_1x = optimize_protocol1(2000, 4000).total_bytes();
  const std::size_t at_5x = optimize_protocol1(2000, 12000).total_bytes();
  EXPECT_LT(at_5x, at_1x * 3);
  EXPECT_GT(at_5x, at_1x);
}

TEST(OptimizeProtocol1, BeatsCompactBlocksForPaperSizes) {
  // §5.3: Graphene is smaller than Compact Blocks (6 bytes/txn) for all but
  // tiny blocks.
  for (const std::uint64_t n : {200ULL, 2000ULL, 10000ULL}) {
    const std::uint64_t m = n + n;  // mempool = 2 blocks' worth
    const Protocol1Params p = optimize_protocol1(n, m);
    EXPECT_LT(p.total_bytes(), 6 * n) << "n=" << n;
  }
}

TEST(OptimizeProtocol1, Eq3ContinuousApproximationIsInTheRightRegime) {
  // Eq. 3 with τ from the table should land within a factor ~4 of the
  // discrete optimum for large n (the paper notes up to 20% error for
  // a < 100 plus table discretization).
  const std::uint64_t n = 10000, m = 30000;
  const Protocol1Params p = optimize_protocol1(n, m);
  const double tau = iblt::hedge_factor(p.a_star, 240);
  const double a_cont = eq3_continuous_a(n, tau);
  EXPECT_GT(static_cast<double>(p.a), a_cont / 4.0);
  EXPECT_LT(static_cast<double>(p.a), a_cont * 4.0);
}

TEST(OptimizeProtocol2, NormalPathProducesConsistentParams) {
  // z = 150 of m = 500 passed S at FPR 0.05; block n = 200.
  ProtocolConfig cfg;
  cfg.round_trip_bytes = 0;  // the paper's byte objective: f_R = b/(n−x*)
  const Protocol2Params p = optimize_protocol2(150, 500, 200, 0.05, cfg);
  EXPECT_FALSE(p.reversed);
  EXPECT_LE(p.x_star, 150u);
  EXPECT_GE(p.y_star, 1u);
  EXPECT_GE(p.b, 1u);
  EXPECT_NEAR(p.fpr,
              static_cast<double>(p.b) / static_cast<double>(200 - p.x_star), 1e-9);
  EXPECT_GT(p.total_bytes(), 0u);
}

TEST(OptimizeProtocol2, ReversedPathTriggersWhenPoolsMatch) {
  // m ≈ n with FPR ~1: z = m, y* ≈ m — the §3.3.2 special case.
  const Protocol2Params p = optimize_protocol2(1000, 1000, 1000, 1.0, {});
  EXPECT_TRUE(p.reversed);
  EXPECT_NEAR(p.fpr, 0.1, 1e-12);
}

TEST(OptimizeProtocol2, IbltSizedForBPlusYStar) {
  const ProtocolConfig cfg;
  const Protocol2Params p = optimize_protocol2(300, 1000, 400, 0.02, cfg);
  const iblt::IbltParams expected = iblt::lookup_params(p.b + p.y_star, cfg.fail_denom);
  EXPECT_EQ(p.iblt.cells, expected.cells);
}

TEST(OptimizeProtocol2, MatchesBruteForceOverB) {
  ProtocolConfig cfg;
  cfg.round_trip_bytes = 0;  // the paper's byte objective
  const std::uint64_t z = 150, m = 500, n = 200;
  const double f_s = 0.05;
  const Protocol2Params p = optimize_protocol2(z, m, n, f_s, cfg);
  ASSERT_FALSE(p.reversed);
  const std::uint64_t missing = n - p.x_star;
  std::size_t best = SIZE_MAX;
  for (std::uint64_t b = 1; b <= missing; ++b) {
    const double fr = std::min(1.0, static_cast<double>(b) / static_cast<double>(missing));
    const std::size_t total =
        bloom::serialized_bytes(z, fr) +
        iblt::Iblt::serialized_size_for(
            iblt::lookup_params(b + p.y_star, cfg.fail_denom).cells);
    best = std::min(best, total);
  }
  EXPECT_LE(p.total_bytes(), best + best / 50);
}

/// The Protocol 2 inputs of perfbench's relay_block relays that miss 100 of
/// their 2,000 transactions: m = 20,000, z = 1,912, and f_s the expected FPR
/// of the filter S that Protocol 1 builds for them.
struct RelayBlockShape {
  std::uint64_t z = 1912, m = 20000, n = 2000;
  double f_s = 0.0;
  RelayBlockShape() {
    const bloom::BloomFilter s(n, optimize_protocol1(n, m).fpr, 0);
    f_s = bloom::expected_fpr(s.bit_count(), s.hash_count(), n);
  }
};

/// Pr[more than b of `missing` items pass a filter of FPR f].
double tail_above(std::uint64_t b, std::uint64_t missing, double f) {
  return -std::expm1(util::log_binomial_cdf(b, missing, f));
}

TEST(OptimizeProtocol2, CompletionObjectiveMakesRepairRareAtRelayBlockSizes) {
  const RelayBlockShape s;
  const ProtocolConfig cfg;
  ASSERT_GT(cfg.round_trip_bytes, 0u);
  const Protocol2Params p = optimize_protocol2(s.z, s.m, s.n, s.f_s, cfg);
  ASSERT_FALSE(p.reversed);
  const std::uint64_t missing = s.n - p.x_star;
  // b is Theorem 1's bound on R's false positives among the n − x* missing
  // transactions, and the binomial tail beyond it stays within 1 − β.
  EXPECT_EQ(p.b, std::min(bound_a_star(p.fpr * static_cast<double>(missing), cfg.beta),
                          missing));
  EXPECT_LE(tail_above(p.b, missing, p.fpr), 1.0 - cfg.beta);
  EXPECT_LE(repair_probability(p.fpr, missing), 0.01);
  EXPECT_EQ(p.iblt.cells, iblt::lookup_params(p.b + p.y_star, cfg.fail_denom).cells);

  // The byte objective on the same inputs: b = 23 expected false positives,
  // f_R ≈ 0.19, and a repair round is all but certain.
  ProtocolConfig bytes_only = cfg;
  bytes_only.round_trip_bytes = 0;
  const Protocol2Params q = optimize_protocol2(s.z, s.m, s.n, s.f_s, bytes_only);
  EXPECT_EQ(q.x_star, p.x_star);
  EXPECT_EQ(q.y_star, p.y_star);
  EXPECT_EQ(q.b, 23u);
  EXPECT_NEAR(q.fpr, 0.1885, 5e-4);
  EXPECT_GT(repair_probability(q.fpr, missing), 0.99);
  EXPECT_LT(q.total_bytes(), p.total_bytes());
}

TEST(OptimizeProtocol2, CompletionSearchFindsTheGridMinimum) {
  // The scan stops once |R| alone costs more than the best point so far;
  // pricing every point of the grid must not find a cheaper one.
  const RelayBlockShape s;
  for (const std::uint64_t trip : {1000ULL, 125'000ULL, 10'000'000ULL}) {
    ProtocolConfig cfg;
    cfg.round_trip_bytes = trip;
    const Protocol2Params p = optimize_protocol2(s.z, s.m, s.n, s.f_s, cfg);
    const std::uint64_t missing = s.n - p.x_star;
    const auto cost = [&](double fpr, std::uint64_t b) {
      const std::size_t bytes =
          bloom::serialized_bytes(s.z, fpr) +
          iblt::Iblt::serialized_size_for(
              iblt::lookup_params(b + p.y_star, cfg.fail_denom).cells);
      return static_cast<double>(bytes) +
             repair_probability(fpr, missing) * static_cast<double>(trip);
    };
    const double chosen = cost(p.fpr, p.b);
    for (int k = 0; k <= 8 * 40; ++k) {
      const double f = std::exp2(-k / 8.0);
      const std::uint64_t b =
          std::min(bound_a_star(f * static_cast<double>(missing), cfg.beta), missing);
      // One byte of slack: exp2 may round f a ulp away from the library's
      // grid, which can move a filter across a byte boundary.
      EXPECT_LE(chosen, cost(f, b) + 1.0) << "trip=" << trip << " k=" << k;
    }
  }
}

TEST(OptimizeProtocol2, RaisingRoundTripBytesNeverRaisesRepairChance) {
  const RelayBlockShape relay;
  struct Shape {
    std::uint64_t z, m, n;
    double f_s;
  };
  for (const Shape& s : {Shape{relay.z, relay.m, relay.n, relay.f_s},
                         Shape{150, 500, 200, 0.05}, Shape{300, 1000, 400, 0.02},
                         Shape{60, 5000, 100, 0.002}}) {
    double previous = 1.0;
    for (const std::uint64_t trip :
         {1ULL, 100ULL, 1000ULL, 10'000ULL, 100'000ULL, 125'000ULL, 1'000'000ULL,
          100'000'000ULL, 10'000'000'000ULL}) {
      ProtocolConfig cfg;
      cfg.round_trip_bytes = trip;
      const Protocol2Params p = optimize_protocol2(s.z, s.m, s.n, s.f_s, cfg);
      ASSERT_FALSE(p.reversed);
      const double chance = repair_probability(p.fpr, s.n - p.x_star);
      EXPECT_LE(chance, previous) << "z=" << s.z << " n=" << s.n << " trip=" << trip;
      previous = chance;
    }
  }
}

TEST(OptimizeProtocol2, RepairProbabilityEdges) {
  EXPECT_EQ(repair_probability(0.5, 0), 0.0);
  EXPECT_EQ(repair_probability(1.0, 3), 1.0);
  EXPECT_NEAR(repair_probability(0.5, 2), 0.75, 1e-15);
  // Small f_R: 1 − (1 − f)^k ≈ k·f without cancellation.
  EXPECT_NEAR(repair_probability(1e-12, 1000), 1e-9, 1e-18);
}

}  // namespace
}  // namespace graphene::core
