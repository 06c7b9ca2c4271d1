#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace graphene::sim {
namespace {

TEST(Accumulator, MeanAndVariance) {
  Accumulator acc;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, SingleSampleHasZeroSpread) {
  Accumulator acc;
  acc.add(42.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.ci95(), 0.0);
}

TEST(Accumulator, CiShrinksWithSamples) {
  Accumulator small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95(), large.ci95());
}

}  // namespace
}  // namespace graphene::sim
