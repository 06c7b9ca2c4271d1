// ProtocolConfig knobs: β-assurance level, IBLT target rate, short-ID
// keying, ping-pong and the price of a round trip — each must steer
// sizes/behavior the way the analysis says.
#include <gtest/gtest.h>

#include "graphene/params.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "sim/scenario.hpp"

namespace graphene::core {
namespace {

TEST(ConfigVariants, HigherBetaBuysBiggerAStar) {
  ProtocolConfig loose;
  loose.beta = 0.9;
  ProtocolConfig tight;
  tight.beta = 0.9999;
  const Protocol1Params pl = optimize_protocol1(2000, 6000, loose);
  const Protocol1Params pt = optimize_protocol1(2000, 6000, tight);
  // For a comparable false-positive budget the tighter assurance provisions
  // a larger recovery margin.
  const double slack_loose = static_cast<double>(pl.a_star) / static_cast<double>(pl.a);
  const double slack_tight = static_cast<double>(pt.a_star) / static_cast<double>(pt.a);
  EXPECT_GT(slack_tight, slack_loose);
}

TEST(ConfigVariants, StricterIbltRateCostsBytes) {
  ProtocolConfig loose;
  loose.fail_denom = 24;
  ProtocolConfig strict;
  strict.fail_denom = 2400;
  const std::size_t bytes_loose = optimize_protocol1(2000, 6000, loose).total_bytes();
  const std::size_t bytes_strict = optimize_protocol1(2000, 6000, strict).total_bytes();
  EXPECT_LT(bytes_loose, bytes_strict);
}

class BetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(BetaSweep, ProtocolDecodesAcrossAssuranceLevels) {
  ProtocolConfig cfg;
  cfg.beta = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(cfg.beta * 1e6));
  int decoded = 0;
  for (int t = 0; t < 10; ++t) {
    chain::ScenarioSpec spec;
    spec.block_txns = 300;
    spec.extra_txns = 600;
    const chain::Scenario s = chain::make_scenario(spec, rng);
    Sender sender(s.block, rng.next(), cfg);
    ReceiveSession session = Receiver(s.receiver_mempool, cfg).session();
    const Relay relay = relay_block(sender, session, s.m);
    decoded += relay.outcome.status == ReceiveStatus::kDecoded ? 1 : 0;
  }
  // Lower β means more Protocol 1 retries land in Protocol 2, but the full
  // pipeline still converges.
  EXPECT_GE(decoded, 9);
}

INSTANTIATE_TEST_SUITE_P(Levels, BetaSweep, ::testing::Values(0.9, 0.99, 239.0 / 240.0,
                                                              0.9999));

TEST(ConfigVariants, SenderAndReceiverMustAgreeOnKeying) {
  // Config mismatch (keyed vs truncated short IDs) must fail closed, not
  // produce a wrong block.
  util::Rng rng(7);
  chain::ScenarioSpec spec;
  spec.block_txns = 100;
  spec.extra_txns = 200;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  ProtocolConfig keyed;
  keyed.keyed_short_ids = true;
  ProtocolConfig unkeyed;
  unkeyed.keyed_short_ids = false;
  Sender sender(s.block, 42, keyed);
  ReceiveSession session = Receiver(s.receiver_mempool, unkeyed).session();
  const ReceiveOutcome out = session.receive_block(sender.encode(s.m).msg);
  EXPECT_NE(out.status, ReceiveStatus::kDecoded);
}

TEST(ConfigVariants, NearEqualFprRangeFromPaperAllWork) {
  // §3.3.2: "a large range of values execute efficiently (we tested from
  // 0.001 to 0.2)".
  util::Rng rng(8);
  for (const double fpr : {0.001, 0.01, 0.1, 0.2}) {
    ProtocolConfig cfg;
    cfg.near_equal_fpr = fpr;
    chain::ScenarioSpec spec;
    spec.block_txns = 400;
    spec.extra_txns = 200;  // m = n
    spec.block_fraction_in_mempool = 0.5;
    const chain::Scenario s = chain::make_scenario(spec, rng);
    ASSERT_EQ(s.m, s.n);
    Sender sender(s.block, rng.next(), cfg);
    ReceiveSession session = Receiver(s.receiver_mempool, cfg).session();
    const Relay relay = relay_block(sender, session, s.m);
    ASSERT_TRUE(relay.request.has_value()) << fpr;
    EXPECT_EQ(relay.outcome.status, ReceiveStatus::kDecoded) << "fpr_R=" << fpr;
  }
}

TEST(ConfigVariants, RoundTripBytesSteersTheRepairRound) {
  // Relays of blocks missing a tenth of their transactions decode at every
  // price of a round trip. Under the byte objective (0) nearly all of them
  // also take the repair round; priced at a real link, none does; an absurd
  // price drives f_R toward the bottom of its grid and still decodes.
  struct Want {
    std::uint64_t trip;
    int min_repairs;
    int max_repairs;
  };
  for (const Want& want : {Want{0, 8, 10}, Want{125'000, 0, 0},
                           Want{1'000'000'000'000, 0, 0}}) {
    ProtocolConfig cfg;
    cfg.round_trip_bytes = want.trip;
    util::Rng rng(9);
    int decoded = 0;
    int repairs = 0;
    for (int t = 0; t < 10; ++t) {
      chain::ScenarioSpec spec;
      spec.block_txns = 300;
      spec.extra_txns = 600;
      spec.block_fraction_in_mempool = 0.9;
      const chain::Scenario s = chain::make_scenario(spec, rng);
      Sender sender(s.block, rng.next(), cfg);
      ReceiveSession session = Receiver(s.receiver_mempool, cfg).session();
      const Relay relay = relay_block(sender, session, s.m);
      ASSERT_TRUE(relay.request.has_value());
      repairs += relay.repair_request ? 1 : 0;
      decoded += relay.outcome.status == ReceiveStatus::kDecoded ? 1 : 0;
    }
    EXPECT_EQ(decoded, 10) << "round_trip_bytes=" << want.trip;
    EXPECT_GE(repairs, want.min_repairs) << "round_trip_bytes=" << want.trip;
    EXPECT_LE(repairs, want.max_repairs) << "round_trip_bytes=" << want.trip;
  }
}

}  // namespace
}  // namespace graphene::core
