#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/obs.hpp"

namespace graphene::sim {
namespace {

TEST(Simulator, Protocol1PathHasNoProtocol2Bytes) {
  util::Rng rng(1);
  ScenarioSpec spec;
  spec.block_txns = 200;
  spec.extra_txns = 400;
  const Scenario s = chain::make_scenario(spec, rng);
  const GrapheneRun run = run_graphene(s, 7);
  EXPECT_TRUE(run.decoded);
  if (run.p1_decoded) {
    EXPECT_EQ(run.bloom_r_bytes, 0u);
    EXPECT_EQ(run.iblt_j_bytes, 0u);
    EXPECT_EQ(run.missing_txn_bytes, 0u);
  }
  EXPECT_GT(run.bloom_s_bytes, 0u);
  EXPECT_GT(run.iblt_i_bytes, 0u);
  EXPECT_EQ(run.getdata_bytes, kGetdataBytes);
}

TEST(Simulator, MissingBlockFractionDrivesProtocol2) {
  util::Rng rng(2);
  ScenarioSpec spec;
  spec.block_txns = 200;
  spec.extra_txns = 200;
  spec.block_fraction_in_mempool = 0.5;
  const Scenario s = chain::make_scenario(spec, rng);
  const GrapheneRun run = run_graphene(s, 8);
  EXPECT_TRUE(run.used_protocol2);
  EXPECT_GT(run.bloom_r_bytes, 0u);
  EXPECT_GT(run.iblt_j_bytes, 0u);
  EXPECT_GT(run.missing_txn_bytes, 0u);
  EXPECT_TRUE(run.decoded);
}

TEST(Simulator, Protocol1OnlyStopsBeforeRecovery) {
  util::Rng rng(3);
  ScenarioSpec spec;
  spec.block_txns = 200;
  spec.extra_txns = 200;
  spec.block_fraction_in_mempool = 0.5;
  const Scenario s = chain::make_scenario(spec, rng);
  const GrapheneRun run = run_graphene_protocol1_only(s, 9);
  EXPECT_FALSE(run.decoded);
  EXPECT_FALSE(run.used_protocol2);
  EXPECT_EQ(run.bloom_r_bytes, 0u);
}

TEST(Simulator, EncodingBytesExcludeTransactions) {
  util::Rng rng(4);
  ScenarioSpec spec;
  spec.block_txns = 100;
  spec.extra_txns = 100;
  spec.block_fraction_in_mempool = 0.7;
  const Scenario s = chain::make_scenario(spec, rng);
  const GrapheneRun run = run_graphene(s, 10);
  EXPECT_EQ(run.total_bytes(), run.encoding_bytes() + run.missing_txn_bytes);
}

TEST(Simulator, TrialsAggregateConsistently) {
  ScenarioSpec spec;
  spec.block_txns = 100;
  spec.extra_txns = 200;
  const TrialStats stats = run_trials(spec, 50, /*seed=*/11);
  EXPECT_EQ(stats.trials, 50u);
  EXPECT_LE(stats.decode_failures, stats.trials);
  EXPECT_GT(stats.mean_encoding_bytes, 0.0);
  EXPECT_NEAR(stats.mean_encoding_bytes,
              stats.mean_getdata + stats.mean_bloom_s + stats.mean_iblt_i +
                  stats.mean_bloom_r + stats.mean_iblt_j + stats.mean_bloom_f,
              stats.mean_encoding_bytes * 0.05 + 40.0);
  // Protocol 2 can only rescue Protocol 1 failures, never add new ones.
  EXPECT_LE(stats.decode_failures, stats.p1_decode_failures);
}

TEST(Simulator, RunsJsonlRecordsOneParsableLinePerTrial) {
  ScenarioSpec spec;
  spec.block_txns = 100;
  spec.extra_txns = 200;
  std::ostringstream jsonl;
  const TrialStats stats = run_trials(spec, 5, /*seed=*/21, {}, false, &jsonl);
  EXPECT_EQ(stats.trials, 5u);

  std::istringstream lines(jsonl.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const obs::json::Value doc = obs::json::parse(line);
    EXPECT_EQ(doc.at("trial").number, static_cast<double>(count));
    EXPECT_DOUBLE_EQ(doc.at("n").number, 100.0);
    EXPECT_TRUE(doc.at("decoded").is_bool());
    EXPECT_GT(doc.at("bytes").at("total").number, 0.0);
    // The span sequence and per-stage detail ride on the run's registry.
    const obs::json::Value& spans = doc.at("spans");
    ASSERT_GE(spans.array.size(), 5u);
    EXPECT_EQ(spans.array[0].at("stage").string, "p1_optimize");
    bool saw_peel = false;
    for (const obs::json::Value& span : spans.array) {
      if (span.at("stage").string == "p1_peel") {
        saw_peel = true;
        EXPECT_TRUE(span.contains("peel_iterations"));
      }
    }
    EXPECT_TRUE(saw_peel);
    EXPECT_TRUE(doc.contains("fpr_s_observed"));
    EXPECT_TRUE(doc.contains("fpr_s_target"));
    EXPECT_LE(doc.at("fpr_s_observed").number, 1.0);
    EXPECT_GE(doc.at("fpr_s_observed").number, 0.0);
    ++count;
  }
  EXPECT_EQ(count, 5);
}

TEST(Simulator, DeterministicForFixedSeed) {
  ScenarioSpec spec;
  spec.block_txns = 60;
  spec.extra_txns = 60;
  const TrialStats a = run_trials(spec, 20, 12);
  const TrialStats b = run_trials(spec, 20, 12);
  EXPECT_DOUBLE_EQ(a.mean_encoding_bytes, b.mean_encoding_bytes);
  EXPECT_EQ(a.decode_failures, b.decode_failures);
}

}  // namespace
}  // namespace graphene::sim
