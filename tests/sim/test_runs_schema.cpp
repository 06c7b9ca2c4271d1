// Golden schema for the runs.jsonl export (GRAPHENE_RUNS_JSONL).
//
// External tooling consumes these records; this test pins the contract:
// every line is one strict-JSON object with the required keys at the
// required types. Adding keys is fine; removing or retyping one fails here
// before it breaks a dashboard.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hpp"
#include "sim/simulator.hpp"

namespace graphene::sim {
namespace {

void expect_number(const obs::json::Value& v, const std::string& key) {
  ASSERT_TRUE(v.contains(key)) << "missing key: " << key;
  EXPECT_TRUE(v.at(key).is_number()) << key << " must be a number";
}

void expect_bool(const obs::json::Value& v, const std::string& key) {
  ASSERT_TRUE(v.contains(key)) << "missing key: " << key;
  EXPECT_TRUE(v.at(key).is_bool()) << key << " must be a bool";
}

TEST(RunsJsonlSchema, EveryRecordCarriesTheContractKeys) {
  chain::ScenarioSpec spec;
  spec.block_txns = 120;
  spec.extra_txns = 200;
  spec.block_fraction_in_mempool = 0.9;  // exercise the Protocol 2 fields too
  std::ostringstream sink;
  const TrialStats stats = run_trials(spec, /*trials=*/8, /*seed=*/41, {},
                                      /*protocol1_only=*/false, &sink);
  EXPECT_EQ(stats.trials, 8u);

  std::istringstream lines(sink.str());
  std::string line;
  std::uint64_t records = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    obs::json::Value v;
    ASSERT_NO_THROW(v = obs::json::parse(line)) << line;
    ASSERT_TRUE(v.is_object());

    // v2 envelope: versioned, and the round count is derivable from the
    // outcome flags (1 + protocol2 + repair) — pin both.
    expect_number(v, "schema");
    EXPECT_EQ(static_cast<std::uint64_t>(v.at("schema").number), 2u);
    expect_number(v, "rounds");

    expect_number(v, "trial");
    expect_number(v, "salt");
    expect_number(v, "n");
    expect_number(v, "m");
    EXPECT_EQ(static_cast<std::uint64_t>(v.at("trial").number), records);
    EXPECT_EQ(static_cast<std::uint64_t>(v.at("n").number), spec.block_txns);

    expect_bool(v, "decoded");
    expect_bool(v, "p1_decoded");
    expect_bool(v, "used_protocol2");
    expect_bool(v, "used_repair");
    expect_bool(v, "used_pingpong");
    const double expected_rounds = 1.0 + (v.at("used_protocol2").boolean ? 1.0 : 0.0) +
                                   (v.at("used_repair").boolean ? 1.0 : 0.0);
    EXPECT_DOUBLE_EQ(v.at("rounds").number, expected_rounds);
    // Kept for schema-2 readers; the engines build split-digest filters only.
    expect_number(v, "bloom_strategy");
    EXPECT_EQ(v.at("bloom_strategy").number, 0.0);

    ASSERT_TRUE(v.contains("bytes"));
    const obs::json::Value& bytes = v.at("bytes");
    ASSERT_TRUE(bytes.is_object());
    for (const char* key : {"getdata", "bloom_s", "iblt_i", "bloom_r", "iblt_j",
                            "bloom_f", "missing_txn", "repair", "encoding", "total"}) {
      expect_number(bytes, key);
    }
    // Internal consistency, not just presence.
    const double total = bytes.at("total").number;
    const double encoding = bytes.at("encoding").number;
    const double missing = bytes.at("missing_txn").number;
    EXPECT_DOUBLE_EQ(total, encoding + missing);
    EXPECT_GT(bytes.at("bloom_s").number + bytes.at("iblt_i").number, 0.0);

    // The observed-FPR block rides on the p1_candidates span, which every
    // run records.
    expect_number(v, "fpr_s_target");
    expect_number(v, "fp_observed");
    expect_number(v, "fpr_s_observed");

    ASSERT_TRUE(v.contains("spans"));
    const obs::json::Value& spans = v.at("spans");
    ASSERT_TRUE(spans.is_array());
    ASSERT_FALSE(spans.array.empty());
    for (const obs::json::Value& span : spans.array) {
      ASSERT_TRUE(span.is_object());
      expect_number(span, "seq");
      expect_number(span, "dur_ns");
      ASSERT_TRUE(span.contains("stage"));
      EXPECT_TRUE(span.at("stage").is_string());
    }
    ++records;
  }
  EXPECT_EQ(records, 8u);
}

TEST(RunsJsonlSchema, Protocol1OnlyRunsStillConform) {
  chain::ScenarioSpec spec;
  spec.block_txns = 50;
  std::ostringstream sink;
  run_trials(spec, 3, 5, {}, /*protocol1_only=*/true, &sink);
  std::istringstream lines(sink.str());
  std::string line;
  std::uint64_t records = 0;
  while (std::getline(lines, line)) {
    const obs::json::Value v = obs::json::parse(line);
    ASSERT_TRUE(v.contains("decoded"));
    ASSERT_TRUE(v.contains("bytes"));
    EXPECT_FALSE(v.at("used_protocol2").boolean);
    EXPECT_DOUBLE_EQ(v.at("bytes").at("bloom_r").number, 0.0);
    EXPECT_DOUBLE_EQ(v.at("rounds").number, 1.0);
    ++records;
  }
  EXPECT_EQ(records, 3u);
}

}  // namespace
}  // namespace graphene::sim
