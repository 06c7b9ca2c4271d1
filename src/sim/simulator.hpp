// End-to-end Graphene runs with per-message byte decomposition — the engine
// behind every figure-reproducing benchmark.
#pragma once

#include <fstream>
#include <memory>
#include <ostream>

#include "graphene/params.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"

namespace graphene::sim {

/// One sender→receiver block relay, decomposed the way Fig. 17 plots it.
struct GrapheneRun {
  bool p1_decoded = false;   ///< Protocol 1 sufficed
  bool decoded = false;      ///< block recovered by the end of the run
  bool used_protocol2 = false;
  bool used_repair = false;
  bool used_pingpong = false;

  std::size_t getdata_bytes = 0;   ///< receiver's initial request (inv+count)
  std::size_t bloom_s_bytes = 0;   ///< Protocol 1 filter S
  std::size_t iblt_i_bytes = 0;    ///< Protocol 1 IBLT I
  std::size_t bloom_r_bytes = 0;   ///< Protocol 2 filter R
  std::size_t iblt_j_bytes = 0;    ///< Protocol 2 IBLT J
  std::size_t bloom_f_bytes = 0;   ///< m≈n compensation filter F
  std::size_t missing_txn_bytes = 0;  ///< full transactions shipped
  std::size_t repair_bytes = 0;       ///< short-ID repair round (both ways)

  /// Protocol encoding cost — what the paper's size figures report
  /// (excludes missing transaction bytes).
  [[nodiscard]] std::size_t encoding_bytes() const noexcept {
    return getdata_bytes + bloom_s_bytes + iblt_i_bytes + bloom_r_bytes + iblt_j_bytes +
           bloom_f_bytes + repair_bytes;
  }
  /// Everything on the wire.
  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return encoding_bytes() + missing_txn_bytes;
  }
  /// Protocol round trips consumed: 1 for Protocol 1, +1 for the Protocol 2
  /// request/response, +1 for the repair exchange.
  [[nodiscard]] std::uint64_t rounds() const noexcept {
    return std::uint64_t{1} + (used_protocol2 ? 1u : 0u) + (used_repair ? 1u : 0u);
  }
};

/// The configuration the paper's figures were measured under: Protocol 2
/// minimizes |R| + |J| alone (§3.3.2), with no price on the repair round
/// trip. The benches that run Protocol 2's normal path pass it so that their
/// tables stay the paper's.
[[nodiscard]] inline core::ProtocolConfig paper_config() {
  core::ProtocolConfig cfg;
  cfg.round_trip_bytes = 0;
  return cfg;
}

/// Fixed model cost for the receiver's step-2 getdata (inv hash + mempool
/// count); matches the small constant the deployed protocol sends.
inline constexpr std::size_t kGetdataBytes = 37;

/// Runs Protocols 1→2→repair as needed over a prepared scenario.
GrapheneRun run_graphene(const Scenario& scenario, std::uint64_t salt,
                         const core::ProtocolConfig& cfg = {});

/// Runs Protocol 1 only (no recovery) — Fig. 14/15 measure this path.
GrapheneRun run_graphene_protocol1_only(const Scenario& scenario, std::uint64_t salt,
                                        const core::ProtocolConfig& cfg = {});

/// Accumulated Monte Carlo statistics over many runs.
struct TrialStats {
  std::uint64_t trials = 0;
  std::uint64_t p1_decode_failures = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t pingpong_rescues = 0;
  double mean_encoding_bytes = 0.0;
  double mean_getdata = 0.0;
  double mean_bloom_s = 0.0;
  double mean_iblt_i = 0.0;
  double mean_bloom_r = 0.0;
  double mean_iblt_j = 0.0;
  double mean_bloom_f = 0.0;
  double mean_missing_txn = 0.0;
};

/// Repeats `spec` for `trials` independently-seeded runs.
///
/// Each trial derives its RNG stream from (seed, trial index).
/// cfg.param_cache is shared across the batch (a local cache is used when
/// the caller didn't provide one).
///
/// When `runs_jsonl` is non-null every run executes with a fresh telemetry
/// Registry and is appended to the stream as one structured JSON record
/// (see write_run_jsonl) — the machine-readable alternative to the benches'
/// stdout tables.
TrialStats run_trials(const ScenarioSpec& spec, std::uint64_t trials, std::uint64_t seed,
                      const core::ProtocolConfig& cfg = {}, bool protocol1_only = false,
                      std::ostream* runs_jsonl = nullptr);

/// Writes one run as a single JSON line (schema v2): scenario shape, outcome
/// flags, round count, the byte decomposition, observed-vs-target FPR of
/// filter S (ground truth from the scenario), and the full span sequence with
/// stage timings and peel-iteration counts. Every v1 field is preserved; v2
/// adds "schema" and "rounds". `reg` must be the registry the run executed
/// with.
void write_run_jsonl(std::ostream& out, const GrapheneRun& run, const Scenario& scenario,
                     std::uint64_t trial, std::uint64_t salt, const obs::Registry& reg);

/// Opens the path named by GRAPHENE_RUNS_JSONL for appending run records;
/// null when the variable is unset. Benches pass the result straight to
/// run_trials so `GRAPHENE_RUNS_JSONL=runs.jsonl ./bench_fig17...` captures
/// every run without touching the printed tables.
[[nodiscard]] std::unique_ptr<std::ofstream> open_runs_jsonl_from_env();

}  // namespace graphene::sim
