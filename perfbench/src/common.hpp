// Shared plumbing of the perfbench binary: options, seed derivation, clocks,
// the raw per-session records every workload produces, and the report file
// run.py turns into metrics.
//
// The binary measures and counts; it computes no statistics. Quantiles, the
// link model and the per-layer aggregation live in perfbench/metrics.py, so
// one unit-tested implementation serves both run.py and trace_report.py.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.hpp"
#include "obs/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out;  ///< report path
  /// ProtocolConfig::fail_denom of relay_block. Only the self-test lowers it,
  /// to make Protocol 2 decodes fail and ping-pong decoding run.
  std::uint32_t fail_denom = 240;
};

/// An untraced run splits its sessions into kPasses passes and sets up
/// afresh kSetupsPerPass times before each, so the set-ups it reports the
/// median of are spread over the run like the sessions are.
constexpr std::uint64_t kPasses = 5;
constexpr std::uint64_t kSetupsPerPass = 2;

/// Every input and salt is a pure function of (seed, workload, stream, index),
/// so one seed reproduces a run's inputs, salts and session order exactly.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::string_view workload,
                                   std::string_view stream, std::uint64_t index = 0) noexcept;

/// Fixed session counts: the sessions of one pass, `per_second` per
/// requested second of the pass, rounded up to whole cycles of `cycle`
/// sessions. Never "run until time is up", so byte, trip and ok counts
/// repeat exactly for one seed. An untraced run splits --seconds over its
/// kPasses passes; a traced run makes one pass of a quarter of --seconds
/// (its per-layer means need fewer samples than a p99 does, and its replays
/// cost several times the untraced session each).
[[nodiscard]] std::uint64_t pass_sessions(const Options& opts, double per_second,
                                          std::uint64_t cycle) noexcept;

[[nodiscard]] std::uint64_t now_ns() noexcept;            ///< steady clock
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;     ///< CLOCK_THREAD_CPUTIME_ID
[[nodiscard]] std::uint64_t process_cpu_ns() noexcept;    ///< CLOCK_PROCESS_CPUTIME_ID
[[nodiscard]] double peak_rss_mb() noexcept;

/// Process start as seen by main(); the first set-up is timed from here.
void mark_process_start() noexcept;
[[nodiscard]] std::uint64_t process_start_ns() noexcept;

/// One measured session (a relayed block or a daemon reconciliation).
struct SessionRecord {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;       ///< process CPU
  std::uint64_t host_cpu_ns = 0;  ///< serving-side thread CPU
  std::uint64_t wire_bytes = 0;   ///< framed bytes, both directions
  std::uint32_t round_trips = 0;
  bool ok = false;
  std::uint8_t cls = 0;           ///< input class (block kind or divergence cell)
  std::uint32_t pass = 0;
};

/// Named exact counts (bytes per command, rounds taken, symbols ...).
using Counters = std::map<std::string, std::uint64_t>;

void add_frame_bytes(Counters& c, const graphene::net::Message& msg);

/// What a run found wrong. Any entry makes the run incorrect: a wrong result
/// reported as success, a daemon error frame, a connection error, or a
/// connection left open after stop().
using Errors = std::vector<std::string>;

/// Result of the end-to-end (untraced) run of one workload.
struct E2eRun {
  std::vector<std::uint64_t> setup_ns;  ///< one per set-up
  std::vector<SessionRecord> sessions;  ///< every pass
  Counters counters;
};

void write_counters(graphene::obs::json::Writer& w, const Counters& c);
void write_e2e(graphene::obs::json::Writer& w, const E2eRun& run);

/// Writes `text` to `path`; false on I/O failure.
[[nodiscard]] bool write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
