// Load-generator engine for the relay daemon.
//
// run_loadgen() opens `connections` concurrent TCP clients against a daemon,
// runs `sessions_per_conn` back-to-back reconciliation sessions on each, and
// reports throughput plus exact session-latency quantiles. Every connection
// is established before the first session starts, so a daemon's
// live-connection cap admits the same number of them on every run. Worker threads
// each own an epoll instance and a slice of the connections, so one process
// can sustain thousands of concurrent peers; tools/loadgen and
// bench/daemon_load are thin wrappers around this engine, and the session
// protocol itself is the same ClientSession the deterministic tests drive.
#pragma once

#include <cstdint>
#include <string>

#include "graphene/params.hpp"
#include "reconcile/types.hpp"

namespace graphene::daemon {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Concurrent connections held open across the whole run.
  std::uint32_t connections = 64;
  /// Sessions each connection runs back-to-back before closing.
  std::uint32_t sessions_per_conn = 1;
  /// Worker threads; connections are split evenly across them.
  std::uint32_t workers = 4;
  /// Client set each session reconciles toward the daemon's set. Borrowed.
  const reconcile::ItemSet* items = nullptr;
  /// Backend choice, round cap, and obs registry for the clients.
  core::ProtocolConfig protocol;
  /// Whole-run deadline; connections still in flight then count as failed.
  std::uint64_t deadline_ns = 120ULL * 1000 * 1000 * 1000;
};

struct LoadgenReport {
  std::uint64_t sessions_ok = 0;
  std::uint64_t sessions_failed = 0;
  /// Connections that died outside the protocol (connect/reset/deadline).
  std::uint64_t conn_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t elapsed_ns = 0;
  double sessions_per_sec = 0.0;
  /// Exact quantiles over per-session wall latency (hello sent → outcome).
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// Runs the load. Throws std::runtime_error if options are unusable (no
/// items, zero connections). Also mirrors per-session latencies into
/// protocol.obs ("loadgen_session_ns") when a registry is attached.
LoadgenReport run_loadgen(const LoadgenOptions& opts);

}  // namespace graphene::daemon
