// Relay daemon under load: one RelayDaemon on localhost serving the full
// loadgen engine — by default 1000 concurrent TCP peers per backend, each
// running several reconcile sessions back to back on one connection.
//
// Reports sustained sessions/sec and p50/p95/p99 session latency, both
// exact (loadgen's recorded latencies) and from the src/obs log-bucketed
// histogram the engine mirrors into, and writes BENCH_daemon.json
// (overwritten each run) for CI artifact upload. Exits non-zero if session
// failures exceed the protocol's own 1 − β budget, any connection errors,
// or the daemon leaks a connection — the CI smoke leg doubles as the load
// acceptance gate.
//
// One ParamCache is shared by the daemon and every loadgen worker of both
// legs: Algorithm 1 runs once per set size, not once per session. Each leg
// gets an obs::Registry of its own, shared by its daemon and loadgen, so a
// leg's histogram quantiles count only that leg's sessions.
// Honors GRAPHENE_FAST=1 (128 peers instead of 1000) and GRAPHENE_DAEMON_PEERS.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "daemon/daemon.hpp"
#include "daemon/loadgen.hpp"
#include "iblt/param_cache.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"

namespace {

using namespace graphene;

reconcile::ItemSet random_set(util::Rng& rng, std::uint64_t count) {
  reconcile::ItemSet out;
  out.reserve(count);
  while (out.size() < count) {
    reconcile::ItemDigest d;
    for (auto& byte : d) byte = static_cast<std::uint8_t>(rng.next());
    out.insert(d);
  }
  return out;
}

/// The bench holds both ends of every connection in one process, so the
/// default soft fd limit (often 1024) is the first bottleneck — raise it to
/// the hard limit before opening anything.
void raise_fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &lim);
  }
}

struct BackendRun {
  const char* name;
  daemon::LoadgenReport report;
  daemon::DaemonStats stats;
  std::uint64_t hist_p50 = 0, hist_p95 = 0, hist_p99 = 0;
  bool ok = false;
};

}  // namespace

int main() {
  raise_fd_limit();
  const char* fast_env = std::getenv("GRAPHENE_FAST");
  const bool fast = fast_env != nullptr && *fast_env == '1';
  std::uint64_t peers = fast ? 128 : 1000;
  if (const char* env = std::getenv("GRAPHENE_DAEMON_PEERS")) {
    peers = std::max(1ul, std::strtoul(env, nullptr, 10));
  }
  const std::uint64_t sessions_per_conn = 4;
  const std::uint64_t workers =
      std::clamp<std::uint64_t>(std::thread::hardware_concurrency(), 2, 8);

  util::Rng rng(0xdae0510ad);
  const reconcile::ItemSet shared = random_set(rng, 450);
  reconcile::ItemSet host_items = shared;
  for (const reconcile::ItemDigest& d : random_set(rng, 50)) host_items.insert(d);
  reconcile::ItemSet client_items = shared;
  for (const reconcile::ItemDigest& d : random_set(rng, 30)) client_items.insert(d);

  iblt::ParamCache cache;

  std::printf("=== Relay daemon load: %llu peers x %llu sessions, %llu workers ===\n\n",
              static_cast<unsigned long long>(peers),
              static_cast<unsigned long long>(sessions_per_conn),
              static_cast<unsigned long long>(workers));

  struct BackendSpec {
    core::ReconcileBackend id;
    const char* name;
  };
  const BackendSpec backends[] = {
      {core::ReconcileBackend::kGraphene, "graphene"},
      {core::ReconcileBackend::kRatelessIblt, "rateless_iblt"},
  };

  std::vector<BackendRun> runs;
  bool gate_ok = true;
  for (const BackendSpec& backend : backends) {
    obs::Registry reg;
    daemon::DaemonOptions opts;
    opts.protocol.param_cache = &cache;
    opts.protocol.obs = &reg;
    opts.max_connections = peers + 64;
    daemon::RelayDaemon served(host_items, opts);
    const std::uint16_t port = served.listen("127.0.0.1", 0);
    if (port == 0) {
      std::fprintf(stderr, "bench_daemon_load: cannot bind localhost\n");
      return 1;
    }
    served.start();

    daemon::LoadgenOptions lg;
    lg.port = port;
    lg.connections = peers;
    lg.sessions_per_conn = sessions_per_conn;
    lg.workers = workers;
    lg.items = &client_items;
    lg.protocol.reconcile_backend = backend.id;
    lg.protocol.param_cache = &cache;
    lg.protocol.obs = &reg;
    lg.deadline_ns = 300ULL * 1000 * 1000 * 1000;

    BackendRun run;
    run.name = backend.name;
    run.report = daemon::run_loadgen(lg);
    served.stop();
    run.stats = served.stats();

    const auto& hist = reg.histogram("loadgen_session_ns");
    run.hist_p50 = hist.quantile(0.50);
    run.hist_p95 = hist.quantile(0.95);
    run.hist_p99 = hist.quantile(0.99);

    // Graphene promises β-assurance (239/240), not certainty: a session can
    // exhaust repair and fail honestly, so the gate budgets failures at the
    // protocol's own 1 − β rate (min 1) instead of demanding zero.
    const std::uint64_t expected = peers * sessions_per_conn;
    const std::uint64_t failure_budget = std::max<std::uint64_t>(1, expected / 240);
    run.ok = run.report.sessions_ok + run.report.sessions_failed == expected &&
             run.report.sessions_failed <= failure_budget &&
             run.report.conn_errors == 0 && served.open_connections() == 0 &&
             run.stats.conns_opened == run.stats.conns_closed;
    gate_ok = gate_ok && run.ok;

    std::printf("--- %s ---\n", run.name);
    std::printf("  sessions ok/failed: %llu / %llu   conn errors: %llu\n",
                static_cast<unsigned long long>(run.report.sessions_ok),
                static_cast<unsigned long long>(run.report.sessions_failed),
                static_cast<unsigned long long>(run.report.conn_errors));
    std::printf("  sustained: %.0f sessions/sec over %.2f s\n",
                run.report.sessions_per_sec,
                static_cast<double>(run.report.elapsed_ns) / 1e9);
    std::printf("  latency exact  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
                static_cast<double>(run.report.p50_ns) / 1e6,
                static_cast<double>(run.report.p95_ns) / 1e6,
                static_cast<double>(run.report.p99_ns) / 1e6);
    std::printf("  latency obs    p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
                static_cast<double>(run.hist_p50) / 1e6,
                static_cast<double>(run.hist_p95) / 1e6,
                static_cast<double>(run.hist_p99) / 1e6);
    std::printf("  daemon: %llu conns, %llu sessions ok, %llu failed\n\n",
                static_cast<unsigned long long>(run.stats.conns_opened),
                static_cast<unsigned long long>(run.stats.sessions_ok),
                static_cast<unsigned long long>(run.stats.sessions_failed));
    runs.push_back(run);
  }

  std::ofstream json("BENCH_daemon.json");
  obs::json::Writer w;
  w.begin_object();
  w.key("peers");
  w.number(peers);
  w.key("sessions_per_conn");
  w.number(sessions_per_conn);
  w.key("workers");
  w.number(workers);
  w.key("gate_ok");
  w.boolean(gate_ok);
  w.key("backends");
  w.begin_array();
  for (const BackendRun& run : runs) {
    w.begin_object();
    w.key("backend");
    w.string(run.name);
    w.key("sessions_ok");
    w.number(run.report.sessions_ok);
    w.key("sessions_failed");
    w.number(run.report.sessions_failed);
    w.key("conn_errors");
    w.number(run.report.conn_errors);
    w.key("elapsed_s");
    w.number(static_cast<double>(run.report.elapsed_ns) / 1e9);
    w.key("sessions_per_sec");
    w.number(run.report.sessions_per_sec);
    w.key("p50_ms");
    w.number(static_cast<double>(run.report.p50_ns) / 1e6);
    w.key("p95_ms");
    w.number(static_cast<double>(run.report.p95_ns) / 1e6);
    w.key("p99_ms");
    w.number(static_cast<double>(run.report.p99_ns) / 1e6);
    w.key("obs_p50_ms");
    w.number(static_cast<double>(run.hist_p50) / 1e6);
    w.key("obs_p95_ms");
    w.number(static_cast<double>(run.hist_p95) / 1e6);
    w.key("obs_p99_ms");
    w.number(static_cast<double>(run.hist_p99) / 1e6);
    w.key("bytes_in");
    w.number(run.report.bytes_in);
    w.key("bytes_out");
    w.number(run.report.bytes_out);
    w.key("ok");
    w.boolean(run.ok);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  json << w.str() << '\n';
  std::printf("wrote BENCH_daemon.json\n");

  if (!gate_ok) {
    std::printf("GATE FAILED: sessions failed, connections errored, or leaked\n");
    return 1;
  }
  std::printf("gate ok: both backends stayed within the beta failure budget\n");
  return 0;
}
