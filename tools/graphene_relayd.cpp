// Relay daemon CLI: serves reconcile sessions over TCP until SIGINT/SIGTERM.
//
//   graphene_relayd [--host 127.0.0.1] [--port 9723] [--items 500]
//                   [--seed 0x5eed] [--diff n] [--max-conns 8192]
//
// The served set is derived from (--seed, --items) via relayd_set.hpp;
// point a `loadgen` with the same flags at it and every session reconciles.
// On shutdown the daemon aborts in-flight sessions with a typed error and
// prints its lifetime stats.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "daemon/daemon.hpp"
#include "iblt/param_cache.hpp"
#include "relayd_set.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

std::uint64_t flag_u64(int argc, char** argv, const char* name, std::uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::strtoull(argv[i + 1], nullptr, 0);
  }
  return fallback;
}

const char* flag_str(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

void usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--host H] [--port P] [--items N] [--seed S] [--max-conns N]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graphene;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      usage(stdout, argv[0]);
      return 0;
    }
  }
  const char* host = flag_str(argc, argv, "--host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(flag_u64(argc, argv, "--port", 9723));
  const std::uint64_t items = flag_u64(argc, argv, "--items", 500);
  const std::uint64_t seed = flag_u64(argc, argv, "--seed", 0x5eed);

  iblt::ParamCache cache;
  daemon::DaemonOptions opts;
  opts.protocol.param_cache = &cache;
  const std::uint64_t max_conns = flag_u64(argc, argv, "--max-conns", opts.max_connections);
  if (max_conns > UINT32_MAX) {
    usage(stderr, argv[0]);
    return 2;
  }
  opts.max_connections = static_cast<std::uint32_t>(max_conns);

  daemon::RelayDaemon served(tools::host_set(seed, items), opts);
  const std::uint16_t bound = served.listen(host, port);
  if (bound == 0) {
    std::fprintf(stderr, "graphene_relayd: cannot bind %s:%u\n", host, port);
    return 1;
  }
  served.start();
  std::printf("graphene_relayd: serving %llu items on %s:%u (seed %#llx)\n",
              static_cast<unsigned long long>(items), host, bound,
              static_cast<unsigned long long>(seed));

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  served.stop();
  const daemon::DaemonStats stats = served.stats();
  std::printf("graphene_relayd: %llu conns, %llu sessions ok, %llu failed\n",
              static_cast<unsigned long long>(stats.conns_opened),
              static_cast<unsigned long long>(stats.sessions_ok),
              static_cast<unsigned long long>(stats.sessions_failed));
  return 0;
}
