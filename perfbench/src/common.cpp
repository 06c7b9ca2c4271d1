#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "obs/clock.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

std::uint64_t clock_ns(clockid_t clock) noexcept {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t g_process_start_ns = 0;

void write_sessions(graphene::obs::json::Writer& w, const std::vector<SessionRecord>& s) {
  // Column arrays keep the report compact and quick to load.
  w.begin_object();
  const auto column = [&](const char* name, auto get) {
    w.key(name);
    w.begin_array();
    for (const SessionRecord& r : s) w.number(static_cast<std::uint64_t>(get(r)));
    w.end_array();
  };
  column("wall_ns", [](const SessionRecord& r) { return r.wall_ns; });
  column("cpu_ns", [](const SessionRecord& r) { return r.cpu_ns; });
  column("host_cpu_ns", [](const SessionRecord& r) { return r.host_cpu_ns; });
  column("wire_bytes", [](const SessionRecord& r) { return r.wire_bytes; });
  column("round_trips", [](const SessionRecord& r) { return r.round_trips; });
  column("ok", [](const SessionRecord& r) { return r.ok ? 1U : 0U; });
  column("cls", [](const SessionRecord& r) { return r.cls; });
  column("pass", [](const SessionRecord& r) { return r.pass; });
  w.end_object();
}

}  // namespace

std::uint64_t derive(std::uint64_t seed, std::string_view workload, std::string_view stream,
                     std::uint64_t index) noexcept {
  using graphene::util::hash64;
  using graphene::util::str_bytes;
  const std::uint64_t h = hash64(str_bytes(stream), hash64(str_bytes(workload), seed));
  return graphene::util::mix64(h ^ graphene::util::mix64(index));
}

std::uint64_t pass_sessions(const Options& opts, double per_second,
                            std::uint64_t cycle) noexcept {
  const double seconds =
      opts.trace ? opts.seconds / 4.0 : opts.seconds / static_cast<double>(kPasses);
  const double wanted = std::max(1.0, std::ceil(seconds * per_second));
  const auto cycles =
      static_cast<std::uint64_t>(std::ceil(wanted / static_cast<double>(cycle)));
  return std::max<std::uint64_t>(1, cycles) * cycle;
}

std::uint64_t now_ns() noexcept { return graphene::obs::monotonic_ns(); }
std::uint64_t thread_cpu_ns() noexcept { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() noexcept { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() noexcept {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void mark_process_start() noexcept { g_process_start_ns = now_ns(); }
std::uint64_t process_start_ns() noexcept { return g_process_start_ns; }

void add_frame_bytes(Counters& c, const graphene::net::Message& msg) {
  c["net.bytes." + std::string(graphene::net::command_name(msg.type))] += msg.wire_size();
  ++c["net.frames"];
}

void write_counters(graphene::obs::json::Writer& w, const Counters& c) {
  w.begin_object();
  for (const auto& [name, value] : c) {
    w.key(name);
    w.number(value);
  }
  w.end_object();
}

void write_e2e(graphene::obs::json::Writer& w, const E2eRun& run) {
  w.begin_object();
  w.key("setup_ns");
  w.begin_array();
  for (const std::uint64_t v : run.setup_ns) w.number(v);
  w.end_array();
  w.key("sessions");
  write_sessions(w, run.sessions);
  w.key("counters");
  write_counters(w, run.counters);
  w.end_object();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text << '\n';
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
