// Telemetry overhead check: the acceptance bar for the obs subsystem is
// that a null registry (instrumentation present but not attached) costs
// no more than ~2% on the protocol hot paths — and the same bar holds for
// the flight recorder once a registry is attached and recording.
//
// Three measurements:
//   1. The Fig. 7 IBLT decode loop (iblt::measure_decode_rate) — the peel
//      loop carries unconditional iteration/residual accounting, so this is
//      where any regression versus the uninstrumented seed would show.
//   2. Full Graphene relays (sim::run_graphene) with a null registry versus
//      a live one, which bounds the cost of attaching telemetry at all.
//   3. The same relays with the flight recorder enabled (events, no wire
//      capture) versus attached-without-recorder — the gate. The baseline is
//      the attached registry, not the detached one, so the gate isolates the
//      recorder's incremental cost from the span/metric attach cost (which
//      measurement 2 reports on its own). Overhead above the bar fails the
//      bench (exit 1) so CI catches a recorder hot-path leak.
//
// Writes BENCH_obs_overhead.json (overwritten each run) for artifact upload.
// Timing is best-of-reps over interleaved batches to shrink scheduler noise;
// GRAPHENE_OBS_GATE_PCT overrides the 2% bar when a CI box is too noisy.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "iblt/param_search.hpp"
#include "iblt/param_table.hpp"
#include "obs/clock.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/table.hpp"

namespace {

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(graphene::obs::monotonic_ns() - start_ns) / 1e9;
}

}  // namespace

int main() {
  using namespace graphene;
  const std::uint64_t trials = sim::trials_from_env(3000);

  std::cout << "=== Telemetry overhead: registry detached vs attached ===\n";
  std::cout << "trials per point: " << trials << " (GRAPHENE_TRIALS to change)\n\n";

  double decode_loop_s = 0.0;

  // 1. IBLT peel hot loop (identical shape to bench_fig07_iblt_decode).
  {
    util::Rng rng(0xf16007);
    const std::uint64_t start = obs::monotonic_ns();
    double sink = 0.0;
    for (const std::uint64_t j : {20ULL, 100ULL, 500ULL}) {
      const iblt::IbltParams opt = iblt::lookup_params(j, 240);
      sink += iblt::measure_decode_rate(j, opt.k, opt.cells, trials, rng);
    }
    decode_loop_s = seconds_since(start);
    std::cout << "IBLT decode loop (j in {20,100,500}, 1/240 params): " << decode_loop_s
              << " s  [decode-rate checksum " << sink << "]\n";
    std::cout << "Compare against the seed build of bench_fig07_iblt_decode at the\n"
                 "same GRAPHENE_TRIALS; the delta must stay within noise (<= 2%).\n\n";
  }

  // 2./3. Full protocol relays: detached registry, attached registry, and
  // attached registry with the flight recorder on. The overhead under test
  // (~hundreds of ns per relay) is far below the timing noise of any single
  // run, so the estimator matters more than the sample count:
  //   * the unit of timing is one short *group* (a handful of relays of one
  //     scenario, ~5-10 ms) — short enough that stall-free windows are
  //     common, long enough that clock overhead vanishes;
  //   * each (config, scenario) cell keeps the MINIMUM group time across
  //     reps — the floor estimate a scheduler stall cannot inflate;
  //   * a config's score is the SUM of its per-scenario floors, averaging
  //     residual per-cell noise across independent cells;
  //   * group order rotates every rep so within-rep drift (frequency
  //     scaling, allocator warm-up) cannot land on one config every time.
  chain::ScenarioSpec spec;
  spec.block_txns = 500;
  spec.extra_txns = 1000;
  constexpr int kScenarios = 8;
  // The floor of 12 keeps groups ~10 ms even under GRAPHENE_FAST — any
  // shorter and per-group timing noise overwhelms the sub-1% effect.
  const std::uint64_t per_group =
      std::max<std::uint64_t>(trials / (30 * kScenarios), 12);
  constexpr int kReps = 10;

  util::Rng rng(0xab5);
  std::vector<chain::Scenario> scenarios;
  scenarios.reserve(kScenarios);
  for (int i = 0; i < kScenarios; ++i) scenarios.push_back(chain::make_scenario(spec, rng));

  const auto run_group = [&](const core::ProtocolConfig& cfg, int scenario) {
    const std::uint64_t start = obs::monotonic_ns();
    std::uint64_t decoded = 0;
    for (std::uint64_t i = 0; i < per_group; ++i) {
      const sim::GrapheneRun run =
          sim::run_graphene(scenarios[scenario], 0x9000 + i, cfg);
      decoded += run.decoded ? 1 : 0;
    }
    return std::pair<double, std::uint64_t>{seconds_since(start), decoded};
  };

  core::ProtocolConfig detached;  // obs == nullptr: the default-off path

  obs::Registry reg;
  reg.recorder().set_enabled(false);  // metrics + spans only
  core::ProtocolConfig attached;
  attached.obs = &reg;

  obs::Registry rec_reg;
  rec_reg.recorder().set_enabled(true);
  rec_reg.recorder().set_wire_capture(false);  // events on, wire capture off
  core::ProtocolConfig recording;
  recording.obs = &rec_reg;

  const core::ProtocolConfig* configs[3] = {&detached, &attached, &recording};
  double floors[3][kScenarios];
  std::uint64_t decoded_per[3] = {0, 0, 0};
  std::uint64_t spans_total = 0, events_total = 0;
  for (auto& row : floors) std::fill(row, row + kScenarios, 1e300);
  for (int r = 0; r < kReps; ++r) {
    for (int g = 0; g < kScenarios; ++g) {
      for (int i = 0; i < 3; ++i) {
        const int which = (r + i) % 3;
        const auto [s, ok] = run_group(*configs[which], g);
        floors[which][g] = std::min(floors[which][g], s);
        if (r == 0) decoded_per[which] += ok;  // one full pass is representative
      }
    }
    // Reset the span logs between reps so every group sees the same bounded
    // allocation profile — unbounded trace growth across reps is heap churn
    // that lands unevenly on the three configs.
    spans_total += reg.trace().size();
    events_total += rec_reg.recorder().total_recorded();
    reg.trace().clear();
    rec_reg.trace().clear();
    rec_reg.recorder().clear();
  }
  double cold = 0.0, hot = 0.0, rec = 0.0;
  for (int g = 0; g < kScenarios; ++g) {
    cold += floors[0][g];
    hot += floors[1][g];
    rec += floors[2][g];
  }
  const std::uint64_t relays = per_group * kScenarios;
  const std::uint64_t cold_ok = decoded_per[0];
  const std::uint64_t hot_ok = decoded_per[1];
  const std::uint64_t rec_ok = decoded_per[2];

  const double attach_pct = cold > 0.0 ? (hot - cold) / cold * 100.0 : 0.0;
  const double recorder_pct = hot > 0.0 ? (rec - hot) / hot * 100.0 : 0.0;
  std::cout << "Graphene relays (n=500, m=1500, " << relays << " runs, best of "
            << kReps << "):\n";
  std::cout << "  registry detached:  " << cold << " s (" << cold_ok << " decoded)\n";
  std::cout << "  registry attached:  " << hot << " s (" << hot_ok << " decoded)\n";
  std::cout << "  recorder enabled:   " << rec << " s (" << rec_ok << " decoded)\n";
  std::cout << "  attach overhead:    " << attach_pct << " % (vs detached)\n";
  std::cout << "  recorder overhead:  " << recorder_pct << " % (vs attached)\n";
  std::cout << "  spans recorded:     " << spans_total << "\n";
  std::cout << "  flight events:      " << events_total << "\n";

  double gate_pct = 2.0;
  if (const char* env = std::getenv("GRAPHENE_OBS_GATE_PCT");
      env != nullptr && *env != '\0') {
    gate_pct = std::atof(env);
  }
  const bool gate_pass = recorder_pct <= gate_pct;

  {
    obs::json::Writer w;
    w.begin_object();
    w.key("bench");
    w.string("obs_overhead");
    w.key("trials");
    w.number(trials);
    w.key("relays");
    w.number(relays);
    w.key("reps");
    w.number(std::uint64_t{kReps});
    w.key("decode_loop_s");
    w.number(decode_loop_s);
    w.key("detached_s");
    w.number(cold);
    w.key("attached_s");
    w.number(hot);
    w.key("recorder_s");
    w.number(rec);
    w.key("attach_overhead_pct");
    w.number(attach_pct);
    w.key("recorder_overhead_pct");
    w.number(recorder_pct);
    w.key("gate_pct");
    w.number(gate_pct);
    w.key("gate_pass");
    w.boolean(gate_pass);
    w.key("flight_events");
    w.number(events_total);
    w.end_object();
    std::ofstream json("BENCH_obs_overhead.json");
    json << w.str() << '\n';
  }
  std::cout << "\nwrote BENCH_obs_overhead.json — recorder gate ("
            << gate_pct << "%) " << (gate_pass ? "PASS" : "FAIL") << "\n";
  return gate_pass ? 0 : 1;
}
