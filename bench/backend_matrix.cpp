// Backend matrix: Graphene (Bloom+IBLT) vs Rateless IBLT across (x, y)
// divergence regimes, where x = items only the host has and y = items only
// the client has.
//
// Three numbers per cell and backend: mean wire bytes, mean coded symbols
// consumed (rateless only; 0 for Graphene), and mean one-way round trips.
// Graphene additionally reports how often it needed a repair round (the
// decode-failure Request/fetch path); the rateless backend must never use
// one — continuation chunks are flow control, not repairs — and this bench
// exits non-zero if any rateless cell fails or takes a repair round, so the
// CI smoke leg doubles as the tentpole's acceptance gate. It also exits
// non-zero when the rateless round trips, averaged over one shared size's
// cells, exceed kMaxMeanRatelessRoundTrips: chunks sized from the session's
// own estimate of d finish in about 1.5, where a fixed doubling schedule
// took 3.7.
//
// Prints ASCII tables and writes BENCH_backends.json (overwritten each run)
// for CI artifact upload. Honors GRAPHENE_FAST=1 and GRAPHENE_TRIALS.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "reconcile/set_reconciler.hpp"
#include "sim/scenario.hpp"
#include "sim/table.hpp"
#include "util/random.hpp"

namespace {

using namespace graphene;

/// Most rateless round trips a shared size's cells may take on average.
constexpr double kMaxMeanRatelessRoundTrips = 2.0;

struct CellSpec {
  std::uint64_t shared;
  std::uint64_t x;  // host-only items
  std::uint64_t y;  // client-only items
};

struct CellResult {
  std::string backend;
  CellSpec spec{};
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;
  std::uint64_t repair_rounds = 0;  // trials that used a request/fetch round
  double mean_bytes = 0;
  double mean_symbols = 0;
  double mean_round_trips = 0;
};

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

CellResult run_cell(core::ReconcileBackend backend, const char* backend_name,
                    const CellSpec& spec, std::uint64_t trials, util::Rng& rng) {
  CellResult cell;
  cell.backend = backend_name;
  cell.spec = spec;
  cell.trials = trials;

  double bytes_sum = 0, symbols_sum = 0, trips_sum = 0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    const reconcile::ItemSet shared_items = random_set(rng, spec.shared);
    reconcile::ItemSet host_items = shared_items;
    for (const reconcile::ItemDigest& d : random_set(rng, spec.x)) host_items.insert(d);
    reconcile::ItemSet client_items = shared_items;
    for (const reconcile::ItemDigest& d : random_set(rng, spec.y)) {
      client_items.insert(d);
    }

    core::ProtocolConfig cfg;
    cfg.reconcile_backend = backend;
    reconcile::Outcome out;
    const reconcile::SyncStats stats =
        reconcile::reconcile_one_way(host_items, rng.next(), client_items, cfg, out);

    const bool exact = stats.success && out.host_set == host_items;
    cell.failures += exact ? 0 : 1;
    cell.repair_rounds += (stats.used_request_round || stats.used_fetch_round) ? 1 : 0;
    bytes_sum += static_cast<double>(stats.total_bytes());
    symbols_sum += static_cast<double>(stats.symbols_consumed);
    trips_sum += static_cast<double>(stats.round_trips);
  }
  const auto n = static_cast<double>(trials);
  cell.mean_bytes = bytes_sum / n;
  cell.mean_symbols = symbols_sum / n;
  cell.mean_round_trips = trips_sum / n;
  return cell;
}

}  // namespace

int main() {
  const char* fast_env = std::getenv("GRAPHENE_FAST");
  const bool fast = fast_env != nullptr && *fast_env == '1';
  const std::uint64_t trials = sim::trials_from_env(20);  // FAST=1 → 2

  std::vector<std::uint64_t> shared_sizes = {200, 2000};
  if (!fast) shared_sizes.push_back(8000);
  const std::uint64_t divergences[][2] = {
      // {x, y}: host-only, client-only
      {1, 0}, {10, 0}, {10, 10}, {50, 5}, {100, 100}, {400, 40},
  };

  struct Backend {
    core::ReconcileBackend id;
    const char* name;
  };
  const Backend backends[] = {
      {core::ReconcileBackend::kGraphene, "graphene"},
      {core::ReconcileBackend::kRatelessIblt, "rateless_iblt"},
  };

  std::printf("=== Backend matrix: Graphene vs Rateless IBLT (trials %llu) ===\n\n",
              static_cast<unsigned long long>(trials));

  util::Rng rng(0xbac7e7d);
  std::vector<CellResult> results;
  bool rateless_gate_ok = true;
  bool round_trip_gate_ok = true;

  for (const std::uint64_t shared : shared_sizes) {
    sim::TablePrinter table({"x (host-only)", "y (client-only)", "backend", "bytes",
                             "symbols", "round trips", "repairs", "failures"});
    double rateless_trips_sum = 0;
    for (const auto& d : divergences) {
      for (const Backend& b : backends) {
        const CellSpec spec{shared, d[0], d[1]};
        const CellResult cell = run_cell(b.id, b.name, spec, trials, rng);
        if (b.id == core::ReconcileBackend::kRatelessIblt) {
          if (cell.failures != 0 || cell.repair_rounds != 0) rateless_gate_ok = false;
          rateless_trips_sum += cell.mean_round_trips;
        }
        table.add_row({std::to_string(spec.x), std::to_string(spec.y), cell.backend,
                       sim::format_bytes(cell.mean_bytes),
                       sim::format_double(cell.mean_symbols, 1),
                       sim::format_double(cell.mean_round_trips, 2),
                       std::to_string(cell.repair_rounds),
                       std::to_string(cell.failures)});
        results.push_back(cell);
      }
    }
    const double rateless_trips =
        rateless_trips_sum / static_cast<double>(std::size(divergences));
    if (rateless_trips > kMaxMeanRatelessRoundTrips) round_trip_gate_ok = false;
    std::printf("--- shared pool %llu items ---\n",
                static_cast<unsigned long long>(shared));
    table.print(std::cout);
    std::printf("rateless round trips, mean over cells: %.2f (gate %.1f)\n\n",
                rateless_trips, kMaxMeanRatelessRoundTrips);
  }

  std::ofstream json("BENCH_backends.json");
  obs::json::Writer w;
  w.begin_object();
  w.key("trials");
  w.number(trials);
  w.key("rateless_zero_repair_gate");
  w.boolean(rateless_gate_ok);
  w.key("rateless_round_trip_gate");
  w.boolean(round_trip_gate_ok);
  w.key("cells");
  w.begin_array();
  for (const CellResult& cell : results) {
    w.begin_object();
    w.key("backend");
    w.string(cell.backend);
    w.key("shared");
    w.number(cell.spec.shared);
    w.key("x");
    w.number(cell.spec.x);
    w.key("y");
    w.number(cell.spec.y);
    w.key("bytes");
    w.number(cell.mean_bytes);
    w.key("symbols");
    w.number(cell.mean_symbols);
    w.key("round_trips");
    w.number(cell.mean_round_trips);
    w.key("repair_rounds");
    w.number(cell.repair_rounds);
    w.key("failures");
    w.number(cell.failures);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  json << w.str() << '\n';
  std::printf("wrote BENCH_backends.json\n");

  if (!rateless_gate_ok) {
    std::printf("GATE FAILED: rateless backend used a repair round or failed a cell\n");
    return 1;
  }
  if (!round_trip_gate_ok) {
    std::printf("GATE FAILED: rateless round trips averaged over %.1f at a shared size\n",
                kMaxMeanRatelessRoundTrips);
    return 1;
  }
  std::printf("gate ok: rateless completed every cell with zero repair round trips\n");
  std::printf("gate ok: rateless round trips averaged at most %.1f at every shared size\n",
              kMaxMeanRatelessRoundTrips);
  return 0;
}
