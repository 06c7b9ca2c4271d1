#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "iblt/param_cache.hpp"

namespace graphene::sim {

namespace {

GrapheneRun run_impl(const Scenario& scenario, std::uint64_t salt,
                     const core::ProtocolConfig& cfg, bool protocol1_only) {
  GrapheneRun run;
  run.getdata_bytes = kGetdataBytes;
  const core::Sender sender(scenario.block, salt, cfg);
  core::ReceiveSession session(scenario.receiver_mempool, cfg);
  const std::uint64_t m = scenario.receiver_mempool.size();

  if (protocol1_only) {
    const core::GrapheneBlockMsg msg = sender.encode(m).msg;
    run.bloom_s_bytes = msg.filter_s.serialized_size();
    run.iblt_i_bytes = msg.iblt_i.serialized_size();
    run.p1_decoded = session.receive_block(msg).status == core::ReceiveStatus::kDecoded;
    run.decoded = run.p1_decoded;
    return run;
  }

  const core::Relay relay = core::relay_block(sender, session, m);
  run.bloom_s_bytes = relay.block.filter_s.serialized_size();
  run.iblt_i_bytes = relay.block.iblt_i.serialized_size();
  run.decoded = relay.outcome.status == core::ReceiveStatus::kDecoded;
  run.p1_decoded = run.decoded && !relay.request;
  run.used_pingpong = relay.outcome.used_pingpong;
  if (relay.request) {
    const core::GrapheneResponseMsg& resp = *relay.response;
    run.used_protocol2 = true;
    run.bloom_r_bytes = relay.request->filter.serialized_size();
    run.iblt_j_bytes = resp.iblt_j.serialized_size();
    if (resp.filter_f) run.bloom_f_bytes = resp.filter_f->serialized_size();
    run.missing_txn_bytes += resp.missing_tx_bytes();
  }
  if (relay.repair_request) {
    run.used_repair = true;
    run.repair_bytes += relay.repair_request->serialize().size();
    run.missing_txn_bytes += relay.repair_response->serialize().size();
  }
  return run;
}

}  // namespace

GrapheneRun run_graphene(const Scenario& scenario, std::uint64_t salt,
                         const core::ProtocolConfig& cfg) {
  return run_impl(scenario, salt, cfg, /*protocol1_only=*/false);
}

GrapheneRun run_graphene_protocol1_only(const Scenario& scenario, std::uint64_t salt,
                                        const core::ProtocolConfig& cfg) {
  return run_impl(scenario, salt, cfg, /*protocol1_only=*/true);
}

void write_run_jsonl(std::ostream& out, const GrapheneRun& run, const Scenario& scenario,
                     std::uint64_t trial, std::uint64_t salt, const obs::Registry& reg) {
  obs::json::Writer w;
  w.begin_object();
  w.key("schema");
  w.number(std::uint64_t{2});
  w.key("trial");
  w.number(trial);
  w.key("salt");
  w.number(salt);
  w.key("n");
  w.number(scenario.n);
  w.key("m");
  w.number(scenario.m);

  w.key("decoded");
  w.boolean(run.decoded);
  w.key("p1_decoded");
  w.boolean(run.p1_decoded);
  w.key("used_protocol2");
  w.boolean(run.used_protocol2);
  w.key("used_repair");
  w.boolean(run.used_repair);
  w.key("used_pingpong");
  w.boolean(run.used_pingpong);
  // Kept for schema-2 readers: the engines build split-digest filters only.
  w.key("bloom_strategy");
  w.number(std::uint64_t{0});
  w.key("rounds");
  w.number(run.rounds());

  w.key("bytes");
  w.begin_object();
  w.key("getdata");
  w.number(static_cast<std::uint64_t>(run.getdata_bytes));
  w.key("bloom_s");
  w.number(static_cast<std::uint64_t>(run.bloom_s_bytes));
  w.key("iblt_i");
  w.number(static_cast<std::uint64_t>(run.iblt_i_bytes));
  w.key("bloom_r");
  w.number(static_cast<std::uint64_t>(run.bloom_r_bytes));
  w.key("iblt_j");
  w.number(static_cast<std::uint64_t>(run.iblt_j_bytes));
  w.key("bloom_f");
  w.number(static_cast<std::uint64_t>(run.bloom_f_bytes));
  w.key("missing_txn");
  w.number(static_cast<std::uint64_t>(run.missing_txn_bytes));
  w.key("repair");
  w.number(static_cast<std::uint64_t>(run.repair_bytes));
  w.key("encoding");
  w.number(static_cast<std::uint64_t>(run.encoding_bytes()));
  w.key("total");
  w.number(static_cast<std::uint64_t>(run.total_bytes()));
  w.end_object();

  // Observed vs target FPR of filter S, with ground truth from the scenario:
  // every block transaction the receiver holds passes S (no false
  // negatives), so false positives = z − |block ∩ mempool|.
  obs::TraceSpan cand;
  if (reg.trace().find("p1_candidates", &cand)) {
    std::uint64_t in_mempool = 0;
    for (const chain::TxId& id : scenario.block.tx_ids()) {
      if (scenario.receiver_mempool.contains(id)) ++in_mempool;
    }
    const auto z = static_cast<std::uint64_t>(cand.attr("z"));
    const std::uint64_t fp = z > in_mempool ? z - in_mempool : 0;
    const std::uint64_t negatives =
        scenario.m > in_mempool ? scenario.m - in_mempool : 0;
    w.key("fpr_s_target");
    w.number(cand.attr("target_fpr"));
    w.key("fp_observed");
    w.number(fp);
    w.key("fpr_s_observed");
    w.number(negatives > 0 ? static_cast<double>(fp) / static_cast<double>(negatives)
                           : 0.0);
  }

  w.key("spans");
  w.begin_array();
  for (const obs::TraceSpan& span : reg.trace().spans()) {
    w.begin_object();
    w.key("seq");
    w.number(span.seq);
    w.key("stage");
    w.string(span.stage);
    w.key("dur_ns");
    w.number(span.dur_ns);
    for (const auto& [k, v] : span.attrs) {
      w.key(k);
      w.number(v);
    }
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out << w.str() << '\n';
}

std::unique_ptr<std::ofstream> open_runs_jsonl_from_env() {
  const char* path = std::getenv("GRAPHENE_RUNS_JSONL");
  if (path == nullptr || *path == '\0') return nullptr;
  auto out = std::make_unique<std::ofstream>(path, std::ios::app);
  if (!out->is_open()) return nullptr;
  return out;
}

TrialStats run_trials(const ScenarioSpec& spec, std::uint64_t trials, std::uint64_t seed,
                      const core::ProtocolConfig& cfg, bool protocol1_only,
                      std::ostream* runs_jsonl) {
  TrialStats stats;
  stats.trials = trials;

  // One parameter cache for the whole batch unless the caller shares one
  // already; trials hit the same (a*, b+y*) keys constantly.
  iblt::ParamCache local_cache;
  core::ProtocolConfig shared = cfg;
  if (shared.param_cache == nullptr) shared.param_cache = &local_cache;

  // Every trial derives its own RNG stream from (seed, trial index), so the
  // scenario/salt draws are identical with or without JSONL capture.
  const util::Rng root(seed);
  std::vector<GrapheneRun> runs(trials);
  for (std::uint64_t t = 0; t < trials; ++t) {
    util::Rng trial_rng = root.split(t);
    const Scenario scenario = chain::make_scenario(spec, trial_rng);
    const std::uint64_t salt = trial_rng.next();
    if (runs_jsonl == nullptr) {
      runs[t] = run_impl(scenario, salt, shared, protocol1_only);
      continue;
    }
    // A fresh registry per run keeps each record's span sequence describing
    // exactly one relay, which is what a runs.jsonl record promises.
    obs::Registry reg;
    core::ProtocolConfig traced = shared;
    traced.obs = &reg;
    runs[t] = run_impl(scenario, salt, traced, protocol1_only);
    write_run_jsonl(*runs_jsonl, runs[t], scenario, t, salt, reg);
  }

  for (std::uint64_t t = 0; t < trials; ++t) {
    const GrapheneRun& run = runs[t];
    stats.p1_decode_failures += run.p1_decoded ? 0 : 1;
    stats.decode_failures += run.decoded ? 0 : 1;
    stats.pingpong_rescues += run.used_pingpong && run.decoded ? 1 : 0;
    const double w = 1.0 / static_cast<double>(t + 1);
    auto fold = [w](double& mean, double sample) { mean += (sample - mean) * w; };
    fold(stats.mean_encoding_bytes, static_cast<double>(run.encoding_bytes()));
    fold(stats.mean_getdata, static_cast<double>(run.getdata_bytes));
    fold(stats.mean_bloom_s, static_cast<double>(run.bloom_s_bytes));
    fold(stats.mean_iblt_i, static_cast<double>(run.iblt_i_bytes));
    fold(stats.mean_bloom_r, static_cast<double>(run.bloom_r_bytes));
    fold(stats.mean_iblt_j, static_cast<double>(run.iblt_j_bytes));
    fold(stats.mean_bloom_f, static_cast<double>(run.bloom_f_bytes));
    fold(stats.mean_missing_txn, static_cast<double>(run.missing_txn_bytes));
  }

  // Batch-level aggregation into the caller's registry (the per-run JSONL
  // registries above are throwaway). Counters accumulate across batches;
  // histograms feed the p50/p95/p99 summaries in to_json/to_prometheus.
  if (obs::Registry* reg = cfg.obs) {
    for (std::uint64_t t = 0; t < trials; ++t) {
      const GrapheneRun& run = runs[t];
      reg->counter("graphene_sim_trials_total").inc();
      if (!run.decoded) reg->counter("graphene_sim_decode_failures_total").inc();
      if (run.used_protocol2) reg->counter("graphene_sim_protocol2_rounds_total").inc();
      if (run.used_repair) reg->counter("graphene_sim_repair_rounds_total").inc();
      reg->histogram("graphene_sim_rounds").observe(run.rounds());
      reg->histogram("graphene_sim_encoding_bytes").observe(run.encoding_bytes());
      reg->histogram("graphene_sim_total_bytes").observe(run.total_bytes());
      reg->histogram("graphene_sim_missing_txn_bytes").observe(run.missing_txn_bytes);
    }
    reg->gauge("graphene_sim_repair_rate")
        .set(trials > 0 ? static_cast<double>(std::count_if(
                              runs.begin(), runs.end(),
                              [](const GrapheneRun& r) { return r.used_repair; })) /
                              static_cast<double>(trials)
                        : 0.0);
    shared.param_cache->export_stats(reg);
  }
  return stats;
}

}  // namespace graphene::sim
