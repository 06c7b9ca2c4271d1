// Hot-path parity gates: the batch / blocked / pooled data-plane paths must
// be bit-for-bit interchangeable with the scalar serial ones.
//
// These are exact properties, not rates, so every gate runs with
// min_rate = 1.0 — a single diverging trial fails the gate and prints the
// shrunk (n, m, fraction) counterexample. Cases come from the same testkit
// scenario lattice the theorem gates sample, so parity is checked across the
// (m, n, x, y) regimes the protocol actually visits, and every pooled check
// runs at 1, 2, and 8 workers.
#include <gtest/gtest.h>

#include <vector>

#include "bloom/bloom_filter.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "testkit/gen.hpp"
#include "testkit/stat_gate.hpp"
#include "util/thread_pool.hpp"

namespace graphene {
namespace {

constexpr bloom::HashStrategy kStrategies[] = {bloom::HashStrategy::kSplitDigest,
                                               bloom::HashStrategy::kRehash,
                                               bloom::HashStrategy::kBlocked};

testkit::ScenarioDims parity_dims() {
  testkit::ScenarioDims dims;
  dims.min_block_txns = 2;
  dims.max_block_txns = 400;
  dims.max_extra_multiple = 4.0;
  dims.min_fraction = 0.5;
  dims.max_fraction = 1.0;
  return dims;
}

std::vector<util::ByteView> id_views(const std::vector<chain::TxId>& ids) {
  std::vector<util::ByteView> views;
  views.reserve(ids.size());
  for (const chain::TxId& id : ids) views.emplace_back(id);
  return views;
}

// Bloom: for every strategy, insert_batch must build the same bits as
// scalar insert, and contains_batch / pooled contains_all must answer
// exactly like scalar contains.
TEST(HotpathParity, BloomBatchAndPooledPathsMatchScalar) {
  util::ThreadPool pools[] = {util::ThreadPool(1), util::ThreadPool(2),
                              util::ThreadPool(8)};
  const testkit::ScenarioDims dims = parity_dims();
  testkit::StatGateSpec spec;
  spec.name = "hotpath_bloom_parity";
  spec.trials = 60;
  spec.min_rate = 1.0;
  const testkit::GateResult r = testkit::StatGate(spec).run_cases<testkit::GenCase>(
      [&](util::Rng& rng) { return testkit::gen_case(rng, dims); },
      [&](const testkit::GenCase& c, util::Rng&) {
        const chain::Scenario s = testkit::build_scenario(c);
        const std::vector<chain::TxId> block_ids = s.block.tx_ids();
        const std::vector<chain::TxId> probe_ids = s.receiver_mempool.ids();
        const auto block_views = id_views(block_ids);
        const auto probe_views = id_views(probe_ids);
        for (const bloom::HashStrategy strategy : kStrategies) {
          bloom::BloomFilter scalar(block_ids.size(), 0.02, c.salt, strategy);
          for (const chain::TxId& id : block_ids) scalar.insert(util::ByteView(id));
          bloom::BloomFilter batch(block_ids.size(), 0.02, c.salt, strategy);
          batch.insert_batch(block_views.data(), block_views.size());
          if (scalar.serialize() != batch.serialize()) return false;

          std::vector<std::uint8_t> got(probe_views.size(), 0);
          batch.contains_batch(probe_views.data(), probe_views.size(), got.data());
          for (std::size_t i = 0; i < probe_ids.size(); ++i) {
            const bool want = scalar.contains(util::ByteView(probe_ids[i]));
            if (want != (got[i] != 0)) return false;
          }
          for (util::ThreadPool& pool : pools) {
            std::vector<std::uint8_t> pooled(probe_views.size(), 0);
            bloom::contains_all(batch, probe_views.data(), probe_views.size(),
                                pooled.data(), &pool);
            if (pooled != got) return false;
          }
        }
        return true;
      },
      [](const testkit::GenCase& c) { return testkit::shrink_case(c); },
      [](const testkit::GenCase& c) { return testkit::describe_case(c); });
  GRAPHENE_EXPECT_GATE(r);
}

// End to end: a full Protocol 1/2 exchange must put identical bytes on the
// wire and decode to the identical block whether cfg.pool is null or a pool
// of any size — for the default split-digest filters and for the blocked
// layout.
TEST(HotpathParity, EndToEndRunIsPoolInvariant) {
  util::ThreadPool pool2(2);
  util::ThreadPool pool8(8);
  util::ThreadPool* pools[] = {nullptr, &pool2, &pool8};
  const testkit::ScenarioDims dims = parity_dims();
  testkit::StatGateSpec spec;
  spec.name = "hotpath_e2e_parity";
  spec.trials = 40;
  spec.min_rate = 1.0;
  const testkit::GateResult r = testkit::StatGate(spec).run_cases<testkit::GenCase>(
      [&](util::Rng& rng) { return testkit::gen_case(rng, dims); },
      [&](const testkit::GenCase& c, util::Rng&) {
        const chain::Scenario s = testkit::build_scenario(c);
        for (const bloom::HashStrategy strategy :
             {bloom::HashStrategy::kSplitDigest, bloom::HashStrategy::kBlocked}) {
          util::Bytes want_block, want_req, want_resp;
          core::ReceiveStatus want_status{};
          std::vector<chain::TxId> want_ids;
          bool first = true;
          for (util::ThreadPool* pool : pools) {
            core::ProtocolConfig cfg;
            cfg.pool = pool;
            cfg.bloom_strategy = strategy;
            core::Sender sender(s.block, c.salt, cfg);
            core::ReceiveSession session(s.receiver_mempool, cfg);
            const core::GrapheneBlockMsg msg = sender.encode(s.m).msg;
            const util::Bytes block_bytes = msg.serialize();
            core::ReceiveOutcome out = session.receive_block(msg);
            util::Bytes req_bytes, resp_bytes;
            if (out.status == core::ReceiveStatus::kNeedsProtocol2) {
              const core::GrapheneRequestMsg req = session.build_request();
              req_bytes = req.serialize();
              const core::GrapheneResponseMsg resp = sender.serve(req);
              resp_bytes = resp.serialize();
              out = session.complete(resp);
            }
            if (first) {
              first = false;
              want_block = block_bytes;
              want_req = req_bytes;
              want_resp = resp_bytes;
              want_status = out.status;
              want_ids = out.block_ids;
            } else if (block_bytes != want_block || req_bytes != want_req ||
                       resp_bytes != want_resp || out.status != want_status ||
                       out.block_ids != want_ids) {
              return false;
            }
          }
        }
        return true;
      },
      [](const testkit::GenCase& c) { return testkit::shrink_case(c); },
      [](const testkit::GenCase& c) { return testkit::describe_case(c); });
  GRAPHENE_EXPECT_GATE(r);
}

}  // namespace
}  // namespace graphene
