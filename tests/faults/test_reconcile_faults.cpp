// Fault injection for the generic set reconciler (the Graphene backend's
// two sides, driven message by message).
//
// Same property as the block-relay suite: under any seeded fault schedule
// the one-way reconciliation terminates with either the host's exact set, a
// typed error, or a bounded abort — never a hang or a silently wrong set
// (the offer's xor-of-short-id checksum is the exactness guard).
#include <gtest/gtest.h>

#include "graphene/errors.hpp"
#include "reconcile/graphene_backend.hpp"
#include "testkit/faulty_channel.hpp"
#include "testkit/gen.hpp"
#include "testkit/stat_gate.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {
namespace {

ItemSet random_set(util::Rng& rng, std::uint64_t count) {
  ItemSet out;
  out.reserve(count);
  while (out.size() < count) {
    ItemDigest d;
    for (auto& byte : d) byte = static_cast<std::uint8_t>(rng.next());
    out.insert(d);
  }
  return out;
}

enum class End : std::uint8_t { kExactSet, kTypedError, kAborted, kWrongSet };

constexpr int kMaxAttemptsPerStep = 3;

/// Pushes one message through the faulty link and hands each copy that
/// arrives, re-typed as the original message, to `accept` until one parses.
/// Returns false when none did. Retries a few times so pure drops do not
/// dominate the sweep.
template <typename Accept>
bool deliver(testkit::FaultyChannel& ch, net::Direction dir, const WireMsg& msg,
             const Accept& accept) {
  for (int attempt = 0; attempt < kMaxAttemptsPerStep; ++attempt) {
    std::vector<util::Bytes> buffers =
        ch.transmit(dir, net::MessageType::kInv, msg.payload);
    if (attempt + 1 == kMaxAttemptsPerStep) {
      for (util::Bytes& held : ch.flush(dir)) buffers.push_back(std::move(held));
    }
    for (util::Bytes& b : buffers) {
      try {
        accept(WireMsg{msg.type, std::move(b)});
        return true;
      } catch (const util::DeserializeError&) {
      }
    }
  }
  return false;
}

End run_reconcile_through_faults(util::Rng& rng, const testkit::FaultSpec& faults) {
  const std::uint64_t host_count = 1 + rng.below(300);
  const std::uint64_t shared = rng.below(host_count + 1);
  const ItemSet host_items = random_set(rng, host_count);
  ItemSet client_items;
  for (const ItemDigest& d : host_items) {
    if (client_items.size() >= shared) break;
    client_items.insert(d);
  }
  for (const ItemDigest& d : random_set(rng, rng.below(300))) client_items.insert(d);

  const core::ProtocolConfig cfg;
  const auto host = make_host_backend(host_items, /*salt=*/rng.next(), cfg);
  const auto client = make_client_backend(client_items, cfg);
  testkit::FaultyChannel ch(faults);

  try {
    Outcome out;
    const auto to_client = [&](const WireMsg& m) { out = client->absorb_wire(m); };
    if (!deliver(ch, net::Direction::kSenderToReceiver, host->open(client_items.size()),
                 to_client)) {
      return End::kAborted;
    }
    // The request and fetch rounds, as the outcomes ask for them; the
    // client fails any message out of that order.
    for (std::uint32_t round = 0;
         needs_more(out.status) && round < cfg.reconcile_round_cap; ++round) {
      WireMsg response;
      if (!deliver(ch, net::Direction::kReceiverToSender, client->next_request(),
                   [&](const WireMsg& m) { response = host->serve_wire(m); }) ||
          !deliver(ch, net::Direction::kSenderToReceiver, response, to_client)) {
        return End::kAborted;
      }
    }

    // Any state short of kComplete after the protocol's rounds is a bounded,
    // reported failure — the checksum refused to certify.
    if (out.status != Outcome::Status::kComplete) return End::kTypedError;
    return out.host_set == host_items ? End::kExactSet : End::kWrongSet;
  } catch (const core::ProtocolError&) {
    return End::kTypedError;
  } catch (const util::DeserializeError&) {
    return End::kTypedError;
  }
}

TEST(ReconcileFaults, TerminatesWithExactSetOrTypedFailure) {
  const double kProfiles[][5] = {
      // drop, duplicate, reorder, truncate, bitflip
      {0.15, 0.0, 0.0, 0.0, 0.0},
      {0.0, 0.3, 0.3, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.25, 0.25},
      {0.08, 0.15, 0.15, 0.12, 0.12},
  };
  for (const auto& p : kProfiles) {
    testkit::StatGateSpec spec;
    spec.name = "reconcile_faults";
    spec.trials = 50;
    spec.min_rate = 0.0;
    std::uint64_t wrong = 0;
    const testkit::GateResult r =
        testkit::StatGate(spec).run([&](util::Rng& rng, std::uint64_t) {
          testkit::FaultSpec f;
          f.drop = p[0];
          f.duplicate = p[1];
          f.reorder = p[2];
          f.truncate = p[3];
          f.bitflip = p[4];
          f.seed = rng.next();
          const End end = run_reconcile_through_faults(rng, f);
          if (end == End::kWrongSet) ++wrong;
          return end != End::kWrongSet;
        });
    GRAPHENE_ASSERT_GATE(r);
    ASSERT_EQ(wrong, 0u);
  }
}

TEST(ReconcileFaults, CleanLinkReconcilesExactly) {
  testkit::StatGateSpec spec;
  spec.name = "reconcile_control";
  spec.trials = 60;
  spec.min_rate = 0.95;
  const testkit::GateResult r =
      testkit::StatGate(spec).run([&](util::Rng& rng, std::uint64_t) {
        return run_reconcile_through_faults(rng, testkit::FaultSpec{}) ==
               End::kExactSet;
      });
  GRAPHENE_EXPECT_GATE(r);
}

TEST(ReconcileFaults, HostRejectsOversizedSizingFields) {
  // Regression guard for the serve() revalidation: a request whose
  // fields pass the individual wire caps but whose b + y* would allocate an
  // IBLT beyond kMaxIbltCells must throw a typed error, not allocate.
  util::Rng rng(91);
  const ItemSet items = random_set(rng, 20);
  const auto host = make_host_backend(items, 5, {});
  core::GrapheneRequestMsg req;
  req.z = 10;
  req.b = util::wire::kMaxSizingParam;
  req.y_star = util::wire::kMaxSizingParam;
  req.fpr_r = 0.1;
  req.filter = bloom::BloomFilter(10, 0.1, 1);
  EXPECT_THROW((void)host->serve_wire({net::MessageType::kReconcileRequest, req.serialize()}),
               core::ProtocolError);

  // An fpr outside (0, 1] never reaches serve(): the parser refuses it.
  core::GrapheneRequestMsg nan_req;
  nan_req.z = 10;
  nan_req.b = 1;
  nan_req.y_star = 1;
  nan_req.fpr_r = 0.0;
  nan_req.filter = bloom::BloomFilter(10, 0.1, 1);
  EXPECT_THROW(
      (void)host->serve_wire({net::MessageType::kReconcileRequest, nan_req.serialize()}),
      util::DeserializeError);
}

TEST(ReconcileFaults, FetchServesEachShortIdOnce) {
  // A fetch that repeats a short ID buys its digest once, not 32 bytes per
  // 8-byte repeat: a reply never holds more than the host's set.
  util::Rng rng(92);
  const ItemSet items = random_set(rng, 20);
  const auto host = make_host_backend(items, 5, {});
  const WireMsg opening = host->open(0);
  util::ByteReader reader{util::ByteView(opening.payload)};
  const std::uint64_t salt = Offer::deserialize(reader).salt;
  const ItemDigest& item = *items.begin();
  core::RepairRequestMsg fetch;
  fetch.short_ids.assign(
      1000, core::short_id_of(item, salt, core::EngineKeys{.sid_key = 0x6a09e667f3bcc908ULL},
                              core::ProtocolConfig{}));
  const WireMsg reply =
      host->serve_wire({net::MessageType::kReconcileFetch, fetch.serialize()});
  util::ByteReader reply_reader{util::ByteView(reply.payload)};
  EXPECT_EQ(FetchResponse::deserialize(reply_reader).items, std::vector<ItemDigest>{item});
}

}  // namespace
}  // namespace graphene::reconcile
