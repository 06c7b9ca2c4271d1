// Fault injection for the wire-level backend drivers, rateless included.
//
// Property: under any seeded fault schedule (drop / duplicate / reorder /
// truncate / bitflip), a backend session terminates within the round cap
// with either the host's exact set, a typed error, or a bounded abort —
// never a hang and never a silently wrong set. For the rateless backend the
// exactness guard is the stream checksum (xor of per-item checksums); for
// Graphene it is the offer's short-ID checksum.
#include <gtest/gtest.h>

#include <optional>

#include "graphene/errors.hpp"
#include "reconcile/rateless_backend.hpp"
#include "testkit/faulty_channel.hpp"
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

/// Pushes one WireMsg payload through the faulty link; returns the first
/// delivered (possibly corrupted) payload, re-typed as the original message
/// type. Retries a few times so pure drops do not dominate the sweep.
std::optional<WireMsg> deliver(testkit::FaultyChannel& ch, net::Direction dir,
                               const WireMsg& msg) {
  for (int attempt = 0; attempt < kMaxAttemptsPerStep; ++attempt) {
    std::vector<util::Bytes> buffers = ch.transmit(dir, msg.type, msg.payload);
    if (attempt + 1 == kMaxAttemptsPerStep) {
      for (util::Bytes& held : ch.flush(dir)) buffers.push_back(std::move(held));
    }
    if (!buffers.empty()) {
      WireMsg out;
      out.type = msg.type;
      out.payload = std::move(buffers.front());
      return out;
    }
  }
  return std::nullopt;
}

End run_backend_through_faults(util::Rng& rng, core::ReconcileBackend backend,
                               const testkit::FaultSpec& faults) {
  const std::uint64_t host_count = 1 + rng.below(300);
  const std::uint64_t shared = rng.below(host_count + 1);
  const ItemSet host_items = random_set(rng, host_count);
  ItemSet client_items;
  for (const ItemDigest& d : host_items) {
    if (client_items.size() >= shared) break;
    client_items.insert(d);
  }
  for (const ItemDigest& d : random_set(rng, rng.below(300))) client_items.insert(d);

  core::ProtocolConfig cfg;
  cfg.reconcile_backend = backend;
  const auto host = make_host_backend(host_items, rng.next(), cfg);
  const auto client = make_client_backend(client_items, cfg);
  testkit::FaultyChannel ch(faults);

  try {
    auto delivered = deliver(ch, net::Direction::kSenderToReceiver,
                             host->open(client_items.size()));
    if (!delivered) return End::kAborted;
    Outcome out = client->absorb_wire(*delivered);

    // The driver loop with the structural round cap — termination holds
    // even if a corrupted message convinces a backend it needs more.
    std::uint32_t rounds = 0;
    while (needs_more(out.status) && rounds < cfg.reconcile_round_cap) {
      ++rounds;
      const auto request =
          deliver(ch, net::Direction::kReceiverToSender, client->next_request());
      if (!request) return End::kAborted;
      const auto response =
          deliver(ch, net::Direction::kSenderToReceiver, host->serve_wire(*request));
      if (!response) return End::kAborted;
      out = client->absorb_wire(*response);
    }

    if (out.status != Outcome::Status::kComplete) return End::kTypedError;
    return out.host_set == host_items ? End::kExactSet : End::kWrongSet;
  } catch (const core::ProtocolError&) {
    return End::kTypedError;
  } catch (const util::DeserializeError&) {
    return End::kTypedError;
  }
}

class BackendFaultSweep
    : public ::testing::TestWithParam<core::ReconcileBackend> {};

TEST_P(BackendFaultSweep, TerminatesWithExactSetOrTypedFailure) {
  const double kProfiles[][5] = {
      // drop, duplicate, reorder, truncate, bitflip
      {0.15, 0.0, 0.0, 0.0, 0.0},
      {0.0, 0.3, 0.3, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.25, 0.25},
      {0.08, 0.15, 0.15, 0.12, 0.12},
  };
  for (const auto& p : kProfiles) {
    testkit::StatGateSpec spec;
    spec.name = "backend_faults";
    spec.trials = 40;
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
          const End end = run_backend_through_faults(rng, GetParam(), f);
          if (end == End::kWrongSet) ++wrong;
          return end != End::kWrongSet;
        });
    GRAPHENE_ASSERT_GATE(r);
    ASSERT_EQ(wrong, 0u);
  }
}

TEST_P(BackendFaultSweep, CleanLinkReconcilesExactly) {
  testkit::StatGateSpec spec;
  spec.name = "backend_faults_control";
  spec.trials = 40;
  spec.min_rate = 0.9;
  const testkit::GateResult r =
      testkit::StatGate(spec).run([&](util::Rng& rng, std::uint64_t) {
        return run_backend_through_faults(rng, GetParam(), testkit::FaultSpec{}) ==
               End::kExactSet;
      });
  GRAPHENE_EXPECT_GATE(r);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendFaultSweep,
                         ::testing::Values(core::ReconcileBackend::kGraphene,
                                           core::ReconcileBackend::kRatelessIblt),
                         [](const auto& info) {
                           return info.param == core::ReconcileBackend::kGraphene
                                      ? "Graphene"
                                      : "RatelessIblt";
                         });

TEST(RatelessFaults, TruncatedChunkIsTypedErrorNotCrash) {
  util::Rng rng(17);
  const ItemSet host_items = random_set(rng, 100);
  const ItemSet client_items = random_set(rng, 80);
  core::ProtocolConfig cfg;
  cfg.reconcile_backend = core::ReconcileBackend::kRatelessIblt;
  const auto host = make_host_backend(host_items, rng.next(), cfg);
  const WireMsg opening = host->open(client_items.size());
  const std::size_t cuts[] = {0, 1, 8, 24, opening.payload.size() - 1};
  for (const std::size_t keep : cuts) {
    const auto client = make_client_backend(client_items, cfg);
    WireMsg cut = opening;
    cut.payload.resize(keep);
    EXPECT_THROW((void)client->absorb_wire(cut), util::DeserializeError) << keep;
  }
}

TEST(RatelessFaults, HostStreamBudgetStopsInfiniteSymbolRequests) {
  // A client (or attacker) endlessly asking for more symbols must hit the
  // host's stream budget as a typed error, not spin the encoder forever.
  util::Rng rng(18);
  const ItemSet host_items = random_set(rng, 50);
  core::ProtocolConfig cfg;
  cfg.reconcile_backend = core::ReconcileBackend::kRatelessIblt;
  const auto host = make_host_backend(host_items, rng.next(), cfg);
  (void)host->open(50);

  bool refused = false;
  std::uint64_t cursor = 0;
  for (int round = 0; round < 64; ++round) {
    RatelessNeed need;
    need.next_index = cursor;
    need.count = 1024;
    WireMsg req;
    req.type = net::MessageType::kRatelessNeed;
    req.payload = need.serialize();
    try {
      const WireMsg chunk = host->serve_wire(req);
      (void)chunk;
      cursor += need.count;
    } catch (const core::ProtocolError&) {
      refused = true;
      break;
    }
  }
  EXPECT_TRUE(refused);
}

WireMsg need_msg(std::uint64_t next_index, std::uint64_t count) {
  RatelessNeed need;
  need.next_index = next_index;
  need.count = count;
  return {net::MessageType::kRatelessNeed, need.serialize()};
}

TEST(RatelessFaults, NeedStartingPastTheSymbolsSentIsRefused) {
  // A hello may claim 2^40 items, which lifts the stream budget far past
  // any honest need. A need that starts past what this session was sent
  // must still be refused, before the host draws a symbol for it: at
  // next_index 2^40 − 1 it would otherwise draw about 2^40 symbols.
  util::Rng rng(19);
  const ItemSet host_items = random_set(rng, 100);
  core::ProtocolConfig cfg;
  cfg.reconcile_backend = core::ReconcileBackend::kRatelessIblt;
  const auto host = make_host_backend(host_items, rng.next(), cfg);
  const WireMsg opening = host->open(std::uint64_t{1} << 40);
  util::ByteReader reader{util::ByteView(opening.payload)};
  const std::uint64_t sent = RatelessChunk::deserialize(reader).symbols.size();
  ASSERT_EQ(sent, util::wire::kMaxRatelessChunkSymbols);

  // Nearest first, and stop at the first need served: a host without the
  // rule would draw every symbol up to the next one.
  for (const std::uint64_t past :
       {sent + 1, std::uint64_t{1'000'000}, util::wire::kMaxRatelessStreamIndex - 1}) {
    try {
      (void)host->serve_wire(need_msg(past, 1));
      FAIL() << "need from " << past << " was served";
    } catch (const core::ProtocolError& e) {
      EXPECT_EQ(e.context().z, past);
    }
  }
  // The refusals changed nothing: the session goes on from its own end.
  const WireMsg next = host->serve_wire(need_msg(sent, 16));
  util::ByteReader next_reader{util::ByteView(next.payload)};
  EXPECT_EQ(RatelessChunk::deserialize(next_reader).start, sent);
}

TEST(RatelessFaults, ReRequestsWithinTheSymbolsSentAreByteIdentical) {
  // A lost or duplicated chunk makes an honest client ask again from a
  // cursor at or before the end of what it was sent: every such span is
  // served again byte for byte.
  util::Rng rng(20);
  const ItemSet host_items = random_set(rng, 300);
  const std::uint64_t salt = rng.next();
  core::ProtocolConfig cfg;
  cfg.reconcile_backend = core::ReconcileBackend::kRatelessIblt;
  const auto host = make_host_backend(host_items, salt, cfg);
  (void)host->open(250);  // 50 symbols sent
  const WireMsg tail = host->serve_wire(need_msg(50, 30));   // at the end
  const WireMsg again = host->serve_wire(need_msg(50, 30));  // re-request
  EXPECT_EQ(again.payload, tail.payload);
  const WireMsg from_start = host->serve_wire(need_msg(0, 80));
  const WireMsg at_end = host->serve_wire(need_msg(80, 8));

  // A host that sent the same spans in one pass serves the same bytes.
  const auto fresh = make_host_backend(host_items, salt, cfg);
  (void)fresh->open(250);
  EXPECT_EQ(fresh->serve_wire(need_msg(0, 80)).payload, from_start.payload);
  EXPECT_EQ(fresh->serve_wire(need_msg(50, 30)).payload, tail.payload);
  EXPECT_EQ(fresh->serve_wire(need_msg(80, 8)).payload, at_end.payload);
}

}  // namespace
}  // namespace graphene::reconcile
