// PeerSession/ClientSession state machines at the message level: happy paths
// on both backends, every typed error path, policy caps, and the deadline
// arithmetic — all transport-free and on fake time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graphene/engine.hpp"
#include "harness.hpp"
#include "net/frame.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/rateless_backend.hpp"

namespace graphene::daemon {
namespace {

using testing::make_items;
using testing::pump_session;

constexpr std::uint64_t kNow = 1'000'000'000;

core::ProtocolConfig cfg_for(core::ReconcileBackend backend) {
  core::ProtocolConfig cfg;
  cfg.reconcile_backend = backend;
  return cfg;
}

struct SessionRig {
  explicit SessionRig(core::ReconcileBackend backend = core::ReconcileBackend::kGraphene,
                      DaemonLimits limits = {})
      : host_items(make_items(120)),
        client_items(make_items(100, /*start=*/40)),  // 80 shared, 20+40 delta
        session(host_items, /*salt=*/0x5eed, limits, cfg_for(backend)),
        client(client_items, cfg_for(backend)) {}

  reconcile::ItemSet host_items;
  reconcile::ItemSet client_items;
  PeerSession session;
  ClientSession client;
};

TEST(PeerSession, GrapheneSessionCompletes) {
  SessionRig rig;
  EXPECT_EQ(pump_session(rig.session, rig.client, kNow),
            ClientSession::Status::kComplete);
  EXPECT_EQ(rig.client.outcome().host_set, rig.host_items);
  EXPECT_FALSE(rig.session.closed());
  EXPECT_FALSE(rig.session.in_session());  // back to await-hello after bye
  EXPECT_EQ(rig.session.stats().sessions_ok, 1u);
  EXPECT_EQ(rig.session.stats().sessions_failed, 0u);
}

TEST(PeerSession, RatelessSessionCompletes) {
  SessionRig rig(core::ReconcileBackend::kRatelessIblt);
  EXPECT_EQ(pump_session(rig.session, rig.client, kNow),
            ClientSession::Status::kComplete);
  EXPECT_EQ(rig.client.outcome().host_set, rig.host_items);
  EXPECT_EQ(rig.session.stats().sessions_ok, 1u);
}

TEST(PeerSession, RunsSessionsBackToBack) {
  SessionRig rig;
  for (int i = 0; i < 3; ++i) {
    ClientSession client(rig.client_items, cfg_for(core::ReconcileBackend::kGraphene));
    EXPECT_EQ(pump_session(rig.session, client, kNow),
              ClientSession::Status::kComplete);
  }
  EXPECT_EQ(rig.session.stats().sessions_ok, 3u);
  EXPECT_FALSE(rig.session.closed());
}

reconcile::RatelessChunk parse_chunk(const net::Message& msg) {
  EXPECT_EQ(msg.type, net::MessageType::kRatelessChunk);
  util::ByteReader reader{util::ByteView(msg.payload)};
  return reconcile::RatelessChunk::deserialize(reader);
}

/// Runs one rateless session of `client_items` on `session`, which must end
/// with the exact `host_items`; returns the daemon's first reply.
net::Message rateless_session(PeerSession& session, const reconcile::ItemSet& client_items,
                              const reconcile::ItemSet& host_items) {
  ClientSession client(client_items, cfg_for(core::ReconcileBackend::kRatelessIblt));
  std::vector<net::Message> replies;
  EXPECT_EQ(pump_session(session, client, kNow, 200, &replies),
            ClientSession::Status::kComplete);
  EXPECT_EQ(client.outcome().host_set, host_items);
  return replies.empty() ? net::Message{} : replies.front();
}

TEST(PeerSession, RatelessSessionsShareOneSaltPerEpoch) {
  // The first kRatelessEpochSessions sessions read one stream: one salt,
  // and the same first chunk for the same client count. The next session
  // starts a new epoch.
  SessionRig rig(core::ReconcileBackend::kRatelessIblt);
  const net::Message first = rateless_session(rig.session, rig.client_items, rig.host_items);
  const reconcile::RatelessChunk first_chunk = parse_chunk(first);

  // Another client count reads a longer prefix of the same stream.
  const reconcile::ItemSet fewer = make_items(10, /*start=*/40);
  const reconcile::RatelessChunk longer =
      parse_chunk(rateless_session(rig.session, fewer, rig.host_items));
  EXPECT_EQ(longer.salt, first_chunk.salt);
  ASSERT_GT(longer.symbols.size(), first_chunk.symbols.size());
  for (std::size_t i = 0; i < first_chunk.symbols.size(); ++i) {
    EXPECT_EQ(longer.symbols[i].sum, first_chunk.symbols[i].sum) << i;
    EXPECT_EQ(longer.symbols[i].check, first_chunk.symbols[i].check) << i;
    EXPECT_EQ(longer.symbols[i].count, first_chunk.symbols[i].count) << i;
  }

  for (std::uint32_t i = 2; i < kRatelessEpochSessions; ++i) {
    const net::Message opening =
        rateless_session(rig.session, rig.client_items, rig.host_items);
    EXPECT_EQ(opening.payload, first.payload) << "session " << i;
  }
  const net::Message next = rateless_session(rig.session, rig.client_items, rig.host_items);
  EXPECT_NE(parse_chunk(next).salt, first_chunk.salt);
  EXPECT_EQ(rig.session.stats().sessions_ok, kRatelessEpochSessions + 1);
}

TEST(PeerSession, SessionsOfOneDaemonShareItsEpochSalt) {
  const reconcile::ItemSet host_items = make_items(120);
  const reconcile::ItemSet client_items = make_items(100, /*start=*/40);
  RatelessEpochs epochs(host_items, /*salt=*/0xe90c);
  const core::ProtocolConfig cfg = cfg_for(core::ReconcileBackend::kRatelessIblt);
  PeerSession a(host_items, /*salt=*/1, {}, cfg, &epochs);
  PeerSession b(host_items, /*salt=*/2, {}, cfg, &epochs);
  const net::Message from_a = rateless_session(a, client_items, host_items);
  const net::Message from_b = rateless_session(b, client_items, host_items);
  EXPECT_EQ(parse_chunk(from_a).salt, parse_chunk(from_b).salt);
  EXPECT_EQ(from_a.payload, from_b.payload);

  // A session on its own keeps its own epochs, keyed by its salt.
  PeerSession alone(host_items, /*salt=*/0xe90c, {}, cfg);
  EXPECT_EQ(rateless_session(alone, client_items, host_items).payload, from_a.payload);
}

TEST(PeerSession, RatelessSessionOutlivesItsEpoch) {
  // Session A opens in epoch 0 and stalls; session B's sessions then move
  // the epoch on, so the epoch state lets go of A's stream. A's backend
  // still holds it and serves A's next spans from it, and A completes.
  const reconcile::ItemSet host_items = make_items(120);
  const reconcile::ItemSet client_items = make_items(100, /*start=*/40);  // d = 60
  RatelessEpochs epochs(host_items, /*salt=*/0xe90c);
  const core::ProtocolConfig cfg = cfg_for(core::ReconcileBackend::kRatelessIblt);
  PeerSession a(host_items, /*salt=*/1, {}, cfg, &epochs);
  PeerSession b(host_items, /*salt=*/2, {}, cfg, &epochs);

  ClientSession client(client_items, cfg);
  std::vector<net::Message> to_client;
  ASSERT_TRUE(a.on_bytes(kNow, net::encode_frame(client.hello()), to_client));
  ASSERT_EQ(to_client.size(), 1u);
  const std::uint64_t salt_a = parse_chunk(to_client.front()).salt;
  std::vector<net::Message> to_daemon;
  // 48 symbols cannot decode a difference of 60: A needs more.
  ASSERT_EQ(client.on_message(to_client.front(), to_daemon),
            ClientSession::Status::kInFlight);

  net::Message last_b;
  for (std::uint32_t i = 0; i < kRatelessEpochSessions; ++i) {
    last_b = rateless_session(b, client_items, host_items);
  }
  EXPECT_NE(parse_chunk(last_b).salt, salt_a);  // the epoch moved on

  ClientSession::Status status = ClientSession::Status::kInFlight;
  for (int step = 0; step < 16 && status == ClientSession::Status::kInFlight; ++step) {
    ASSERT_EQ(to_daemon.size(), 1u);
    to_client.clear();
    ASSERT_TRUE(a.on_bytes(kNow, net::encode_frame(to_daemon.front()), to_client));
    ASSERT_EQ(to_client.size(), 1u);
    EXPECT_EQ(parse_chunk(to_client.front()).salt, salt_a);
    to_daemon.clear();
    status = client.on_message(to_client.front(), to_daemon);
  }
  ASSERT_EQ(status, ClientSession::Status::kComplete);
  EXPECT_EQ(client.outcome().host_set, host_items);
  to_client.clear();
  ASSERT_TRUE(a.on_bytes(kNow, net::encode_frame(to_daemon.front()), to_client));  // bye
  EXPECT_EQ(a.stats().sessions_ok, 1u);
}

TEST(PeerSession, GrapheneSessionsKeepAFreshSaltEach) {
  SessionRig rig;
  std::vector<std::uint64_t> salts;
  for (int i = 0; i < 3; ++i) {
    ClientSession client(rig.client_items, cfg_for(core::ReconcileBackend::kGraphene));
    std::vector<net::Message> replies;
    ASSERT_EQ(pump_session(rig.session, client, kNow, 200, &replies),
              ClientSession::Status::kComplete);
    ASSERT_EQ(replies.front().type, net::MessageType::kReconcileOffer);
    util::ByteReader reader{util::ByteView(replies.front().payload)};
    salts.push_back(reconcile::Offer::deserialize(reader).salt);
  }
  EXPECT_NE(salts[0], salts[1]);
  EXPECT_NE(salts[1], salts[2]);
  EXPECT_NE(salts[0], salts[2]);
}

TEST(PeerSession, RequestBeforeHelloIsProtocolError) {
  SessionRig rig;
  std::vector<net::Message> out;
  const net::Message premature{net::MessageType::kGrapheneRequest, util::Bytes{}};
  EXPECT_FALSE(rig.session.on_bytes(kNow, net::encode_frame(premature), out));
  EXPECT_EQ(rig.session.reason(), CloseReason::kProtocolError);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, net::MessageType::kDaemonError);
  util::ByteReader reader(out[0].payload);
  EXPECT_EQ(ErrorMsg::deserialize(reader).code, ErrorCode::kProtocol);
}

TEST(PeerSession, UnsupportedVersionIsRejected) {
  SessionRig rig;
  HelloMsg hello;
  hello.version = kDaemonProtocolVersion + 7;
  hello.item_count = 10;
  std::vector<net::Message> out;
  const net::Message msg{net::MessageType::kDaemonHello, hello.serialize()};
  EXPECT_FALSE(rig.session.on_bytes(kNow, net::encode_frame(msg), out));
  EXPECT_EQ(rig.session.reason(), CloseReason::kProtocolError);
  ASSERT_EQ(out.size(), 1u);
  util::ByteReader reader(out[0].payload);
  EXPECT_EQ(ErrorMsg::deserialize(reader).code, ErrorCode::kUnsupported);
}

TEST(PeerSession, UnknownBackendIsUnsupported) {
  SessionRig rig;
  HelloMsg hello;
  hello.backend = 2;
  hello.item_count = 10;
  std::vector<net::Message> out;
  const net::Message msg{net::MessageType::kDaemonHello, hello.serialize()};
  EXPECT_FALSE(rig.session.on_bytes(kNow, net::encode_frame(msg), out));
  EXPECT_EQ(rig.session.reason(), CloseReason::kProtocolError);
  ASSERT_EQ(out.size(), 1u);
  util::ByteReader reader(out[0].payload);
  EXPECT_EQ(ErrorMsg::deserialize(reader).code, ErrorCode::kUnsupported);
}

TEST(PeerSession, TrailingBytesInHelloAreMalformed) {
  SessionRig rig;
  HelloMsg hello;
  hello.item_count = 10;
  util::Bytes payload = hello.serialize();
  payload.push_back(0x00);
  std::vector<net::Message> out;
  const net::Message msg{net::MessageType::kDaemonHello, payload};
  EXPECT_FALSE(rig.session.on_bytes(kNow, net::encode_frame(msg), out));
  EXPECT_EQ(rig.session.reason(), CloseReason::kMalformed);
}

TEST(PeerSession, GarbageBytesAreMalformed) {
  SessionRig rig;
  std::vector<net::Message> out;
  const util::Bytes garbage(64, 0x6f);
  EXPECT_FALSE(rig.session.on_bytes(kNow, garbage, out));
  EXPECT_EQ(rig.session.reason(), CloseReason::kMalformed);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, net::MessageType::kDaemonError);
}

TEST(PeerSession, HelloInsideSessionIsProtocolError) {
  SessionRig rig;
  HelloMsg hello;
  hello.item_count = rig.client_items.size();
  const net::Message msg{net::MessageType::kDaemonHello, hello.serialize()};
  std::vector<net::Message> out;
  ASSERT_TRUE(rig.session.on_bytes(kNow, net::encode_frame(msg), out));
  EXPECT_TRUE(rig.session.in_session());
  out.clear();
  EXPECT_FALSE(rig.session.on_bytes(kNow, net::encode_frame(msg), out));
  EXPECT_EQ(rig.session.reason(), CloseReason::kProtocolError);
}

TEST(PeerSession, SessionMessageCapCloses) {
  DaemonLimits limits;
  limits.session_msg_cap = 0;  // the first in-session request already trips
  SessionRig rig(core::ReconcileBackend::kGraphene, limits);
  EXPECT_EQ(pump_session(rig.session, rig.client, kNow),
            ClientSession::Status::kFailed);
  EXPECT_EQ(rig.session.reason(), CloseReason::kLimit);
  ASSERT_NE(rig.client.daemon_error(), nullptr);
  EXPECT_EQ(rig.client.daemon_error()->code, ErrorCode::kLimit);
}

/// Opens a session on `session` with a hello for `backend` claiming
/// `item_count` items; returns whether the session stayed open and its replies.
bool open_session(PeerSession& session, std::uint8_t backend, std::uint64_t item_count,
                  std::vector<net::Message>& out) {
  HelloMsg hello;
  hello.backend = backend;
  hello.item_count = item_count;
  return session.on_bytes(
      kNow, net::encode_frame({net::MessageType::kDaemonHello, hello.serialize()}), out);
}

/// The short ID under which a Graphene session's `offer` keys `item`
/// (docs/PROTOCOL.md: SipHash keyed by {salt, salt ^ 0x6a09e667f3bcc908}).
std::uint64_t set_short_id(const net::Message& offer, const reconcile::ItemDigest& item) {
  EXPECT_EQ(offer.type, net::MessageType::kReconcileOffer);
  util::ByteReader reader{util::ByteView(offer.payload)};
  const std::uint64_t salt = reconcile::Offer::deserialize(reader).salt;
  return core::short_id_of(item, salt, core::EngineKeys{.sid_key = 0x6a09e667f3bcc908ULL},
                           core::ProtocolConfig{});
}

/// Checks that `out` is exactly one kLimit error frame.
void expect_limit_error(const std::vector<net::Message>& out) {
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].type, net::MessageType::kDaemonError);
  util::ByteReader reader{util::ByteView(out[0].payload)};
  EXPECT_EQ(ErrorMsg::deserialize(reader).code, ErrorCode::kLimit);
}

/// A Graphene fetch that names one host item's short ID `repeats` times,
/// under `limits`: the host answers the short ID once, so the reply is one
/// digest and within the frame cap, and the session stays open.
void expect_repeated_fetch_answered_once(const DaemonLimits& limits, std::size_t repeats) {
  SessionRig rig(core::ReconcileBackend::kGraphene, limits);
  std::vector<net::Message> out;
  ASSERT_TRUE(open_session(rig.session, /*backend=*/0, /*item_count=*/0, out));
  ASSERT_EQ(out.size(), 1u);
  const reconcile::ItemDigest item = *rig.host_items.begin();
  core::RepairRequestMsg fetch;
  fetch.short_ids.assign(repeats, set_short_id(out[0], item));
  const net::Message msg{net::MessageType::kReconcileFetch, fetch.serialize()};
  ASSERT_LE(msg.payload.size(), limits.max_frame_payload);
  out.clear();
  EXPECT_TRUE(rig.session.on_bytes(kNow, net::encode_frame(msg), out));
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].type, net::MessageType::kReconcileFetchResponse);
  EXPECT_LE(out[0].payload.size(), limits.max_frame_payload);
  util::ByteReader reader{util::ByteView(out[0].payload)};
  EXPECT_EQ(reconcile::FetchResponse::deserialize(reader).items,
            std::vector<reconcile::ItemDigest>{item});
}

TEST(PeerSession, FetchRepeatingOneShortIdIsAnsweredOnceAtDefaultLimits) {
  // A 17,600,005-byte fetch. Answered once per repeat, it would draw a
  // 70,400,005-byte reply, past the 64 MiB frame cap.
  expect_repeated_fetch_answered_once(DaemonLimits{}, 2'200'000);
}

TEST(PeerSession, FetchRepeatingOneShortIdIsAnsweredOnceUnderAOneMebibyteCap) {
  // A 320,003-byte fetch. Answered once per repeat, it would draw a
  // 1,280,005-byte reply.
  DaemonLimits limits;
  limits.max_frame_payload = 1 << 20;
  expect_repeated_fetch_answered_once(limits, 40'000);
}

TEST(PeerSession, RatelessOpeningOverTheFrameCapEndsTheSession) {
  // A hello claiming 2^40 items asks for a maximal first chunk: 65,536
  // symbols, about 2.7 MB. Under a 1 MiB cap it is not sent; the session
  // ends kLimit with an error frame instead.
  DaemonLimits limits;
  limits.max_frame_payload = 1 << 20;
  SessionRig rig(core::ReconcileBackend::kRatelessIblt, limits);
  std::vector<net::Message> out;
  EXPECT_FALSE(open_session(rig.session, /*backend=*/1, util::wire::kMaxDaemonItemCount, out));
  EXPECT_EQ(rig.session.reason(), CloseReason::kLimit);
  expect_limit_error(out);
}

TEST(PeerSession, GrapheneReplyOverTheFrameCapEndsTheSession) {
  // A fetch of every host item, each named once, draws 32 bytes a short ID:
  // 3,841 bytes for 120 items, past a 2 KiB cap.
  DaemonLimits limits;
  limits.max_frame_payload = 2048;
  SessionRig rig(core::ReconcileBackend::kGraphene, limits);
  std::vector<net::Message> out;
  ASSERT_TRUE(open_session(rig.session, /*backend=*/0, /*item_count=*/0, out));
  ASSERT_EQ(out.size(), 1u);
  core::RepairRequestMsg fetch;
  for (const reconcile::ItemDigest& item : rig.host_items) {
    fetch.short_ids.push_back(set_short_id(out[0], item));
  }
  out.clear();
  EXPECT_FALSE(rig.session.on_bytes(
      kNow, net::encode_frame({net::MessageType::kReconcileFetch, fetch.serialize()}), out));
  EXPECT_EQ(rig.session.reason(), CloseReason::kLimit);
  expect_limit_error(out);
}

TEST(PeerSession, ConnSessionCapRotates) {
  DaemonLimits limits;
  limits.conn_session_cap = 1;
  SessionRig rig(core::ReconcileBackend::kGraphene, limits);
  EXPECT_EQ(pump_session(rig.session, rig.client, kNow),
            ClientSession::Status::kComplete);
  EXPECT_TRUE(rig.session.closed());
  EXPECT_EQ(rig.session.reason(), CloseReason::kLimit);
  EXPECT_EQ(rig.session.stats().sessions_ok, 1u);
}

TEST(PeerSession, IdleTimeoutFires) {
  DaemonLimits limits;
  limits.idle_timeout_ns = 1000;
  SessionRig rig(core::ReconcileBackend::kGraphene, limits);
  EXPECT_TRUE(rig.session.check_deadlines(kNow));  // stamps first activity
  EXPECT_EQ(rig.session.next_deadline_ns(), kNow + 1000);
  EXPECT_TRUE(rig.session.check_deadlines(kNow + 999));
  EXPECT_FALSE(rig.session.check_deadlines(kNow + 1000));
  EXPECT_EQ(rig.session.reason(), CloseReason::kIdleTimeout);
}

TEST(PeerSession, SessionTimeoutFires) {
  DaemonLimits limits;
  limits.session_timeout_ns = 5000;
  limits.idle_timeout_ns = 1ULL << 60;
  SessionRig rig(core::ReconcileBackend::kGraphene, limits);
  HelloMsg hello;
  hello.item_count = rig.client_items.size();
  std::vector<net::Message> out;
  const net::Message msg{net::MessageType::kDaemonHello, hello.serialize()};
  ASSERT_TRUE(rig.session.on_bytes(kNow, net::encode_frame(msg), out));
  EXPECT_EQ(rig.session.next_deadline_ns(), kNow + 5000);
  EXPECT_TRUE(rig.session.check_deadlines(kNow + 4999));
  EXPECT_FALSE(rig.session.check_deadlines(kNow + 5000));
  EXPECT_EQ(rig.session.reason(), CloseReason::kSessionTimeout);
}

TEST(PeerSession, EofBetweenSessionsIsClean) {
  SessionRig rig;
  EXPECT_EQ(pump_session(rig.session, rig.client, kNow),
            ClientSession::Status::kComplete);
  rig.session.on_eof();
  EXPECT_EQ(rig.session.reason(), CloseReason::kPeerClosed);
}

TEST(PeerSession, EofMidSessionIsReset) {
  SessionRig rig;
  HelloMsg hello;
  hello.item_count = rig.client_items.size();
  std::vector<net::Message> out;
  const net::Message msg{net::MessageType::kDaemonHello, hello.serialize()};
  ASSERT_TRUE(rig.session.on_bytes(kNow, net::encode_frame(msg), out));
  rig.session.on_eof();
  EXPECT_EQ(rig.session.reason(), CloseReason::kPeerReset);
}

TEST(PeerSession, EofMidFrameIsReset) {
  SessionRig rig;
  const util::Bytes frame = net::encode_frame(rig.client.hello());
  std::vector<net::Message> out;
  ASSERT_TRUE(rig.session.on_bytes(
      kNow, util::ByteView(frame.data(), frame.size() / 2), out));
  rig.session.on_eof();
  EXPECT_EQ(rig.session.reason(), CloseReason::kPeerReset);
}

TEST(PeerSession, AdministrativeCloseEmitsErrorOnlyMidSession) {
  SessionRig rig;
  std::vector<net::Message> out;
  rig.session.close(CloseReason::kShutdown, ErrorCode::kShutdown, "bye", out);
  EXPECT_TRUE(out.empty());  // not serving: no one to tell
  EXPECT_EQ(rig.session.reason(), CloseReason::kShutdown);

  SessionRig serving;
  HelloMsg hello;
  hello.item_count = serving.client_items.size();
  std::vector<net::Message> replies;
  const net::Message msg{net::MessageType::kDaemonHello, hello.serialize()};
  ASSERT_TRUE(serving.session.on_bytes(kNow, net::encode_frame(msg), replies));
  replies.clear();
  serving.session.close(CloseReason::kShutdown, ErrorCode::kShutdown, "bye", replies);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, net::MessageType::kDaemonError);
  // Idempotent: a second close neither re-emits nor rewrites the reason.
  replies.clear();
  serving.session.close(CloseReason::kMalformed, ErrorCode::kMalformed, "x", replies);
  EXPECT_TRUE(replies.empty());
  EXPECT_EQ(serving.session.reason(), CloseReason::kShutdown);
}

TEST(ClientSession, RoundCapBoundsHostileDaemon) {
  // A daemon that replies with syntactically valid but useless rateless
  // chunks forever must be cut off by the client's round cap.
  const reconcile::ItemSet client_items = make_items(50);
  core::ProtocolConfig cfg = cfg_for(core::ReconcileBackend::kRatelessIblt);
  cfg.reconcile_round_cap = 4;
  ClientSession client(client_items, cfg);

  // Build a real host so the replies parse, but feed only its first symbol
  // batch over and over: never enough to finish.
  const reconcile::ItemSet host_items = make_items(400, 1000);
  auto host = reconcile::make_host_backend(host_items, 0x5eed,
                                           cfg_for(core::ReconcileBackend::kRatelessIblt));
  const net::Message stuck = host->open(client_items.size());

  std::vector<net::Message> out;
  ClientSession::Status status = ClientSession::Status::kInFlight;
  for (int i = 0; i < 100 && status == ClientSession::Status::kInFlight; ++i) {
    out.clear();
    status = client.on_message(stuck, out);
  }
  EXPECT_EQ(status, ClientSession::Status::kFailed);
  EXPECT_LE(client.rounds(), 5u);
}

TEST(CloseReason, NamesAreStable) {
  EXPECT_STREQ(to_string(CloseReason::kOpen), "open");
  EXPECT_STREQ(to_string(CloseReason::kPeerClosed), "peer_closed");
  EXPECT_STREQ(to_string(CloseReason::kPeerReset), "peer_reset");
  EXPECT_STREQ(to_string(CloseReason::kMalformed), "malformed");
  EXPECT_STREQ(to_string(CloseReason::kProtocolError), "protocol_error");
  EXPECT_STREQ(to_string(CloseReason::kLimit), "limit");
  EXPECT_STREQ(to_string(CloseReason::kIdleTimeout), "idle_timeout");
  EXPECT_STREQ(to_string(CloseReason::kSessionTimeout), "session_timeout");
  EXPECT_STREQ(to_string(CloseReason::kShutdown), "shutdown");
}

}  // namespace
}  // namespace graphene::daemon
