// The reconciliation backend seam: golden wire pins proving the Graphene
// messages and the rateless coded-symbol stream survive refactors
// byte-for-byte, the backend-agnostic driver loop, the rateless backend
// end-to-end, the Graphene client's phase table, the rateless client's
// terminal outcomes, and the DigestHasher fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "graphene/errors.hpp"
#include "obs/obs.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/rateless_backend.hpp"
#include "reconcile/set_reconciler.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {
namespace {

ItemSet pinned_items(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  ItemSet out;
  while (out.size() < count) {
    ItemDigest d;
    for (std::size_t i = 0; i < d.size(); i += 8) {
      const std::uint64_t w = rng.next();
      for (std::size_t b = 0; b < 8; ++b) d[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
    out.insert(d);
  }
  return out;
}

/// Subset slicing goes through sorted digests so scenarios are independent
/// of the hasher's iteration order.
std::vector<ItemDigest> sorted_of(const ItemSet& s) {
  std::vector<ItemDigest> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

std::string pin(const util::Bytes& wire) {
  const auto h = util::sha256(util::ByteView(wire));
  return util::to_hex(util::ByteView(h.data(), h.size()));
}

template <typename Msg>
Msg parse(const WireMsg& msg) {
  util::ByteReader reader{util::ByteView(msg.payload)};
  return Msg::deserialize(reader);
}

core::ProtocolConfig rateless_cfg() {
  core::ProtocolConfig cfg;
  cfg.reconcile_backend = core::ReconcileBackend::kRatelessIblt;
  return cfg;
}

// --- Golden wire pins ------------------------------------------------------
//
// SHA-256 of every serialized Graphene reconcile message across three pinned
// scenarios. These bytes are the on-wire protocol: any refactor of the
// backend seam must reproduce them exactly. (Response.missing is emitted in
// sorted-digest order — the one deliberate canonicalization — and these pins
// bake that in.)

TEST(BackendGoldenWire, DisjointHeavyScenarioPinsHold) {
  const ItemSet host_items = pinned_items(0x9001, 300);
  ItemSet client_items = pinned_items(0x9002, 100);
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  for (std::size_t i = 0; i < 200; ++i) client_items.insert(host_sorted[i]);

  const auto host = make_host_backend(host_items, 0x5a17, {});
  const auto client = make_client_backend(client_items, {});
  const WireMsg offer = host->open(client_items.size());
  EXPECT_EQ(pin(offer.payload),
            "ee194862bb3502e2bb8f245ec147e71101f4504265fbe4f57eb731845953547d");
  const Outcome o1 = client->absorb_wire(offer);
  ASSERT_EQ(o1.status, Outcome::Status::kNeedsRequest);
  const WireMsg req = client->next_request();
  EXPECT_EQ(pin(req.payload),
            "29a18609c37b86678f2d1324c17c9b80ebdff7be16ac62ba937ea808e2616f4f");
  const WireMsg resp = host->serve_wire(req);
  EXPECT_EQ(pin(resp.payload),
            "58360ef3d2432e359c3707b07209b2122fdbbf01879bbdcecfe0ac28290f3e1b");
  const std::vector<ItemDigest> missing = parse<Response>(resp).missing;
  EXPECT_TRUE(std::is_sorted(missing.begin(), missing.end()));
}

TEST(BackendGoldenWire, SupersetClientScenarioPinsHold) {
  const ItemSet host_items = pinned_items(0xb001, 150);
  ItemSet client_items = host_items;
  for (const ItemDigest& d : pinned_items(0xb002, 50)) client_items.insert(d);

  const auto host = make_host_backend(host_items, 0xfeed, {});
  const auto client = make_client_backend(client_items, {});
  const WireMsg offer = host->open(client_items.size());
  EXPECT_EQ(pin(offer.payload),
            "9cf9932d42b24aee38953a6eaf34d22303e2dab35203a4cf54fd1e0370f9be7e");
  EXPECT_EQ(client->absorb_wire(offer).status, Outcome::Status::kComplete);
}

TEST(BackendGoldenWire, ReversedPathScenarioPinsHoldThroughFetch) {
  const ItemSet host_items = pinned_items(0xc001, 400);
  ItemSet client_items = pinned_items(0xc002, 10);
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  for (std::size_t i = 0; i < 380; ++i) client_items.insert(host_sorted[i]);

  const auto host = make_host_backend(host_items, 0xc0de, {});
  const auto client = make_client_backend(client_items, {});
  const WireMsg offer = host->open(client_items.size());
  EXPECT_EQ(pin(offer.payload),
            "11229fdbf6604900ce01c5d8dbb21be542a63962869e8c1d15bc7b605a2a1b2a");
  ASSERT_EQ(client->absorb_wire(offer).status, Outcome::Status::kNeedsRequest);
  const WireMsg req = client->next_request();
  EXPECT_TRUE(parse<Request>(req).reversed);
  EXPECT_EQ(pin(req.payload),
            "46d4854362074b2202a9c2b638ef1a2832558384f8fea8fe82e6d2a5e962f9b2");
  const WireMsg resp = host->serve_wire(req);
  EXPECT_EQ(pin(resp.payload),
            "6e334829a72e6b127af8bce905e41aa198d8c5087757188c087ed743427683bb");
  ASSERT_EQ(client->absorb_wire(resp).status, Outcome::Status::kNeedsFetch);
  const WireMsg freq = client->next_request();
  EXPECT_EQ(freq.type, net::MessageType::kReconcileFetch);
  EXPECT_EQ(pin(freq.payload),
            "ef8423963c3ef769a5f57051257af18c62636b121fdc7f8b264266256751af25");
  const WireMsg fresp = host->serve_wire(freq);
  EXPECT_EQ(pin(fresp.payload),
            "489c6cd12b823efc5f45a578ea50265cea105d22362a0c72193068663eaf5e51");
  const Outcome fin = client->absorb_wire(fresp);
  EXPECT_EQ(fin.status, Outcome::Status::kComplete);
  EXPECT_EQ(fin.host_set, host_items);
}

// The rateless stream, pinned the same way: one session of a 2,400-item host
// set against a client that lacks 100 of its items and holds 100 of its own
// (sync_rateless's (100, 100) cell). Every RatelessChunk and RatelessNeed
// payload is pinned by its SHA-256, in exchange order. A stand-alone decoder
// fed the same symbols in the client's order pins its symbol count, its cell
// updates and the digests it recovers, sorted and in recovery order.
TEST(BackendGoldenWire, RatelessStreamPinsHold) {
  const ItemSet host_items = pinned_items(0xd001, 2400);
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  ItemSet client_items(host_sorted.begin() + 100, host_sorted.end());
  const ItemSet client_only = pinned_items(0xd002, 100);
  client_items.insert(client_only.begin(), client_only.end());
  constexpr std::uint64_t kSalt = 0x5a17e55;

  const auto host = make_host_backend(host_items, kSalt, rateless_cfg());
  const auto client = make_client_backend(client_items, rateless_cfg());
  iblt::RatelessDecoder decoder(kSalt);
  for (const ItemDigest& d : client_items) decoder.add_local(d);

  std::vector<std::string> pins;
  std::vector<std::size_t> chunk_sizes;
  WireMsg msg = host->open(client_items.size());
  Outcome out;
  for (int round = 0; round < 16; ++round) {
    pins.push_back(pin(msg.payload));
    util::ByteReader reader{util::ByteView(msg.payload)};
    const RatelessChunk chunk = RatelessChunk::deserialize(reader);
    chunk_sizes.push_back(chunk.symbols.size());
    for (std::size_t i = 0; i < chunk.symbols.size() && !decoder.decoded(); ++i) {
      if (chunk.start + i == decoder.received()) decoder.add_symbol(chunk.symbols[i]);
    }
    out = client->absorb_wire(msg);
    if (out.status != Outcome::Status::kNeedsMoreSymbols) break;
    const WireMsg need = client->next_request();
    pins.push_back(pin(need.payload));
    msg = host->serve_wire(need);
  }
  ASSERT_EQ(out.status, Outcome::Status::kComplete);
  EXPECT_EQ(out.host_set, host_items);
  // Chunk, need, chunk: the first chunk is the 48-symbol floor (|h − c| is
  // 0), and the need brings the stream to 1.6 times the decoder's estimate
  // of d plus 16 symbols, past the 263 the decoder consumes.
  EXPECT_EQ(chunk_sizes, (std::vector<std::size_t>{48, 248}));
  EXPECT_EQ(pins, (std::vector<std::string>{
                      "c7dd5964aa58719193c0b84e54be27f4e6e813bfb90c9bd1ac44f3e40b2c1915",
                      "a99c1d7794f12110f8aefc8fb3051324b2b2aa5084b2d204c33bd126ca0f9c5a",
                      "0b528794310753896106ad9c2c8e218b1481467469437f70f7e41c9c67d71fd8",
                  }));

  ASSERT_TRUE(decoder.decoded());
  EXPECT_EQ(decoder.received(), 263u);
  EXPECT_EQ(decoder.update_ops(), 26804u);
  std::vector<ItemDigest> positives = decoder.positives();
  std::vector<ItemDigest> negatives = decoder.negatives();
  util::Bytes recovery_order;
  for (const std::vector<ItemDigest>* side : {&positives, &negatives}) {
    for (const ItemDigest& d : *side) {
      recovery_order.insert(recovery_order.end(), d.begin(), d.end());
    }
  }
  EXPECT_EQ(pin(recovery_order),
            "583b7afef4a0406969810f42f223671d3a6e876578340866a79aba87389d1aaf");
  std::sort(positives.begin(), positives.end());
  std::sort(negatives.begin(), negatives.end());
  EXPECT_EQ(positives,
            std::vector<ItemDigest>(host_sorted.begin(), host_sorted.begin() + 100));
  EXPECT_EQ(negatives, sorted_of(client_only));
}

// --- The backend-agnostic driver -------------------------------------------

TEST(BackendDriver, RoundCapBoundsTheLoop) {
  core::ProtocolConfig cfg = rateless_cfg();
  cfg.reconcile_round_cap = 1;  // one message only: offer/chunk then stop
  util::Rng rng(22);
  const ItemSet host_items = pinned_items(rng.next(), 400);
  const ItemSet client_items = pinned_items(rng.next(), 400);
  Outcome out;
  const SyncStats stats = reconcile_one_way(host_items, rng.next(), client_items, cfg, out);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(out.status, Outcome::Status::kFailed);
  EXPECT_LE(stats.round_bytes.size(), 3u);
}

// --- The rateless backend --------------------------------------------------

TEST(RatelessBackend, CompletesAcrossDivergenceRegimes) {
  util::Rng rng(31);
  const struct {
    std::size_t host;
    std::size_t shared;
    std::size_t client_extra;
  } kCells[] = {
      {200, 200, 0},    // identical sets
      {200, 200, 50},   // client superset
      {300, 250, 0},    // client subset
      {300, 150, 150},  // heavy two-sided divergence
      {1, 0, 0},        // single-item host, empty client
      {500, 490, 10},   // small difference in large sets
  };
  for (const auto& cell : kCells) {
    const ItemSet host_items = pinned_items(rng.next(), cell.host);
    ItemSet client_items;
    const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
    for (std::size_t i = 0; i < cell.shared; ++i) client_items.insert(host_sorted[i]);
    for (const ItemDigest& d : pinned_items(rng.next(), cell.client_extra)) {
      client_items.insert(d);
    }

    Outcome out;
    const SyncStats stats =
        reconcile_one_way(host_items, rng.next(), client_items, rateless_cfg(), out);
    ASSERT_TRUE(stats.success) << "host=" << cell.host << " shared=" << cell.shared;
    EXPECT_EQ(out.host_set, host_items);
    EXPECT_GT(stats.symbols_consumed, 0u);
    // No decode-failure repair and no short-ID fetch — structurally absent.
    EXPECT_FALSE(stats.used_request_round);
    EXPECT_FALSE(stats.used_fetch_round);
  }
}

TEST(RatelessBackend, EmptyHostSetCompletesTrivially) {
  util::Rng rng(32);
  const ItemSet client_items = pinned_items(rng.next(), 60);
  Outcome out;
  const SyncStats stats =
      reconcile_one_way(ItemSet{}, rng.next(), client_items, rateless_cfg(), out);
  ASSERT_TRUE(stats.success);
  EXPECT_TRUE(out.host_set.empty());
}

TEST(RatelessBackend, ChunkReServesAreByteIdentical) {
  util::Rng rng(34);
  const ItemSet items = pinned_items(rng.next(), 100);
  RatelessHostBackend backend(items, 7, rateless_cfg());
  (void)backend.open(100);

  RatelessNeed need;
  need.next_index = 0;
  need.count = 16;
  WireMsg req;
  req.type = net::MessageType::kRatelessNeed;
  req.payload = need.serialize();
  const WireMsg a = backend.serve_wire(req);
  const WireMsg b = backend.serve_wire(req);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.type, net::MessageType::kRatelessChunk);
}

TEST(RatelessBackend, WireMessagesRoundTrip) {
  util::Rng rng(35);
  RatelessChunk chunk;
  chunk.start = 5;
  chunk.host_count = 123;
  chunk.salt = rng.next();
  chunk.set_checksum = rng.next();
  // An honest host's count lies in [0, host_count]: both ends, then draws.
  for (int i = 0; i < 5; ++i) {
    iblt::CodedSymbol s;
    for (auto& b : s.sum) b = static_cast<std::uint8_t>(rng.next());
    s.check = rng.next();
    s.count = i == 0   ? 0
              : i == 1 ? static_cast<std::int64_t>(chunk.host_count)
                       : static_cast<std::int64_t>(rng.below(chunk.host_count + 1));
    chunk.symbols.push_back(s);
  }
  const util::Bytes wire = chunk.serialize();
  util::ByteReader reader{util::ByteView(wire)};
  const RatelessChunk back = RatelessChunk::deserialize(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(back.start, chunk.start);
  EXPECT_EQ(back.host_count, chunk.host_count);
  EXPECT_EQ(back.salt, chunk.salt);
  EXPECT_EQ(back.set_checksum, chunk.set_checksum);
  ASSERT_EQ(back.symbols.size(), chunk.symbols.size());
  for (std::size_t i = 0; i < back.symbols.size(); ++i) {
    EXPECT_EQ(back.symbols[i].sum, chunk.symbols[i].sum);
    EXPECT_EQ(back.symbols[i].check, chunk.symbols[i].check);
    EXPECT_EQ(back.symbols[i].count, chunk.symbols[i].count);
  }

  RatelessNeed need;
  need.next_index = 99;
  need.count = 4;
  const util::Bytes need_wire = need.serialize();
  util::ByteReader nr{util::ByteView(need_wire)};
  const RatelessNeed need_back = RatelessNeed::deserialize(nr);
  EXPECT_TRUE(nr.done());
  EXPECT_EQ(need_back.next_index, need.next_index);
  EXPECT_EQ(need_back.count, need.count);

  // A count above host_count, or a negative one written as a u64, is no
  // honest host's symbol.
  for (const std::int64_t bad : {static_cast<std::int64_t>(chunk.host_count) + 1,
                                 std::int64_t{-1}, std::int64_t{-500}}) {
    RatelessChunk hostile = chunk;
    hostile.symbols[2].count = bad;
    const util::Bytes bad_wire = hostile.serialize();
    util::ByteReader br{util::ByteView(bad_wire)};
    EXPECT_THROW((void)RatelessChunk::deserialize(br), util::DeserializeError) << bad;
  }
}

TEST(RatelessBackend, OpenSizesTheFirstChunkFromTheCountGap) {
  util::Rng rng(36);
  const ItemSet items = pinned_items(rng.next(), 100);
  const auto first_chunk = [&](std::uint64_t client_count) {
    RatelessHostBackend backend(items, 7, rateless_cfg());
    const WireMsg msg = backend.open(client_count);
    util::ByteReader reader{util::ByteView(msg.payload)};
    return RatelessChunk::deserialize(reader).symbols.size();
  };
  EXPECT_EQ(first_chunk(100), 48u);  // the floor
  EXPECT_EQ(first_chunk(0), 100u);   // |h − c|
  EXPECT_EQ(first_chunk(400), 300u);
  // A hello may claim 2^40 items; the chunk stays within the wire limit.
  EXPECT_EQ(first_chunk(std::uint64_t{1} << 40), util::wire::kMaxRatelessChunkSymbols);
}

TEST(RatelessBackend, HostileCountsNeverDrawARequestPastTheBudget) {
  // Every symbol claims all host_count items: no cell ever peels, and the
  // residual counts put the client's estimate of d far above any real
  // difference. Requests must still stop at the client's symbol budget, and
  // the session must end kFailed.
  util::Rng rng(37);
  const ItemSet client_items = pinned_items(rng.next(), 200);
  RatelessClientBackend client(client_items, rateless_cfg());
  RatelessChunk chunk;
  chunk.host_count = 300;
  chunk.salt = rng.next();
  chunk.set_checksum = rng.next();
  std::uint64_t count = 48;
  Outcome out;
  int rounds = 0;
  for (; rounds < 64; ++rounds) {
    chunk.symbols.assign(count, iblt::CodedSymbol{});
    for (iblt::CodedSymbol& s : chunk.symbols) {
      for (auto& b : s.sum) b = static_cast<std::uint8_t>(rng.next());
      s.check = rng.next();
      s.count = static_cast<std::int64_t>(chunk.host_count);
    }
    out = client.absorb_wire({net::MessageType::kRatelessChunk, chunk.serialize()});
    if (out.status != Outcome::Status::kNeedsMoreSymbols) break;
    const WireMsg request = client.next_request();
    util::ByteReader reader{util::ByteView(request.payload)};
    const RatelessNeed need = RatelessNeed::deserialize(reader);
    ASSERT_GE(need.count, 1u);
    ASSERT_LE(need.next_index + need.count, client.symbol_budget());
    chunk.start = need.next_index;
    count = need.count;
  }
  EXPECT_EQ(out.status, Outcome::Status::kFailed);
  EXPECT_LT(rounds, 64);
}

// --- Wire hygiene ----------------------------------------------------------

TEST(BackendWire, TrailingPayloadBytesAreRejected) {
  util::Rng rng(41);
  const ItemSet host_items = pinned_items(rng.next(), 50);
  const ItemSet client_items = pinned_items(rng.next(), 50);
  for (const core::ReconcileBackend backend :
       {core::ReconcileBackend::kGraphene, core::ReconcileBackend::kRatelessIblt}) {
    core::ProtocolConfig cfg;
    cfg.reconcile_backend = backend;
    const auto host = make_host_backend(host_items, rng.next(), cfg);
    const auto client = make_client_backend(client_items, cfg);
    WireMsg opening = host->open(client_items.size());
    opening.payload.push_back(0x00);  // smuggled appendix
    EXPECT_THROW((void)client->absorb_wire(opening), util::DeserializeError);
  }
}

TEST(BackendWire, UnexpectedMessageTypeFailsClosed) {
  util::Rng rng(42);
  const ItemSet host_items = pinned_items(rng.next(), 50);
  const ItemSet client_items = pinned_items(rng.next(), 50);

  // Graphene client: a rateless chunk is out of protocol → kFailed.
  {
    const auto host = make_host_backend(host_items, rng.next(), {});
    const auto client = make_client_backend(client_items, {});
    WireMsg opening = host->open(client_items.size());
    opening.type = net::MessageType::kRatelessChunk;
    EXPECT_EQ(client->absorb_wire(opening).status, Outcome::Status::kFailed);
  }
  // Rateless host: a graphene request is out of protocol → ProtocolError.
  {
    const auto host = make_host_backend(host_items, rng.next(), rateless_cfg());
    (void)host->open(client_items.size());
    WireMsg bogus;
    bogus.type = net::MessageType::kReconcileRequest;
    EXPECT_THROW((void)host->serve_wire(bogus), core::ProtocolError);
  }
  // Graphene host: a rateless need is out of protocol → ProtocolError.
  {
    const auto host = make_host_backend(host_items, 7, {});
    const WireMsg need{net::MessageType::kRatelessNeed, RatelessNeed{}.serialize()};
    EXPECT_THROW((void)host->serve_wire(need), core::ProtocolError);
  }
}

TEST(BackendWire, GrapheneClientTakesEachHostMessageOnlyInItsTurn) {
  util::Rng rng(43);
  const ItemSet host_items = pinned_items(rng.next(), 200);
  ItemSet client_items = pinned_items(rng.next(), 20);
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  for (std::size_t i = 0; i < 180; ++i) client_items.insert(host_sorted[i]);
  const auto host = make_host_backend(host_items, rng.next(), {});
  const WireMsg offer = host->open(client_items.size());

  // An honest session, run to its end, supplies the response.
  const auto honest = make_client_backend(client_items, {});
  ASSERT_EQ(honest->absorb_wire(offer).status, Outcome::Status::kNeedsRequest);
  const WireMsg response = host->serve_wire(honest->next_request());
  Outcome out = honest->absorb_wire(response);
  if (out.status == Outcome::Status::kNeedsFetch) {
    out = honest->absorb_wire(host->serve_wire(honest->next_request()));
  }
  ASSERT_EQ(out.status, Outcome::Status::kComplete);
  EXPECT_THROW((void)honest->next_request(), std::logic_error);

  // Each sequence ends in a message out of its turn.
  const WireMsg fetch_response{net::MessageType::kReconcileFetchResponse,
                               FetchResponse{}.serialize()};
  const std::vector<std::vector<const WireMsg*>> out_of_turn = {
      {&response},                // a response before the offer
      {&fetch_response},          // a fetch response before the offer
      {&offer, &offer},           // a second offer
      {&offer, &fetch_response},  // a fetch response while a response is awaited
  };
  for (const std::vector<const WireMsg*>& sequence : out_of_turn) {
    const auto client = make_client_backend(client_items, {});
    for (const WireMsg* msg : sequence) out = client->absorb_wire(*msg);
    EXPECT_EQ(out.status, Outcome::Status::kFailed);
    EXPECT_THROW((void)client->next_request(), std::logic_error);
  }

  // An offer whose set checksum no set matches: the request round runs,
  // and its answer ends the session kFailed instead of asking again.
  Offer forged = parse<Offer>(offer);
  forged.set_checksum ^= 0xdeadbeef;
  const auto client = make_client_backend(client_items, {});
  out = client->absorb_wire({net::MessageType::kReconcileOffer, forged.serialize()});
  ASSERT_EQ(out.status, Outcome::Status::kNeedsRequest);
  out = client->absorb_wire(host->serve_wire(client->next_request()));
  if (out.status == Outcome::Status::kNeedsFetch) {
    out = client->absorb_wire(host->serve_wire(client->next_request()));
  }
  EXPECT_EQ(out.status, Outcome::Status::kFailed);
  EXPECT_THROW((void)client->next_request(), std::logic_error);
}

TEST(BackendWire, RatelessClientRefusesRequestsAfterATerminalOutcome) {
  util::Rng rng(44);
  const ItemSet host_items = pinned_items(rng.next(), 300);
  ItemSet client_items = pinned_items(rng.next(), 150);
  const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
  for (std::size_t i = 0; i < 150; ++i) client_items.insert(host_sorted[i]);
  const auto host = make_host_backend(host_items, rng.next(), rateless_cfg());
  const WireMsg opening = host->open(client_items.size());

  // Before the stream opens there is nothing to ask for.
  const auto idle = make_client_backend(client_items, rateless_cfg());
  EXPECT_THROW((void)idle->next_request(), std::logic_error);

  // After kComplete: an honest session, run to its end.
  const auto honest = make_client_backend(client_items, rateless_cfg());
  Outcome out = honest->absorb_wire(opening);
  ASSERT_EQ(out.status, Outcome::Status::kNeedsMoreSymbols);  // d = 300 > 48 symbols
  const WireMsg next_chunk = host->serve_wire(honest->next_request());
  out = honest->absorb_wire(next_chunk);
  while (needs_more(out.status)) {
    out = honest->absorb_wire(host->serve_wire(honest->next_request()));
  }
  ASSERT_EQ(out.status, Outcome::Status::kComplete);
  EXPECT_EQ(out.host_set, host_items);
  EXPECT_THROW((void)honest->next_request(), std::logic_error);

  // After kFailed: a message out of protocol before the stream opens, and a
  // chunk whose stream header changed mid-session.
  const auto wrong_type = make_client_backend(client_items, rateless_cfg());
  out = wrong_type->absorb_wire({net::MessageType::kReconcileOffer, Offer{}.serialize()});
  ASSERT_EQ(out.status, Outcome::Status::kFailed);
  EXPECT_THROW((void)wrong_type->next_request(), std::logic_error);

  RatelessChunk reseeded = parse<RatelessChunk>(next_chunk);
  reseeded.salt ^= 1;
  const auto client = make_client_backend(client_items, rateless_cfg());
  ASSERT_EQ(client->absorb_wire(opening).status, Outcome::Status::kNeedsMoreSymbols);
  out = client->absorb_wire({net::MessageType::kRatelessChunk, reseeded.serialize()});
  ASSERT_EQ(out.status, Outcome::Status::kFailed);
  EXPECT_THROW((void)client->next_request(), std::logic_error);
}

/// The recorder's events as "kind label", each decode's status appended,
/// and the wire bytes of its message events in order.
std::vector<std::string> flight_log(const obs::Registry& reg, std::vector<util::Bytes>* wires) {
  std::vector<std::string> log;
  for (const obs::FlightEvent& e : reg.recorder().events()) {
    std::string line = std::string(obs::to_string(e.kind)) + " " + e.label;
    if (e.kind == obs::FlightEventKind::kDecode) {
      line += " " + std::to_string(static_cast<int>(e.attr("status")));
    } else {
      wires->push_back(e.wire);
    }
    log.push_back(line);
  }
  return log;
}

TEST(BackendWire, FlightRecorderLogsEachMessageAndDecode) {
  // Graphene, through its request and fetch rounds (the reversed-path pin).
  {
    const ItemSet host_items = pinned_items(0xc001, 400);
    ItemSet client_items = pinned_items(0xc002, 10);
    const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
    for (std::size_t i = 0; i < 380; ++i) client_items.insert(host_sorted[i]);
    obs::Registry reg;
    core::ProtocolConfig cfg;
    cfg.obs = &reg;
    const auto host = make_host_backend(host_items, 0xc0de, cfg);
    const auto client = make_client_backend(client_items, cfg);
    const WireMsg offer = host->open(client_items.size());
    ASSERT_EQ(client->absorb_wire(offer).status, Outcome::Status::kNeedsRequest);
    const WireMsg req = client->next_request();
    const WireMsg resp = host->serve_wire(req);
    ASSERT_EQ(client->absorb_wire(resp).status, Outcome::Status::kNeedsFetch);
    const WireMsg freq = client->next_request();
    const WireMsg fresp = host->serve_wire(freq);
    ASSERT_EQ(client->absorb_wire(fresp).status, Outcome::Status::kComplete);

    std::vector<util::Bytes> wires;
    EXPECT_EQ(flight_log(reg, &wires),
              (std::vector<std::string>{
                  "msg_sent offer", "msg_received offer", "decode reconcile_p1 1",
                  "msg_sent request", "msg_sent response", "msg_received response",
                  "decode reconcile_p2 2", "msg_sent fetch", "msg_sent fetchresp",
                  "msg_received fetchresp", "decode reconcile_fetch 0"}));
    EXPECT_EQ(wires, (std::vector<util::Bytes>{offer.payload, offer.payload, req.payload,
                                               resp.payload, resp.payload, freq.payload,
                                               fresp.payload, fresp.payload}));
    // The fetch round's two events count what they carry: one digest for
    // each short ID fetched.
    util::ByteReader freq_reader{util::ByteView(freq.payload)};
    const auto fetched =
        static_cast<double>(core::RepairRequestMsg::deserialize(freq_reader).short_ids.size());
    ASSERT_GT(fetched, 0.0);
    const std::vector<obs::FlightEvent> events = reg.recorder().events();
    EXPECT_EQ(events[7].attr("short_ids"), fetched);
    EXPECT_EQ(events[9].attr("items"), fetched);
  }
  // Rateless: chunk, need, chunk; then a message of the wrong backend.
  {
    const ItemSet host_items = pinned_items(0xd001, 2400);
    const std::vector<ItemDigest> host_sorted = sorted_of(host_items);
    ItemSet client_items(host_sorted.begin() + 100, host_sorted.end());
    const ItemSet client_only = pinned_items(0xd002, 100);
    client_items.insert(client_only.begin(), client_only.end());
    obs::Registry reg;
    core::ProtocolConfig cfg = rateless_cfg();
    cfg.obs = &reg;
    const auto host = make_host_backend(host_items, 0x5a17e55, cfg);
    const auto client = make_client_backend(client_items, cfg);
    const WireMsg first = host->open(client_items.size());
    ASSERT_EQ(client->absorb_wire(first).status, Outcome::Status::kNeedsMoreSymbols);
    const WireMsg need = client->next_request();
    const WireMsg second = host->serve_wire(need);
    ASSERT_EQ(client->absorb_wire(second).status, Outcome::Status::kComplete);
    const auto other = make_client_backend(client_items, cfg);
    ASSERT_EQ(other->absorb_wire({net::MessageType::kReconcileOffer, {}}).status,
              Outcome::Status::kFailed);

    std::vector<util::Bytes> wires;
    EXPECT_EQ(flight_log(reg, &wires),
              (std::vector<std::string>{
                  "msg_sent rlchunk", "msg_received rlchunk", "decode reconcile_rateless 4",
                  "msg_sent rlneed", "msg_sent rlchunk", "msg_received rlchunk",
                  "decode reconcile_rateless 0", "decode reconcile_rateless 3"}));
    EXPECT_EQ(wires, (std::vector<util::Bytes>{first.payload, first.payload, need.payload,
                                               second.payload, second.payload}));
  }
}

// --- DigestHasher ----------------------------------------------------------

TEST(DigestHasher, MixesAllFourWordsOfTheDigest) {
  // The regression this guards: hashing only bytes 0–7 sent every digest
  // with a shared 8-byte prefix — exactly what an adversary grinds for —
  // into one bucket. Build 4096 digests identical except in their LAST word
  // and require a near-uniform spread over 64 buckets.
  DigestHasher hasher;
  util::Rng rng(51);
  ItemDigest base;
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next());

  constexpr std::size_t kBuckets = 64;
  constexpr std::size_t kDigests = 4096;
  std::array<std::size_t, kBuckets> counts{};
  std::unordered_set<std::size_t> distinct;
  for (std::size_t i = 0; i < kDigests; ++i) {
    ItemDigest d = base;
    for (std::size_t b = 0; b < 8; ++b) d[24 + b] = static_cast<std::uint8_t>(i >> (8 * b));
    const std::size_t h = hasher(d);
    distinct.insert(h);
    counts[h % kBuckets] += 1;
  }
  EXPECT_EQ(distinct.size(), kDigests);  // no wholesale collisions
  const std::size_t expected = kDigests / kBuckets;
  for (const std::size_t c : counts) {
    EXPECT_GT(c, expected / 4);
    EXPECT_LT(c, expected * 4);
  }
}

}  // namespace
}  // namespace graphene::reconcile
