// Seeds the fuzz corpus with real serialized messages.
//
// Usage: gen_fuzz_corpus <corpus-root>
//
// Emits, per harness, a handful of wire buffers produced by the actual
// serializers at several protocol scales — the same bytes the simulator
// would put on a socket — so coverage-guided fuzzing starts from deep in
// the accepting paths instead of rediscovering the framing byte by byte.
// The outputs are deterministic (fixed seeds); regenerate and re-commit
// whenever a wire format changes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>

#include "chain/transaction.hpp"
#include "daemon/wire.hpp"
#include "graphene/messages.hpp"
#include "net/frame.hpp"
#include "iblt/coded_symbol.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/rateless_backend.hpp"
#include "reconcile/types.hpp"
#include "util/random.hpp"
#include "util/varint.hpp"

namespace {

using namespace graphene;

std::filesystem::path g_root;

void emit(const std::string& harness, const std::string& name, const util::Bytes& bytes) {
  const std::filesystem::path dir = g_root / harness;
  std::filesystem::create_directories(dir);
  // fwrite takes void*, which std::uint8_t* converts to implicitly — no cast.
  std::FILE* out = std::fopen((dir / (name + ".bin")).string().c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "gen_fuzz_corpus: cannot open %s\n",
                 (dir / (name + ".bin")).string().c_str());
    std::exit(1);
  }
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), out);
  std::fclose(out);
}

util::Bytes prefix_byte(std::uint8_t b, const util::Bytes& rest) {
  util::Bytes out;
  out.reserve(1 + rest.size());
  out.push_back(b);
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

bloom::BloomFilter sample_filter(util::Rng& rng, std::uint64_t items, double fpr) {
  bloom::BloomFilter f(items, fpr, rng.next());
  for (std::uint64_t i = 0; i < items; ++i) {
    const auto id = chain::make_random_transaction(rng).id;
    f.insert(util::ByteView(id.data(), id.size()));
  }
  return f;
}

iblt::Iblt sample_iblt(util::Rng& rng, std::uint32_t k, std::uint64_t cells,
                       std::uint64_t items) {
  iblt::Iblt t(iblt::IbltParams{k, cells}, rng.next());
  for (std::uint64_t i = 0; i < items; ++i) t.insert(rng.next());
  return t;
}

std::vector<chain::Transaction> sample_txs(util::Rng& rng, std::size_t count) {
  std::vector<chain::Transaction> txs;
  txs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    chain::Transaction tx = chain::make_random_transaction(rng);
    tx.size_bytes = 150 + static_cast<std::uint32_t>(rng.below(400));
    txs.push_back(tx);
  }
  return txs;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  g_root = argv[1];
  util::Rng rng(0x5eedc0de);

  // bytereader: an op script length, script bytes, then varint-rich payload.
  {
    util::ByteWriter w;
    w.u8(6);
    for (int op : {0, 5, 2, 7, 6, 3}) w.u8(static_cast<std::uint8_t>(op));
    util::write_varint(w, 0xfc);
    util::write_varint(w, 0xfd);
    util::write_varint(w, 0x10000);
    util::write_varint(w, 0x100000000ULL);
    w.u64(rng.next());
    emit("fuzz_bytereader", "seed-varints", w.take());
  }

  // Standalone structures at three representative scales each.
  for (const auto& [tag, items] :
       {std::pair<const char*, std::uint64_t>{"small", 20},
        {"medium", 500},
        {"large", 5000}}) {
    emit("fuzz_bloom_filter", std::string("seed-") + tag,
         sample_filter(rng, items, 0.02).serialize());
    emit("fuzz_iblt", std::string("seed-") + tag,
         sample_iblt(rng, 4, items / 4 + 8, items / 10 + 2).serialize());
  }
  emit("fuzz_bloom_filter", "seed-degenerate", bloom::BloomFilter(0, 1.0).serialize());

  // Draws kept from a deleted seed, so every later seed of this Rng stays
  // byte-identical.
  for (int i = 0; i < 400; ++i) (void)rng.next();

  // Protocol messages, as a sender/receiver pair would emit them.
  for (const auto& [tag, n] : {std::pair<const char*, std::size_t>{"small", 30},
                               {"medium", 400}}) {
    const auto txs = sample_txs(rng, n);

    core::GrapheneBlockMsg blk;
    blk.n = n;
    blk.shortid_salt = rng.next();
    blk.filter_s = sample_filter(rng, n, 0.005);
    blk.iblt_i = sample_iblt(rng, 4, n / 5 + 8, n / 20 + 2);
    emit("fuzz_graphene_block", std::string("seed-") + tag, blk.serialize());

    core::GrapheneRequestMsg req;
    req.z = n + 40;
    req.b = 6;
    req.y_star = 12;
    req.fpr_r = 0.05;
    req.reversed = (n > 100);
    req.filter = sample_filter(rng, n + 40, 0.05);
    emit("fuzz_graphene_request", std::string("seed-") + tag, req.serialize());

    core::GrapheneResponseMsg resp;
    resp.missing = sample_txs(rng, 4);
    resp.iblt_j = sample_iblt(rng, 4, 24, 5);
    if (n > 100) resp.filter_f = sample_filter(rng, n, 0.1);
    emit("fuzz_graphene_response", std::string("seed-") + tag, resp.serialize());

    core::RepairRequestMsg rreq;
    for (std::size_t i = 0; i < n / 10 + 1; ++i) rreq.short_ids.push_back(rng.next());
    emit("fuzz_repair", std::string("seed-req-") + tag, prefix_byte(0, rreq.serialize()));

    core::RepairResponseMsg rresp;
    rresp.txns = sample_txs(rng, n / 10 + 1);
    emit("fuzz_repair", std::string("seed-resp-") + tag, prefix_byte(1, rresp.serialize()));
  }

  // Rateless backend messages: a symbol-bearing chunk at two stream offsets
  // plus a continuation ask (first byte routes, as in fuzz_repair). Own Rng
  // so inserting this section left every older seed byte-identical.
  util::Rng rateless_rng(0x247e1e55);
  for (const auto& [tag, items, start, symbols] :
       {std::tuple<const char*, int, std::uint64_t, int>{"small", 40, 0, 12},
        {"deep", 800, 96, 48}}) {
    reconcile::RatelessChunk chunk;
    chunk.start = start;
    chunk.host_count = static_cast<std::uint64_t>(items);
    chunk.salt = rateless_rng.next();
    iblt::RatelessEncoder enc(chunk.salt);
    for (int i = 0; i < items; ++i) {
      const auto id = chain::make_random_transaction(rateless_rng).id;
      reconcile::ItemDigest d;
      std::copy(id.begin(), id.end(), d.begin());
      enc.add_item(d);
    }
    chunk.set_checksum = enc.set_checksum();
    for (std::uint64_t i = 0; i < start; ++i) (void)enc.next_symbol();
    for (int i = 0; i < symbols; ++i) chunk.symbols.push_back(enc.next_symbol());
    emit("fuzz_rateless_chunk", std::string("seed-chunk-") + tag,
         prefix_byte(0, chunk.serialize()));

    reconcile::RatelessNeed need;
    need.next_index = start + static_cast<std::uint64_t>(symbols);
    need.count = static_cast<std::uint64_t>(symbols) * 2;
    emit("fuzz_rateless_chunk", std::string("seed-need-") + tag,
         prefix_byte(1, need.serialize()));
  }

  // Framing reader: the first byte is the chunk-size hint the harness reads,
  // the rest a raw TCP stream. Seeds cover a lone control frame, a coalesced
  // multi-frame session transcript, a mid-frame truncation, and a rateless
  // exchange. Own Rng so inserting this section left every older seed
  // byte-identical.
  {
    util::Rng frame_rng(0x66726d65);
    const auto framed = [](net::MessageType type, const util::Bytes& payload) {
      return net::encode_frame(net::Message{type, payload});
    };

    daemon::HelloMsg hello;
    hello.backend = 0;
    hello.item_count = 30;
    emit("fuzz_frame", "seed-hello",
         prefix_byte(17, framed(net::MessageType::kDaemonHello, hello.serialize())));

    // One full session as it coalesces on the wire: hello, the offer the
    // daemon answers with, the client's bye, and a typed error frame.
    core::GrapheneBlockMsg blk;
    blk.n = 30;
    blk.shortid_salt = frame_rng.next();
    blk.filter_s = sample_filter(frame_rng, 30, 0.02);
    blk.iblt_i = sample_iblt(frame_rng, 4, 16, 4);
    daemon::ByeMsg bye;
    bye.ok = 1;
    bye.rounds = 2;
    daemon::ErrorMsg err;
    err.code = daemon::ErrorCode::kLimit;
    err.detail = "daemon: session message cap";
    util::Bytes stream;
    for (const util::Bytes& frame :
         {framed(net::MessageType::kDaemonHello, hello.serialize()),
          framed(net::MessageType::kGrapheneBlock, blk.serialize()),
          framed(net::MessageType::kDaemonBye, bye.serialize()),
          framed(net::MessageType::kDaemonError, err.serialize())}) {
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    emit("fuzz_frame", "seed-session-stream", prefix_byte(3, stream));

    util::Bytes truncated(stream.begin(),
                          stream.begin() + static_cast<std::ptrdiff_t>(stream.size() / 2));
    emit("fuzz_frame", "seed-truncated", prefix_byte(96, truncated));

    daemon::HelloMsg rhello;
    rhello.backend = 1;
    rhello.item_count = 40;
    reconcile::RatelessChunk chunk;
    chunk.start = 0;
    chunk.host_count = 40;
    chunk.salt = frame_rng.next();
    iblt::RatelessEncoder enc(chunk.salt);
    for (int i = 0; i < 40; ++i) {
      const auto id = chain::make_random_transaction(frame_rng).id;
      reconcile::ItemDigest d;
      std::copy(id.begin(), id.end(), d.begin());
      enc.add_item(d);
    }
    chunk.set_checksum = enc.set_checksum();
    for (int i = 0; i < 16; ++i) chunk.symbols.push_back(enc.next_symbol());
    util::Bytes rstream = framed(net::MessageType::kDaemonHello, rhello.serialize());
    const util::Bytes rchunk = framed(net::MessageType::kRatelessChunk, chunk.serialize());
    rstream.insert(rstream.end(), rchunk.begin(), rchunk.end());
    emit("fuzz_frame", "seed-rateless-stream", prefix_byte(41, rstream));
  }

  // Wire-type round trip: the first byte indexes the harness's route table
  // (see fuzz_wire_types.cpp's kRoutes). One accepting seed per route so the
  // fuzzer starts inside every parser. Own Rng so inserting this section
  // left every older seed byte-identical.
  {
    util::Rng wt_rng(0x2e20c0de);
    const auto seed = [](const char* name, std::uint8_t route, const util::Bytes& body) {
      emit("fuzz_wire_types", name, prefix_byte(route, body));
    };
    seed("seed-bloom", 0, sample_filter(wt_rng, 60, 0.02).serialize());
    seed("seed-iblt", 1, sample_iblt(wt_rng, 4, 32, 10).serialize());

    core::GrapheneBlockMsg blk;
    blk.n = 30;
    blk.shortid_salt = wt_rng.next();
    blk.filter_s = sample_filter(wt_rng, 30, 0.02);
    blk.iblt_i = sample_iblt(wt_rng, 4, 16, 4);
    seed("seed-block-msg", 2, blk.serialize());

    core::GrapheneResponseMsg resp;
    resp.missing = sample_txs(wt_rng, 3);
    resp.iblt_j = sample_iblt(wt_rng, 4, 24, 5);
    resp.filter_f = sample_filter(wt_rng, 40, 0.1);
    seed("seed-response-msg", 4, resp.serialize());

    reconcile::Offer offer;
    offer.count = 50;
    offer.salt = wt_rng.next();
    offer.set_checksum = wt_rng.next();
    offer.filter = sample_filter(wt_rng, 50, 0.02);
    offer.correction = sample_iblt(wt_rng, 4, 16, 6);
    seed("seed-offer", 7, offer.serialize());

    reconcile::RatelessChunk chunk;
    chunk.start = 0;
    chunk.host_count = 20;
    chunk.salt = wt_rng.next();
    iblt::RatelessEncoder enc(chunk.salt);
    for (int i = 0; i < 20; ++i) {
      const auto id = chain::make_random_transaction(wt_rng).id;
      reconcile::ItemDigest d;
      std::copy(id.begin(), id.end(), d.begin());
      enc.add_item(d);
    }
    chunk.set_checksum = enc.set_checksum();
    for (int i = 0; i < 8; ++i) chunk.symbols.push_back(enc.next_symbol());
    seed("seed-chunk", 10, chunk.serialize());

    daemon::HelloMsg hello;
    hello.backend = 0;
    hello.item_count = 25;
    seed("seed-hello", 12, hello.serialize());

    // The routes no other harness reaches: the rest of a Graphene reconcile
    // session and the daemon's closing messages.
    reconcile::Response rresp;
    for (int i = 0; i < 3; ++i) {
      const auto id = chain::make_random_transaction(wt_rng).id;
      reconcile::ItemDigest d;
      std::copy(id.begin(), id.end(), d.begin());
      rresp.missing.push_back(d);
    }
    std::sort(rresp.missing.begin(), rresp.missing.end());
    rresp.correction = sample_iblt(wt_rng, 4, 24, 5);
    rresp.compensation = sample_filter(wt_rng, 40, 0.1);
    seed("seed-response", 8, rresp.serialize());

    reconcile::FetchResponse fresp;
    fresp.items = rresp.missing;
    seed("seed-fetch-response", 9, fresp.serialize());

    daemon::ByeMsg bye;
    bye.ok = 1;
    bye.rounds = 3;
    seed("seed-bye", 13, bye.serialize());

    daemon::ErrorMsg err;
    err.code = daemon::ErrorCode::kLimit;
    err.detail = "daemon: session message cap";
    seed("seed-error", 14, err.serialize());

    // The remaining routes also have a dedicated harness of their own.
    core::GrapheneRequestMsg greq;
    greq.z = 40;
    greq.b = 2;
    greq.y_star = 4;
    greq.fpr_r = 0.05;
    greq.filter = sample_filter(wt_rng, 40, 0.05);
    seed("seed-request-msg", 3, greq.serialize());

    core::RepairRequestMsg rreq;
    for (int i = 0; i < 3; ++i) rreq.short_ids.push_back(wt_rng.next());
    seed("seed-repair-request", 5, rreq.serialize());

    core::RepairResponseMsg rrsp;
    rrsp.txns = sample_txs(wt_rng, 2);
    seed("seed-repair-response", 6, rrsp.serialize());

    reconcile::RatelessNeed need;
    need.next_index = 8;
    need.count = 16;
    seed("seed-need", 11, need.serialize());
  }

  // roundtrip consumes a parameter stream, not wire bytes: raw entropy seeds.
  {
    util::ByteWriter w;
    for (int i = 0; i < 64; ++i) w.u64(rng.next());
    emit("fuzz_roundtrip", "seed-params", w.take());
  }

  std::printf("corpus written under %s\n", g_root.string().c_str());
  return 0;
}
