#include "reconcile/rateless_backend.hpp"

#include <algorithm>
#include <cmath>

#include "graphene/errors.hpp"
#include "obs/obs.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {

namespace {

using detail::parse_payload;

/// Fewest coded symbols in the first RatelessChunk. |host − client| raises
/// it, since a client consumes at least d symbols before it decodes. 48
/// symbols are about 2 KB, 1.6% of a 125,000-byte round trip, so a first
/// chunk that overshoots a small d costs less than a second trip.
constexpr std::uint64_t kInitialSymbols = 48;

/// A RatelessNeed asks for enough symbols that the stream reaches
/// kRequestFactor·d̂ + kRequestSlack (d̂ the client's estimate of d). A
/// difference decodes after ~1.35·d symbols, so 1.6·d̂ covers most of the
/// tail in one more round trip.
constexpr double kRequestFactor = 1.6;
constexpr double kRequestSlack = 16;

/// Fewest symbols a RatelessNeed asks for, and half the stream consumed if
/// that is more: a low or hostile estimate still grows the stream
/// geometrically, so d is reached in O(log d) round trips.
constexpr std::uint64_t kMinRequestSymbols = 16;

[[nodiscard]] std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : b - a;
}

}  // namespace

// --- wire formats -----------------------------------------------------------

util::Bytes RatelessChunk::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, start);
  util::write_varint(w, host_count);
  w.u64(salt);
  w.u64(set_checksum);
  util::write_varint(w, symbols.size());
  for (const iblt::CodedSymbol& s : symbols) {
    util::write_varint(w, static_cast<std::uint64_t>(s.count));
    w.u64(s.check);
    w.raw(util::ByteView(s.sum.data(), s.sum.size()));
  }
  return w.take();
}

RatelessChunk RatelessChunk::deserialize(util::ByteReader& reader) {
  RatelessChunk c;
  c.start = util::read_varint_bounded(reader, util::wire::kMaxRatelessStreamIndex,
                                      "reconcile::RatelessChunk start");
  c.host_count = util::read_varint_bounded(reader, util::wire::kMaxWireCollection,
                                           "reconcile::RatelessChunk host_count");
  c.salt = reader.u64();
  c.set_checksum = reader.u64();
  const std::uint64_t count =
      util::read_varint_bounded(reader, util::wire::kMaxRatelessChunkSymbols,
                                "reconcile::RatelessChunk symbols");
  if (count > reader.remaining() / iblt::CodedSymbol::kMinWireBytes) {
    throw util::DeserializeError("reconcile::RatelessChunk: symbol count exceeds buffer");
  }
  c.symbols.resize(count);
  for (iblt::CodedSymbol& s : c.symbols) {
    // An honest host's symbol holds between none and all of its items.
    s.count = static_cast<std::int64_t>(util::read_varint_bounded(
        reader, c.host_count, "reconcile::RatelessChunk symbol count"));
    s.check = reader.u64();
    reader.raw_into(s.sum.data(), s.sum.size());
  }
  return c;
}

util::Bytes RatelessNeed::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, next_index);
  util::write_varint(w, count);
  return w.take();
}

RatelessNeed RatelessNeed::deserialize(util::ByteReader& reader) {
  RatelessNeed n;
  n.next_index = util::read_varint_bounded(reader, util::wire::kMaxRatelessStreamIndex,
                                           "reconcile::RatelessNeed next_index");
  n.count = util::read_varint_bounded(reader, util::wire::kMaxRatelessChunkSymbols,
                                      "reconcile::RatelessNeed count");
  return n;
}

// --- host -------------------------------------------------------------------

RatelessStream::RatelessStream(const ItemSet& items, std::uint64_t salt)
    : salt_(salt), encoder_(salt) {
  for (const ItemDigest& d : items) encoder_.add_item(d);
}

std::span<const iblt::CodedSymbol> RatelessStream::read(std::uint64_t start,
                                                        std::uint64_t count) {
  while (symbols_.size() < start + count) symbols_.push_back(encoder_.next_symbol());
  return std::span<const iblt::CodedSymbol>(symbols_).subspan(start, count);
}

RatelessHostBackend::RatelessHostBackend(const ItemSet& items, std::uint64_t salt,
                                         core::ProtocolConfig cfg)
    : RatelessHostBackend(std::make_shared<RatelessStream>(items, salt), cfg) {}

RatelessHostBackend::RatelessHostBackend(std::shared_ptr<RatelessStream> stream,
                                         core::ProtocolConfig cfg)
    : stream_(std::move(stream)),
      cfg_(cfg),
      stream_budget_(8 * stream_->host_count() + 1024) {}

WireMsg RatelessHostBackend::chunk_for(std::uint64_t start, std::uint64_t count) {
  const std::span<const iblt::CodedSymbol> symbols = stream_->read(start, count);
  sent_end_ = std::max(sent_end_, start + count);
  RatelessChunk chunk;
  chunk.start = start;
  chunk.host_count = stream_->host_count();
  chunk.salt = stream_->salt();
  chunk.set_checksum = stream_->set_checksum();
  chunk.symbols.assign(symbols.begin(), symbols.end());
  if (obs::FlightRecorder* fr = obs::flight(cfg_.obs)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "rlchunk", chunk,
                    {{"start", static_cast<double>(start)},
                     {"symbols", static_cast<double>(count)},
                     {"host_count", static_cast<double>(chunk.host_count)}});
  }
  return {net::MessageType::kRatelessChunk, chunk.serialize()};
}

WireMsg RatelessHostBackend::open(std::uint64_t client_count) {
  const std::uint64_t host_count = stream_->host_count();
  // An honest client needs ~1.35·d < 1.35·(n + m) symbols; budget a few
  // multiples of that so re-requests after faults always fit, while a peer
  // milking the stream for free CPU hits a typed error in bounded work.
  stream_budget_ = std::max(stream_budget_, 8 * (host_count + client_count) + 1024);
  // |host − client| is a lower bound on d, and the client consumes at least
  // d symbols, so none of these goes unread. A hello may claim 2^40 items.
  const std::uint64_t count =
      std::min({std::max(kInitialSymbols, abs_diff(host_count, client_count)),
                util::wire::kMaxRatelessChunkSymbols, stream_budget_});
  return chunk_for(0, count);
}

WireMsg RatelessHostBackend::serve_wire(const WireMsg& request) {
  core::ErrorContext ctx;
  ctx.n = stream_->host_count();
  if (request.type != net::MessageType::kRatelessNeed) {
    throw core::ProtocolError("rateless_serve",
                              "unexpected message type for rateless backend", ctx);
  }
  const RatelessNeed need = parse_payload<RatelessNeed>(request, "reconcile::RatelessNeed");
  ctx.z = need.next_index;
  // An honest client asks from its decoder's cursor, which never passes the
  // symbols it was sent; a need that starts further on would make the host
  // draw symbols this session never saw the prefix of.
  if (need.next_index > sent_end_) {
    throw core::ProtocolError("rateless_serve",
                              "symbol request starts past the symbols sent", ctx);
  }
  const std::uint64_t count = std::clamp<std::uint64_t>(
      need.count, 1, util::wire::kMaxRatelessChunkSymbols);
  if (need.next_index + count > stream_budget_) {
    throw core::ProtocolError("rateless_serve", "symbol request beyond stream budget",
                              ctx);
  }
  return chunk_for(need.next_index, count);
}

// --- client -----------------------------------------------------------------

RatelessClientBackend::RatelessClientBackend(const ItemSet& items,
                                             core::ProtocolConfig cfg)
    : items_(&items), cfg_(cfg) {}

std::uint64_t RatelessClientBackend::symbol_budget() const noexcept {
  return std::max<std::uint64_t>(1024, 4 * (items_->size() + host_count_) + 64);
}

Outcome RatelessClientBackend::fail() {
  failed_ = true;
  Outcome out;
  out.status = Outcome::Status::kFailed;
  if (decoder_) out.symbols_consumed = decoder_->received();
  if (obs::FlightRecorder* fr = obs::flight(cfg_.obs)) {
    obs::record_event(*fr, obs::FlightEventKind::kDecode, "reconcile_rateless",
                      {{"status", static_cast<double>(static_cast<int>(out.status))}});
  }
  return out;
}

Outcome RatelessClientBackend::absorb_wire(const WireMsg& msg) {
  if (failed_ || msg.type != net::MessageType::kRatelessChunk) return fail();
  const RatelessChunk chunk = parse_payload<RatelessChunk>(msg, "reconcile::RatelessChunk");
  if (obs::FlightRecorder* fr = obs::flight(cfg_.obs)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgReceived, "rlchunk", chunk,
                    {{"start", static_cast<double>(chunk.start)},
                     {"symbols", static_cast<double>(chunk.symbols.size())},
                     {"host_count", static_cast<double>(chunk.host_count)}});
  }
  if (!started_) {
    salt_ = chunk.salt;
    host_count_ = chunk.host_count;
    set_checksum_ = chunk.set_checksum;
    decoder_.emplace(salt_);
    for (const ItemDigest& d : *items_) decoder_->add_local(d);
    started_ = true;
  } else if (chunk.salt != salt_ || chunk.host_count != host_count_ ||
             chunk.set_checksum != set_checksum_) {
    // The stream header is fixed for a session; a host that changes it
    // mid-flight is describing a different set.
    return fail();
  }

  // Consume in stream order. Symbols before our cursor are duplicates
  // (idempotent re-serves, channel-level retransmits) and are skipped; a
  // chunk starting past the cursor is a gap we cannot peel over, so we keep
  // the cursor and re-request — the host's cache makes the retry identical.
  for (std::size_t i = 0; i < chunk.symbols.size(); ++i) {
    const std::uint64_t index = chunk.start + i;
    if (index < decoder_->received()) continue;
    if (index > decoder_->received()) break;
    decoder_->add_symbol(chunk.symbols[i]);
    if (decoder_->malformed()) return fail();
    if (decoder_->decoded()) break;
  }
  // Past the budget the stream is hostile; at it, undecoded, there is
  // nothing left to ask for.
  if (decoder_->received() > symbol_budget() ||
      (!decoder_->decoded() && decoder_->received() == symbol_budget())) {
    return fail();
  }

  Outcome out;
  out.symbols_consumed = decoder_->received();
  if (decoder_->decoded()) {
    ItemSet host_set = *items_;
    for (const ItemDigest& d : decoder_->negatives()) host_set.erase(d);
    for (const ItemDigest& d : decoder_->positives()) host_set.insert(d);
    std::uint64_t checksum = 0;
    for (const ItemDigest& d : host_set) {
      checksum ^= iblt::coded_symbol_check(d, salt_);
    }
    if (host_set.size() != host_count_ || checksum != set_checksum_) return fail();
    out.status = Outcome::Status::kComplete;
    out.host_set = std::move(host_set);
  } else {
    out.status = Outcome::Status::kNeedsMoreSymbols;
  }
  if (obs::FlightRecorder* fr = obs::flight(cfg_.obs)) {
    obs::record_event(*fr, obs::FlightEventKind::kDecode, "reconcile_rateless",
                      {{"status", static_cast<double>(static_cast<int>(out.status))}});
  }
  return out;
}

WireMsg RatelessClientBackend::next_request() {
  // A decoded stream has ended the session: absorb_wire() returned kComplete.
  if (failed_ || !started_ || decoder_->decoded()) {
    throw std::logic_error("reconcile: rateless next_request() without a pending round");
  }
  const std::uint64_t received = decoder_->received();
  // Size the next chunk from what the session already holds: |h − c| bounds
  // d from below, and the residual cells estimate it (RatelessDecoder::
  // difference_estimate). Both sets are bounded by wire limits far below
  // 2^63, so their difference fits an int64.
  const auto host_minus_local = static_cast<std::int64_t>(host_count_) -
                                static_cast<std::int64_t>(items_->size());
  const double d_hat =
      std::max(decoder_->difference_estimate(host_minus_local),
               static_cast<double>(abs_diff(host_count_, items_->size())));
  const double want =
      std::max(std::ceil(kRequestFactor * d_hat + kRequestSlack) -
                   static_cast<double>(received),
               static_cast<double>(std::max(kMinRequestSymbols, received / 2)));
  // absorb_wire() fails the session before the budget is spent, so at least
  // one symbol remains; the clamp also keeps a hostile estimate's double
  // inside the integer range.
  const std::uint64_t cap =
      std::min(symbol_budget() - received, util::wire::kMaxRatelessChunkSymbols);
  RatelessNeed need;
  need.next_index = received;
  need.count = want < static_cast<double>(cap) ? static_cast<std::uint64_t>(want) : cap;
  if (obs::FlightRecorder* fr = obs::flight(cfg_.obs)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "rlneed", need,
                    {{"next_index", static_cast<double>(need.next_index)},
                     {"count", static_cast<double>(need.count)}});
  }
  return {net::MessageType::kRatelessNeed, need.serialize()};
}

}  // namespace graphene::reconcile
