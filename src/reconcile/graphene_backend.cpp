#include "reconcile/graphene_backend.hpp"

#include <cstring>
#include <stdexcept>

#include "graphene/errors.hpp"
#include "reconcile/flight.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {

namespace {

using detail::parse_payload;
using detail::record_decode;
using detail::record_msg;

/// Set reconciliation's wire constants (docs/PROTOCOL.md).
constexpr core::EngineKeys kSetKeys{.s_seed = 0x0ffe12,
                                    .r_seed = 0x4ece55,
                                    .f_seed = 0xc0ffee,
                                    .sid_key = 0x6a09e667f3bcc908ULL,
                                    .min_filter_items = 1};

util::ByteView view(const ItemDigest& d) noexcept {
  return util::ByteView(d.data(), d.size());
}

}  // namespace

// --- wire formats -----------------------------------------------------------

void Offer::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, count);
  w.u64(salt);
  w.u64(set_checksum);
  filter.serialize_into(w);
  correction.serialize_into(w);
}

util::Bytes Offer::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

Offer Offer::deserialize(util::ByteReader& reader) {
  Offer o;
  o.count = util::read_varint_bounded(reader, util::wire::kMaxWireCollection,
                                      "reconcile::Offer count");
  o.salt = reader.u64();
  o.set_checksum = reader.u64();
  o.filter = bloom::BloomFilter::deserialize(reader);
  o.correction = iblt::Iblt::deserialize(reader);
  return o;
}

std::size_t Offer::serialized_size() const noexcept {
  return util::varint_size(count) + 16 + filter.serialized_size() +
         correction.serialized_size();
}

void Request::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, candidate_count);
  util::write_varint(w, b);
  util::write_varint(w, y_star);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &fpr_r, sizeof(bits));
  w.u64(bits);
  w.u8(reversed ? 1 : 0);
  filter.serialize_into(w);
}

util::Bytes Request::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

Request Request::deserialize(util::ByteReader& reader) {
  Request r;
  r.candidate_count = util::read_varint_bounded(reader, util::wire::kMaxWireCollection,
                                                "reconcile::Request candidates");
  r.b = util::read_varint_bounded(reader, util::wire::kMaxSizingParam,
                                  "reconcile::Request b");
  r.y_star = util::read_varint_bounded(reader, util::wire::kMaxSizingParam,
                                       "reconcile::Request y_star");
  const std::uint64_t bits = reader.u64();
  std::memcpy(&r.fpr_r, &bits, sizeof(r.fpr_r));
  if (!(r.fpr_r > 0.0 && r.fpr_r <= 1.0)) {
    throw util::DeserializeError("reconcile::Request: fpr not in (0, 1]");
  }
  const std::uint8_t reversed_flag = reader.u8();
  if (reversed_flag > 1) {
    throw util::DeserializeError("reconcile::Request: invalid reversed flag");
  }
  r.reversed = reversed_flag == 1;
  r.filter = bloom::BloomFilter::deserialize(reader);
  return r;
}

void Response::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, missing.size());
  for (const ItemDigest& d : missing) w.raw(view(d));
  correction.serialize_into(w);
  w.u8(compensation.has_value() ? 1 : 0);
  if (compensation) compensation->serialize_into(w);
}

util::Bytes Response::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

Response Response::deserialize(util::ByteReader& reader) {
  Response r;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "reconcile::Response count");
  if (count > reader.remaining() / 32) {
    throw util::DeserializeError("reconcile::Response: item count exceeds buffer");
  }
  r.missing.resize(count);
  for (ItemDigest& d : r.missing) reader.raw_into(d.data(), d.size());
  r.correction = iblt::Iblt::deserialize(reader);
  const std::uint8_t compensation_flag = reader.u8();
  if (compensation_flag > 1) {
    throw util::DeserializeError("reconcile::Response: invalid presence flag");
  }
  if (compensation_flag == 1) r.compensation = bloom::BloomFilter::deserialize(reader);
  return r;
}

void FetchRequest::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, short_ids.size());
  for (const std::uint64_t s : short_ids) w.u64(s);
}

util::Bytes FetchRequest::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

FetchRequest FetchRequest::deserialize(util::ByteReader& reader) {
  FetchRequest r;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "reconcile::FetchRequest count");
  if (count > reader.remaining() / 8) {
    throw util::DeserializeError("reconcile::FetchRequest: count exceeds buffer");
  }
  r.short_ids.resize(count);
  for (auto& s : r.short_ids) s = reader.u64();
  return r;
}

void FetchResponse::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, items.size());
  for (const ItemDigest& d : items) w.raw(view(d));
}

util::Bytes FetchResponse::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

FetchResponse FetchResponse::deserialize(util::ByteReader& reader) {
  FetchResponse r;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "reconcile::FetchResponse count");
  if (count > reader.remaining() / 32) {
    throw util::DeserializeError("reconcile::FetchResponse: count exceeds buffer");
  }
  r.items.resize(count);
  for (ItemDigest& d : r.items) reader.raw_into(d.data(), d.size());
  return r;
}

// --- host -------------------------------------------------------------------

// The engine gets no stage registry: the daemon keeps one registry for its
// whole life and obs::TraceSink is unbounded, so spans here would grow
// without limit. Flight events (bounded) still go to cfg.obs.
GrapheneHostBackend::GrapheneHostBackend(const ItemSet& items, std::uint64_t salt,
                                         core::ProtocolConfig cfg)
    : cfg_(cfg),
      engine_(std::vector<core::Id>(items.begin(), items.end()), salt, kSetKeys, cfg,
              /*stages=*/nullptr) {}

Offer GrapheneHostBackend::make_offer(std::uint64_t client_count) const {
  core::GrapheneHost::Offer parts = engine_.offer(client_count);
  Offer offer;
  offer.count = engine_.ids().size();
  offer.salt = engine_.salt();
  for (const std::uint64_t sid : engine_.short_ids()) offer.set_checksum ^= util::mix64(sid);
  offer.filter = std::move(parts.filter_s);
  offer.correction = std::move(parts.iblt_i);
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "offer", offer,
             {{"count", static_cast<double>(offer.count)},
              {"bloom_bytes", static_cast<double>(offer.filter.serialized_size())},
              {"iblt_cells", static_cast<double>(offer.correction.cell_count())}});
  return offer;
}

Response GrapheneHostBackend::serve(const Request& request) const {
  core::GrapheneHost::Answer answer = engine_.serve({.z = request.candidate_count,
                                                     .b = request.b,
                                                     .y_star = request.y_star,
                                                     .fpr_r = request.fpr_r,
                                                     .reversed = request.reversed},
                                                    request.filter, "reconcile_serve");
  Response resp;
  resp.missing.reserve(answer.missing.size());
  for (const std::size_t i : answer.missing) resp.missing.push_back(engine_.ids()[i]);
  resp.correction = std::move(answer.iblt_j);
  resp.compensation = std::move(answer.filter_f);
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "response", resp,
             {{"missing", static_cast<double>(resp.missing.size())},
              {"j_cells", static_cast<double>(resp.correction.cell_count())},
              {"reversed", request.reversed ? 1.0 : 0.0}});
  return resp;
}

FetchResponse GrapheneHostBackend::serve_fetch(const FetchRequest& request) const {
  FetchResponse resp;
  for (const std::size_t i : engine_.lookup(request.short_ids)) {
    resp.items.push_back(engine_.ids()[i]);
  }
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "fetchresp", resp,
             {{"requested", static_cast<double>(request.short_ids.size())},
              {"served", static_cast<double>(resp.items.size())}});
  return resp;
}

WireMsg GrapheneHostBackend::open(std::uint64_t client_count) {
  return {net::MessageType::kReconcileOffer, make_offer(client_count).serialize()};
}

WireMsg GrapheneHostBackend::serve_wire(const WireMsg& request) {
  switch (request.type) {
    case net::MessageType::kReconcileRequest: {
      const Request req = parse_payload<Request>(request, "reconcile::Request");
      return {net::MessageType::kReconcileResponse, serve(req).serialize()};
    }
    case net::MessageType::kReconcileFetch: {
      const FetchRequest req =
          parse_payload<FetchRequest>(request, "reconcile::FetchRequest");
      return {net::MessageType::kReconcileFetchResponse, serve_fetch(req).serialize()};
    }
    default: break;
  }
  core::ErrorContext ctx;
  ctx.n = engine_.ids().size();
  throw core::ProtocolError("reconcile_serve",
                            "unexpected message type for graphene backend", ctx);
}

// --- client -----------------------------------------------------------------

GrapheneClientBackend::GrapheneClientBackend(const ItemSet& items,
                                             core::ProtocolConfig cfg)
    : items_(&items), cfg_(cfg), engine_(kSetKeys, cfg, /*stages=*/nullptr) {}

Outcome GrapheneClientBackend::absorb(const Offer& offer) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  record_msg(reg, obs::FlightEventKind::kMsgReceived, "offer", offer,
             {{"count", static_cast<double>(offer.count)},
              {"bloom_bytes", static_cast<double>(offer.filter.serialized_size())},
              {"iblt_cells", static_cast<double>(offer.correction.cell_count())}});
  host_count_ = offer.count;
  set_checksum_ = offer.set_checksum;
  engine_.filter(offer.salt, offer.count,
                 std::vector<core::Id>(items_->begin(), items_->end()), offer.filter);
  const core::Peel peel = engine_.peel(offer.correction);
  Outcome out;
  if (peel.status == core::Resolution::kDecoded) {
    out = finalize();
  } else if (peel.status != core::Resolution::kFailed) {
    out.status = Outcome::Status::kNeedsRequest;
  }
  record_decode(reg, "reconcile_p1", out.status);
  return out;
}

Request GrapheneClientBackend::make_request() {
  Request req;
  req.candidate_count = engine_.candidates().size();
  req.filter = engine_.request(items_->size());
  const core::Protocol2Params& params = engine_.params();
  req.b = params.b;
  req.y_star = params.y_star;
  req.fpr_r = params.fpr;
  req.reversed = params.reversed;
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "request", req,
             {{"z", static_cast<double>(req.candidate_count)},
              {"b", static_cast<double>(req.b)},
              {"y_star", static_cast<double>(req.y_star)},
              {"fpr_r", req.fpr_r},
              {"reversed", req.reversed ? 1.0 : 0.0}});
  return req;
}

Outcome GrapheneClientBackend::complete(const Response& response) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  record_msg(reg, obs::FlightEventKind::kMsgReceived, "response", response,
             {{"missing", static_cast<double>(response.missing.size())},
              {"j_cells", static_cast<double>(response.correction.cell_count())},
              {"has_compensation", response.compensation.has_value() ? 1.0 : 0.0}});
  const core::Peel peel =
      engine_.complete(response.correction, response.compensation, response.missing);
  Outcome out;
  if (peel.status == core::Resolution::kNeedsFetch) {
    out.status = Outcome::Status::kNeedsFetch;
    out.unresolved = engine_.unresolved();
  } else if (peel.status == core::Resolution::kDecoded) {
    out = finalize();
  }
  record_decode(reg, "reconcile_p2", out.status);
  return out;
}

FetchRequest GrapheneClientBackend::make_fetch() const {
  FetchRequest req;
  req.short_ids = engine_.unresolved();
  return req;
}

Outcome GrapheneClientBackend::complete_fetch(const FetchResponse& response) {
  engine_.add_fetched(response.items);
  Outcome out = finalize();
  record_decode(obs::enabled(cfg_.obs), "reconcile_fetch", out.status);
  return out;
}

Outcome GrapheneClientBackend::finalize() const {
  Outcome out;
  std::uint64_t checksum = 0;
  for (const core::Id& d : engine_.candidates()) checksum ^= util::mix64(engine_.short_id(d));
  if (engine_.candidates().size() == host_count_ && checksum == set_checksum_) {
    out.status = Outcome::Status::kComplete;
    out.host_set = engine_.candidates();
  } else {
    out.status = Outcome::Status::kNeedsRequest;
  }
  return out;
}

// --- wire-driven session ----------------------------------------------------

Outcome GrapheneClientBackend::absorb_wire(const WireMsg& msg) {
  Outcome out;
  switch (msg.type) {
    case net::MessageType::kReconcileOffer: {
      if (phase_ != Phase::kAwaitOffer) break;
      out = absorb(parse_payload<Offer>(msg, "reconcile::Offer"));
      phase_ = out.status == Outcome::Status::kNeedsRequest ? Phase::kAwaitResponse
                                                            : Phase::kDone;
      last_status_ = out.status;
      return out;
    }
    case net::MessageType::kReconcileResponse: {
      if (phase_ != Phase::kAwaitResponse || last_status_ != Outcome::Status::kNeedsRequest) break;
      out = complete(parse_payload<Response>(msg, "reconcile::Response"));
      // The typed API reports a post-repair checksum mismatch as
      // kNeedsRequest so single-round callers can see why finalize failed,
      // but the repair round is spent: for the driver that status is
      // terminal, not a license to loop.
      if (out.status == Outcome::Status::kNeedsRequest) out.status = Outcome::Status::kFailed;
      phase_ = out.status == Outcome::Status::kNeedsFetch ? Phase::kAwaitFetch
                                                          : Phase::kDone;
      last_status_ = out.status;
      return out;
    }
    case net::MessageType::kReconcileFetchResponse: {
      if (phase_ != Phase::kAwaitFetch || last_status_ != Outcome::Status::kNeedsFetch) break;
      out = complete_fetch(parse_payload<FetchResponse>(msg, "reconcile::FetchResponse"));
      if (out.status != Outcome::Status::kComplete) out.status = Outcome::Status::kFailed;
      phase_ = Phase::kDone;
      last_status_ = out.status;
      return out;
    }
    default: break;
  }
  out.status = Outcome::Status::kFailed;
  phase_ = Phase::kDone;
  last_status_ = out.status;
  return out;
}

WireMsg GrapheneClientBackend::next_request() {
  if (last_status_ == Outcome::Status::kNeedsRequest) {
    return {net::MessageType::kReconcileRequest, make_request().serialize()};
  }
  if (last_status_ == Outcome::Status::kNeedsFetch) {
    return {net::MessageType::kReconcileFetch, make_fetch().serialize()};
  }
  throw std::logic_error("reconcile: next_request() without a pending round");
}

}  // namespace graphene::reconcile
