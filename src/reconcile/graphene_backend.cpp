#include "reconcile/graphene_backend.hpp"

#include <stdexcept>

#include "graphene/errors.hpp"
#include "obs/obs.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {

namespace {

using detail::parse_payload;

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

util::Bytes Offer::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, count);
  w.u64(salt);
  w.u64(set_checksum);
  filter.serialize_into(w);
  correction.serialize_into(w);
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

util::Bytes Response::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, missing.size());
  for (const ItemDigest& d : missing) w.raw(view(d));
  correction.serialize_into(w);
  w.u8(compensation.has_value() ? 1 : 0);
  if (compensation) compensation->serialize_into(w);
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

util::Bytes FetchResponse::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, items.size());
  for (const ItemDigest& d : items) w.raw(view(d));
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

WireMsg GrapheneHostBackend::open(std::uint64_t client_count) {
  core::GrapheneHost::Offer parts = engine_.offer(client_count);
  Offer offer;
  offer.count = engine_.ids().size();
  offer.salt = engine_.salt();
  for (const std::uint64_t sid : engine_.short_ids()) offer.set_checksum ^= util::mix64(sid);
  offer.filter = std::move(parts.filter_s);
  offer.correction = std::move(parts.iblt_i);
  if (obs::FlightRecorder* fr = obs::flight(cfg_.obs)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "offer", offer,
                    {{"count", static_cast<double>(offer.count)},
                     {"bloom_bytes", static_cast<double>(offer.filter.serialized_size())},
                     {"iblt_cells", static_cast<double>(offer.correction.cell_count())}});
  }
  return {net::MessageType::kReconcileOffer, offer.serialize()};
}

WireMsg GrapheneHostBackend::serve_wire(const WireMsg& request) {
  obs::FlightRecorder* fr = obs::flight(cfg_.obs);
  if (request.type == net::MessageType::kReconcileRequest) {
    const auto req = parse_payload<core::GrapheneRequestMsg>(request, "GrapheneRequestMsg");
    core::GrapheneHost::Answer answer = engine_.serve(req, "reconcile_serve");
    Response resp;
    resp.missing.reserve(answer.missing.size());
    for (const std::size_t i : answer.missing) resp.missing.push_back(engine_.ids()[i]);
    resp.correction = std::move(answer.iblt_j);
    resp.compensation = std::move(answer.filter_f);
    if (fr != nullptr) {
      obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "response", resp,
                      {{"missing", static_cast<double>(resp.missing.size())},
                       {"j_cells", static_cast<double>(resp.correction.cell_count())},
                       {"reversed", req.reversed ? 1.0 : 0.0}});
    }
    return {net::MessageType::kReconcileResponse, resp.serialize()};
  }
  if (request.type == net::MessageType::kReconcileFetch) {
    const auto req = parse_payload<core::RepairRequestMsg>(request, "RepairRequestMsg");
    FetchResponse resp;
    for (const std::size_t i : engine_.lookup(req.short_ids)) {
      resp.items.push_back(engine_.ids()[i]);
    }
    if (fr != nullptr) {
      obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "fetchresp", resp,
                      {{"requested", static_cast<double>(req.short_ids.size())},
                       {"served", static_cast<double>(resp.items.size())}});
    }
    return {net::MessageType::kReconcileFetchResponse, resp.serialize()};
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

Outcome GrapheneClientBackend::absorb_wire(const WireMsg& msg) {
  obs::FlightRecorder* fr = obs::flight(cfg_.obs);
  Outcome out;  // kFailed: a message out of phase ends the session
  const char* decode = nullptr;
  if (phase_ == Phase::kAwaitOffer && msg.type == net::MessageType::kReconcileOffer) {
    const Offer offer = parse_payload<Offer>(msg, "reconcile::Offer");
    if (fr != nullptr) {
      obs::record_msg(*fr, obs::FlightEventKind::kMsgReceived, "offer", offer,
                      {{"count", static_cast<double>(offer.count)},
                       {"bloom_bytes", static_cast<double>(offer.filter.serialized_size())},
                       {"iblt_cells", static_cast<double>(offer.correction.cell_count())}});
    }
    host_count_ = offer.count;
    set_checksum_ = offer.set_checksum;
    engine_.filter(offer.salt, offer.count,
                   std::vector<core::Id>(items_->begin(), items_->end()), offer.filter);
    const core::Peel peel = engine_.peel(offer.correction);
    // A decode the checksum refuses still has the request round to run.
    if (peel.status == core::Resolution::kDecoded) {
      out = certify(Outcome::Status::kNeedsRequest);
    } else if (peel.status != core::Resolution::kFailed) {
      out.status = Outcome::Status::kNeedsRequest;
    }
    decode = "reconcile_p1";
  } else if (phase_ == Phase::kAwaitResponse &&
             msg.type == net::MessageType::kReconcileResponse) {
    const Response response = parse_payload<Response>(msg, "reconcile::Response");
    if (fr != nullptr) {
      obs::record_msg(
          *fr, obs::FlightEventKind::kMsgReceived, "response", response,
          {{"missing", static_cast<double>(response.missing.size())},
           {"j_cells", static_cast<double>(response.correction.cell_count())},
           {"has_compensation", response.compensation.has_value() ? 1.0 : 0.0}});
    }
    const core::Peel peel =
        engine_.complete(response.correction, response.compensation, response.missing);
    if (peel.status == core::Resolution::kNeedsFetch) {
      out.status = Outcome::Status::kNeedsFetch;
    } else if (peel.status == core::Resolution::kDecoded) {
      out = certify(Outcome::Status::kFailed);
    }
    decode = "reconcile_p2";
  } else if (phase_ == Phase::kAwaitFetch &&
             msg.type == net::MessageType::kReconcileFetchResponse) {
    const FetchResponse fetched = parse_payload<FetchResponse>(msg, "reconcile::FetchResponse");
    if (fr != nullptr) {
      obs::record_msg(*fr, obs::FlightEventKind::kMsgReceived, "fetchresp", fetched,
                      {{"items", static_cast<double>(fetched.items.size())}});
    }
    engine_.add_fetched(fetched.items);
    out = certify(Outcome::Status::kFailed);
    decode = "reconcile_fetch";
  }
  phase_ = out.status == Outcome::Status::kNeedsRequest ? Phase::kAwaitResponse
           : out.status == Outcome::Status::kNeedsFetch ? Phase::kAwaitFetch
                                                        : Phase::kDone;
  if (fr != nullptr && decode != nullptr) {
    obs::record_event(*fr, obs::FlightEventKind::kDecode, decode,
                      {{"status", static_cast<double>(static_cast<int>(out.status))}});
  }
  return out;
}

WireMsg GrapheneClientBackend::next_request() {
  obs::FlightRecorder* fr = obs::flight(cfg_.obs);
  if (phase_ == Phase::kAwaitResponse) {
    const core::GrapheneRequestMsg req = engine_.request(items_->size());
    if (fr != nullptr) {
      obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "request", req,
                      {{"z", static_cast<double>(req.z)},
                       {"b", static_cast<double>(req.b)},
                       {"y_star", static_cast<double>(req.y_star)},
                       {"fpr_r", req.fpr_r},
                       {"reversed", req.reversed ? 1.0 : 0.0}});
    }
    return {net::MessageType::kReconcileRequest, req.serialize()};
  }
  if (phase_ == Phase::kAwaitFetch) {
    const core::RepairRequestMsg req{engine_.unresolved()};
    if (fr != nullptr) {
      obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "fetch", req,
                      {{"short_ids", static_cast<double>(req.short_ids.size())}});
    }
    return {net::MessageType::kReconcileFetch, req.serialize()};
  }
  throw std::logic_error("reconcile: next_request() without a pending round");
}

Outcome GrapheneClientBackend::certify(Outcome::Status otherwise) const {
  Outcome out;
  std::uint64_t checksum = 0;
  for (const core::Id& d : engine_.candidates()) checksum ^= util::mix64(engine_.short_id(d));
  if (engine_.candidates().size() == host_count_ && checksum == set_checksum_) {
    out.status = Outcome::Status::kComplete;
    out.host_set = engine_.candidates();
  } else {
    out.status = otherwise;
  }
  return out;
}

}  // namespace graphene::reconcile
