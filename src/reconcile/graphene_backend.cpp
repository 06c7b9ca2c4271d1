#include "reconcile/graphene_backend.hpp"

#include <algorithm>

#include "bloom/bloom_math.hpp"
#include "graphene/bounds.hpp"
#include "graphene/errors.hpp"
#include "iblt/param_cache.hpp"
#include "iblt/param_table.hpp"
#include "iblt/pingpong.hpp"
#include "reconcile/flight.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::reconcile {

namespace {

using detail::record_decode;
using detail::record_msg;

std::uint64_t short_id_of(const ItemDigest& d, std::uint64_t salt,
                          const core::ProtocolConfig& cfg) noexcept {
  if (cfg.keyed_short_ids) {
    return util::siphash24(util::SipHashKey{salt, salt ^ 0x6a09e667f3bcc908ULL},
                           util::ByteView(d.data(), d.size()));
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(d[static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

util::ByteView view(const ItemDigest& d) noexcept {
  return util::ByteView(d.data(), d.size());
}

/// Snapshots an iteration of `items` (digest pointers stay valid — the
/// containers are node- or array-backed and unmodified during a pass) plus
/// the matching view array for the batch filter primitives.
struct DigestPass {
  std::vector<const ItemDigest*> digests;
  std::vector<util::ByteView> views;

  template <typename Container>
  explicit DigestPass(const Container& items) {
    digests.reserve(items.size());
    views.reserve(items.size());
    for (const ItemDigest& d : items) {
      digests.push_back(&d);
      views.push_back(view(d));
    }
  }

  /// hit[i] = 1 iff views[i] passes `filter`; chunk-parallel with a pool.
  [[nodiscard]] std::vector<std::uint8_t> scan(const bloom::BloomFilter& filter,
                                               util::ThreadPool* pool) const {
    std::vector<std::uint8_t> hit(views.size());
    bloom::contains_all(filter, views.data(), views.size(), hit.data(), pool);
    return hit;
  }
};

using detail::parse_payload;

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

GrapheneHostBackend::GrapheneHostBackend(const ItemSet& items, std::uint64_t salt,
                                         core::ProtocolConfig cfg)
    : items_(&items), salt_(salt), cfg_(cfg) {}

Offer GrapheneHostBackend::make_offer(std::uint64_t client_count) const {
  const std::uint64_t n = items_->size();
  const core::Protocol1Params params =
      core::optimize_protocol1(n, std::max(client_count, n), cfg_);

  Offer offer;
  offer.count = n;
  offer.salt = salt_;
  offer.filter = bloom::BloomFilter(std::max<std::uint64_t>(n, 1), params.fpr,
                                    salt_ ^ 0x0ffe12, cfg_.bloom_strategy);
  offer.correction = iblt::Iblt(params.iblt, salt_);
  const DigestPass pass(*items_);
  offer.filter.insert_batch(pass.views.data(), pass.views.size());
  std::vector<std::uint64_t> sids;
  sids.reserve(n);
  for (const ItemDigest* d : pass.digests) {
    const std::uint64_t sid = short_id_of(*d, salt_, cfg_);
    sids.push_back(sid);
    offer.set_checksum ^= util::mix64(sid);
  }
  offer.correction.insert_all(sids);
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "offer", offer,
             {{"count", static_cast<double>(n)},
              {"bloom_bytes", static_cast<double>(offer.filter.serialized_size())},
              {"iblt_cells", static_cast<double>(offer.correction.cell_count())}});
  return offer;
}

Response GrapheneHostBackend::serve(const Request& request) const {
  // Revalidate the sizing parameters even though the deserializer caps each
  // field: serve() is also reachable with an in-memory request, and
  // b + y_star sizes the correction IBLT allocated below — two fields at
  // their individual caps would otherwise allocate a multi-hundred-MB table.
  if (request.b > util::wire::kMaxSizingParam ||
      request.y_star > util::wire::kMaxSizingParam ||
      request.b + request.y_star > util::wire::kMaxIbltCells ||
      request.candidate_count > util::wire::kMaxWireCollection ||
      !(request.fpr_r > 0.0 && request.fpr_r <= 1.0)) {
    core::ErrorContext ctx;
    ctx.n = items_->size();
    ctx.z = request.candidate_count;
    ctx.y_star = request.y_star;
    ctx.b = request.b;
    if (obs::FlightRecorder* fr = obs::flight(obs::enabled(cfg_.obs))) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kError;
      e.label = "reconcile_serve";
      e.attrs = {{"n", static_cast<double>(ctx.n)},
                 {"z", static_cast<double>(ctx.z)},
                 {"y_star", static_cast<double>(ctx.y_star)},
                 {"b", static_cast<double>(ctx.b)}};
      fr->record(std::move(e));
    }
    throw core::ProtocolError("reconcile_serve",
                              "request sizing parameters out of range", ctx);
  }

  Response resp;
  const std::uint64_t n = items_->size();

  std::vector<const ItemDigest*> passed;
  passed.reserve(n);
  const DigestPass pass(*items_);
  {
    const std::vector<std::uint8_t> hit = pass.scan(request.filter, cfg_.pool);
    for (std::size_t i = 0; i < pass.digests.size(); ++i) {
      if (hit[i] != 0) {
        passed.push_back(pass.digests[i]);
      } else {
        resp.missing.push_back(*pass.digests[i]);
      }
    }
  }

  // Canonicalize: the scan above visits items in hash-table iteration order,
  // which is an artifact of the in-memory DigestHasher — left unsorted it
  // would leak onto the wire and change whenever the hasher does. Missing
  // items are a set; emit them in digest order so Response bytes are a pure
  // function of the sets (pinned by the golden-wire test).
  std::sort(resp.missing.begin(), resp.missing.end());

  std::uint64_t j_items = request.b + request.y_star;
  if (request.reversed) {
    const std::uint64_t z_s = passed.size();
    const std::uint64_t x_s = core::bound_x_star(z_s, n, request.candidate_count,
                                                 request.fpr_r, cfg_.beta);
    const std::uint64_t y_s = core::bound_y_star(n, x_s, request.fpr_r, cfg_.beta);
    const std::uint64_t denom = std::max<std::uint64_t>(
        1, request.candidate_count > x_s ? request.candidate_count - x_s : 1);

    std::uint64_t best_b = 1;
    std::size_t best_total = SIZE_MAX;
    for (std::uint64_t b = 1; b <= denom; b = (b < 128 ? b + 1 : b + b / 8)) {
      const double f_f = std::min(1.0, static_cast<double>(b) / static_cast<double>(denom));
      const std::size_t total = bloom::serialized_bytes(z_s, f_f) +
                                iblt::cached_iblt_bytes(cfg_.param_cache, b + y_s, cfg_.fail_denom);
      if (total < best_total) {
        best_total = total;
        best_b = b;
      }
    }
    const double f_f = std::min(1.0, static_cast<double>(best_b) / static_cast<double>(denom));
    bloom::BloomFilter comp(std::max<std::uint64_t>(z_s, 1), f_f, salt_ ^ 0xc0ffee,
                            cfg_.bloom_strategy);
    std::vector<util::ByteView> passed_views;
    passed_views.reserve(passed.size());
    for (const ItemDigest* d : passed) passed_views.push_back(view(*d));
    comp.insert_batch(passed_views.data(), passed_views.size());
    resp.compensation = std::move(comp);
    j_items = best_b + y_s;
  }

  resp.correction =
      iblt::Iblt(iblt::cached_params(cfg_.param_cache, j_items, cfg_.fail_denom), salt_ + 1);
  std::vector<std::uint64_t> sids;
  sids.reserve(pass.digests.size());
  for (const ItemDigest* d : pass.digests) sids.push_back(short_id_of(*d, salt_, cfg_));
  resp.correction.insert_all(sids);
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "response", resp,
             {{"missing", static_cast<double>(resp.missing.size())},
              {"j_cells", static_cast<double>(resp.correction.cell_count())},
              {"reversed", request.reversed ? 1.0 : 0.0}});
  return resp;
}

FetchResponse GrapheneHostBackend::serve_fetch(const FetchRequest& request) const {
  FetchResponse resp;
  std::unordered_map<std::uint64_t, const ItemDigest*> by_sid;
  by_sid.reserve(items_->size());
  for (const ItemDigest& d : *items_) by_sid.emplace(short_id_of(d, salt_, cfg_), &d);
  for (const std::uint64_t s : request.short_ids) {
    const auto it = by_sid.find(s);
    if (it != by_sid.end()) resp.items.push_back(*it->second);
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
  ctx.n = items_->size();
  throw core::ProtocolError("reconcile_serve",
                            "unexpected message type for graphene backend", ctx);
}

// --- client -----------------------------------------------------------------

GrapheneClientBackend::GrapheneClientBackend(const ItemSet& items,
                                             core::ProtocolConfig cfg)
    : items_(&items), cfg_(cfg) {}

std::uint64_t GrapheneClientBackend::sid(const ItemDigest& d) const noexcept {
  return short_id_of(d, offer_.salt, cfg_);
}

std::vector<std::uint64_t> GrapheneClientBackend::candidate_sids() const {
  std::vector<std::uint64_t> sids;
  sids.reserve(candidates_.size());
  for (const ItemDigest& d : candidates_) sids.push_back(sid(d));
  return sids;
}

void GrapheneClientBackend::index(const ItemDigest& d) {
  const std::uint64_t s = sid(d);
  const auto [it, inserted] = sid_to_digest_.emplace(s, d);
  if (!inserted && it->second != d) ambiguous_.insert(s);
  candidates_.insert(d);
}

Outcome GrapheneClientBackend::absorb(const Offer& offer) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  record_msg(reg, obs::FlightEventKind::kMsgReceived, "offer", offer,
             {{"count", static_cast<double>(offer.count)},
              {"bloom_bytes", static_cast<double>(offer.filter.serialized_size())},
              {"iblt_cells", static_cast<double>(offer.correction.cell_count())}});
  const auto finish = [reg](Outcome out) {
    record_decode(reg, "reconcile_p1", out.status);
    return out;
  };
  offer_ = offer;
  sid_to_digest_.clear();
  ambiguous_.clear();
  candidates_.clear();

  {
    const DigestPass pass(*items_);
    const std::vector<std::uint8_t> hit = pass.scan(offer.filter, cfg_.pool);
    for (std::size_t i = 0; i < pass.digests.size(); ++i) {
      if (hit[i] != 0) index(*pass.digests[i]);
    }
  }

  iblt::Iblt mine(iblt::IbltParams{offer.correction.hash_count(),
                                   offer.correction.cell_count()},
                  offer.correction.seed());
  mine.insert_all(candidate_sids());

  const iblt::DecodeResult dec = offer.correction.subtract(mine).decode();
  Outcome out;
  if (dec.malformed || !dec.success || !dec.positives.empty()) {
    out.status = dec.malformed ? Outcome::Status::kFailed : Outcome::Status::kNeedsRequest;
    return finish(out);
  }
  for (const std::uint64_t s : dec.negatives) {
    const auto it = sid_to_digest_.find(s);
    if (it == sid_to_digest_.end() || ambiguous_.count(s) > 0) {
      out.status = Outcome::Status::kNeedsRequest;
      return finish(out);
    }
    candidates_.erase(it->second);
  }
  return finish(finalize());
}

Request GrapheneClientBackend::make_request() {
  const std::uint64_t z = candidates_.size();
  const double f_s = bloom::expected_fpr(offer_.filter.bit_count(),
                                         offer_.filter.hash_count(), offer_.count);
  params2_ = core::optimize_protocol2(z, items_->size(), offer_.count, f_s, cfg_);

  Request req;
  req.candidate_count = z;
  req.b = params2_.b;
  req.y_star = params2_.y_star;
  req.fpr_r = params2_.fpr;
  req.reversed = params2_.reversed;
  req.filter = bloom::BloomFilter(std::max<std::uint64_t>(z, 1), params2_.fpr,
                                  offer_.salt ^ 0x4ece55, cfg_.bloom_strategy);
  const DigestPass pass(candidates_);
  req.filter.insert_batch(pass.views.data(), pass.views.size());
  record_msg(obs::enabled(cfg_.obs), obs::FlightEventKind::kMsgSent, "request", req,
             {{"z", static_cast<double>(z)},
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
  const auto finish = [reg](Outcome out) {
    record_decode(reg, "reconcile_p2", out.status);
    return out;
  };
  Outcome out;

  if (params2_.reversed && response.compensation.has_value()) {
    const DigestPass pass(candidates_);
    const std::vector<std::uint8_t> hit = pass.scan(*response.compensation, cfg_.pool);
    for (std::size_t i = 0; i < pass.digests.size(); ++i) {
      if (hit[i] == 0) candidates_.erase(*pass.digests[i]);
    }
  }
  for (const ItemDigest& d : response.missing) index(d);

  iblt::Iblt mine(iblt::IbltParams{response.correction.hash_count(),
                                   response.correction.cell_count()},
                  response.correction.seed());
  mine.insert_all(candidate_sids());

  const iblt::Iblt diff_j = response.correction.subtract(mine);
  iblt::DecodeResult dec = diff_j.decode();
  if (!dec.success && !dec.malformed && cfg_.enable_pingpong) {
    // §4.2 ping-pong: the offer's IBLT covers the same item pair.
    iblt::Iblt offer_mine(iblt::IbltParams{offer_.correction.hash_count(),
                                           offer_.correction.cell_count()},
                          offer_.correction.seed());
    offer_mine.insert_all(candidate_sids());
    const iblt::PingPongResult pp =
        iblt::pingpong_decode(diff_j, offer_.correction.subtract(offer_mine));
    if (pp.malformed) {
      out.status = Outcome::Status::kFailed;
      return finish(out);
    }
    dec.success = pp.success;
    dec.positives = pp.positives;
    dec.negatives = pp.negatives;
  }
  if (dec.malformed || !dec.success) {
    out.status = Outcome::Status::kFailed;
    return finish(out);
  }
  for (const std::uint64_t s : dec.negatives) {
    const auto it = sid_to_digest_.find(s);
    if (it == sid_to_digest_.end() || ambiguous_.count(s) > 0) {
      out.status = Outcome::Status::kFailed;
      return finish(out);
    }
    candidates_.erase(it->second);
  }
  std::vector<std::uint64_t> unresolved;
  for (const std::uint64_t s : dec.positives) {
    const auto it = sid_to_digest_.find(s);
    if (it != sid_to_digest_.end() && ambiguous_.count(s) == 0) {
      candidates_.insert(it->second);
    } else {
      unresolved.push_back(s);
    }
  }
  if (!unresolved.empty()) {
    pending_fetch_ = unresolved;
    out.status = Outcome::Status::kNeedsFetch;
    out.unresolved = std::move(unresolved);
    return finish(out);
  }
  return finish(finalize());
}

FetchRequest GrapheneClientBackend::make_fetch() const {
  FetchRequest req;
  req.short_ids = pending_fetch_;
  return req;
}

Outcome GrapheneClientBackend::complete_fetch(const FetchResponse& response) {
  for (const ItemDigest& d : response.items) index(d);
  pending_fetch_.clear();
  Outcome out = finalize();
  record_decode(obs::enabled(cfg_.obs), "reconcile_fetch", out.status);
  return out;
}

Outcome GrapheneClientBackend::finalize() {
  Outcome out;
  std::uint64_t checksum = 0;
  for (const ItemDigest& d : candidates_) checksum ^= util::mix64(sid(d));
  if (candidates_.size() == offer_.count && checksum == offer_.set_checksum) {
    out.status = Outcome::Status::kComplete;
    out.host_set = candidates_;
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
