#include "graphene/engine.hpp"

#include <algorithm>

#include "bloom/bloom_math.hpp"
#include "chain/transaction.hpp"
#include "graphene/bounds.hpp"
#include "graphene/errors.hpp"
#include "iblt/param_cache.hpp"
#include "iblt/pingpong.hpp"
#include "obs/obs.hpp"
#include "util/wire_limits.hpp"

namespace graphene::core {

namespace {

/// hit[i] = 1 iff ids[i] passes `filter`.
std::vector<std::uint8_t> scan(const bloom::BloomFilter& filter, std::span<const Id> ids) {
  std::vector<util::ByteView> views;
  views.reserve(ids.size());
  for (const Id& id : ids) views.emplace_back(id.data(), id.size());
  std::vector<std::uint8_t> hit(ids.size());
  bloom::contains_all(filter, views.data(), views.size(), hit.data());
  return hit;
}

/// A filter over `ids` at `fpr`, sized for at least `min_items`.
template <typename Ids>
bloom::BloomFilter filter_of(const Ids& ids, std::uint64_t min_items, double fpr,
                             std::uint64_t seed) {
  bloom::BloomFilter f(std::max<std::uint64_t>(ids.size(), min_items), fpr, seed);
  for (const auto& id : ids) f.insert(util::ByteView(id.data(), id.size()));
  return f;
}

iblt::Iblt empty_like(const iblt::Iblt& t) {
  return iblt::Iblt(iblt::IbltParams{t.hash_count(), t.cell_count()}, t.seed());
}

}  // namespace

std::uint64_t short_id_of(const Id& id, std::uint64_t salt, const EngineKeys& keys,
                          const ProtocolConfig& cfg) noexcept {
  if (cfg.keyed_short_ids) {
    return chain::short_id_keyed(util::SipHashKey{salt, salt ^ keys.sid_key}, id);
  }
  return chain::short_id(id);
}

// --- host -------------------------------------------------------------------

GrapheneHost::GrapheneHost(std::vector<Id> ids, std::uint64_t salt, EngineKeys keys,
                           ProtocolConfig cfg, obs::Registry* stages)
    : ids_(std::move(ids)), salt_(salt), keys_(keys), cfg_(cfg), stages_(stages) {
  sids_.reserve(ids_.size());
  for (const Id& id : ids_) sids_.push_back(short_id_of(id, salt_, keys_, cfg_));
}

GrapheneHost::Offer GrapheneHost::offer(std::uint64_t receiver_count) const {
  const std::uint64_t n = ids_.size();
  const std::uint64_t m = std::max(receiver_count, n);
  Offer out;
  {
    obs::ScopedSpan span(stages_, "p1_optimize");
    out.params = optimize_protocol1(n, m, cfg_);
    span.attr("n", n);
    span.attr("m", m);
    span.attr("a", out.params.a);
    span.attr("a_star", out.params.a_star);
    span.attr("fpr_s", out.params.fpr);
    span.attr("bloom_bytes", out.params.bloom_bytes);
    span.attr("iblt_bytes", out.params.iblt_bytes);
  }

  {
    obs::ScopedSpan span(stages_, "sfilter_build");
    out.filter_s = filter_of(ids_, keys_.min_filter_items, out.params.fpr, salt_ ^ keys_.s_seed);
    span.attr("items", n);
    span.attr("bits", out.filter_s.bit_count());
    span.attr("hashes", out.filter_s.hash_count());
    span.attr("target_fpr", out.filter_s.target_fpr());
  }
  {
    obs::ScopedSpan span(stages_, "iblt_build");
    out.iblt_i = iblt::Iblt(out.params.iblt, salt_);
    out.iblt_i.insert_all(sids_);
    span.attr("items", sids_.size());
    span.attr("cells", out.iblt_i.cell_count());
    span.attr("k", out.iblt_i.hash_count());
  }
  return out;
}

GrapheneHost::Answer GrapheneHost::serve(const GrapheneRequestMsg& request,
                                         const char* stage) const {
  // Revalidate the sizing fields even though the deserializers cap each one:
  // serve() is also reachable with an in-memory request, and b + y* sizes
  // the IBLT J allocated below — two fields at their individual caps would
  // otherwise allocate a multi-hundred-MB table.
  if (request.b > util::wire::kMaxSizingParam ||
      request.y_star > util::wire::kMaxSizingParam ||
      request.b + request.y_star > util::wire::kMaxIbltCells ||
      request.z > util::wire::kMaxWireCollection ||
      !(request.fpr_r > 0.0 && request.fpr_r <= 1.0)) {
    ErrorContext ctx;
    ctx.n = ids_.size();
    ctx.z = request.z;
    ctx.y_star = request.y_star;
    ctx.b = request.b;
    if (obs::FlightRecorder* fr = obs::flight(cfg_.obs)) {
      obs::record_event(*fr, obs::FlightEventKind::kError, stage,
                        {{"n", static_cast<double>(ctx.n)},
                         {"z", static_cast<double>(ctx.z)},
                         {"y_star", static_cast<double>(ctx.y_star)},
                         {"b", static_cast<double>(ctx.b)}});
    }
    throw ProtocolError(stage, "request sizing parameters out of range", ctx);
  }

  const std::uint64_t n = ids_.size();
  Answer out;
  // Step 3: ids that fail R are certainly missing at the receiver.
  std::vector<util::ByteView> passed;
  passed.reserve(n);
  {
    const std::vector<std::uint8_t> hit = scan(request.filter, ids_);
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (hit[i] != 0) {
        passed.emplace_back(ids_[i].data(), ids_[i].size());
      } else {
        out.missing.push_back(i);
      }
    }
  }
  // The missing items are a set: send them in id order, so the answer's bytes
  // are a function of the two sets alone and not of how the host stores its
  // own (CTOR-sorted blocks are already in this order).
  std::stable_sort(out.missing.begin(), out.missing.end(),
                   [this](std::size_t a, std::size_t b) { return ids_[a] < ids_[b]; });
  out.passed = passed.size();
  out.j_items = request.b + request.y_star;

  if (request.reversed) {
    obs::ScopedSpan span(stages_, "p2_fallback");
    // §3.3.2 m ≈ n path: re-derive the bounds with the roles of host set and
    // receiver set swapped, and compensate R's false positives with F.
    const std::uint64_t z_s = passed.size();
    const std::uint64_t x_s =
        bound_x_star(z_s, /*m=*/n, /*n=*/request.z, request.fpr_r, cfg_.beta);
    const std::uint64_t y_s = bound_y_star(/*m=*/n, x_s, request.fpr_r, cfg_.beta);

    // Optimize b for the joint size of F (over z_s items) and J (b + y_s).
    const std::uint64_t denom =
        std::max<std::uint64_t>(1, request.z > x_s ? request.z - x_s : 1);
    std::uint64_t best_b = 1;
    std::size_t best_total = SIZE_MAX;
    for (std::uint64_t b = 1; b <= denom; b = (b < 128 ? b + 1 : b + b / 8)) {
      const double f_f = std::min(1.0, static_cast<double>(b) / static_cast<double>(denom));
      const std::size_t total =
          bloom::serialized_bytes(z_s, f_f) +
          iblt::cached_iblt_bytes(cfg_.param_cache, b + y_s, cfg_.fail_denom);
      if (total < best_total) {
        best_total = total;
        best_b = b;
      }
    }
    const double f_f =
        std::min(1.0, static_cast<double>(best_b) / static_cast<double>(denom));
    out.filter_f = filter_of(passed, keys_.min_filter_items, f_f, salt_ ^ keys_.f_seed);
    out.j_items = best_b + y_s;
    span.attr("z_s", z_s);
    span.attr("x_s", x_s);
    span.attr("y_s", y_s);
    span.attr("b", best_b);
    span.attr("fpr_f", f_f);
  }

  out.iblt_j = iblt::Iblt(iblt::cached_params(cfg_.param_cache, out.j_items, cfg_.fail_denom),
                          salt_ + 1);
  out.iblt_j.insert_all(sids_);
  return out;
}

std::vector<std::size_t> GrapheneHost::lookup(
    const std::vector<std::uint64_t>& short_ids) const {
  std::unordered_map<std::uint64_t, std::size_t> by_sid;
  by_sid.reserve(sids_.size());
  for (std::size_t i = 0; i < sids_.size(); ++i) by_sid.emplace(sids_[i], i);
  std::vector<std::size_t> out;
  out.reserve(short_ids.size());
  for (const std::uint64_t s : short_ids) {
    const auto it = by_sid.find(s);
    if (it == by_sid.end()) continue;
    out.push_back(it->second);
    by_sid.erase(it);
  }
  return out;
}

// --- receiver ---------------------------------------------------------------

GrapheneReceiver::GrapheneReceiver(EngineKeys keys, ProtocolConfig cfg,
                                   obs::Registry* stages)
    : keys_(keys), cfg_(cfg), stages_(stages) {}

void GrapheneReceiver::index(const Id& id) {
  const std::uint64_t s = short_id(id);
  const auto [it, inserted] = sid_to_id_.emplace(s, id);
  if (!inserted && it->second != id) ambiguous_.insert(s);
  candidates_.insert(id);
}

std::vector<std::uint64_t> GrapheneReceiver::candidate_sids() const {
  std::vector<std::uint64_t> sids;
  sids.reserve(candidates_.size());
  for (const Id& id : candidates_) sids.push_back(short_id(id));
  return sids;
}

void GrapheneReceiver::filter(std::uint64_t salt, std::uint64_t n,
                              std::span<const Id> local,
                              const bloom::BloomFilter& filter_s) {
  salt_ = salt;
  n_ = n;
  s_bits_ = filter_s.bit_count();
  s_hashes_ = filter_s.hash_count();
  used_pingpong_ = false;
  sid_to_id_.clear();
  ambiguous_.clear();
  candidates_.clear();
  unresolved_.clear();

  obs::ScopedSpan span(stages_, "p1_candidates");
  // Indexing runs in `local` order, which decides which id of a colliding
  // short-ID pair is indexed first.
  const std::vector<std::uint8_t> hit = scan(filter_s, local);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < local.size(); ++i) {
    if (hit[i] == 0) continue;
    ++hits;
    index(local[i]);
  }
  z_ = candidates_.size();
  span.attr("m", local.size());
  span.attr("n", n);
  span.attr("z", z_);
  span.attr("target_fpr", filter_s.target_fpr());
  span.attr("filter_queries", local.size());
  span.attr("filter_hits", hits);
}

Peel GrapheneReceiver::peel(const iblt::Iblt& iblt_i) {
  obs::ScopedSpan span(stages_, "p1_peel");
  iblt_i_ = iblt_i;
  iblt::Iblt mine = empty_like(iblt_i);
  mine.insert_all(candidate_sids());
  Peel out;
  out.decode = iblt_i.subtract(mine).decode();
  const iblt::DecodeResult& dec = out.decode;
  span.attr("cells", iblt_i.cell_count());
  span.attr("k", iblt_i.hash_count());
  span.attr("peel_iterations", dec.peel_iterations);
  span.attr("peeled", dec.peeled());
  span.attr("residual_cells", dec.residual_cells);
  span.attr("success", dec.success ? 1 : 0);
  span.attr("malformed", dec.malformed ? 1 : 0);
  if (obs::Registry* reg = stages_) {
    reg->histogram("graphene_peel_iterations", {{"iblt", "i"}}).observe(dec.peel_iterations);
  }

  if (dec.malformed) return out;
  // A 2-core, or host ids the receiver does not hold (positives carry only
  // short IDs): Protocol 2.
  out.status = Resolution::kNeedsRequest;
  if (!dec.success || !dec.positives.empty()) return out;
  for (const std::uint64_t s : dec.negatives) {
    const auto it = sid_to_id_.find(s);
    if (it == sid_to_id_.end() || ambiguous_.count(s) > 0) return out;
    candidates_.erase(it->second);
  }
  out.status = Resolution::kDecoded;
  return out;
}

GrapheneRequestMsg GrapheneReceiver::request(std::uint64_t m) {
  const std::uint64_t z = candidates_.size();
  const double f_s = bloom::expected_fpr(s_bits_, s_hashes_, n_);
  {
    // Theorem 2/3 bounds plus the b search of §3.3.2.
    obs::ScopedSpan span(stages_, "thm_bounds");
    params2_ = optimize_protocol2(z, m, n_, f_s, cfg_);
    span.attr("z", z);
    span.attr("m", m);
    span.attr("n", n_);
    span.attr("f_s", f_s);
    span.attr("x_star", params2_.x_star);
    span.attr("y_star", params2_.y_star);
    span.attr("b", params2_.b);
    span.attr("fpr_r", params2_.fpr);
    span.attr("reversed", params2_.reversed ? 1 : 0);
  }
  GrapheneRequestMsg req;
  req.z = z;
  req.b = params2_.b;
  req.y_star = params2_.y_star;
  req.fpr_r = params2_.fpr;
  req.reversed = params2_.reversed;
  obs::ScopedSpan span(stages_, "rfilter_build");
  req.filter = filter_of(candidates_, 1, params2_.fpr, salt_ ^ keys_.r_seed);
  span.attr("items", z);
  span.attr("bits", req.filter.bit_count());
  return req;
}

Peel GrapheneReceiver::complete(const iblt::Iblt& iblt_j,
                                const std::optional<bloom::BloomFilter>& filter_f,
                                const std::vector<Id>& missing) {
  // On the m ≈ n path, F prunes the candidates the host's set lacks before
  // the missing items join.
  if (params2_.reversed && filter_f.has_value()) {
    const std::vector<Id> cand(candidates_.begin(), candidates_.end());
    const std::vector<std::uint8_t> hit = scan(*filter_f, cand);
    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (hit[i] == 0) candidates_.erase(cand[i]);
    }
  }
  for (const Id& id : missing) index(id);

  iblt::Iblt mine = empty_like(iblt_j);
  mine.insert_all(candidate_sids());
  const iblt::Iblt diff_j = iblt_j.subtract(mine);
  Peel out;
  out.decode = diff_j.decode();
  if (obs::Registry* reg = stages_) {
    reg->histogram("graphene_peel_iterations", {{"iblt", "j"}})
        .observe(out.decode.peel_iterations);
  }
  if (out.decode.malformed) return out;

  bool success = out.decode.success;
  const std::vector<std::uint64_t>* positives = &out.decode.positives;
  const std::vector<std::uint64_t>* negatives = &out.decode.negatives;
  iblt::PingPongResult pp;
  if (!success && cfg_.enable_pingpong) {
    // Ping-pong (§4.2): rebuild I′ over the current candidates so both
    // differences describe the same pair of sets, then decode them jointly.
    obs::ScopedSpan span(stages_, "pingpong");
    iblt::Iblt i_mine = empty_like(iblt_i_);
    i_mine.insert_all(candidate_sids());
    pp = iblt::pingpong_decode(diff_j, iblt_i_.subtract(i_mine));
    out.pingpong_rounds = pp.rounds;
    span.attr("rounds", pp.rounds);
    span.attr("success", pp.success ? 1 : 0);
    span.attr("malformed", pp.malformed ? 1 : 0);
    if (obs::Registry* reg = stages_) {
      reg->histogram("graphene_pingpong_rounds").observe(pp.rounds);
      reg->counter("graphene_pingpong_total", {{"result", pp.success ? "rescued" : "failed"}})
          .inc();
    }
    if (pp.malformed) return out;
    used_pingpong_ = true;
    success = pp.success;
    positives = &pp.positives;
    negatives = &pp.negatives;
  }
  if (!success) return out;

  // A negative with no candidate cannot be removed; the caller's final check
  // decides whether the result stands without it.
  for (const std::uint64_t s : *negatives) {
    if (ambiguous_.count(s) > 0) return out;
    const auto it = sid_to_id_.find(s);
    if (it != sid_to_id_.end()) candidates_.erase(it->second);
  }
  // A positive the receiver can name (pruned by F, or never passed S) is
  // restored; the rest need a fetch.
  unresolved_.clear();
  for (const std::uint64_t s : *positives) {
    const auto it = sid_to_id_.find(s);
    if (it != sid_to_id_.end() && ambiguous_.count(s) == 0) {
      candidates_.insert(it->second);
    } else {
      unresolved_.push_back(s);
    }
  }
  out.status = unresolved_.empty() ? Resolution::kDecoded : Resolution::kNeedsFetch;
  return out;
}

void GrapheneReceiver::add_fetched(const std::vector<Id>& fetched) {
  for (const Id& id : fetched) index(id);
  unresolved_.clear();
}

}  // namespace graphene::core
