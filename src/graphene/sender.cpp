#include "graphene/sender.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace graphene::core {

Sender::Sender(chain::Block block, std::uint64_t salt, ProtocolConfig cfg)
    : block_(std::move(block)),
      cfg_(cfg),
      engine_(block_.tx_ids(), salt, kBlockKeys, cfg, cfg.obs) {}

EncodeResult Sender::encode(std::uint64_t receiver_mempool_count) const {
  obs::Registry* reg = cfg_.obs;
  const std::uint64_t n = block_.tx_count();
  const std::uint64_t m = std::max(receiver_mempool_count, n);
  GrapheneHost::Offer offer = engine_.offer(receiver_mempool_count);
  EncodeResult out;
  out.params = offer.params;
  GrapheneBlockMsg& msg = out.msg;
  msg.header = block_.header();
  msg.n = n;
  msg.shortid_salt = engine_.salt();
  msg.filter_s = std::move(offer.filter_s);
  msg.iblt_i = std::move(offer.iblt_i);

  if (reg != nullptr) {
    reg->counter("graphene_encode_total").inc();
    reg->histogram("graphene_bloom_s_bytes").observe(msg.filter_s.serialized_size());
    reg->histogram("graphene_iblt_i_bytes").observe(msg.iblt_i.serialized_size());
  }
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "grblk", msg,
                    {{"n", static_cast<double>(n)},
                     {"m", static_cast<double>(m)},
                     {"a", static_cast<double>(out.params.a)},
                     {"a_star", static_cast<double>(out.params.a_star)},
                     {"fpr_s", out.params.fpr},
                     {"bloom_bytes", static_cast<double>(msg.filter_s.serialized_size())},
                     {"iblt_cells", static_cast<double>(msg.iblt_i.cell_count())},
                     {"iblt_bytes", static_cast<double>(msg.iblt_i.serialized_size())}});
  }
  return out;
}

GrapheneResponseMsg Sender::serve(const GrapheneRequestMsg& request) const {
  obs::Registry* reg = cfg_.obs;
  obs::ScopedSpan serve_span(reg, "p2_serve");
  GrapheneHost::Answer answer = engine_.serve(request, "p2_serve");
  GrapheneResponseMsg resp;
  resp.missing.reserve(answer.missing.size());
  for (const std::size_t i : answer.missing) resp.missing.push_back(block_.transactions()[i]);
  resp.iblt_j = std::move(answer.iblt_j);
  resp.filter_f = std::move(answer.filter_f);

  serve_span.attr("n", block_.tx_count());
  serve_span.attr("z", request.z);
  serve_span.attr("passed", answer.passed);
  serve_span.attr("missing", resp.missing.size());
  serve_span.attr("j_items", answer.j_items);
  serve_span.attr("j_cells", resp.iblt_j.cell_count());
  serve_span.attr("reversed", request.reversed ? 1 : 0);
  if (reg != nullptr) {
    reg->counter("graphene_p2_serve_total").inc();
    reg->histogram("graphene_missing_txns").observe(resp.missing.size());
    reg->histogram("graphene_iblt_j_bytes").observe(resp.iblt_j.serialized_size());
  }
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "grresp", resp,
                    {{"missing", static_cast<double>(resp.missing.size())},
                     {"missing_tx_bytes", static_cast<double>(resp.missing_tx_bytes())},
                     {"j_cells", static_cast<double>(resp.iblt_j.cell_count())},
                     {"j_bytes", static_cast<double>(resp.iblt_j.serialized_size())},
                     {"reversed", request.reversed ? 1.0 : 0.0}});
  }
  return resp;
}

RepairResponseMsg Sender::serve_repair(const RepairRequestMsg& request) const {
  obs::Registry* reg = cfg_.obs;
  obs::ScopedSpan span(reg, "repair_serve");
  RepairResponseMsg resp;
  const std::vector<std::size_t> found = engine_.lookup(request.short_ids);
  resp.txns.reserve(found.size());
  for (const std::size_t i : found) resp.txns.push_back(block_.transactions()[i]);
  span.attr("requested", request.short_ids.size());
  span.attr("served", resp.txns.size());
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "blocktxn", resp,
                    {{"requested", static_cast<double>(request.short_ids.size())},
                     {"served", static_cast<double>(resp.txns.size())}});
  }
  return resp;
}

}  // namespace graphene::core
