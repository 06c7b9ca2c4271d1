#include "reconcile/set_reconciler.hpp"

#include <memory>

#include "util/sha256.hpp"

namespace graphene::reconcile {

ItemDigest digest_of(util::ByteView data) noexcept { return util::sha256(data); }

SyncStats reconcile_one_way(const ItemSet& host_items, std::uint64_t salt,
                            const ItemSet& client_items, const core::ProtocolConfig& cfg,
                            Outcome& outcome) {
  const std::unique_ptr<HostBackend> host = make_host_backend(host_items, salt, cfg);
  const std::unique_ptr<ClientBackend> client = make_client_backend(client_items, cfg);
  SyncStats stats;
  const WireMsg opening = host->open(client_items.size());
  stats.round_bytes.push_back(opening.payload.size());
  stats.round_trips = 1;
  outcome = client->absorb_wire(opening);

  std::uint32_t rounds = 0;
  while (needs_more(outcome.status) && rounds < cfg.reconcile_round_cap) {
    ++rounds;
    const WireMsg request = client->next_request();
    if (request.type == net::MessageType::kReconcileRequest) {
      stats.used_request_round = true;
    } else if (request.type == net::MessageType::kReconcileFetch) {
      stats.used_fetch_round = true;
    }
    stats.round_bytes.push_back(request.payload.size());
    const WireMsg response = host->serve_wire(request);
    stats.round_bytes.push_back(response.payload.size());
    ++stats.round_trips;
    outcome = client->absorb_wire(response);
  }
  // The cap is the driver's own guarantee: a backend still hungry after
  // `cap` rounds is cut off as failed rather than trusted to converge.
  if (needs_more(outcome.status)) outcome.status = Outcome::Status::kFailed;
  stats.symbols_consumed = outcome.symbols_consumed;
  stats.success = outcome.status == Outcome::Status::kComplete;
  return stats;
}

}  // namespace graphene::reconcile
