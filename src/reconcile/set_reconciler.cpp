#include "reconcile/set_reconciler.hpp"

#include <utility>

#include "util/sha256.hpp"

namespace graphene::reconcile {

ItemDigest digest_of(util::ByteView data) noexcept { return util::sha256(data); }

// --- host driver ------------------------------------------------------------

Host::Host(ItemSet items, std::uint64_t salt, core::ProtocolConfig cfg)
    : items_(std::move(items)), backend_(make_host_backend(items_, salt, cfg)) {}

WireMsg Host::open(std::uint64_t client_count) { return backend_->open(client_count); }

WireMsg Host::serve_wire(const WireMsg& request) { return backend_->serve_wire(request); }

// --- client driver ----------------------------------------------------------

Client::Client(const ItemSet& items, core::ProtocolConfig cfg)
    : items_(&items), cfg_(cfg), backend_(make_client_backend(items, cfg)) {}

Outcome Client::absorb_wire(const WireMsg& msg) { return backend_->absorb_wire(msg); }

WireMsg Client::next_request() { return backend_->next_request(); }

// --- drivers ----------------------------------------------------------------

SyncStats reconcile_one_way(Host& host, Client& client, Outcome& outcome) {
  SyncStats stats;
  const WireMsg opening = host.open(client.local_count());
  stats.round_bytes.push_back(opening.payload.size());
  stats.round_trips = 1;
  outcome = client.absorb_wire(opening);

  const std::uint32_t cap = client.config().reconcile_round_cap;
  std::uint32_t rounds = 0;
  while (needs_more(outcome.status) && rounds < cap) {
    ++rounds;
    const WireMsg request = client.next_request();
    if (request.type == net::MessageType::kReconcileRequest) {
      stats.used_request_round = true;
    } else if (request.type == net::MessageType::kReconcileFetch) {
      stats.used_fetch_round = true;
    }
    stats.round_bytes.push_back(request.payload.size());
    const WireMsg response = host.serve_wire(request);
    stats.round_bytes.push_back(response.payload.size());
    ++stats.round_trips;
    outcome = client.absorb_wire(response);
  }
  // The cap is the driver's own guarantee: a backend still hungry after
  // `cap` rounds is cut off as failed rather than trusted to converge.
  if (needs_more(outcome.status)) outcome.status = Outcome::Status::kFailed;
  stats.symbols_consumed = outcome.symbols_consumed;
  stats.success = outcome.status == Outcome::Status::kComplete;
  return stats;
}

}  // namespace graphene::reconcile
