// Generic set reconciliation, decoupled from blockchains.
//
// The paper (§1) notes the method "applies in general to systems that
// require set reconciliation, such as database or file system
// synchronization among replicas. Or ... CRLite, where a client regularly
// checks a server for revocations of observed certificates."
//
// A session is one HostBackend and one ClientBackend (backend.hpp), built
// by make_host_backend/make_client_backend for core::ProtocolConfig::
// reconcile_backend:
//
//   kGraphene      — the paper's S + I construction with the R + J recovery
//                    of Protocol 2 (graphene_backend.hpp)
//   kRatelessIblt  — a rateless coded-symbol stream per arXiv 2402.02668
//                    (rateless_backend.hpp) with no decode-failure mode
//
// One-way reconciliation (client learns the host's set) is the primitive;
// two-way union is two one-way passes, exactly like §3.2.1. The two sides
// speak WireMsgs only. reconcile_one_way runs both in process; the daemon
// and callers that carry the messages themselves drive the backends'
// four methods directly.
#pragma once

#include <vector>

#include "graphene/params.hpp"
#include "reconcile/backend.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile {

/// Byte/round accounting for one reconciliation session. round_bytes holds
/// the payload size of every message in exchange order (offer, then each
/// request/response pair — or chunk/need for the rateless backend).
struct SyncStats {
  bool success = false;
  bool used_request_round = false;
  bool used_fetch_round = false;
  std::vector<std::size_t> round_bytes;
  std::uint64_t symbols_consumed = 0;  ///< rateless backend only
  std::uint64_t round_trips = 0;       ///< messages initiated by the client + 1

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    std::size_t total = 0;
    for (const std::size_t b : round_bytes) total += b;
    return total;
  }
};

/// One in-process session: builds the host over `host_items` and the
/// client over `client_items` with cfg's backend, opens the session, then
/// relays client requests to the host until the outcome is terminal.
/// Termination is structural — cfg.reconcile_round_cap bounds the loop no
/// matter what a backend reports.
SyncStats reconcile_one_way(const ItemSet& host_items, std::uint64_t salt,
                            const ItemSet& client_items, const core::ProtocolConfig& cfg,
                            Outcome& outcome);

}  // namespace graphene::reconcile
