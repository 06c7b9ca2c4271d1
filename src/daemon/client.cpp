#include "daemon/client.hpp"

#include "graphene/errors.hpp"

namespace graphene::daemon {

ClientSession::ClientSession(const reconcile::ItemSet& items, core::ProtocolConfig cfg)
    : items_(&items), cfg_(cfg), backend_(reconcile::make_client_backend(items, cfg)) {}

ClientSession::~ClientSession() = default;
ClientSession::ClientSession(ClientSession&&) noexcept = default;

net::Message ClientSession::hello() const {
  HelloMsg hello;
  hello.backend =
      cfg_.reconcile_backend == core::ReconcileBackend::kRatelessIblt ? 1 : 0;
  hello.item_count = items_->size();
  return {net::MessageType::kDaemonHello, hello.serialize()};
}

ClientSession::Status ClientSession::on_message(const net::Message& msg,
                                                std::vector<net::Message>& out) {
  if (status_ != Status::kInFlight) return status_;

  if (msg.type == net::MessageType::kDaemonError) {
    // The daemon closes right after an error frame; do not answer it.
    try {
      util::ByteReader reader(util::ByteView(msg.payload));
      error_ = ErrorMsg::deserialize(reader);
      have_error_ = true;
    } catch (const util::DeserializeError&) {
      // A garbled error frame is still a failed session.
    }
    status_ = Status::kFailed;
    return status_;
  }

  try {
    outcome_ = backend_->absorb_wire(msg);
    if (reconcile::needs_more(outcome_.status)) {
      if (++rounds_ > cfg_.reconcile_round_cap) return finish(out, /*ok=*/false);
      out.push_back(backend_->next_request());
      return status_;
    }
    return finish(out, outcome_.status == reconcile::Outcome::Status::kComplete);
  } catch (const core::ProtocolError&) {
    return finish(out, /*ok=*/false);
  } catch (const util::DeserializeError&) {
    return finish(out, /*ok=*/false);
  }
}

ClientSession::Status ClientSession::finish(std::vector<net::Message>& out, bool ok) {
  ByeMsg bye;
  bye.ok = ok ? 1 : 0;
  bye.rounds = rounds_;
  out.push_back({net::MessageType::kDaemonBye, bye.serialize()});
  status_ = ok ? Status::kComplete : Status::kFailed;
  return status_;
}

}  // namespace graphene::daemon
