// In-memory peer channel with exact byte accounting.
//
// The Monte Carlo harness routes every protocol message through a Channel so
// each experiment reports the bytes a real socket pair would have exchanged,
// split by direction and message type.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/message.hpp"

namespace graphene::net {

enum class Direction : std::uint8_t { kSenderToReceiver, kReceiverToSender };

class Channel {
 public:
  /// Enqueues a message and records its size. Returns a reference to the
  /// stored message (valid until the next call that mutates the channel).
  const Message& send(Direction dir, Message msg);

  /// Total bytes carried in `dir`, including envelopes.
  [[nodiscard]] std::size_t bytes(Direction dir) const noexcept;

  /// Total payload bytes (without envelopes) in `dir` — the quantity the
  /// paper's figures plot.
  [[nodiscard]] std::size_t payload_bytes(Direction dir) const noexcept;

  /// Payload bytes per message type across both directions.
  [[nodiscard]] std::map<MessageType, std::size_t> payload_by_type() const;

  [[nodiscard]] std::size_t message_count() const noexcept { return log_.size(); }
  [[nodiscard]] const std::vector<std::pair<Direction, Message>>& log() const noexcept {
    return log_;
  }

  void reset();

 private:
  std::vector<std::pair<Direction, Message>> log_;
  std::size_t bytes_[2] = {0, 0};
  std::size_t payload_[2] = {0, 0};
};

}  // namespace graphene::net
