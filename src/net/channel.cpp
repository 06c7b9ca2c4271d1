#include "net/channel.hpp"

namespace graphene::net {

const Message& Channel::send(Direction dir, Message msg) {
  const auto idx = static_cast<std::size_t>(dir);
  bytes_[idx] += msg.wire_size();
  payload_[idx] += msg.payload.size();
  log_.emplace_back(dir, std::move(msg));
  return log_.back().second;
}

std::size_t Channel::bytes(Direction dir) const noexcept {
  return bytes_[static_cast<std::size_t>(dir)];
}

std::size_t Channel::payload_bytes(Direction dir) const noexcept {
  return payload_[static_cast<std::size_t>(dir)];
}

std::map<MessageType, std::size_t> Channel::payload_by_type() const {
  std::map<MessageType, std::size_t> out;
  for (const auto& [dir, msg] : log_) out[msg.type] += msg.payload.size();
  return out;
}

void Channel::reset() {
  log_.clear();
  bytes_[0] = bytes_[1] = 0;
  payload_[0] = payload_[1] = 0;
}

}  // namespace graphene::net
