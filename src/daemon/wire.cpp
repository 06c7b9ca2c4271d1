#include "daemon/wire.hpp"

#include <algorithm>
#include <string_view>

#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::daemon {

util::Bytes HelloMsg::serialize() const {
  util::ByteWriter w;
  w.u32(version);
  w.u8(backend);
  util::write_varint(w, item_count);
  return w.take();
}

HelloMsg HelloMsg::deserialize(util::ByteReader& reader) {
  HelloMsg msg;
  msg.version = reader.u32();
  msg.backend = reader.u8();
  msg.item_count =
      util::read_varint_bounded(reader, util::wire::kMaxDaemonItemCount,
                                "daemon::HelloMsg::item_count");
  return msg;
}

util::Bytes ByeMsg::serialize() const {
  util::ByteWriter w;
  w.u8(ok);
  w.u32(rounds);
  return w.take();
}

ByeMsg ByeMsg::deserialize(util::ByteReader& reader) {
  ByeMsg msg;
  msg.ok = reader.u8();
  if (msg.ok > 1) {
    throw util::DeserializeError("daemon::ByeMsg: non-canonical ok flag");
  }
  msg.rounds = reader.u32();
  return msg;
}

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kProtocol: return "protocol";
    case ErrorCode::kMalformed: return "malformed";
    case ErrorCode::kLimit: return "limit";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kShutdown: return "shutdown";
  }
  return "unknown";
}

util::Bytes ErrorMsg::serialize() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(code));
  // The detail is advisory; truncate rather than fail so error paths (which
  // embed exception texts of unpredictable length) can never throw again.
  const std::size_t len =
      std::min<std::size_t>(detail.size(), util::wire::kMaxDaemonTextBytes);
  util::write_varint(w, len);
  w.raw(util::str_bytes(std::string_view(detail).substr(0, len)));
  return w.take();
}

ErrorMsg ErrorMsg::deserialize(util::ByteReader& reader) {
  ErrorMsg msg;
  const std::uint8_t code = reader.u8();
  if (code > static_cast<std::uint8_t>(ErrorCode::kShutdown)) {
    throw util::DeserializeError("daemon::ErrorMsg: unknown code " +
                                 std::to_string(code));
  }
  msg.code = static_cast<ErrorCode>(code);
  const std::uint64_t len = util::read_varint_bounded(
      reader, util::wire::kMaxDaemonTextBytes, "daemon::ErrorMsg::detail");
  const util::Bytes raw = reader.raw(static_cast<std::size_t>(len));
  msg.detail.assign(raw.begin(), raw.end());
  return msg;
}

}  // namespace graphene::daemon
