#include "net/frame.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/sha256.hpp"

namespace graphene::net {
namespace {

/// Largest buffer the reader will hold: one maximal frame plus one maximal
/// absorb() burst behind it. Beyond that the caller is ignoring errors.
std::uint64_t buffer_ceiling(std::uint64_t max_payload) noexcept {
  return 2 * (kEnvelopeBytes + max_payload);
}

}  // namespace

std::array<std::uint8_t, 4> frame_checksum(util::ByteView payload) noexcept {
  const util::Sha256Digest once = util::sha256(payload);
  const util::Sha256Digest twice = util::sha256(util::ByteView(once.data(), once.size()));
  return {twice[0], twice[1], twice[2], twice[3]};
}

namespace {

void append_envelope(util::ByteWriter& w, MessageType type, std::uint32_t length,
                     const std::array<std::uint8_t, 4>& checksum) {
  w.raw(util::ByteView(kFrameMagic.data(), kFrameMagic.size()));
  const std::string_view cmd = command_name(type);
  std::array<std::uint8_t, kFrameCommandBytes> command{};
  std::memcpy(command.data(), cmd.data(), cmd.size());
  w.raw(util::ByteView(command.data(), command.size()));
  w.u32(length);
  w.raw(util::ByteView(checksum.data(), checksum.size()));
}

}  // namespace

util::Bytes encode_frame(const Message& msg, std::uint64_t max_payload) {
  util::Bytes out;
  encode_frame_into(out, msg, max_payload);
  return out;
}

void encode_frame_into(util::Bytes& out, const Message& msg, std::uint64_t max_payload) {
  if (msg.payload.size() > max_payload) {
    throw util::DeserializeError("frame: payload " + std::to_string(msg.payload.size()) +
                                 " exceeds cap " + std::to_string(max_payload));
  }
  // A send queue takes frame after frame, so grow it geometrically: an exact
  // reserve would copy the whole queue again for every frame appended.
  const std::size_t needed = out.size() + kEnvelopeBytes + msg.payload.size();
  if (needed > out.capacity()) out.reserve(std::max(needed, 2 * out.capacity()));
  util::ByteWriter w(std::move(out));
  append_envelope(w, msg.type, static_cast<std::uint32_t>(msg.payload.size()),
                  frame_checksum(util::ByteView(msg.payload)));
  w.raw(util::ByteView(msg.payload));
  out = w.take();
}

void FrameReader::absorb(util::ByteView data) {
  if (buf_.size() - pos_ + data.size() > buffer_ceiling(max_payload_)) {
    throw util::DeserializeError("frame: reader buffer overrun (caller kept absorbing "
                                 "after a framing error)");
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Message> FrameReader::next() {
  const auto compact_and_wait = [this]() -> std::optional<Message> {
    // Reclaim consumed prefix so a long-lived connection's buffer stays
    // proportional to the frame in flight, not to total bytes ever seen.
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
    return std::nullopt;
  };

  if (buf_.size() - pos_ < kEnvelopeBytes) return compact_and_wait();

  const std::uint8_t* head = buf_.data() + pos_;
  if (std::memcmp(head, kFrameMagic.data(), kFrameMagic.size()) != 0) {
    throw util::DeserializeError("frame: bad magic");
  }

  // Strict command padding: name, then NULs to the end of the field. A
  // byte after the first NUL re-opens ambiguity (two encodings per command),
  // so it is rejected even when the prefix names a valid command.
  const std::uint8_t* cmd = head + kFrameMagic.size();
  std::size_t name_len = 0;
  while (name_len < kFrameCommandBytes && cmd[name_len] != 0) ++name_len;
  for (std::size_t i = name_len; i < kFrameCommandBytes; ++i) {
    if (cmd[i] != 0) throw util::DeserializeError("frame: command not NUL-padded");
  }
  // uint8_t widens to char element-wise — no pointer reinterpretation needed
  // for a 12-byte field.
  const std::string name(cmd, cmd + name_len);
  const std::optional<MessageType> type = command_from_name(name);
  if (!type) {
    throw util::DeserializeError("frame: unknown command \"" + name + "\"");
  }

  const std::uint8_t* len_field = cmd + kFrameCommandBytes;
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(len_field[i]) << (8 * i);
  }
  if (length > max_payload_) {
    throw util::DeserializeError("frame: payload length " + std::to_string(length) +
                                 " exceeds cap " + std::to_string(max_payload_));
  }

  if (buf_.size() - pos_ < kEnvelopeBytes + length) return compact_and_wait();

  const util::ByteView payload(head + kEnvelopeBytes, length);
  const std::array<std::uint8_t, 4> expect = frame_checksum(payload);
  if (std::memcmp(len_field + 4, expect.data(), expect.size()) != 0) {
    throw util::DeserializeError("frame: checksum mismatch for \"" + name + "\"");
  }

  Message msg;
  msg.type = *type;
  msg.payload.assign(payload.begin(), payload.end());
  pos_ += kEnvelopeBytes + length;
  return msg;
}

}  // namespace graphene::net
