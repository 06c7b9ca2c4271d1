// TCP framing for net::Message — the bytes the relay daemon actually ships.
//
// Every message rides the 24-byte envelope message.hpp has always accounted
// for (4-byte magic, 12-byte NUL-padded command, 4-byte LE payload length,
// 4-byte checksum), followed by the payload. A TCP stream has no message
// boundaries: peers deliver frames split at arbitrary points and coalesce
// several per read, so decoding is an incremental FrameReader that absorbs
// raw chunks and yields complete messages as they close.
//
// Every field of the envelope is validated against an adversarial peer
// before the payload is trusted:
//   * magic must match (cross-protocol or desynchronized peers fail fast);
//   * the command must be NUL-padded exactly and name a known MessageType;
//   * the length is capped by util::wire::kMaxFramePayload *before* any
//     buffering decision, so a hostile prefix cannot pin memory;
//   * the checksum (first 4 bytes of double-SHA256, Bitcoin convention) must
//     match the payload, so link corruption surfaces as a typed error here
//     instead of as garbage inside a deserializer.
// Violations throw util::DeserializeError naming the field; the connection
// owner treats that as a protocol-fatal close (docs/DAEMON.md).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "net/message.hpp"
#include "util/bytes.hpp"
#include "util/wire_limits.hpp"

namespace graphene::net {

/// Network magic opening every frame ("GRPH").
inline constexpr std::array<std::uint8_t, 4> kFrameMagic = {0x47, 0x52, 0x50, 0x48};

/// Width of the NUL-padded command field.
inline constexpr std::size_t kFrameCommandBytes = 12;

static_assert(kEnvelopeBytes == 4 + kFrameCommandBytes + 4 + 4,
              "envelope accounting and framing layout must agree");

/// First four bytes of SHA256(SHA256(payload)).
[[nodiscard]] std::array<std::uint8_t, 4> frame_checksum(util::ByteView payload) noexcept;

/// Serializes one message as envelope + payload. Throws util::DeserializeError
/// if the payload exceeds `max_payload` — a local bug, but the encoder
/// enforcing the same cap as the decoder keeps the limit symmetric.
[[nodiscard]] util::Bytes encode_frame(
    const Message& msg, std::uint64_t max_payload = util::wire::kMaxFramePayload);

/// Appends the frame for `msg` directly onto `out` (a daemon send queue):
/// byte-identical to encode_frame(), without the intermediate buffer. When
/// `out` must grow it at least doubles its capacity, so n frames appended
/// without a drain cost O(log n) reallocations; with room it allocates
/// nothing.
void encode_frame_into(util::Bytes& out, const Message& msg,
                       std::uint64_t max_payload = util::wire::kMaxFramePayload);

/// Incremental frame decoder over a byte stream.
///
///   FrameReader reader;
///   reader.absorb(bytes_from_socket);
///   while (std::optional<Message> msg = reader.next()) handle(*msg);
///
/// next() returns nullopt when the buffered bytes end mid-frame (absorb more
/// and retry) and throws util::DeserializeError on the first malformed
/// envelope — after which the stream is unsynchronized and the connection
/// must close (the reader stays in the throwing state by design).
class FrameReader {
 public:
  explicit FrameReader(std::uint64_t max_payload = util::wire::kMaxFramePayload) noexcept
      : max_payload_(max_payload) {}

  /// Appends stream bytes. Absorbing is cheap; all validation happens in
  /// next(). Throws util::DeserializeError if buffering would exceed the
  /// envelope + max_payload high-water mark times two — only reachable when
  /// the caller keeps absorbing after next() threw.
  void absorb(util::ByteView data);

  /// Decodes the next complete frame, or nullopt if the buffer ends mid-
  /// frame. Throws util::DeserializeError on a malformed envelope.
  [[nodiscard]] std::optional<Message> next();

  /// Bytes absorbed but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

  /// True when the buffer currently ends inside a frame — i.e. a peer that
  /// disconnects now abandons a partially-delivered message.
  [[nodiscard]] bool mid_frame() const noexcept { return buffered() != 0; }

 private:
  std::uint64_t max_payload_;
  util::Bytes buf_;
  std::size_t pos_ = 0;
};

}  // namespace graphene::net
