// Byte-buffer primitives shared by every wire format in the library.
//
// All protocol messages in this reproduction are serialized to real byte
// buffers (never size formulas alone), so that the benchmark harnesses
// measure the same thing a network socket would carry.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace graphene::util {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Views the bytes of string-like data. The sanctioned pointer
/// reinterpretations in the codebase live here; everywhere else raw
/// `reinterpret_cast` is banned by tools/lint.py.
inline ByteView str_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Thrown when a reader runs off the end of a buffer or a decoder meets a
/// structurally invalid encoding.
class DeserializeError : public std::runtime_error {
 public:
  explicit DeserializeError(const std::string& what) : std::runtime_error(what) {}
};

/// Little-endian, append-only byte writer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts an existing buffer and appends after its current contents — the
  /// zero-copy bridge into an outgoing send queue: move the queue in, write
  /// frames, move it back out with take().
  explicit ByteWriter(Bytes&& adopt) noexcept : buf_(std::move(adopt)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  void raw(ByteView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void raw(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  /// Appends `byte_count` bytes of a little-endian word array — the first
  /// byte_count bytes of words[0], words[1], … each emitted LSB-first. On a
  /// little-endian host this is one memcpy; the portable fallback produces
  /// identical wire bytes. `words` must hold at least ceil(byte_count/8)
  /// entries.
  void words_le(const std::uint64_t* words, std::size_t byte_count) {
    if (byte_count == 0) return;
    const std::size_t start = buf_.size();
    buf_.resize(start + byte_count);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(buf_.data() + start, words, byte_count);
    } else {
      for (std::size_t byte = 0; byte < byte_count; ++byte) {
        buf_[start + byte] =
            static_cast<std::uint8_t>(words[byte / 8] >> (8 * (byte % 8)));
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(buf_); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Bounds-checked little-endian byte reader over a non-owning view.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) noexcept : data_(data) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(take<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(take<std::uint64_t>()); }

  /// Reads `len` bytes into a fresh vector.
  Bytes raw(std::size_t len) {
    require(len);
    const std::uint8_t* first = data_.data() + pos_;
    Bytes out(first, first + len);
    pos_ += len;
    return out;
  }

  /// Reads `len` bytes into caller-provided storage.
  void raw_into(void* dst, std::size_t len) {
    require(len);
    std::memcpy(dst, data_.data() + pos_, len);
    pos_ += len;
  }

  /// Reads `byte_count` bytes into a little-endian word array (inverse of
  /// ByteWriter::words_le). `words` must hold ceil(byte_count/8) entries; a
  /// trailing partial word is zero-padded in its high bytes.
  void words_le_into(std::uint64_t* words, std::size_t byte_count) {
    if (byte_count == 0) return;
    require(byte_count);
    if (byte_count % 8 != 0) words[byte_count / 8] = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(words, data_.data() + pos_, byte_count);
    } else {
      const std::size_t full = byte_count / 8;
      for (std::size_t w = 0; w < full; ++w) words[w] = 0;
      for (std::size_t byte = 0; byte < byte_count; ++byte) {
        words[byte / 8] |= static_cast<std::uint64_t>(data_[pos_ + byte])
                           << (8 * (byte % 8));
      }
    }
    pos_ += byte_count;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

 private:
  void require(std::size_t len) const {
    if (len > remaining()) {
      throw DeserializeError("ByteReader: truncated buffer (need " + std::to_string(len) +
                             " bytes, have " + std::to_string(remaining()) + ")");
    }
  }

  template <typename T>
  T take() {
    require(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace graphene::util
