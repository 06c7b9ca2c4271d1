// The rateless backend: set reconciliation over a rateless coded-symbol
// stream (arXiv 2402.02668) behind the HostBackend/ClientBackend seam
// (backend.hpp).
//
// The host exposes its set as an unbounded symbol stream (iblt::
// RatelessEncoder); the client subtracts its own set and peels (iblt::
// RatelessDecoder), consuming symbols until decode succeeds. There is no
// Algorithm 1 sizing, no decode-failure repair round, and no short-ID fetch:
// an undersized first chunk just means the client asks for the next span of
// the same stream. Messages:
//
//   RatelessChunk — a contiguous span of coded symbols, self-contained
//                   (start index + the host's count/salt/checksum header
//                   repeated, so any chunk can start or resume a session)
//   RatelessNeed  — client → host: "send `count` symbols from `next_index`"
//
// Chunks are sized from what each side already knows, not by a fixed ratio.
// The host's first chunk is max(48, |host_count − client_count|) symbols,
// since |h − c| bounds d from below. Each request then asks for enough to
// bring the stream to 1.6·d̂ + 16, where d̂ is the larger of |h − c| and the
// decoder's estimate of d from its residual cells, and never for fewer than
// max(16, half the stream consumed). Most sessions end after one request.
// A symbol's count goes on the wire as a CompactSize bounded by host_count.
//
// The stream depends only on the set and the salt, not on the peer or on d,
// so one RatelessStream can serve many sessions: the relay daemon hands
// every rateless session of a salt epoch the same stream (daemon/
// session.hpp), and a session's work is copying and framing the symbols it
// sends. The (items, salt, cfg) constructor, which make_host_backend uses,
// builds a stream of its own. The stream is append-only, so duplicated or
// re-requested chunks are byte-identical. A host serves a need only if it
// starts at or before the end of what that session was already sent and
// ends within the session's stream budget, so each need extends the stream
// by at most one chunk.
//
// Chunks are bounded by util::wire_limits and fuzz-covered
// (fuzz/fuzz_rateless_chunk.cpp).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graphene/params.hpp"
#include "iblt/coded_symbol.hpp"
#include "reconcile/backend.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile {

/// A contiguous span of the host's coded-symbol stream.
struct RatelessChunk {
  std::uint64_t start = 0;         ///< stream index of symbols.front()
  std::uint64_t host_count = 0;    ///< |host set| — the exactness target
  std::uint64_t salt = 0;          ///< keys checksums and index sequences
  std::uint64_t set_checksum = 0;  ///< xor of per-item checksums over the host set
  std::vector<iblt::CodedSymbol> symbols;

  [[nodiscard]] util::Bytes serialize() const;
  static RatelessChunk deserialize(util::ByteReader& reader);
};

/// Client's request for more of the stream.
struct RatelessNeed {
  std::uint64_t next_index = 0;  ///< first symbol index not yet consumed
  std::uint64_t count = 0;       ///< symbols wanted in the next chunk

  [[nodiscard]] util::Bytes serialize() const;
  static RatelessNeed deserialize(util::ByteReader& reader);
};

/// A host's coded-symbol stream over one set under one salt: the encoder,
/// the symbols drawn so far, and the header every chunk repeats. Symbols are
/// drawn lazily, as far as a read reaches, and never change once drawn.
/// Not thread-safe: the sessions that share a stream share its thread.
class RatelessStream {
 public:
  /// Copies what it needs of `items`; the set may change afterwards.
  RatelessStream(const ItemSet& items, std::uint64_t salt);

  [[nodiscard]] std::uint64_t salt() const noexcept { return salt_; }
  [[nodiscard]] std::uint64_t host_count() const noexcept { return encoder_.item_count(); }
  /// XOR of per-item checksums over the set (RatelessChunk::set_checksum).
  [[nodiscard]] std::uint64_t set_checksum() const noexcept {
    return encoder_.set_checksum();
  }
  /// Symbols [start, start + count), drawing any not drawn yet. The span
  /// lives until the next call.
  [[nodiscard]] std::span<const iblt::CodedSymbol> read(std::uint64_t start,
                                                        std::uint64_t count);

 private:
  std::uint64_t salt_;
  iblt::RatelessEncoder encoder_;
  std::vector<iblt::CodedSymbol> symbols_;
};

/// Host side: serves one session's chunks out of a RatelessStream. Its own
/// state is the session's stream budget and the end of what it has sent.
class RatelessHostBackend final : public HostBackend {
 public:
  /// A session with a stream of its own over `items` under `salt`.
  RatelessHostBackend(const ItemSet& items, std::uint64_t salt,
                      core::ProtocolConfig cfg);
  /// A session reading `stream`, which other sessions may read too.
  RatelessHostBackend(std::shared_ptr<RatelessStream> stream, core::ProtocolConfig cfg);

  [[nodiscard]] WireMsg open(std::uint64_t client_count) override;
  [[nodiscard]] WireMsg serve_wire(const WireMsg& request) override;

 private:
  [[nodiscard]] WireMsg chunk_for(std::uint64_t start, std::uint64_t count);

  std::shared_ptr<RatelessStream> stream_;
  core::ProtocolConfig cfg_;
  std::uint64_t stream_budget_ = 0;  ///< most symbols this session may be sent
  std::uint64_t sent_end_ = 0;       ///< end of the furthest span sent
};

/// Client side: wraps a RatelessDecoder; every absorbed chunk either
/// completes the session or asks for the next span.
class RatelessClientBackend final : public ClientBackend {
 public:
  RatelessClientBackend(const ItemSet& items, core::ProtocolConfig cfg);

  [[nodiscard]] Outcome absorb_wire(const WireMsg& msg) override;
  [[nodiscard]] WireMsg next_request() override;

  /// Most symbols the client will consume before declaring the stream
  /// hostile; ~3x the paper's worst-case need for the claimed set sizes.
  /// No request reaches past it.
  [[nodiscard]] std::uint64_t symbol_budget() const noexcept;

 private:
  [[nodiscard]] Outcome fail();

  const ItemSet* items_;
  core::ProtocolConfig cfg_;
  std::optional<iblt::RatelessDecoder> decoder_;
  std::uint64_t salt_ = 0;
  std::uint64_t host_count_ = 0;
  std::uint64_t set_checksum_ = 0;
  bool started_ = false;
  bool failed_ = false;
};

}  // namespace graphene::reconcile
