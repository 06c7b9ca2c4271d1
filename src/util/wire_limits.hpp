// Hard caps on every length field read from the wire.
//
// A length prefix in a message an adversarial peer controls must never be
// trusted before it is checked twice: once against these absolute protocol
// limits (so a 2^60 cell count can't drive a multi-gigabyte allocation or an
// integer overflow in a `(bits + 7) / 8` computation), and once against the
// bytes actually remaining in the buffer (so the decoder fails fast instead
// of looping over a count the payload can't back). The limits are sized an
// order of magnitude above anything the simulator produces at paper scale
// (§5 uses blocks up to 10^5 transactions and mempools to 10^7), so honest
// traffic never trips them.
//
// Deserializers throw util::DeserializeError when a limit is exceeded; the
// error names the field so a rejected message is attributable in traces.
#pragma once

#include <cstdint>

namespace graphene::util::wire {

/// Bloom filter: 2^32 bits = 512 MiB of payload, far above the ~10 MiB a
/// 10^7-entry mempool filter needs at the paper's lowest FPRs.
inline constexpr std::uint64_t kMaxBloomBits = 1ULL << 32;

/// IBLT: 2^24 cells is a 256 MiB table; difference IBLTs in the
/// paper stay under 10^4 cells even for mempool sync.
inline constexpr std::uint64_t kMaxIbltCells = 1ULL << 24;

/// Announced transactions per block (`n` in grblk). Bitcoin-scale blocks
/// carry ~10^4; the paper's largest experiments use 10^5.
inline constexpr std::uint64_t kMaxBlockTxCount = 1ULL << 24;

/// Collection counts inside one message (missing txns, repair short IDs).
inline constexpr std::uint64_t kMaxWireCollection = 1ULL << 24;

/// Protocol 2 sizing parameters (b, y*) echoed back by the receiver; the
/// sender builds an IBLT of b + y* cells, so both must be bounded before
/// they meet an allocator. Theorem 2/3 bounds stay far below this.
inline constexpr std::uint64_t kMaxSizingParam = kMaxIbltCells;

/// Claimed wire size of one full transaction record (id + size field +
/// padded body). 4 MiB is ~4x a consensus-maximum transaction; the paper's
/// workloads average 226 bytes. Found by the flow-aware
/// graphene-bounded-wire-read tidy check: the u32 size read in read_full_tx
/// crossed the deserializer unvalidated and later padded re-serialization,
/// so a ~40-byte hostile record could claim 4 GiB and amplify into
/// multi-GiB allocations when the decoded block was re-encoded.
inline constexpr std::uint64_t kMaxTxWireSize = 1ULL << 22;

/// Payload bytes one net::FrameReader will buffer for a single framed
/// message. The largest honest payloads (mempool-scale Bloom filters) stay
/// under a few MiB; 64 MiB keeps a hostile length prefix from pinning that
/// much memory per connection times thousands of connections.
inline constexpr std::uint64_t kMaxFramePayload = 1ULL << 26;

/// Human-readable text carried in a daemon error frame. Diagnostics, not
/// data: anything longer is a smuggling attempt.
inline constexpr std::uint64_t kMaxDaemonTextBytes = 512;

/// Set size a daemon peer may claim in its hello. Only feeds parameter
/// arithmetic (never an allocation), but bounding it keeps every downstream
/// sizing computation far from overflow.
inline constexpr std::uint64_t kMaxDaemonItemCount = 1ULL << 40;

/// Coded symbols in one RatelessChunk (41–45 bytes each → 3 MiB ceiling). The
/// rateless decoder needs ~1.35·d symbols total, so even a 10^6-item
/// difference fits in a handful of maximal chunks.
inline constexpr std::uint64_t kMaxRatelessChunkSymbols = 1ULL << 16;

/// Starting stream index claimed by a RatelessChunk. Indices grow one per
/// symbol sent, so 2^40 is unreachable for honest peers; the cap keeps
/// `start + count` arithmetic far from overflow.
inline constexpr std::uint64_t kMaxRatelessStreamIndex = 1ULL << 40;

}  // namespace graphene::util::wire
