// Ping-pong decoding (§4.2): joint decoding of two IBLT differences built
// from the same underlying item sets but with independent hash seeds (and
// typically different sizes). Items peeled from one table are cancelled in
// the other, which can unlock its 2-core; the process alternates until both
// decode or neither makes progress. The paper measures failure rates near
// (1−p)² when the sibling is as large as the primary (Fig. 11).
#pragma once

#include "iblt/iblt.hpp"

namespace graphene::iblt {

/// Result of jointly decoding two difference-IBLTs of the same set pair.
struct PingPongResult {
  bool success = false;    ///< true iff either table fully decoded
  bool malformed = false;  ///< a table yielded a repeated item (§6.1 attack)
  std::vector<std::uint64_t> positives;
  std::vector<std::uint64_t> negatives;
  std::uint32_t rounds = 0;  ///< alternations performed
};

/// Jointly decodes `a` and `b`. Both must be subtractions over the same two
/// item sets (so their symmetric differences are identical); they may have
/// different sizes, hash counts and seeds.
[[nodiscard]] PingPongResult pingpong_decode(const Iblt& a, const Iblt& b);

}  // namespace graphene::iblt
