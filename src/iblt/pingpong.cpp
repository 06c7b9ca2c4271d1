#include "iblt/pingpong.hpp"

#include <unordered_set>

namespace graphene::iblt {

PingPongResult pingpong_decode(const Iblt& a, const Iblt& b) {
  PingPongResult result;
  Iblt tables[2] = {a, b};

  // All items recovered so far, deduplicated across rounds and tables.
  std::unordered_set<std::uint64_t> seen_pos;
  std::unordered_set<std::uint64_t> seen_neg;

  bool progress = true;
  int active = 0;
  while (progress) {
    progress = false;
    for (int round_table = 0; round_table < 2; ++round_table) {
      const int idx = (active + round_table) % 2;
      const int other = 1 - idx;
      const DecodeResult dec = tables[idx].decode();
      if (dec.malformed) {
        result.malformed = true;
        return result;
      }
      ++result.rounds;

      // Cancel fresh recoveries in the sibling table.
      for (std::uint64_t key : dec.positives) {
        if (seen_pos.insert(key).second) {
          tables[other].cancel(key, +1);
          tables[idx].cancel(key, +1);
          progress = true;
        }
      }
      for (std::uint64_t key : dec.negatives) {
        if (seen_neg.insert(key).second) {
          tables[other].cancel(key, -1);
          tables[idx].cancel(key, -1);
          progress = true;
        }
      }

      if (tables[idx].empty() || tables[other].empty()) {
        result.success = true;
        result.positives.assign(seen_pos.begin(), seen_pos.end());
        result.negatives.assign(seen_neg.begin(), seen_neg.end());
        return result;
      }
    }
    active = 1 - active;
  }

  result.positives.assign(seen_pos.begin(), seen_pos.end());
  result.negatives.assign(seen_neg.begin(), seen_neg.end());
  return result;
}

}  // namespace graphene::iblt
