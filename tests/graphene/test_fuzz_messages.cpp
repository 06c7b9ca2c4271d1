// Robustness property: deserializing any truncated or bit-flipped prefix of
// a valid message must either succeed or throw DeserializeError /
// invalid_argument — never crash, hang, or read out of bounds. This is the
// byte-level counterpart of §6.1's "inputs from the network are hostile".
#include <gtest/gtest.h>

#include "graphene/messages.hpp"
#include "util/random.hpp"

namespace graphene::core {
namespace {

template <typename Msg>
void check_all_truncations(const util::Bytes& wire) {
  for (std::size_t len = 0; len < wire.size(); ++len) {
    util::Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    util::ByteReader r{util::ByteView(cut)};
    try {
      (void)Msg::deserialize(r);
      // Shorter prefixes may parse if trailing fields were empty; fine.
    } catch (const util::DeserializeError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

template <typename Msg>
void check_random_corruptions(const util::Bytes& wire, std::uint64_t seed) {
  util::Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    util::Bytes mutated = wire;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    util::ByteReader r{util::ByteView(mutated)};
    try {
      (void)Msg::deserialize(r);
    } catch (const util::DeserializeError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

GrapheneBlockMsg sample_block_msg(util::Rng& rng) {
  GrapheneBlockMsg msg;
  msg.n = 50;
  msg.shortid_salt = rng.next();
  msg.filter_s = bloom::BloomFilter(50, 0.05, rng.next());
  for (int i = 0; i < 50; ++i) {
    const auto id = chain::make_random_transaction(rng).id;
    msg.filter_s.insert(util::ByteView(id.data(), id.size()));
  }
  msg.iblt_i = iblt::Iblt(iblt::IbltParams{4, 40}, rng.next());
  for (int i = 0; i < 10; ++i) msg.iblt_i.insert(rng.next());
  return msg;
}

TEST(MessageFuzz, BlockMsgTruncations) {
  util::Rng rng(1);
  check_all_truncations<GrapheneBlockMsg>(sample_block_msg(rng).serialize());
}

TEST(MessageFuzz, BlockMsgCorruptions) {
  util::Rng rng(2);
  check_random_corruptions<GrapheneBlockMsg>(sample_block_msg(rng).serialize(), 3);
}

TEST(MessageFuzz, RequestMsgTruncationsAndCorruptions) {
  util::Rng rng(4);
  GrapheneRequestMsg req;
  req.z = 100;
  req.b = 5;
  req.y_star = 9;
  req.fpr_r = 0.03;
  req.filter = bloom::BloomFilter(100, 0.03, rng.next());
  const util::Bytes wire = req.serialize();
  check_all_truncations<GrapheneRequestMsg>(wire);
  check_random_corruptions<GrapheneRequestMsg>(wire, 5);
}

TEST(MessageFuzz, ResponseMsgTruncationsAndCorruptions) {
  util::Rng rng(6);
  GrapheneResponseMsg resp;
  for (int i = 0; i < 5; ++i) resp.missing.push_back(chain::make_random_transaction(rng));
  resp.iblt_j = iblt::Iblt(iblt::IbltParams{3, 30}, rng.next());
  resp.filter_f = bloom::BloomFilter(20, 0.1, rng.next());
  const util::Bytes wire = resp.serialize();
  check_all_truncations<GrapheneResponseMsg>(wire);
  check_random_corruptions<GrapheneResponseMsg>(wire, 7);
}

TEST(MessageFuzz, RepairMsgsTruncations) {
  util::Rng rng(8);
  RepairRequestMsg req;
  for (int i = 0; i < 20; ++i) req.short_ids.push_back(rng.next());
  check_all_truncations<RepairRequestMsg>(req.serialize());

  RepairResponseMsg resp;
  for (int i = 0; i < 3; ++i) resp.txns.push_back(chain::make_random_transaction(rng));
  check_all_truncations<RepairResponseMsg>(resp.serialize());
}

TEST(MessageFuzz, GarbageBytesNeverCrash) {
  util::Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    util::Bytes garbage(rng.below(300) + 1);
    rng.fill(garbage);
    util::ByteReader r{util::ByteView(garbage)};
    try {
      (void)GrapheneBlockMsg::deserialize(r);
    } catch (const util::DeserializeError&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::length_error&) {
      // A huge varint can request an unsatisfiable allocation; rejecting it
      // via the container's own guard is acceptable, crashing is not.
    } catch (const std::bad_alloc&) {
    }
  }
}

}  // namespace
}  // namespace graphene::core
