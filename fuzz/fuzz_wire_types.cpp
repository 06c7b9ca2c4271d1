// Hostile-bytes round trip over every payload wire type.
//
// The first input byte picks one type from kRoutes; the remainder goes to
// that type's deserializer. Rejection (DeserializeError) is fine. Anything
// accepted must serialize to bytes that parse again, consume exactly, and
// re-serialize identically. (The input itself need not round-trip byte for
// byte: discarded transaction padding and bit-packing slack re-serialize
// canonically.) This is the only harness that reaches the reconcile
// Offer/Response/FetchResponse and the daemon Hello/Bye/Error parsers; the
// others get a dedicated harness as well. Each type has one route: the
// reconcile request and fetch are core::GrapheneRequestMsg and
// core::RepairRequestMsg.
#include <cstdlib>
#include <iterator>

#include "bloom/bloom_filter.hpp"
#include "daemon/wire.hpp"
#include "graphene/messages.hpp"
#include "harness.hpp"
#include "iblt/iblt.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/rateless_backend.hpp"

namespace {

using namespace graphene;

template <typename T>
void round_trip(util::ByteView data) {
  util::Bytes wire;
  try {
    util::ByteReader r(data);
    wire = T::deserialize(r).serialize();
  } catch (const util::DeserializeError&) {
    return;
  }
  try {
    util::ByteReader r{util::ByteView(wire)};
    const util::Bytes again = T::deserialize(r).serialize();
    if (r.remaining() != 0 || again != wire) std::abort();
  } catch (const util::DeserializeError&) {
    std::abort();  // an accepted message serialized to bytes it rejects
  }
}

using Route = void (*)(util::ByteView);

// The route byte indexes this table; tools/gen_fuzz_corpus.cpp seeds every
// entry by position, so append new types at the end, and regenerate the
// corpus when one goes.
constexpr Route kRoutes[] = {
    &round_trip<bloom::BloomFilter>,        // 0
    &round_trip<iblt::Iblt>,                // 1
    &round_trip<core::GrapheneBlockMsg>,    // 2
    &round_trip<core::GrapheneRequestMsg>,  // 3
    &round_trip<core::GrapheneResponseMsg>, // 4
    &round_trip<core::RepairRequestMsg>,    // 5
    &round_trip<core::RepairResponseMsg>,   // 6
    &round_trip<reconcile::Offer>,          // 7
    &round_trip<reconcile::Response>,       // 8
    &round_trip<reconcile::FetchResponse>,  // 9
    &round_trip<reconcile::RatelessChunk>,  // 10
    &round_trip<reconcile::RatelessNeed>,   // 11
    &round_trip<daemon::HelloMsg>,          // 12
    &round_trip<daemon::ByeMsg>,            // 13
    &round_trip<daemon::ErrorMsg>,          // 14
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  kRoutes[data[0] % std::size(kRoutes)](fuzz::view(data + 1, size - 1));
  return 0;
}
