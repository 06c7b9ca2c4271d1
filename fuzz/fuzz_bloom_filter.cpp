// bloom::BloomFilter::deserialize over hostile bytes. Accepted filters are
// queried (the decode loop and probe derivation must tolerate any bit
// pattern) and re-serialized: a parsed filter must round-trip byte-exactly,
// otherwise two peers could disagree about the same wire bytes.
#include <cstdlib>

#include "bloom/bloom_filter.hpp"
#include "harness.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  graphene::util::ByteReader r(graphene::fuzz::view(data, size));
  try {
    const auto filter = graphene::bloom::BloomFilter::deserialize(r);

    const std::uint8_t probe[32] = {0xde, 0xad, 0xbe, 0xef};
    (void)filter.contains(graphene::util::ByteView(probe, sizeof(probe)));

    const graphene::util::Bytes wire = filter.serialize();
    graphene::util::ByteReader r2{graphene::util::ByteView(wire)};
    const auto again = graphene::bloom::BloomFilter::deserialize(r2);
    if (again.serialize() != wire) std::abort();
  } catch (const graphene::util::DeserializeError&) {
  }
  return 0;
}
