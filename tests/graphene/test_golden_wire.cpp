// Golden wire pins for the core block-relay messages.
//
// SHA-256 of every serialized message of a Protocol 1 → Protocol 2 relay,
// over two pinned scenarios: a normal exchange (receiver missing a tenth of
// the block among a larger mempool) and the reversed m ≈ n exchange of
// §3.3.2, which also pins filter F. Under the paper's byte objective
// (round_trip_bytes = 0) both relays also take the repair round; under the
// default completion objective the normal exchange decodes without it. A
// third relay holds the whole block and ends after Protocol 1's message.
// These bytes are the on-wire protocol: a refactor of the sender, receiver,
// Bloom filter or IBLT must reproduce them exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/workload.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "sim/simulator.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace graphene::core {
namespace {

std::string pin(const util::Bytes& wire) {
  const auto h = util::sha256(util::ByteView(wire));
  return util::to_hex(util::ByteView(h.data(), h.size()));
}

/// Pins of one relay, in wire order: block and, when the relay runs
/// Protocol 2, request and response and, when it also takes the repair
/// round, repair request and repair response.
using RelayPins = std::vector<std::string>;

/// Relays one block of a fixed-seed scenario under `cfg` and returns the pins
/// of the messages it sent. A Protocol 2 round must take the reversed path
/// exactly when `reversed` is set.
RelayPins relay_pins(const chain::ScenarioSpec& spec, const ProtocolConfig& cfg,
                     bool reversed = false) {
  util::Rng rng(1);
  const chain::Scenario s = chain::make_scenario(spec, rng);
  const Sender sender(s.block, 7919, cfg);
  ReceiveSession session(s.receiver_mempool, cfg);
  const Relay relay = relay_block(sender, session, s.receiver_mempool.size());
  EXPECT_EQ(relay.outcome.status, ReceiveStatus::kDecoded);
  EXPECT_EQ(relay.outcome.block_ids, s.block.tx_ids());

  RelayPins pins = {pin(relay.block.serialize())};
  if (relay.request) {
    EXPECT_EQ(relay.request->reversed, reversed);
    EXPECT_EQ(relay.response->filter_f.has_value(), reversed);
    pins.push_back(pin(relay.request->serialize()));
    pins.push_back(pin(relay.response->serialize()));
  }
  if (relay.repair_request) {
    pins.push_back(pin(relay.repair_request->serialize()));
    pins.push_back(pin(relay.repair_response->serialize()));
  }
  return pins;
}

chain::ScenarioSpec normal_spec() {
  chain::ScenarioSpec spec;
  spec.block_txns = 300;
  spec.extra_txns = 600;
  spec.block_fraction_in_mempool = 0.9;
  return spec;
}

chain::ScenarioSpec reversed_spec() {
  chain::ScenarioSpec spec;
  spec.block_txns = 400;
  spec.extra_txns = 200;  // m = 0.5·400 + 200 = 400 = n
  spec.block_fraction_in_mempool = 0.5;
  return spec;
}

TEST(BlockGoldenWire, NormalExchangePinsHold) {
  const RelayPins want = {
      "b193f0ccf95938ceb856397a8aaa3d3d662eb55c3adcf9810f2b8cc42482e774",
      "fbb4dfe601f0b5b6dec575daa2929a08c9543058dcbb27d6c38383907933a814",
      "c7f5b89020c2bb850a2e777d22baf7e35c40a20a459bc688d3e9c650f78e54ed",
      "bc7efb9cf607920964f0e23230237bae6b7e84fbe4976c5c0d11605ad36b8818",
      "85ccdf10ae8dbcf92c64b2d823f95540d8d0ec1f6905a2b1c719c83f4b1bbff3",
  };
  EXPECT_EQ(relay_pins(normal_spec(), sim::paper_config()), want);
}

TEST(BlockGoldenWire, CompletionObjectiveExchangePinsHold) {
  // The normal scenario under the default round_trip_bytes: R's FPR is low
  // enough that no missing transaction slips through, so J decodes the block
  // and the repair round never runs.
  const RelayPins want = {
      "b193f0ccf95938ceb856397a8aaa3d3d662eb55c3adcf9810f2b8cc42482e774",
      "7f3915fffd35825b00773f24b616083a0596ba45fc65d3b5f2096dfd0710b0fa",
      "0abc2ca642e0f1258756322981e8075c2e928acc0bf22f08db53f2aa3f57e566",
  };
  EXPECT_EQ(relay_pins(normal_spec(), ProtocolConfig{}), want);
}

TEST(BlockGoldenWire, Protocol1ExchangePinHolds) {
  // The normal scenario with the whole block in the mempool: Protocol 1
  // decodes, so the relay sends no request, response or repair.
  chain::ScenarioSpec spec = normal_spec();
  spec.block_fraction_in_mempool = 1.0;
  const RelayPins want = {
      "960cbb35a3a134dd4932dbff9d7e6035e852a176b4012d3cbdf93a0134ac36a3",
  };
  EXPECT_EQ(relay_pins(spec, ProtocolConfig{}), want);
}

TEST(BlockGoldenWire, ReversedExchangePinsHold) {
  const RelayPins want = {
      "4577ff5f1550323e08dbb4378f92f55a970dc614eff3768e89a114bc9c35abb1",
      "99a8ed23430cf3d83257098d051375e3c58a20e27c6655da58bf6313a620807b",
      "7e361a399818654f9fd6ec1deba93277a9a99abec34fd8a92371af857f3b1ac4",
      "e0ecf54f81ee03a3b0e655d6d5d316f6a0baca66c19ad183e226557cd9e8f9ca",
      "028ca32fb7ebe2d9178ca65086ab3c2a353e4763735eb051bed6555ec4ba2199",
  };
  EXPECT_EQ(relay_pins(reversed_spec(), ProtocolConfig{}, /*reversed=*/true), want);
}

}  // namespace
}  // namespace graphene::core
