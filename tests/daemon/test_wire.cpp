// Daemon control frames: serialize/deserialize symmetry and strict rejection
// of out-of-range fields.
#include "daemon/wire.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/bytes.hpp"
#include "util/wire_limits.hpp"

namespace graphene::daemon {
namespace {

template <typename Msg>
Msg roundtrip(const Msg& msg) {
  const util::Bytes wire = msg.serialize();
  util::ByteReader reader(wire);
  Msg out = Msg::deserialize(reader);
  EXPECT_TRUE(reader.done());
  return out;
}

TEST(DaemonWire, HelloRoundTrips) {
  HelloMsg hello;
  hello.version = kDaemonProtocolVersion;
  hello.backend = 1;
  hello.item_count = 123456789;
  const HelloMsg got = roundtrip(hello);
  EXPECT_EQ(got.version, hello.version);
  EXPECT_EQ(got.backend, hello.backend);
  EXPECT_EQ(got.item_count, hello.item_count);
}

TEST(DaemonWire, HelloRoundTripsUnknownBackend) {
  // The parser keeps any backend byte; PeerSession answers an unknown one
  // with kUnsupported after its version check.
  HelloMsg hello;
  hello.backend = 2;
  hello.item_count = 9;
  const HelloMsg got = roundtrip(hello);
  EXPECT_EQ(got.backend, 2);
  EXPECT_EQ(got.item_count, 9u);
}

TEST(DaemonWire, ByeRoundTripsAndRejectsBadOk) {
  ByeMsg bye;
  bye.ok = 1;
  bye.rounds = 7;
  const ByeMsg got = roundtrip(bye);
  EXPECT_EQ(got.ok, 1);
  EXPECT_EQ(got.rounds, 7u);

  bye.ok = 9;
  const util::Bytes wire = bye.serialize();
  util::ByteReader reader(wire);
  EXPECT_THROW((void)ByeMsg::deserialize(reader), util::DeserializeError);
}

TEST(DaemonWire, ErrorRoundTripsAndTruncatesDetail) {
  ErrorMsg err;
  err.code = ErrorCode::kLimit;
  err.detail = std::string(10000, 'x');  // far beyond the wire cap
  const util::Bytes wire = err.serialize();
  util::ByteReader reader(wire);
  const ErrorMsg got = ErrorMsg::deserialize(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(got.code, ErrorCode::kLimit);
  EXPECT_EQ(got.detail.size(), util::wire::kMaxDaemonTextBytes);
}

TEST(DaemonWire, ErrorRejectsUnknownCode) {
  ErrorMsg err;
  err.code = static_cast<ErrorCode>(200);
  const util::Bytes wire = err.serialize();
  util::ByteReader reader(wire);
  EXPECT_THROW((void)ErrorMsg::deserialize(reader), util::DeserializeError);
}

TEST(DaemonWire, ErrorCodesHaveStableNames) {
  EXPECT_STREQ(to_string(ErrorCode::kProtocol), "protocol");
  EXPECT_STREQ(to_string(ErrorCode::kMalformed), "malformed");
  EXPECT_STREQ(to_string(ErrorCode::kLimit), "limit");
  EXPECT_STREQ(to_string(ErrorCode::kUnsupported), "unsupported");
  EXPECT_STREQ(to_string(ErrorCode::kShutdown), "shutdown");
}

}  // namespace
}  // namespace graphene::daemon
