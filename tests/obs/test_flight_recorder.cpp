// Flight recorder: event stamping, ring bounds, runtime switches, event
// JSON round-trip, and the obs::flight() gate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace graphene::obs {
namespace {

FlightEvent make_event(const char* label, FlightEventKind kind = FlightEventKind::kNote) {
  FlightEvent e;
  e.kind = kind;
  e.label = label;
  return e;
}

TEST(FlightEventKindStrings, RoundTrip) {
  for (const FlightEventKind kind :
       {FlightEventKind::kMsgSent, FlightEventKind::kMsgReceived, FlightEventKind::kDecode,
        FlightEventKind::kError, FlightEventKind::kNote}) {
    FlightEventKind back = FlightEventKind::kNote;
    ASSERT_TRUE(kind_from_string(to_string(kind), &back)) << to_string(kind);
    EXPECT_EQ(back, kind);
  }
  FlightEventKind ignored;
  EXPECT_FALSE(kind_from_string("not-a-kind", &ignored));
  EXPECT_FALSE(kind_from_string("", &ignored));
}

TEST(FlightRecorder, StampsSequenceAndTime) {
  ScopedFakeClock clock(1000);
  FlightRecorder rec;
  rec.record(make_event("a"));
  clock.advance(17);
  rec.record(make_event("b"));

  const std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[0].t_ns, 1000u);
  EXPECT_EQ(events[1].t_ns, 1017u);
  EXPECT_EQ(events[0].label, "a");
  EXPECT_EQ(rec.total_recorded(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorder, RingDropsOldestAndCounts) {
  FlightRecorder rec(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) rec.record(make_event(std::to_string(i).c_str()));
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].label, "2");  // oldest surviving
  EXPECT_EQ(events[2].label, "4");
  EXPECT_EQ(events[2].seq, 4u);     // sequence keeps counting across drops
}

TEST(FlightRecorder, DisabledRecorderDropsEverything) {
  FlightRecorder rec;
  rec.set_enabled(false);
  rec.record(make_event("ignored"));
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  rec.set_enabled(true);
  rec.record(make_event("kept"));
  EXPECT_EQ(rec.size(), 1u);
}

TEST(FlightRecorder, ClearResetsRingAndCounters) {
  FlightRecorder rec(2);
  for (int i = 0; i < 4; ++i) rec.record(make_event("x"));
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightEvent, JsonRoundTripWithWireAndAttrs) {
  FlightEvent e;
  e.seq = 7;
  e.t_ns = 12345;
  e.kind = FlightEventKind::kMsgSent;
  e.label = "grblk";
  e.attrs = {{"n", 500.0}, {"fpr_s", 0.0078125}};
  e.wire = {0x01, 0x00, 0xff, 0x7e};

  const FlightEvent back = FlightEvent::from_json(json::parse(e.to_json()));
  EXPECT_EQ(back.seq, e.seq);
  EXPECT_EQ(back.t_ns, e.t_ns);
  EXPECT_EQ(back.kind, e.kind);
  EXPECT_EQ(back.label, e.label);
  // Attr order may not survive the JSON object round trip; the attr()
  // lookup is the contract.
  ASSERT_EQ(back.attrs.size(), 2u);
  EXPECT_DOUBLE_EQ(back.attr("n"), 500.0);
  EXPECT_DOUBLE_EQ(back.attr("fpr_s"), 0.0078125);
  EXPECT_EQ(back.wire, e.wire);
}

TEST(FlightEvent, JsonOmitsEmptyWire) {
  FlightEvent e;
  e.label = "p1";
  e.kind = FlightEventKind::kDecode;
  const std::string text = e.to_json();
  EXPECT_EQ(text.find("wire_b64"), std::string::npos);
  const FlightEvent back = FlightEvent::from_json(json::parse(text));
  EXPECT_TRUE(back.wire.empty());
}

TEST(FlightGate, ReturnsRecorderOnlyWhenAttachedAndEnabled) {
  EXPECT_EQ(flight(nullptr), nullptr);
  Registry reg;
  FlightRecorder* rec = flight(&reg);
  ASSERT_NE(rec, nullptr);  // recorder defaults on once a registry is attached
  EXPECT_EQ(rec, &reg.recorder());
  reg.recorder().set_enabled(false);
  EXPECT_EQ(flight(&reg), nullptr);
}

}  // namespace
}  // namespace graphene::obs
