// Telemetry subsystem: counter/gauge/histogram semantics, JSON round-trip,
// trace spans, and Registry thread-safety.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace graphene::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketIndexAndBounds) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), 64u);
  // Inclusive upper bounds: bucket i covers (upper(i-1), upper(i)].
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64), UINT64_MAX);
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 5ull, 1000ull, (1ull << 40)}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper(i)) << v;
    if (i > 0) EXPECT_GT(v, Histogram::bucket_upper(i - 1)) << v;
  }
}

TEST(Histogram, StatsTrackSamples) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (std::uint64_t v : {7ull, 3ull, 100ull, 0ull}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 27.5);
  EXPECT_EQ(h.bucket_count(0), 1u);  // the 0 sample
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(3)), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(7)), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(100)), 1u);
}

TEST(Histogram, QuantileApproximatesFromBuckets) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);
  // Quantiles are bucket upper bounds: correct order of magnitude, never
  // below the true value's bucket lower bound, capped at the observed max.
  EXPECT_LE(h.quantile(0.0), 1u);
  EXPECT_GE(h.quantile(0.5), 32u);
  EXPECT_LE(h.quantile(0.5), 63u);
  EXPECT_EQ(h.quantile(1.0), 100u);  // capped at max()
}

TEST(Registry, SameNameAndLabelsShareAMetric) {
  Registry reg;
  Counter& a = reg.counter("relay_total", {{"proto", "p1"}});
  Counter& b = reg.counter("relay_total", {{"proto", "p1"}});
  Counter& other = reg.counter("relay_total", {{"proto", "p2"}});
  a.inc();
  b.inc();
  other.inc();
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(other.value(), 1u);
}

TEST(Registry, LabelOrderIsCanonicalized) {
  Registry reg;
  Counter& a = reg.counter("m", {{"x", "1"}, {"y", "2"}});
  Counter& b = reg.counter("m", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, FindDoesNotCreate) {
  Registry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  reg.counter("yes").inc();
  ASSERT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.find_counter("yes")->value(), 1u);
  EXPECT_EQ(reg.find_histogram("yes"), nullptr);  // type-separated namespaces
}

TEST(Registry, JsonRoundTrip) {
  Registry reg;
  reg.counter("runs_total", {{"result", "ok"}}).inc(3);
  reg.gauge("fpr_observed").set(0.125);
  Histogram& h = reg.histogram("stage_ns", {{"stage", "p1_peel"}});
  h.observe(5);
  h.observe(900);

  const json::Value doc = json::parse(reg.to_json());
  ASSERT_TRUE(doc.is_object());

  const json::Value& counters = doc.at("counters");
  ASSERT_EQ(counters.array.size(), 1u);
  EXPECT_EQ(counters.array[0].at("name").string, "runs_total");
  EXPECT_EQ(counters.array[0].at("labels").at("result").string, "ok");
  EXPECT_DOUBLE_EQ(counters.array[0].at("value").number, 3.0);

  const json::Value& gauges = doc.at("gauges");
  ASSERT_EQ(gauges.array.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges.array[0].at("value").number, 0.125);

  const json::Value& hists = doc.at("histograms");
  ASSERT_EQ(hists.array.size(), 1u);
  const json::Value& hist = hists.array[0];
  EXPECT_EQ(hist.at("labels").at("stage").string, "p1_peel");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 905.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 5.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 900.0);
  ASSERT_EQ(hist.at("buckets").array.size(), 2u);  // zero buckets elided

  // The quantile summary block rides on every histogram entry and must agree
  // with the Histogram's own estimator.
  EXPECT_DOUBLE_EQ(hist.at("mean").number, h.mean());
  EXPECT_DOUBLE_EQ(hist.at("p50").number, static_cast<double>(h.quantile(0.50)));
  EXPECT_DOUBLE_EQ(hist.at("p95").number, static_cast<double>(h.quantile(0.95)));
  EXPECT_DOUBLE_EQ(hist.at("p99").number, static_cast<double>(h.quantile(0.99)));
  EXPECT_LE(hist.at("p50").number, hist.at("p99").number);
}

TEST(Registry, ThreadSafeConcurrentUpdates) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        // Lookup every iteration: exercises the interning mutex as well as
        // the lock-free update path.
        reg.counter("contended").inc();
        reg.histogram("contended_ns").observe(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("contended").value(), kThreads * kIters);
  EXPECT_EQ(reg.histogram("contended_ns").count(), kThreads * kIters);
}

TEST(Json, EscapedStringsRoundTrip) {
  const std::string ugly = "quote\" backslash\\ newline\n tab\t ctrl\x01 done";
  json::Writer w;
  w.begin_object();
  w.key("s");
  w.string(ugly);
  w.end_object();
  const json::Value doc = json::parse(w.take());
  EXPECT_EQ(doc.at("s").string, ugly);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)json::parse("{"), json::ParseError);
  EXPECT_THROW((void)json::parse("[1,]"), json::ParseError);
  EXPECT_THROW((void)json::parse("{} extra"), json::ParseError);
  EXPECT_THROW((void)json::parse("tru"), json::ParseError);
}

TEST(Json, NumbersAndNesting) {
  const json::Value doc = json::parse(R"({"a":[1,2.5,-3,true,null],"b":{"c":1e3}})");
  ASSERT_EQ(doc.at("a").array.size(), 5u);
  EXPECT_DOUBLE_EQ(doc.at("a").array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(doc.at("a").array[2].number, -3.0);
  EXPECT_TRUE(doc.at("a").array[3].boolean);
  EXPECT_TRUE(doc.at("a").array[4].is_null());
  EXPECT_DOUBLE_EQ(doc.at("b").at("c").number, 1000.0);
}

TEST(TraceSink, RecordsInOrderWithSequenceNumbers) {
  TraceSink sink;
  TraceSpan a;
  a.stage = "p1_optimize";
  TraceSpan b;
  b.stage = "p1_peel";
  b.attrs.emplace_back("peeled", 12.0);
  sink.record(a);
  sink.record(b);

  EXPECT_EQ(sink.size(), 2u);
  const std::vector<std::string> stages = sink.stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0], "p1_optimize");
  EXPECT_EQ(stages[1], "p1_peel");
  EXPECT_EQ(sink.spans()[0].seq, 0u);
  EXPECT_EQ(sink.spans()[1].seq, 1u);

  TraceSpan found;
  ASSERT_TRUE(sink.find("p1_peel", &found));
  EXPECT_DOUBLE_EQ(found.attr("peeled"), 12.0);
  EXPECT_DOUBLE_EQ(found.attr("absent", -1.0), -1.0);
  EXPECT_FALSE(sink.find("nope"));
}

TEST(ScopedSpan, RecordsSpanAndStageHistogram) {
  Registry reg;
  {
    ScopedSpan span(&reg, "unit_stage");
    span.attr("x", 7);
  }
  TraceSpan got;
  ASSERT_TRUE(reg.trace().find("unit_stage", &got));
  EXPECT_DOUBLE_EQ(got.attr("x"), 7.0);
  const Histogram* h = reg.find_histogram("graphene_stage_ns", {{"stage", "unit_stage"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
}

TEST(ScopedSpan, NullRegistryIsANoOp) {
  // Neither the attribute nor the destructor may touch the null registry.
  ScopedSpan span(nullptr, "ignored");
  span.attr("x", 1);
}

TEST(FakeClock, OverridesAndRestoresMonotonicNs) {
  const std::uint64_t real_before = monotonic_ns();
  {
    ScopedFakeClock clock(42);
    EXPECT_EQ(monotonic_ns(), 42u);
    clock.set(100);
    EXPECT_EQ(monotonic_ns(), 100u);
    clock.advance(11);
    EXPECT_EQ(monotonic_ns(), 111u);
    EXPECT_EQ(clock.now(), 111u);
  }
  // Destruction restores the real clock, which keeps moving forward.
  EXPECT_GE(monotonic_ns(), real_before);
}

}  // namespace
}  // namespace graphene::obs
