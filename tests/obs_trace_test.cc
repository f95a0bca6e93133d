// Tests for the structured tracer: ring-buffer eviction accounting, name
// interning, runtime/compile-time gating, and a golden-file check of the
// Chrome trace_event JSON export (tests/golden/chrome_trace_golden.json —
// regenerate by running the GoldenFile test with IMRM_REGEN_GOLDEN=1 in the
// environment).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/ring_buffer.h"
#include "obs/tracer.h"
#include "sim/time.h"

using namespace imrm;
using obs::Tracer;
using sim::SimTime;

TEST(RingBuffer, UnboundedAppends) {
  obs::RingBuffer<int> ring;
  for (int i = 0; i < 100; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 100u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring[0], 0);
  EXPECT_EQ(ring[99], 99);
}

TEST(RingBuffer, BoundedEvictsOldest) {
  obs::RingBuffer<int> ring(4);
  for (int i = 0; i < 7; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);
  // Chronological order, oldest retained first.
  EXPECT_EQ(ring[0], 3);
  EXPECT_EQ(ring[3], 6);
  const auto v = ring.to_vector();
  EXPECT_EQ(v, (std::vector<int>{3, 4, 5, 6}));
}

TEST(Tracer, InternIsIdempotent) {
  Tracer tracer;
  const obs::NameId a = tracer.intern("handoff", "mobility");
  const obs::NameId b = tracer.intern("handoff", "mobility");
  const obs::NameId c = tracer.intern("handoff", "maxmin");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(tracer.name_of(a), "handoff");
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  const obs::NameId name = tracer.intern("x");
  ASSERT_FALSE(tracer.enabled());  // tracers start disabled
  tracer.instant(SimTime::seconds(1), name);
  tracer.counter(SimTime::seconds(2), name, 5.0);
  EXPECT_EQ(tracer.records().size(), 0u);
}

#if IMRM_TRACING

TEST(Tracer, BoundedCapacityCountsDrops) {
  Tracer tracer(3);
  tracer.set_enabled(true);
  const obs::NameId name = tracer.intern("e");
  for (int i = 0; i < 5; ++i) {
    tracer.instant(SimTime::seconds(double(i)), name, 0, double(i));
  }
  EXPECT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_DOUBLE_EQ(tracer.records()[0].value, 2.0);  // oldest retained

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"dropped_records\":2"), std::string::npos);
}

TEST(Trace, RecordsAndCounts) {
  Tracer tracer;
  tracer.set_enabled(true);
  const obs::NameId name = tracer.intern("handoff", "mobility");
  tracer.instant(SimTime::seconds(1), name, 7, 16000.0);
  tracer.complete(SimTime::seconds(2), SimTime::seconds(3.5), name, 2);
  tracer.counter(SimTime::seconds(3), name, 12.0);
  std::string phases;
  tracer.records().for_each([&](const obs::TraceRecord& r) { phases += r.phase; });
  EXPECT_EQ(phases, "iXC");
  // Simulated seconds land as trace microseconds on pid 1.
  EXPECT_EQ(tracer.records()[0].ts_us, 1e6);
  EXPECT_EQ(tracer.records()[0].track, 7u);
  EXPECT_EQ(tracer.records()[0].value, 16000.0);
  EXPECT_EQ(tracer.records()[0].pid, 1u);
  EXPECT_EQ(tracer.records()[1].dur_us, 1.5e6);
}

TEST(Trace, ClearEmpties) {
  Tracer tracer(2);
  tracer.set_enabled(true);
  const obs::NameId name = tracer.intern("e");
  for (int i = 0; i < 3; ++i) tracer.instant(SimTime::seconds(i), name);
  ASSERT_EQ(tracer.dropped(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.records().size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.intern("e"), name);  // interned ids survive a clear
}

TEST(Trace, BoundedCapacityEvictsOldest) {
  Tracer tracer(3);
  tracer.set_enabled(true);
  const obs::NameId name = tracer.intern("e");
  tracer.instant(SimTime::seconds(0), name);
  tracer.complete(SimTime::seconds(1), SimTime::seconds(1.5), name);
  tracer.counter(SimTime::seconds(2), name, 2.0);
  tracer.instant(SimTime::seconds(3), name);
  tracer.complete(SimTime::seconds(4), SimTime::seconds(4.5), name);
  EXPECT_EQ(tracer.dropped(), 2u);
  // The export holds exactly the retained window (t = 2, 3, 4), in order.
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("\"ts\":0,"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":1e+06,"), std::string::npos);
  const auto t2 = json.find("\"ts\":2e+06,"), t4 = json.find("\"ts\":4e+06,");
  EXPECT_LT(t2, json.find("\"ts\":3e+06,"));
  EXPECT_LT(json.find("\"ts\":3e+06,"), t4);
  EXPECT_NE(t4, std::string::npos);
}

TEST(Tracer, ZeroCapacityIsUnbounded) {
  Tracer tracer(0);
  tracer.set_enabled(true);
  const obs::NameId name = tracer.intern("handoff");
  for (int s = 0; s < 1000; ++s) tracer.instant(SimTime::seconds(s), name);
  EXPECT_EQ(tracer.records().size(), 1000u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ExportEscapesNames) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant(SimTime::seconds(1.5), tracer.intern("note, with \"quote\"", "a\\b"));
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_NE(os.str().find(R"("name":"note, with \"quote\"","cat":"a\\b","ph":"i")"),
            std::string::npos)
      << os.str();
}

namespace {

/// The deterministic trace behind the golden file: one of each record kind.
void record_golden_trace(Tracer& tracer) {
  tracer.set_enabled(true);
  const obs::NameId round = tracer.intern("adaptation-round", "maxmin");
  const obs::NameId update = tracer.intern("update", "maxmin");
  const obs::NameId queue = tracer.intern("queue_depth", "sim");
  tracer.instant(SimTime::seconds(0.5), update, 3, 64000.0);
  tracer.complete(SimTime::seconds(1.0), SimTime::seconds(1.25), round, 2, 128000.0);
  tracer.counter(SimTime::seconds(2.0), queue, 17.0);
}

}  // namespace

TEST(Tracer, ChromeTraceMatchesGoldenFile) {
  Tracer tracer;
  record_golden_trace(tracer);
  std::ostringstream os;
  tracer.write_chrome_trace(os);

  const std::string path = std::string(IMRM_GOLDEN_DIR) + "/chrome_trace_golden.json";
  if (std::getenv("IMRM_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(path);
    ASSERT_TRUE(regen.is_open());
    regen << os.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(os.str(), expected.str());
}

TEST(Tracer, ChromeTraceIsWellFormedSkeleton) {
  Tracer tracer;
  record_golden_trace(tracer);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"maxmin\""), std::string::npos);
  // No eviction occurred, so no dropped-records metadata.
  EXPECT_EQ(json.find("dropped_records"), std::string::npos);
}

#else  // !IMRM_TRACING

TEST(Tracer, CompiledOutRecordsNothingEvenWhenEnabled) {
  Tracer tracer;
  tracer.set_enabled(true);
  EXPECT_FALSE(tracer.enabled());  // set_enabled is a no-op without support
  const obs::NameId name = tracer.intern("x");
  tracer.instant(SimTime::seconds(1), name);
  EXPECT_EQ(tracer.records().size(), 0u);
}

#endif  // IMRM_TRACING
