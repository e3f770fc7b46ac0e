#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace xdbft::obs {
namespace {

// The emitted document must be loadable by chrome://tracing: an object
// with a "traceEvents" array whose entries carry name/cat/ph/ts/pid/tid.
TEST(TraceRecorderTest, EmitsChromeTraceFormat) {
  TraceRecorder rec;
  rec.SetProcessName(0, "proc");
  rec.SetThreadName(0, 1, "worker");
  rec.AddComplete("span", "cat", 100.0, 50.0, 0, 1,
                  {IntArg("stage", 3), StrArg("label", "scan")});
  rec.AddInstant("marker", "failure", 125.0, 0, 1);
  EXPECT_EQ(rec.num_events(), 4u);

  auto doc = ParseJson(rec.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 4u);

  int complete = 0, instant = 0, metadata = 0;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.Find("name"), nullptr);
    ASSERT_NE(e.Find("ph"), nullptr);
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    const std::string ph = e.Find("ph")->string_value;
    if (ph == "X") {
      ++complete;
      ASSERT_NE(e.Find("dur"), nullptr);
      EXPECT_DOUBLE_EQ(e.Find("ts")->number_value, 100.0);
      EXPECT_DOUBLE_EQ(e.Find("dur")->number_value, 50.0);
      const JsonValue* stage = e.FindPath("args.stage");
      ASSERT_NE(stage, nullptr);
      EXPECT_DOUBLE_EQ(stage->number_value, 3.0);
    } else if (ph == "i") {
      ++instant;
      // Thread-scoped instant, per the trace-event format spec.
      ASSERT_NE(e.Find("s"), nullptr);
      EXPECT_EQ(e.Find("s")->string_value, "t");
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 1);
  EXPECT_EQ(instant, 1);
  EXPECT_EQ(metadata, 2);
}

TEST(TraceRecorderTest, ConcurrentAddsAreSafe) {
  TraceRecorder rec;
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kEvents; ++i) {
        rec.AddComplete("e", "cat", i, 1.0, 0, t);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.num_events(), static_cast<size_t>(kThreads) * kEvents);
  auto doc = ParseJson(rec.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("traceEvents")->array.size(),
            static_cast<size_t>(kThreads) * kEvents);
}

TEST(TraceRecorderTest, EscapesEventNames) {
  TraceRecorder rec;
  rec.AddComplete("weird \"name\"\n", "c\\at", 0.0, 1.0, 0, 0);
  auto doc = ParseJson(rec.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("traceEvents")->array[0].Find("name")->string_value,
            "weird \"name\"\n");
}

TEST(TraceRecorderTest, WriteFileRoundTrips) {
  TraceRecorder rec;
  rec.AddComplete("span", "cat", 0.0, 1.0, 0, 0);
  const std::string path = ::testing::TempDir() + "/xdbft_trace_test.json";
  ASSERT_TRUE(rec.WriteFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = ParseJson(buf.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("traceEvents")->array.size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, ClearEmptiesTheBuffer) {
  TraceRecorder rec;
  rec.AddInstant("i", "c", 0.0, 0, 0);
  rec.Clear();
  EXPECT_EQ(rec.num_events(), 0u);
  auto doc = ParseJson(rec.ToJson());
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Find("traceEvents")->array.empty());
}

}  // namespace
}  // namespace xdbft::obs
