// obs::AddToTrace draws an AttemptTimeline as Chrome trace events: one
// span per record on its node's lane (node -1 on a final "coordinator"
// lane), a failure instant and a wait span per killed record, and the
// record's identity and row counts as args.
#include "obs/attempt_log.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/string_util.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace xdbft::obs {
namespace {

AttemptRecord Record(std::string label, int stage, int node, int attempt,
                     double dispatch, double finish, bool killed = false,
                     uint64_t rows_out = 0, uint64_t rows_lost = 0) {
  AttemptRecord r;
  r.label = std::move(label);
  r.stage = stage;
  r.node = node;
  r.attempt = attempt;
  r.dispatch_seconds = dispatch;
  r.finish_seconds = finish;
  r.killed = killed;
  r.rows_out = rows_out;
  r.rows_lost = rows_lost;
  return r;
}

// One line per event of `trace`, in emission order: phase, name,
// category, pid/tid, ts and dur (X only), then the args in key order.
std::vector<std::string> Describe(const TraceRecorder& trace) {
  std::vector<std::string> out;
  auto doc = ParseJson(trace.ToJson());
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return out;
  for (const JsonValue& e : doc->Find("traceEvents")->array) {
    const std::string ph = e.Find("ph")->string_value;
    std::string line = StrFormat(
        "%s %s/%s %g:%g", ph.c_str(), e.Find("name")->string_value.c_str(),
        e.Find("cat")->string_value.c_str(), e.Find("pid")->number_value,
        e.Find("tid")->number_value);
    if (ph != "M") line += StrFormat(" ts=%g", e.Find("ts")->number_value);
    if (ph == "X") line += StrFormat(" dur=%g", e.Find("dur")->number_value);
    if (const JsonValue* args = e.Find("args")) {
      for (const auto& [key, value] : args->object) {
        line += " " + key + "=" +
                (value.is_string() ? value.string_value
                                   : StrFormat("%g", value.number_value));
      }
    }
    out.push_back(line);
  }
  return out;
}

TEST(AttemptTraceTest, DrawsEveryRecordOnItsNodeLane) {
  AttemptTimeline timeline;
  // Node 0's first scan output is later lost and recomputed; node 1's
  // first scan attempt is killed and retried; a simulated collapsed op
  // runs on node 1 and a global stage on the coordinator.
  timeline.records = {
      Record("scan", 0, 0, 0, 0.0, 2.0, false, 10, 10),
      Record("scan", 0, 1, 0, 0.0, 1.0, /*killed=*/true),
      Record("scan", 0, 1, 1, 3.0, 5.0, false, 7),
      Record("c2:join", -1, 1, 0, 5.0, 6.0),
      Record("scan", 0, 0, 1, 6.0, 8.0, false, 10),
      Record("merge", 1, -1, 0, 8.0, 9.0, false, 3),
  };
  TraceRecorder trace;
  AddToTrace(timeline, &trace, /*pid=*/3, "proc", /*us_per_second=*/1000.0);

  const std::vector<std::string> want = {
      "M process_name/__metadata 3:0 name=proc",
      "M thread_name/__metadata 3:0 name=node 0",
      "M thread_name/__metadata 3:1 name=node 1",
      "M thread_name/__metadata 3:2 name=coordinator",
      "X scan/attempt 3:0 ts=0 dur=2000 attempt=0 node=0 rows_lost=10 "
      "rows_out=10 stage=0",
      "X scan/killed 3:1 ts=0 dur=1000 attempt=0 node=1 rows_lost=0 "
      "rows_out=0 stage=0",
      "i failure/failure 3:1 ts=1000 attempt=0 node=1 rows_lost=0 rows_out=0 "
      "stage=0",
      "X wait/wait 3:1 ts=1000 dur=2000",
      "X scan/recovery 3:1 ts=3000 dur=2000 attempt=1 node=1 rows_lost=0 "
      "rows_out=7 stage=0",
      "X c2:join/attempt 3:1 ts=5000 dur=1000 attempt=0 node=1 "
      "rows_lost=0 rows_out=0 stage=-1",
      "X scan/recovery 3:0 ts=6000 dur=2000 attempt=1 node=0 rows_lost=0 "
      "rows_out=10 stage=0",
      "X merge/attempt 3:2 ts=8000 dur=1000 attempt=0 node=-1 rows_lost=0 "
      "rows_out=3 stage=1",
  };
  EXPECT_EQ(Describe(trace), want);
}

TEST(AttemptTraceTest, WaitsOnlyForTheKilledAttemptsRetry) {
  AttemptTimeline timeline;
  // A whole-query unit killed for good (no retry), then a second run of
  // the same unit starting over at attempt 0: no wait joins the two.
  timeline.records = {
      Record("query", -1, -1, 0, 0.0, 4.0, /*killed=*/true),
      Record("query", -1, -1, 0, 0.0, 6.0),
  };
  TraceRecorder trace;
  AddToTrace(timeline, &trace, /*pid=*/1, "sim", /*us_per_second=*/1.0);

  const std::vector<std::string> want = {
      "M process_name/__metadata 1:0 name=sim",
      "M thread_name/__metadata 1:0 name=coordinator",
      "X query/killed 1:0 ts=0 dur=4 attempt=0 node=-1 rows_lost=0 "
      "rows_out=0 stage=-1",
      "i failure/failure 1:0 ts=4 attempt=0 node=-1 rows_lost=0 rows_out=0 "
      "stage=-1",
      "X query/attempt 1:0 ts=0 dur=6 attempt=0 node=-1 rows_lost=0 "
      "rows_out=0 stage=-1",
  };
  EXPECT_EQ(Describe(trace), want);
}

TEST(AttemptTraceTest, EmptyTimelineNamesOnlyTheProcess) {
  TraceRecorder trace;
  AddToTrace(AttemptTimeline{}, &trace, /*pid=*/0, "empty", 1e6);
  EXPECT_EQ(Describe(trace),
            std::vector<std::string>{"M process_name/__metadata 0:0 name=empty"});
}

}  // namespace
}  // namespace xdbft::obs
