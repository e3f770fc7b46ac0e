#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace xdbft::obs {
namespace {

RunReport MakeReport() {
  MetricsRegistry registry;
  registry.GetCounter("enumerator.plans")->Add(5);
  registry.GetGauge("executor.last_run_seconds")->Set(0.25);

  RunReport report;
  report.tool = "xdbft_advisor";
  report.plan_name = "tpch-q5";
  report.config_summary = "mat={join1, agg}";
  report.params["nodes"] = "10";
  report.params["mtbf_seconds"] = "86400";
  report.metrics = registry.Snapshot();
  return report;
}

TEST(RunReportTest, ToJsonCarriesIdentityAndMetrics) {
  auto doc = ParseJson(MakeReport().ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("tool")->string_value, "xdbft_advisor");
  EXPECT_EQ(doc->Find("plan")->string_value, "tpch-q5");
  EXPECT_EQ(doc->Find("config")->string_value, "mat={join1, agg}");
  const JsonValue* nodes = doc->FindPath("params.nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->string_value, "10");
  // Metric names contain dots, so navigate to the counters object first.
  const JsonValue* counters = doc->FindPath("metrics.counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* enum_plans = counters->Find("enumerator.plans");
  ASSERT_NE(enum_plans, nullptr);
  EXPECT_DOUBLE_EQ(enum_plans->number_value, 5.0);
  const JsonValue* gauges = doc->FindPath("metrics.gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("executor.last_run_seconds")->number_value,
                   0.25);
}

TEST(RunReportTest, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/xdbft_report_test.json";
  ASSERT_TRUE(MakeReport().WriteFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = ParseJson(buf.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("tool")->string_value, "xdbft_advisor");
  std::remove(path.c_str());
}

TEST(RunReportTest, EmptyReportIsStillValidJson) {
  RunReport report;
  auto doc = ParseJson(report.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_TRUE(doc->Find("params")->object.empty());
  // No failure reason: the post-mortem keys are left out.
  EXPECT_EQ(doc->Find("reason"), nullptr);
  EXPECT_EQ(doc->Find("reproducer"), nullptr);
}

}  // namespace
}  // namespace xdbft::obs
