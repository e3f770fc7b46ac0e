#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace xdbft::obs {
namespace {

RunReport MakeReport() {
  RunReport report;
  report.tool = "xdbft_advisor";
  report.plan_name = "tpch-q5";
  report.config_summary = "mat={join1, agg}";
  report.params["nodes"] = "10";
  report.params["mtbf_seconds"] = "86400";
  report.metrics["enumerator.plans"] = 5;
  report.metrics["executor.wall_seconds"] = 0.1 + 0.2;  // not a short decimal
  return report;
}

TEST(RunReportTest, ToJsonCarriesIdentityAndMetrics) {
  const RunReport report = MakeReport();
  auto doc = ParseJson(report.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("tool")->string_value, "xdbft_advisor");
  EXPECT_EQ(doc->Find("plan")->string_value, "tpch-q5");
  EXPECT_EQ(doc->Find("config")->string_value, "mat={join1, agg}");
  const JsonValue* nodes = doc->FindPath("params.nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->string_value, "10");
  // The metrics round-trip as one flat object. The names contain dots,
  // so each is looked up with Find on that object (FindPath splits them).
  const JsonValue* metrics = doc->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  EXPECT_EQ(metrics->object.size(), report.metrics.size());
  for (const auto& [name, value] : report.metrics) {
    const JsonValue* parsed = metrics->Find(name);
    ASSERT_NE(parsed, nullptr) << name;
    EXPECT_EQ(parsed->number_value, value) << name;
  }
  EXPECT_EQ(doc->FindPath("metrics.enumerator.plans"), nullptr);
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
