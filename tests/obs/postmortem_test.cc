// Post-mortem bundle tests: the executor abort path and the crosscheck
// violation path both produce a JSON bundle that parses, carries the
// failed run's own metrics and attempt timeline / profile tree, and a seed
// that deterministically replays the case. Also checks the
// attempt-timeline accounting invariants on a recovering execution.
#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "engine/ft_executor.h"
#include "obs/json.h"
#include "validate/crosscheck.h"
#include "validate/reproducer.h"

namespace xdbft {
namespace {

struct Fixture {
  datagen::TpchDatabase db;
  engine::PartitionedDatabase pd;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    datagen::TpchGenOptions opts;
    opts.scale_factor = 0.005;
    opts.seed = 99;
    auto db = datagen::GenerateTpch(opts);
    auto pd = engine::DistributeTpch(*db, 3);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Extracts the bundle path the abort message carries.
std::string PostMortemPathFromMessage(const std::string& message) {
  const std::string marker = "(post-mortem: ";
  const size_t at = message.find(marker);
  if (at == std::string::npos) return "";
  const size_t start = at + marker.size();
  const size_t end = message.find(')', start);
  if (end == std::string::npos) return "";
  return message.substr(start, end - start);
}

TEST(PostMortemTest, ExecutorAbortWritesParsableBundle) {
  const Fixture& f = GetFixture();
  const engine::StagePlan plan = engine::MakeQ1StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  engine::FaultTolerantExecutor executor(&plan, &f.pd);
  // A clean run first: the abort bundle must not count its attempts.
  auto clean = executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_GT(clean->task_executions, 0);

  const std::string dir = ::testing::TempDir() + "xdbft_pm_exec";
  executor.set_postmortem_dir(dir);
  engine::ScriptedInjector injector({{0, 0}}, /*times=*/1000000);
  auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                            &injector, /*max_attempts=*/4);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted());
  const std::string message = r.status().ToString();
  const std::string path = PostMortemPathFromMessage(message);
  ASSERT_FALSE(path.empty()) << "no bundle path in: " << message;

  auto doc = obs::ParseJson(ReadFile(path));
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("tool")->string_value, "ft_executor");
  EXPECT_NE(doc->Find("reason")->string_value.find("exceeded"),
            std::string::npos);
  EXPECT_EQ(doc->Find("events"), nullptr);
  // Every dispatched attempt (including the 4 killed ones) is on the
  // timeline; the aborting task's records are flagged killed, one per
  // attempt it was allowed.
  const obs::JsonValue* timeline = doc->Find("timeline");
  ASSERT_NE(timeline, nullptr);
  ASSERT_TRUE(timeline->is_array());
  EXPECT_GE(timeline->array.size(), 4u);
  int killed = 0;
  for (const auto& rec : timeline->array) {
    if (!rec.Find("killed")->bool_value) continue;
    EXPECT_EQ(rec.Find("stage")->number_value, 0.0);
    EXPECT_EQ(rec.Find("node")->number_value, 0.0);
    EXPECT_EQ(rec.Find("attempt")->number_value, killed);
    ++killed;
  }
  EXPECT_EQ(killed, 4);
  // The metrics are the aborting run's own: one attempt per timeline
  // record, none of the clean run's.
  const obs::JsonValue* metrics = doc->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* attempts = metrics->Find("executor.task_attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(attempts->number_value,
            static_cast<double>(timeline->array.size()));
  const obs::JsonValue* failures =
      metrics->Find("executor.failures_injected");
  ASSERT_NE(failures, nullptr);
  EXPECT_EQ(failures->number_value, 4.0);
}

TEST(PostMortemTest, ExecutorTimelineAccountingInvariants) {
  const Fixture& f = GetFixture();
  const engine::StagePlan plan = engine::MakeQ5StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  engine::FaultTolerantExecutor executor(&plan, &f.pd);
  engine::ScriptedInjector injector({{5, 0}});
  auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                            &injector);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->failures_injected, 0);
  // One timeline record per dispatched attempt.
  EXPECT_EQ(r->timeline.records.size(),
            static_cast<size_t>(r->task_executions));
  int killed = 0;
  uint64_t rows_lost = 0;
  uint64_t rows_out = 0;
  for (const auto& rec : r->timeline.records) {
    if (rec.killed) {
      ++killed;
      EXPECT_EQ(rec.rows_out, 0u);
    }
    EXPECT_GE(rec.finish_seconds, rec.dispatch_seconds);
    rows_lost += rec.rows_lost;
    rows_out += rec.rows_out;
  }
  EXPECT_EQ(killed, r->failures_injected);
  // rows_lost backfill lands on the records whose output was destroyed.
  EXPECT_EQ(rows_lost, static_cast<uint64_t>(r->rows_lost));
  EXPECT_GT(r->rows_lost, 0u);
  EXPECT_GT(rows_out, 0u);
  // Renderings stay well-formed.
  EXPECT_NE(r->timeline.ToText().find("stage=5"), std::string::npos);
  auto doc = obs::ParseJson(r->timeline.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->array.size(), r->timeline.records.size());
}

TEST(PostMortemTest, CrosscheckStyleBundleEmbedsReplayableReproducer) {
  // Build the bundle exactly as the crosscheck violation path does: the
  // minimized case embedded verbatim, plus a real profile tree from a
  // profiled query run.
  const uint64_t seed = 5;
  validate::ReproCase c = validate::MakeSimCase(seed, /*traces=*/4);
  c.check = "synthetic";
  obs::RunReport pm;
  pm.tool = "crosscheck";
  pm.reason = "synthetic violation for bundle validation";
  pm.seed = seed;
  pm.replay = "xdbft_crosscheck --replay <reproducer>";
  pm.params["check"] = c.check;
  pm.reproducer_json = validate::ReproToJson(c);

  const Fixture& f = GetFixture();
  engine::ExecOptions eopts;
  eopts.profile = true;
  const engine::StagePlan q1 = engine::MakeQ1StagePlan(f.pd, eopts);
  engine::FaultTolerantExecutor executor(&q1, &f.pd);
  auto run = executor.Execute(
      ft::MaterializationConfig::AllMat(q1.ToPlanSkeleton()));
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_FALSE(run->stage_profiles.empty());
  pm.profiles = run->stage_profiles;

  const std::string dir = ::testing::TempDir() + "xdbft_pm_crosscheck";
  auto path = obs::WritePostMortem(dir, pm);
  ASSERT_TRUE(path.ok()) << path.status();

  auto doc = obs::ParseJson(ReadFile(*path));
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("tool")->string_value, "crosscheck");
  EXPECT_DOUBLE_EQ(doc->Find("seed")->number_value,
                   static_cast<double>(seed));
  // Profile tree present and intact.
  const obs::JsonValue* profiles = doc->Find("profiles");
  ASSERT_NE(profiles, nullptr);
  ASSERT_FALSE(profiles->array.empty());
  EXPECT_NE(profiles->array[0].FindPath("root.op"), nullptr);
  // The embedded reproducer is a full JSON object whose seed replays the
  // identical case: regenerating from the bundle's seed reproduces the
  // byte-identical reproducer document.
  const obs::JsonValue* repro = doc->Find("reproducer");
  ASSERT_NE(repro, nullptr);
  ASSERT_TRUE(repro->is_object());
  validate::ReproCase regenerated = validate::MakeSimCase(
      static_cast<uint64_t>(doc->Find("seed")->number_value), /*traces=*/4);
  regenerated.check = c.check;
  EXPECT_EQ(validate::ReproToJson(regenerated), pm.reproducer_json);
  // And the embedded document round-trips through the reproducer loader.
  auto loaded = validate::ReproFromJson(pm.reproducer_json);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->seed, seed);
}

TEST(PostMortemTest, EmptyBundleStillParses) {
  obs::RunReport pm;
  pm.tool = "unit test";
  pm.reason = "unit test";
  auto doc = obs::ParseJson(pm.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_TRUE(doc->Find("reproducer")->is_null());
  EXPECT_TRUE(doc->Find("timeline")->array.empty());
  EXPECT_TRUE(doc->Find("metrics")->object.empty());
}

}  // namespace
}  // namespace xdbft
