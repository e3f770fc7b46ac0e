// EXPLAIN ANALYZE engine crosscheck: every benchmark query, run as a stage
// plan by the FaultTolerantExecutor with profiling on, yields one profile
// tree per stage of the same shape on both engines, and per-operator output
// row counts must match exactly between the Volcano row engine and the
// morsel-driven vectorized engine (the operators are semantically
// identical; only timing may differ). Profiling changes no result bit:
// both profiled runs equal an unprofiled vectorized run.
#include <gtest/gtest.h>

#include "engine/ft_executor.h"

namespace xdbft::engine {
namespace {

struct Fixture {
  datagen::TpchDatabase db;
  PartitionedDatabase pd;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    datagen::TpchGenOptions opts;
    opts.scale_factor = 0.01;
    opts.seed = 4242;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 4);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

using MakePlanFn = StagePlan (*)(const PartitionedDatabase&, ExecOptions);

Result<FtExecutionResult> Run(MakePlanFn make, const PartitionedDatabase& pd,
                              ExecMode mode, int threads,
                              bool profile = true) {
  ExecOptions opts;
  opts.mode = mode;
  opts.profile = profile;
  const StagePlan plan = make(pd, opts);
  FaultTolerantExecutor executor(&plan, &pd);
  executor.set_num_threads(threads);
  return executor.Execute(
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton()));
}

void ExpectSameRows(const obs::OperatorProfile& row,
                    const obs::OperatorProfile& vec,
                    const std::string& where) {
  ASSERT_EQ(row.name, vec.name) << where;
  EXPECT_EQ(row.rows_out, vec.rows_out)
      << where << " -> " << row.name << ": row engine produced "
      << row.rows_out << " rows, vectorized " << vec.rows_out;
  ASSERT_EQ(row.children.size(), vec.children.size()) << where;
  for (size_t i = 0; i < row.children.size(); ++i) {
    ExpectSameRows(row.children[i], vec.children[i],
                   where + "/" + row.name);
  }
}

uint64_t TotalRows(const obs::OperatorProfile& p) {
  uint64_t total = p.rows_out;
  for (const auto& c : p.children) total += TotalRows(c);
  return total;
}

void CrosscheckQuery(MakePlanFn make, const char* name) {
  const Fixture& f = GetFixture();
  auto row = Run(make, f.pd, ExecMode::kRow, 1);
  ASSERT_TRUE(row.ok()) << name << ": " << row.status();
  auto vec = Run(make, f.pd, ExecMode::kVectorized, 4);
  ASSERT_TRUE(vec.ok()) << name << ": " << vec.status();
  auto plain = Run(make, f.pd, ExecMode::kVectorized, 4, /*profile=*/false);
  ASSERT_TRUE(plain.ok()) << name << ": " << plain.status();
  EXPECT_TRUE(exec::BitIdenticalTables(plain->result, vec->result)) << name;
  EXPECT_TRUE(exec::BitIdenticalTables(plain->result, row->result)) << name;

  ASSERT_EQ(row->stage_profiles.size(), vec->stage_profiles.size()) << name;
  ASSERT_FALSE(row->stage_profiles.empty()) << name;
  [[maybe_unused]] uint64_t total_rows = 0;
  for (size_t s = 0; s < row->stage_profiles.size(); ++s) {
    const obs::QueryProfile& rp = row->stage_profiles[s];
    const obs::QueryProfile& vp = vec->stage_profiles[s];
    EXPECT_EQ(rp.label, vp.label);
    EXPECT_EQ(rp.engine, "row");
    EXPECT_EQ(vp.engine, "vectorized");
    ExpectSameRows(rp.root, vp.root,
                   std::string(name) + "/" + rp.label);
    total_rows += TotalRows(rp.root);
  }
  // The profiles must actually be populated, not two all-zero skeletons.
  EXPECT_GT(total_rows, 0u) << name;
}

TEST(ProfileCrosscheckTest, Q1RowCountsMatchAcrossEngines) {
  CrosscheckQuery(&MakeQ1StagePlan, "Q1");
}

TEST(ProfileCrosscheckTest, Q3RowCountsMatchAcrossEngines) {
  CrosscheckQuery(&MakeQ3StagePlan, "Q3");
}

TEST(ProfileCrosscheckTest, Q5RowCountsMatchAcrossEngines) {
  CrosscheckQuery(&MakeQ5StagePlan, "Q5");
}

TEST(ProfileCrosscheckTest, Q1CRowCountsMatchAcrossEngines) {
  CrosscheckQuery(&MakeQ1CStagePlan, "Q1C");
}

TEST(ProfileCrosscheckTest, Q2CRowCountsMatchAcrossEngines) {
  CrosscheckQuery(&MakeQ2CStagePlan, "Q2C");
}

TEST(ProfileCrosscheckTest, ProfilingOffLeavesProfilesEmpty) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1StagePlan(f.pd);  // profile defaults to false
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto r = executor.Execute(
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton()));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->stage_profiles.empty());
}

}  // namespace
}  // namespace xdbft::engine
