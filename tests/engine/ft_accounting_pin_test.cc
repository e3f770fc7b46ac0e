// Pins the FaultTolerantExecutor's byte and row accounting on the five paper
// queries: per-stage output rows, the per-stage row width the calibrator
// reads, bytes materialized (all-mat) and bytes logged (no-mat + write-ahead
// lineage), and the tm(o) that BuildCalibratedPlan derives from them. The
// literals were recorded on the row-per-Value table layout; a storage layout
// change must leave every one of them unchanged, on both engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/cost_calibrator.h"
#include "engine/ft_executor.h"
#include "engine/stage_plan.h"
#include "ft/mat_config.h"

namespace xdbft::engine {
namespace {

constexpr int kNodes = 4;

struct Fixture {
  datagen::TpchDatabase db;
  PartitionedDatabase pd;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    datagen::TpchGenOptions opts;
    opts.scale_factor = 0.01;
    opts.seed = 7;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, kNodes);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

struct Pinned {
  std::vector<size_t> stage_output_rows;
  std::vector<double> stage_row_width_bytes;
  uint64_t bytes_materialized;
  uint64_t bytes_logged;
  std::vector<double> tm;
};

using Builder = StagePlan (*)(const PartitionedDatabase&, ExecOptions);

void CheckQuery(Builder build, const Pinned& want) {
  const Fixture& f = GetFixture();
  for (const ExecMode mode : {ExecMode::kRow, ExecMode::kVectorized}) {
    SCOPED_TRACE(mode == ExecMode::kRow ? "row" : "vectorized");
    ExecOptions opts;
    opts.mode = mode;
    const StagePlan plan = build(f.pd, opts);
    const plan::Plan skeleton = plan.ToPlanSkeleton();
    FaultTolerantExecutor executor(&plan, &f.pd);
    executor.set_num_threads(2);
    auto all_mat =
        executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
    ASSERT_TRUE(all_mat.ok()) << all_mat.status();
    executor.set_wal(true);
    auto wal = executor.Execute(ft::MaterializationConfig::NoMat(skeleton));
    ASSERT_TRUE(wal.ok()) << wal.status();
    auto calibrated = BuildCalibratedPlan(
        plan, *all_mat, cost::ExternalIscsiStorage(), "pinned");
    ASSERT_TRUE(calibrated.ok()) << calibrated.status();

    EXPECT_EQ(all_mat->stage_output_rows, want.stage_output_rows);
    EXPECT_EQ(all_mat->stage_row_width_bytes, want.stage_row_width_bytes);
    EXPECT_EQ(all_mat->bytes_materialized, want.bytes_materialized);
    EXPECT_EQ(all_mat->bytes_logged, 0u);
    EXPECT_EQ(wal->bytes_logged, want.bytes_logged);
    ASSERT_EQ(calibrated->nodes().size(), want.tm.size());
    for (size_t i = 0; i < want.tm.size(); ++i) {
      EXPECT_EQ(calibrated->node(static_cast<plan::OpId>(i)).materialize_cost,
                want.tm[i])
          << "stage " << i;
    }
  }
}

TEST(FtAccountingPinTest, Q1) {
  CheckQuery(&MakeQ1StagePlan,
             {{24, 6}, {58, 58}, 6000, 4800,
              {0.050012068314985801, 0.050003017078746451}});
}

TEST(FtAccountingPinTest, Q3) {
  CheckQuery(&MakeQ3StagePlan,
             {{1468, 269, 98, 10},
              {16, 24, 24, 24},
              162680,
              161480,
              {0.050203635475852278, 0.050055972012606538,
               0.050020391290838073, 0.050002080743963069}});
}

TEST(FtAccountingPinTest, Q5) {
  CheckQuery(&MakeQ5StagePlan,
             {{5, 284, 284, 379, 1519, 64, 5},
              {33, 41, 41, 41, 49, 33, 33},
              362600,
              327720,
              {0.050001430511474612, 0.050100950761274861,
               0.050100950761274861, 0.050134719501842152,
               0.050645299391313035, 0.050018310546875,
               0.050001430511474612}});
}

TEST(FtAccountingPinTest, Q1C) {
  CheckQuery(&MakeQ1CStagePlan,
             {{24, 6, 27510, 6},
              {50, 42, 34, 42},
              2206080,
              2204640,
              {0.050010403719815341, 0.050002184781161224,
               0.058109179410067477, 0.050002184781161224}});
}

TEST(FtAccountingPinTest, Q2C) {
  CheckQuery(&MakeQ2CStagePlan,
             {{355, 184, 100, 171, 100, 200},
              {16, 24, 24, 24, 24, 24},
              119000,
              71000,
              {0.050049244273792613, 0.050038285688920457,
               0.050020807439630686, 0.050035580721768468,
               0.050020807439630686, 0.050041614879261363}});
}

}  // namespace
}  // namespace xdbft::engine
