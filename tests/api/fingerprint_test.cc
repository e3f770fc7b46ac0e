#include "api/fingerprint.h"

#include <gtest/gtest.h>

#include "cost/cost_params.h"
#include "ft/ft_cost.h"
#include "plan/plan.h"

namespace xdbft::api {
namespace {

plan::Plan MakePlan(const std::string& name, const std::string& prefix,
                    double scan_tr = 100.0, double join_tr = 80.0) {
  plan::PlanBuilder b(name);
  auto scan = b.Scan(prefix + "_scan", 1e8, 64, scan_tr);
  auto join =
      b.Unary(plan::OpType::kHashJoin, prefix + "_join", scan, join_tr, 30.0);
  b.Unary(plan::OpType::kHashAggregate, prefix + "_agg", join, 40.0, 1.0);
  return std::move(b).Build();
}

ft::FtCostContext MakeContext(double mtbf = 3600.0) {
  ft::FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(10, mtbf, 1.0);
  return ctx;
}

TEST(FingerprintTest, RenamingEveryNodeYieldsSameKey) {
  // Same shape, same statistics — only the plan name and node labels
  // differ. Labels cannot influence findBestFTPlan, so the keys match.
  const auto a = FingerprintRequest({MakePlan("q", "a")}, MakeContext(), {});
  const auto b =
      FingerprintRequest({MakePlan("renamed", "zz")}, MakeContext(), {});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hex(), b.Hex());
}

TEST(FingerprintTest, DifferentMtbfYieldsDifferentKey) {
  const auto a =
      FingerprintRequest({MakePlan("q", "a")}, MakeContext(3600.0), {});
  const auto b =
      FingerprintRequest({MakePlan("q", "a")}, MakeContext(3601.0), {});
  EXPECT_NE(a, b);
}

TEST(FingerprintTest, DifferentOperatorCostYieldsDifferentKey) {
  const auto a = FingerprintRequest(
      {MakePlan("q", "a", /*scan_tr=*/100.0)}, MakeContext(), {});
  const auto b = FingerprintRequest(
      {MakePlan("q", "a", /*scan_tr=*/101.0)}, MakeContext(), {});
  EXPECT_NE(a, b);
}

TEST(FingerprintTest, DifferentConstraintYieldsDifferentKey) {
  plan::PlanBuilder b1("q");
  auto s1 = b1.Scan("t", 1e8, 64, 100.0);
  b1.Unary(plan::OpType::kHashAggregate, "agg", s1, 40.0, 1.0);
  plan::PlanBuilder b2("q");
  auto s2 = b2.Scan("t", 1e8, 64, 100.0);
  b2.Constrain(s2, plan::MatConstraint::kNeverMaterialize);
  b2.Unary(plan::OpType::kHashAggregate, "agg", s2, 40.0, 1.0);
  const auto a =
      FingerprintRequest({std::move(b1).Build()}, MakeContext(), {});
  const auto b =
      FingerprintRequest({std::move(b2).Build()}, MakeContext(), {});
  EXPECT_NE(a, b);
}

TEST(FingerprintTest, PruningOptionsAreCovered) {
  ft::EnumerationOptions with, without;
  without.pruning.rule3 = false;
  const auto a = FingerprintRequest({MakePlan("q", "a")}, MakeContext(), with);
  const auto b =
      FingerprintRequest({MakePlan("q", "a")}, MakeContext(), without);
  EXPECT_NE(a, b);
}

TEST(FingerprintTest, ExecutionKnobsAreExcluded) {
  // num_threads cannot change the chosen plan, so it must not fragment
  // the cache key space.
  ft::EnumerationOptions seq, par;
  seq.num_threads = 1;
  par.num_threads = 8;
  const auto a = FingerprintRequest({MakePlan("q", "a")}, MakeContext(), seq);
  const auto b = FingerprintRequest({MakePlan("q", "a")}, MakeContext(), par);
  EXPECT_EQ(a, b);
}

TEST(FingerprintTest, CandidateOrderMatters) {
  // The enumerator breaks cost ties by candidate index, so a permuted
  // candidate list is a different request.
  const plan::Plan p1 = MakePlan("a", "a");
  const plan::Plan p2 = MakePlan("b", "b", 50.0, 20.0);
  const auto a = FingerprintRequest({p1, p2}, MakeContext(), {});
  const auto b = FingerprintRequest({p2, p1}, MakeContext(), {});
  EXPECT_NE(a, b);
}

TEST(FingerprintTest, BurstParametersAreCovered) {
  // A burst process changes what findBestFTPlan returns, so it must be
  // part of the cache key.
  ft::FtCostContext bursty = MakeContext();
  bursty.cluster.burst_mtbf_seconds = 600.0;
  const auto a = FingerprintRequest({MakePlan("q", "a")}, MakeContext(), {});
  const auto b = FingerprintRequest({MakePlan("q", "a")}, bursty, {});
  EXPECT_NE(a, b);
  ft::FtCostContext fanout = bursty;
  fanout.cluster.burst_fanout = 0.5;
  EXPECT_NE(FingerprintRequest({MakePlan("q", "a")}, bursty, {}),
            FingerprintRequest({MakePlan("q", "a")}, fanout, {}));
}

TEST(FingerprintTest, WalParametersAreCovered) {
  // Toggling write-ahead lineage (or retuning its log-write / replay
  // costs) changes what the enumerator returns, so each knob must be part
  // of the cache key.
  ft::FtCostContext wal = MakeContext();
  wal.model.wal_enabled = true;
  const auto a = FingerprintRequest({MakePlan("q", "a")}, MakeContext(), {});
  const auto b = FingerprintRequest({MakePlan("q", "a")}, wal, {});
  EXPECT_NE(a, b);
  ft::FtCostContext pricier = wal;
  pricier.model.wal_write_cost = wal.model.wal_write_cost + 0.1;
  EXPECT_NE(FingerprintRequest({MakePlan("q", "a")}, wal, {}),
            FingerprintRequest({MakePlan("q", "a")}, pricier, {}));
  ft::FtCostContext slower_replay = wal;
  slower_replay.model.wal_replay_factor = wal.model.wal_replay_factor + 0.25;
  EXPECT_NE(FingerprintRequest({MakePlan("q", "a")}, wal, {}),
            FingerprintRequest({MakePlan("q", "a")}, slower_replay, {}));
}

TEST(FingerprintTest, HexIs32Digits) {
  const auto fp = FingerprintRequest({MakePlan("q", "a")}, MakeContext(), {});
  EXPECT_EQ(fp.Hex().size(), 32u);
  EXPECT_FALSE(fp.words.empty());
}

}  // namespace
}  // namespace xdbft::api
