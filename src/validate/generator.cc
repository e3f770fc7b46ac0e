#include "validate/generator.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace xdbft::validate {

using plan::MatConstraint;
using plan::OpId;
using plan::OpType;

double LogUniform(Rng& rng, double lo, double hi) {
  return lo * std::exp(rng.NextDouble() * std::log(hi / lo));
}

plan::Plan RandomPlan(Rng& rng, const PlanGenOptions& opts) {
  const int n =
      opts.min_ops +
      static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(opts.max_ops - opts.min_ops) + 1));
  const int num_sources = n >= 4 && rng.NextDouble() < 0.5 ? 2 : 1;
  plan::PlanBuilder b("random");
  for (int i = 0; i < n; ++i) {
    const double tr = LogUniform(rng, opts.min_runtime, opts.max_runtime);
    const double tm = tr * (0.05 + rng.NextDouble() *
                                        (opts.max_mat_fraction - 0.05));
    const double rows = tr * 1000.0;
    if (i < num_sources) {
      b.Scan(StrFormat("t%d", i), rows, 8.0, tr);
      continue;
    }
    OpId id;
    if (i >= 2 && rng.NextDouble() < opts.p_binary) {
      OpId left = static_cast<OpId>(rng.NextBounded(
          static_cast<uint64_t>(i)));
      OpId right = static_cast<OpId>(rng.NextBounded(
          static_cast<uint64_t>(i)));
      if (left == right) right = (right + 1) % i;
      const OpType type =
          rng.NextDouble() < 0.7 ? OpType::kHashJoin : OpType::kUnion;
      id = b.Binary(type, StrFormat("op%d", i), std::min(left, right),
                    std::max(left, right), tr, tm, rows, 8.0);
    } else {
      static constexpr OpType kUnaryTypes[] = {
          OpType::kFilter, OpType::kProject, OpType::kHashAggregate,
          OpType::kSort, OpType::kMapUdf};
      const OpType type = kUnaryTypes[rng.NextBounded(5)];
      const OpId in = static_cast<OpId>(rng.NextBounded(
          static_cast<uint64_t>(i)));
      id = b.Unary(type, StrFormat("op%d", i), in, tr, tm, rows, 8.0);
    }
    if (rng.NextDouble() < opts.p_bound) {
      b.Constrain(id, rng.NextDouble() < 0.5
                          ? MatConstraint::kNeverMaterialize
                          : MatConstraint::kAlwaysMaterialize);
    }
  }
  return std::move(b).Build();
}

cost::ClusterStats RandomCluster(Rng& rng) {
  cost::ClusterStats stats;
  stats.num_nodes = 2 + static_cast<int>(rng.NextBounded(7));
  stats.mtbf_seconds = LogUniform(rng, 1200.0, 12.0 * 86400.0);
  stats.mttr_seconds = LogUniform(rng, 1.0, 60.0);
  return stats;
}

ft::MaterializationConfig RandomConfig(Rng& rng, const plan::Plan& plan) {
  return ft::MaterializationConfig::FromFreeMask(plan, rng.Next());
}

std::vector<cluster::ClusterTrace> TraceSpec::Materialize(
    const cost::ClusterStats& stats) const {
  if (kind == TraceKind::kBurst) {
    return cluster::GenerateBurstTraceSet(stats, burst, count, base_seed);
  }
  return cluster::GenerateTraceSet(stats, count, base_seed);
}

TraceSpec RandomTraceSpec(Rng& rng, int count) {
  TraceSpec spec;
  spec.count = count;
  spec.base_seed = rng.Next();
  if (rng.NextDouble() < 0.25) {
    spec.kind = TraceKind::kBurst;
    spec.burst.mean_interval = LogUniform(rng, 300.0, 30000.0);
    spec.burst.horizon = 1.0e6;
    spec.burst.width = LogUniform(rng, 0.5, 10.0);
    spec.burst.min_nodes = 2;
    spec.burst.max_nodes = 2 + static_cast<int>(rng.NextBounded(3));
    // Bursts ride on a thinned background process so the combined rate
    // stays in the regime the simulator handles in bounded time.
    spec.burst.background_mtbf = LogUniform(rng, 3600.0, 10.0 * 86400.0);
  }
  return spec;
}

namespace {

// Deterministic 64-bit mix used by the synthetic stage transforms; plain
// uint64 arithmetic (signed overflow would be UB).
uint64_t MixU64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(s);
}

exec::Schema SyntheticSchema() {
  return exec::Schema{{"k", exec::ValueType::kInt64},
                      {"v", exec::ValueType::kInt64}};
}

}  // namespace

engine::StagePlan RandomStagePlan(Rng& rng, const StageGenOptions& opts) {
  const int n =
      opts.min_stages +
      static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(opts.max_stages - opts.min_stages) + 1));
  const int num_sources = n >= 4 && rng.NextDouble() < 0.5 ? 2 : 1;
  engine::StagePlan plan("random_stages");
  std::vector<bool> is_global;
  for (int i = 0; i < n; ++i) {
    engine::Stage stage;
    stage.label = StrFormat("s%d", i);
    if (i < num_sources) {
      // Source: synthesize rows_per_partition deterministic rows. The
      // partition index keys the data so shuffles/broadcasts downstream
      // actually move distinguishable rows around.
      const int rows = opts.rows_per_partition;
      const int stage_idx = i;
      stage.type = plan::OpType::kTableScan;
      stage.run = [rows, stage_idx](
                      int partition, const std::vector<const exec::Table*>&,
                      obs::QueryProfile*) -> Result<exec::Table> {
        exec::TableBuilder out(SyntheticSchema());
        const int p = partition < 0 ? 0 : partition;
        for (int r = 0; r < rows; ++r) {
          const int64_t k = static_cast<int64_t>(p) * 1000 + r;
          const int64_t v = static_cast<int64_t>(
              MixU64(static_cast<uint64_t>(k) * 31 +
                     static_cast<uint64_t>(stage_idx)) >>
              1);
          out.column(0).AppendInt64(k);
          out.column(1).AppendInt64(v);
          out.EndRow();
        }
        return out.Finish();
      };
      plan.AddStage(std::move(stage));
      is_global.push_back(false);
      continue;
    }
    stage.global = rng.NextDouble() < opts.p_global;
    stage.type = stage.global ? plan::OpType::kReduceUdf
                              : plan::OpType::kMapUdf;
    const int num_inputs = i >= 2 && rng.NextDouble() < 0.4 ? 2 : 1;
    std::vector<int> producers;
    for (int e = 0; e < num_inputs; ++e) {
      int p = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i)));
      if (e == 1 && p == producers[0]) p = (p + 1) % i;
      producers.push_back(p);
    }
    std::sort(producers.begin(), producers.end());
    for (int p : producers) {
      engine::StageInput input(p);
      const double draw = rng.NextDouble();
      // Global producers only support same-partition consumption (their
      // single output is slot 0); keep the draw so the choice of the
      // *other* edges is unaffected by producer globality.
      if (!is_global[static_cast<size_t>(p)]) {
        if (!stage.global && draw < opts.p_shuffle) {
          input.mode = engine::EdgeMode::kShuffle;
          input.shuffle_key = 0;  // hash on the k column
        } else if (draw < opts.p_shuffle + opts.p_broadcast) {
          input.mode = engine::EdgeMode::kBroadcast;
        }
      }
      stage.inputs.push_back(input);
    }
    // Transform: gather every input row, remix v deterministically, and
    // keep roughly half the rows so broadcast fan-out cannot explode the
    // row count across stages.
    const int stage_idx = i;
    stage.run = [stage_idx](int partition,
                            const std::vector<const exec::Table*>& inputs,
                            obs::QueryProfile*) -> Result<exec::Table> {
      exec::TableBuilder out(SyntheticSchema());
      const uint64_t salt =
          static_cast<uint64_t>(stage_idx) * 0x9e3779b97f4a7c15ULL +
          static_cast<uint64_t>(partition + 1);
      for (const exec::Table* in : inputs) {
        for (const exec::ChunkPtr& chunk : in->chunks()) {
          const std::vector<int64_t>& ks = chunk->columns[0].i64;
          const std::vector<int64_t>& vs = chunk->columns[1].i64;
          for (size_t r = 0; r < chunk->num_rows; ++r) {
            const uint64_t k = static_cast<uint64_t>(ks[r]);
            const uint64_t v = static_cast<uint64_t>(vs[r]);
            const uint64_t mixed = MixU64(v ^ salt ^ (k * 131));
            if ((mixed & 1) != 0) continue;  // deterministic thinning
            out.column(0).AppendInt64(ks[r]);
            out.column(1).AppendInt64(static_cast<int64_t>(mixed >> 1));
            out.EndRow();
          }
        }
      }
      return out.Finish();
    };
    const bool global = stage.global;
    plan.AddStage(std::move(stage));
    is_global.push_back(global);
  }
  return plan;
}

engine::PartitionedDatabase MakeDummyDatabase(int num_nodes) {
  engine::PartitionedDatabase db;
  db.num_nodes = num_nodes;
  return db;
}

}  // namespace xdbft::validate
