// Morsel-driven vectorized execution engine. A query is described as a
// VecNode plan tree built from six operators (scan, filter, project, hash
// join, hash aggregate, sort with optional top-k; the V* factories mirror
// the Make* operator factories one-to-one); the same plan runs on either
// engine:
//
//   - ToOperator(plan)  -> the row-at-a-time Volcano tree (the baseline),
//   - ExecuteVectorized(plan, opts) -> pipeline execution over Batches.
//
// ExecuteVectorized decomposes the plan at pipeline breakers (hash-build
// sides, aggregates, sorts). Each pipeline reads its source table in
// morsels of `morsel_rows` rows, pushes every morsel through the streaming
// steps (filter / project / hash-join probe), and feeds a serial sink.
// Morsels of one pipeline run concurrently on the work-stealing TaskPool,
// but the sink always consumes their outputs in morsel-index order, so
// results are bit-identical to the row engine at any thread count:
// floating-point accumulation (aggregate sums) happens in exactly the
// input-row order, never in a merge order that depends on scheduling.
// This is the determinism contract the FT executor and the crosscheck
// harness rely on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "obs/query_profile.h"

namespace xdbft::exec {

enum class VecOp : int {
  kScan,
  kFilter,
  kProject,
  kHashJoin,
  kHashAggregate,
  kSort,
};

/// \brief One node of an engine-independent plan tree. Build with the V*
/// factories below; the output schema is computed eagerly so parents can
/// resolve column names at plan-construction time (exactly like calling
/// schema() on a freshly built operator).
struct VecNode {
  VecOp op = VecOp::kScan;
  std::vector<std::shared_ptr<const VecNode>> children;
  Schema schema;

  const Table* table = nullptr;            // kScan
  Expr::Ptr predicate;                     // kFilter
  std::vector<Expr::Ptr> exprs;            // kProject
  std::vector<int> build_keys;             // kHashJoin
  std::vector<int> probe_keys;             // kHashJoin
  std::vector<int> group_by;               // kHashAggregate
  std::vector<AggSpec> aggs;               // kHashAggregate
  std::vector<int> sort_keys;              // kSort
  std::vector<bool> ascending;             // kSort
  int64_t limit = -1;                      // kSort (top-k)
};

using VecNodePtr = std::shared_ptr<const VecNode>;

// Plan factories, mirroring the Make* operator factories (same argument
// order, same output schemas). Invalid plans (bad keys, null predicate,
// mismatched sizes, string/numeric type mixes) are diagnosed at execution
// time with the same InvalidArgument errors the row operators produce at
// Open.
VecNodePtr VScan(const Table* table);
VecNodePtr VFilter(VecNodePtr input, Expr::Ptr predicate);
VecNodePtr VProject(VecNodePtr input, std::vector<Expr::Ptr> exprs,
                    std::vector<std::string> names);
VecNodePtr VHashJoin(VecNodePtr build, VecNodePtr probe,
                     std::vector<int> build_keys,
                     std::vector<int> probe_keys);
VecNodePtr VHashAggregate(VecNodePtr input, std::vector<int> group_by,
                          std::vector<AggSpec> aggs);
VecNodePtr VSort(VecNodePtr input, std::vector<int> keys,
                 std::vector<bool> ascending, int64_t limit = -1);

/// \brief Lower a plan to the row-engine operator tree (the Volcano
/// baseline). Returns nullptr for a null plan. With `profile` set, the
/// profile is rebuilt as the plan's EXPLAIN ANALYZE skeleton (the same
/// tree shape ExecuteVectorized fills, so per-operator row counts compare
/// directly) and every operator of the returned tree records rows and
/// inclusive wall seconds into its skeleton node; memory estimates are
/// filled at Close. `profile` must outlive the returned tree.
OperatorPtr ToOperator(const VecNodePtr& plan,
                       obs::OperatorProfile* profile = nullptr);

/// \brief Options of one vectorized execution.
struct VecExecOptions {
  /// Total worker threads per pipeline (1 = serial morsel loop; the
  /// calling thread always participates).
  int num_threads = 1;
  /// Rows per morsel/batch.
  size_t morsel_rows = kDefaultBatchRows;
  /// Pool to schedule morsels on. Null with num_threads > 1 makes
  /// ExecuteVectorized create a private pool for the call. Pass an
  /// existing pool to share workers across plans; never pass a pool from
  /// inside one of its own tasks (ParallelForEach is not reentrant) —
  /// leave num_threads at 1 there instead.
  TaskPool* pool = nullptr;
  /// When non-null, rebuilt as the plan's profile skeleton and filled with
  /// per-operator/per-pipeline statistics: rows and batches accumulated in
  /// worker-local slots per morsel task (no locks or shared counters on
  /// the hot path) and folded into the tree once at pipeline finish.
  /// Chain operators record summed worker-busy seconds; breaker nodes
  /// record the inclusive wall time of their pipeline.
  obs::OperatorProfile* profile = nullptr;
};

/// \brief Execute a plan on the vectorized engine. The result is
/// bit-identical to Drain(ToOperator(plan).get()) at any thread count.
Result<Table> ExecuteVectorized(const VecNodePtr& plan,
                                const VecExecOptions& opts = {});

}  // namespace xdbft::exec
