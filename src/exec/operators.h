// Pull-based (Volcano-style open/next/close) physical operators of the
// in-process execution engine: scan, filter, project, hash join, hash
// aggregate and sort (with optional top-k).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/agg.h"
#include "exec/expr.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace xdbft::exec {

/// \brief Base iterator. Usage: Open() once, Next() until it yields false,
/// Close(). Operators own their children. Re-Open without an intervening
/// Close must reset all state (recovery replays re-open operator trees).
/// Open validates the operator's arguments, including the expression type
/// check of exec/expr.h, and returns InvalidArgument on a bad plan.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// \brief Produce the next row into *out; yields false when exhausted.
  virtual Result<bool> Next(Row* out) = 0;
  virtual void Close() = 0;
  virtual const Schema& schema() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// \brief In-memory table: schema + rows (the storage substrate of the
/// engine; partitioned tables in engine/ hold one per partition).
struct Table {
  Schema schema;
  std::vector<Row> rows;

  size_t num_rows() const { return rows.size(); }
};

/// \brief Full scan over an in-memory table (not owned).
OperatorPtr MakeScan(const Table* table);

/// \brief Rows of `input` satisfying `predicate`.
OperatorPtr MakeFilter(OperatorPtr input, Expr::Ptr predicate);

/// \brief Computed columns. `names` labels the output schema; column types
/// are inferred from the expressions against the input schema
/// (InferExprType; kNull where the type is unknown).
OperatorPtr MakeProject(OperatorPtr input, std::vector<Expr::Ptr> exprs,
                        std::vector<std::string> names);

/// \brief Equi hash join: builds a hash table on `build` (left child) keyed
/// by build_keys, probes with `probe` rows keyed by probe_keys. Output
/// schema = probe schema ++ build schema (probe row first).
OperatorPtr MakeHashJoin(OperatorPtr build, OperatorPtr probe,
                         std::vector<int> build_keys,
                         std::vector<int> probe_keys);

// AggFunc/AggSpec live in exec/agg.h (shared with the vectorized engine).

/// \brief Group-by hash aggregation. Output schema: group columns followed
/// by one column per AggSpec. An empty `group_by` yields one global row.
/// Groups are emitted in first-occurrence order of their key in the input
/// (deterministic, engine-independent).
OperatorPtr MakeHashAggregate(OperatorPtr input, std::vector<int> group_by,
                              std::vector<AggSpec> aggs);

/// \brief Full sort by the given key columns (true = ascending); optional
/// limit after sorting (top-k).
OperatorPtr MakeSort(OperatorPtr input, std::vector<int> keys,
                     std::vector<bool> ascending,
                     int64_t limit = -1);

/// \brief The sort of MakeSort, shared with the vectorized sort sink so
/// both engines order rows (ties included) identically: stable sort by
/// `keys` (true = ascending), then keep the first `limit` rows (all when
/// negative).
void SortRows(std::vector<Row>* rows, const std::vector<int>& keys,
              const std::vector<bool>& ascending, int64_t limit);

/// \brief Drain an operator tree into a materialized table.
Result<Table> Drain(Operator* op);

}  // namespace xdbft::exec
