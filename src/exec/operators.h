// Pull-based (Volcano-style open/next/close) physical operators of the
// in-process execution engine: scan, filter, project, hash join, hash
// aggregate and sort (with optional top-k).
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/agg.h"
#include "exec/expr.h"
#include "exec/schema.h"
#include "exec/table.h"
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

/// \brief Full scan over an in-memory table (not owned): the row view,
/// one Row built per table row.
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

/// \brief The order of MakeSort, shared with the vectorized sort sink so
/// both engines order rows (ties included) identically: positions 0..n-1
/// stably sorted key by key, where `compare(k, a, b)` is Value::Compare of
/// sort key k's cells in rows a and b, reversed where !ascending[k]; then
/// cut to the first `limit` (all when negative).
template <typename KeyCompare>
std::vector<uint32_t> SortPermutation(size_t n,
                                      const std::vector<bool>& ascending,
                                      KeyCompare compare, int64_t limit) {
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < ascending.size(); ++k) {
      const int c = compare(k, a, b);
      if (c != 0) return ascending[k] ? c < 0 : c > 0;
    }
    return false;
  });
  if (limit >= 0 && perm.size() > static_cast<size_t>(limit)) {
    perm.resize(static_cast<size_t>(limit));
  }
  return perm;
}

/// \brief Drain an operator tree into a materialized table (rows are
/// appended through type-checked column builders).
Result<Table> Drain(Operator* op);

}  // namespace xdbft::exec
