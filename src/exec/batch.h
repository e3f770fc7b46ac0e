// Batch: the unit the vectorized engine's streaming steps exchange. A
// batch is a set of aligned column vectors — views of a table chunk's
// columns (the scan copies nothing) or vectors an upstream step computed —
// read through a selection vector of live positions (pipeline.h's Morsel).
// Operators process ~1024 positions at a time, so per-row dispatch and
// expression-tree recursion are amortized over a whole morsel and the
// typed kernels of expr.h run over flat int64/double arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/table.h"

namespace xdbft::exec {

/// \brief Target rows per morsel (DuckDB-style vector size).
inline constexpr size_t kDefaultBatchRows = 1024;

/// \brief Aligned column vectors of one morsel. `columns[c]` points either
/// into a table chunk (kept alive by `chunk`) or into `owned`. Batches do
/// not carry a schema — producers and consumers agree on column order the
/// same way row operators agree on Row layout.
struct Batch {
  std::vector<const Vector*> columns;
  ChunkPtr chunk;
  std::vector<std::unique_ptr<Vector>> owned;

  size_t num_columns() const { return columns.size(); }

  /// \brief View every column of `c` (shared, not copied).
  static Batch Of(ChunkPtr c);
  /// \brief Take ownership of computed vectors, in column order.
  static Batch Owning(std::vector<std::unique_ptr<Vector>> vectors);
};

}  // namespace xdbft::exec
