#include "exec/batch.h"

namespace xdbft::exec {

Batch Batch::Of(ChunkPtr c) {
  Batch b;
  b.columns.reserve(c->columns.size());
  for (const Vector& v : c->columns) b.columns.push_back(&v);
  b.chunk = std::move(c);
  return b;
}

Batch Batch::Owning(std::vector<std::unique_ptr<Vector>> vectors) {
  Batch b;
  b.columns.reserve(vectors.size());
  for (const auto& v : vectors) b.columns.push_back(v.get());
  b.owned = std::move(vectors);
  return b;
}

}  // namespace xdbft::exec
