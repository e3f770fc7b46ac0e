// Per-operator query profiles: the EXPLAIN ANALYZE data model.
//
// Both engines fill the same tree shape (built from the vectorized plan
// by the exec layer), so per-operator row counts are directly comparable
// between the Volcano row engine and the morsel-driven vectorized engine.
//
// Time semantics differ by engine and are recorded honestly:
//   - row engine: inclusive wall seconds per operator (time spent inside
//     the operator and everything below it);
//   - vectorized engine: summed worker-busy seconds per operator,
//     accumulated per-morsel in worker-local slots and folded once at
//     pipeline finish (no locks or shared counters on the hot path).
// Rendering derives self time as max(0, seconds - sum(child seconds)).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace xdbft::obs {

struct OperatorProfile {
  std::string name;               // operator kind, e.g. "HashAggregate"
  uint64_t rows_out = 0;          // rows produced by this operator
  uint64_t batches = 0;           // batches (vectorized); 0 (row engine)
  double seconds = 0.0;           // see header comment for engine semantics
  uint64_t est_memory_bytes = 0;  // breaker / build-side footprint estimate
  int pipeline_id = -1;           // vectorized pipeline index; -1 elsewhere
  std::vector<OperatorProfile> children;

  // Rows consumed, derived from children (0 for leaves).
  uint64_t rows_in() const;
  // Sums counters of a shape-identical tree into this one (used to merge
  // per-partition profiles of the same stage). Shape mismatch is an error.
  Status MergeFrom(const OperatorProfile& other);
};

struct QueryProfile {
  std::string label;   // stage or query label, e.g. "Q1/PartialAgg(L)"
  std::string engine;  // "row" or "vectorized"
  double seconds = 0.0;
  OperatorProfile root;

  Status MergeFrom(const QueryProfile& other);
  // EXPLAIN ANALYZE-style indented text tree.
  std::string ToText() const;
  // Self-contained JSON object (label/engine/seconds/root tree).
  std::string ToJson() const;
};

}  // namespace xdbft::obs
