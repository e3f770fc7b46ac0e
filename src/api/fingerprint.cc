#include "api/fingerprint.h"

#include <bit>

#include "common/rng.h"
#include "common/string_util.h"

namespace xdbft::api {

namespace {

/// Fold one word into a running 64-bit state with the splitmix64
/// finalizer — every input bit diffuses into the state before the next
/// word lands, so transposed or truncated streams hash differently.
uint64_t Mix(uint64_t state, uint64_t word) {
  uint64_t s = state ^ word;
  return SplitMix64(s);
}

uint64_t DoubleWord(double v) {
  // +0.0 and -0.0 compare equal but differ in bits; canonicalize so two
  // requests that the cost model cannot tell apart share a fingerprint.
  if (v == 0.0) v = 0.0;
  return std::bit_cast<uint64_t>(v);
}

class WordStream {
 public:
  explicit WordStream(std::vector<uint64_t>* out) : out_(out) {}

  void Add(uint64_t w) { out_->push_back(w); }
  void Add(double v) { Add(DoubleWord(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(bool v) { Add(static_cast<uint64_t>(v ? 1 : 0)); }

 private:
  std::vector<uint64_t>* out_;
};

}  // namespace

std::string RequestFingerprint::Hex() const {
  return StrFormat("%016llx%016llx", static_cast<unsigned long long>(hi),
                   static_cast<unsigned long long>(lo));
}

RequestFingerprint FingerprintRequest(
    const std::vector<plan::Plan>& candidates,
    const ft::FtCostContext& context,
    const ft::EnumerationOptions& options) {
  RequestFingerprint fp;
  WordStream w(&fp.words);

  // Format version: bump when the encoding changes so persisted keys (if
  // any ever exist) cannot alias across releases.
  w.Add(uint64_t{0x7864626674763034ULL});  // "xdbftv04"

  // Cluster statistics, including the correlated-failure dimensions (two
  // requests differing only in burst rate enumerate different plans).
  w.Add(context.cluster.num_nodes);
  w.Add(context.cluster.mtbf_seconds);
  w.Add(context.cluster.mttr_seconds);
  w.Add(context.cluster.burst_mtbf_seconds);
  w.Add(context.cluster.burst_fanout);

  // Cost-model constants.
  w.Add(context.model.pipe_constant);
  w.Add(context.model.cost_constant);
  w.Add(context.model.success_target);
  w.Add(context.model.exact_wasted_time);
  w.Add(context.model.scale_success_target_with_cluster);
  // Write-ahead lineage knobs (v03): toggling WAL or retuning the log
  // write / replay costs changes the chosen plan, so it must change the
  // cache key too.
  w.Add(context.model.wal_enabled);
  w.Add(context.model.wal_write_cost);
  w.Add(context.model.wal_replay_factor);

  // Enumeration knobs that shape the search space. num_threads and trace
  // are excluded: the chosen plan is identical at any value.
  w.Add(options.pruning.rule1);
  w.Add(options.pruning.rule2);
  w.Add(options.pruning.rule3);
  w.Add(options.pruning.memoize_dominant_paths);
  w.Add(options.max_free_operators);

  // Candidate plans, in order (the (cost, plan index, mask) tie-break
  // makes the order part of the request's identity).
  w.Add(static_cast<uint64_t>(candidates.size()));
  for (const plan::Plan& plan : candidates) {
    w.Add(static_cast<uint64_t>(plan.num_nodes()));
    for (const plan::PlanNode& node : plan.nodes()) {
      // Node ids are dense and topological by construction, so encoding
      // nodes in id order with their input id lists is canonical for the
      // DAG shape; labels and the plan name are display-only and skipped.
      w.Add(static_cast<uint64_t>(node.inputs.size()));
      for (plan::OpId input : node.inputs) {
        w.Add(static_cast<uint64_t>(static_cast<int64_t>(input)));
      }
      w.Add(static_cast<int>(node.type));
      w.Add(static_cast<int>(node.constraint));
      w.Add(node.runtime_cost);
      w.Add(node.materialize_cost);
      w.Add(node.output_rows);
      w.Add(node.row_width_bytes);
    }
  }

  // Two independently seeded lanes give a 128-bit hash; both also fold in
  // the stream length to separate prefixes.
  uint64_t hi = 0x9d3f5c44a1b20e77ULL;
  uint64_t lo = 0x2cab64f19be0d583ULL;
  for (uint64_t word : fp.words) {
    hi = Mix(hi, word);
    lo = Mix(lo, ~word);
  }
  fp.hi = Mix(hi, static_cast<uint64_t>(fp.words.size()));
  fp.lo = Mix(lo, static_cast<uint64_t>(fp.words.size()));
  return fp;
}

}  // namespace xdbft::api
