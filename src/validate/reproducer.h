// Reproducer files for crosscheck violations: a self-contained JSON
// artifact (plan text, materialization config, cluster statistics,
// simulator options, trace spec, generator seed) that `xdbft_crosscheck
// --replay <file>` re-executes deterministically. Written next to CI logs
// and uploaded as an artifact when the harness finds a violation.
#pragma once

#include <string>

#include "cluster/simulator.h"
#include "common/result.h"
#include "ft/mat_config.h"
#include "plan/plan.h"
#include "validate/generator.h"

namespace xdbft::validate {

/// \brief Most failure traces a reproducer may request; `xdbft_crosscheck
/// --traces` takes no more, so every reproducer it writes replays.
inline constexpr int kMaxTraces = 1024;

/// \brief Everything needed to re-run one crosscheck case.
struct ReproCase {
  /// Name of the violated check (a key of the crosscheck registry).
  std::string check;
  /// Human-readable violation description.
  std::string detail;
  /// Generator seed the case came from.
  uint64_t seed = 0;
  /// True once the greedy minimizer has shrunk the case.
  bool minimized = false;
  /// "sim" cases carry the full plan below; "executor" cases are
  /// regenerated from `seed` alone (stage plans embed lambdas and cannot
  /// be serialized).
  std::string kind = "sim";

  plan::Plan plan;
  ft::MaterializationConfig config;
  cost::ClusterStats cluster;
  /// Scalar knobs only; the trace-recorder pointer is never serialized.
  cluster::SimulationOptions sim;
  TraceSpec trace;
};

/// \brief Serialize to the reproducer JSON document.
std::string ReproToJson(const ReproCase& c);

/// \brief Parse a reproducer document (inverse of ReproToJson). Files are
/// untrusted input: integer fields must be finite, integral and in range,
/// the cluster, simulator options and trace spec must validate, and the
/// case may not request unbounded simulation (an MTBF far below the
/// plan's time scale) nor a non-zero `sim.checkpoint_interval` (the
/// removed intra-operator checkpointing); anything else is
/// InvalidArgument.
Result<ReproCase> ReproFromJson(const std::string& text);

/// \brief Write `c` into `dir` (created if missing) as
/// repro-<check>-<seed>.json; returns the file path.
Result<std::string> WriteReproducer(const std::string& dir,
                                    const ReproCase& c);

/// \brief Load a reproducer file from disk.
Result<ReproCase> LoadReproducer(const std::string& path);

}  // namespace xdbft::validate
