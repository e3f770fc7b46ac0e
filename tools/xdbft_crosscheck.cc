// xdbft_crosscheck — differential validation harness for the cost model,
// the cluster simulator, and the real fault-tolerant executor.
//
// For each seed the harness generates a random case (plan DAG, cluster
// statistics, materialization config, failure traces — independent
// Poisson or correlated bursts) and cross-checks the three layers against
// each other plus a set of metamorphic properties (see
// src/validate/crosscheck.h for the full check list). A violated check is
// shrunk by a greedy minimizer and written as a JSON reproducer.
//
// Usage:
//   xdbft_crosscheck [--seeds N] [--seed-base B] [--traces N] [--quick]
//                    [--out-dir DIR] [--no-repro] [--postmortem-dir DIR]
//                    [--list]
//   xdbft_crosscheck --replay FILE
//
// --seeds and --traces take a positive integer, --traces at most 1024 (the
// most a reproducer may hold, so every reproducer written replays);
// --seed-base takes an unsigned 64-bit integer.
//
// Exit codes: 0 all checks passed, 1 violations found (reproducers
// written to --out-dir), 2 usage or environmental error.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/string_util.h"
#include "parse_number.h"
#include "validate/crosscheck.h"

using namespace xdbft;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: xdbft_crosscheck [--seeds N] [--seed-base B] [--traces N]\n"
      "                        [--quick] [--out-dir DIR] [--no-repro]\n"
      "                        [--postmortem-dir DIR] [--list]\n"
      "                        [--replay FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  validate::CrosscheckOptions options;
  std::string replay_path;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto reject = [&](const char* value, const std::string& expected) {
      std::fprintf(stderr, "invalid value for %s: '%s' (expected %s)\n",
                   arg.c_str(), value, expected.c_str());
      std::exit(2);
    };
    auto next_int = [&](int* out, int hi) {
      const char* value = next();
      if (!tools::ParseInt(value, out, 1, hi)) {
        reject(value, "an integer in [1, " + std::to_string(hi) + "]");
      }
    };
    if (arg == "--seeds") {
      next_int(&options.seeds, INT_MAX);
    } else if (arg == "--seed-base") {
      const char* value = next();
      if (!ParseUint64(value, &options.seed_base)) {
        reject(value, "an unsigned 64-bit integer");
      }
    } else if (arg == "--traces") {
      // A reproducer of more traces would not replay (LoadReproducer).
      next_int(&options.traces, validate::kMaxTraces);
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--out-dir") {
      options.out_dir = next();
    } else if (arg == "--no-repro") {
      options.write_reproducers = false;
    } else if (arg == "--postmortem-dir") {
      options.postmortem_dir = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (list) {
    for (const std::string& name : validate::CheckNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  if (!replay_path.empty()) {
    auto reproduced = validate::ReplayReproducer(replay_path);
    if (!reproduced.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   reproduced.status().ToString().c_str());
      return 2;
    }
    if (*reproduced) {
      std::printf("violation still reproduces: %s\n", replay_path.c_str());
      return 1;
    }
    std::printf("violation no longer reproduces: %s\n", replay_path.c_str());
    return 0;
  }

  auto report = validate::RunCrosscheck(options);
  if (!report.ok()) {
    std::fprintf(stderr, "crosscheck failed to run: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::printf(
      "crosscheck: %d seeds, %lld checks, %lld abort-path executions, "
      "%d violation(s)\n",
      report->seeds_run, static_cast<long long>(report->checks_run),
      static_cast<long long>(report->aborts_observed), report->violations);
  for (const std::string& message : report->messages) {
    std::printf("VIOLATION %s\n", message.c_str());
  }
  for (const std::string& path : report->repro_paths) {
    std::printf("reproducer written: %s\n", path.c_str());
  }
  if (report->aborts_observed == 0) {
    // The abort-cap checks are vacuous if the abort path never fired; with
    // the harsh derived cases this indicates a generator regression.
    std::fprintf(stderr,
                 "warning: abort path never exercised across %d seeds\n",
                 report->seeds_run);
  }
  return report->violations == 0 ? 0 : 1;
}
