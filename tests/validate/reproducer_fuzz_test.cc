// Robustness fuzzing of the reproducer parser: random mutations of a valid
// reproducer must never crash ReproFromJson or its callers. Every accepted
// document must yield a case whose plan, config and cluster validate and
// on which RunCheck returns (pass, violation or error status alike).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "validate/crosscheck.h"
#include "validate/reproducer.h"

namespace xdbft::validate {
namespace {

// Cheap sim checks that run the simulator, the analytic model and the
// abort cap; the mutated document picks one by trial index.
const char* const kChecks[] = {"runtime_lower_bound", "runmany_differential",
                               "abort_cap", "analytic_bounds"};

std::string BaseText(const char* check) {
  ReproCase c = MakeSimCase(1, 4);
  c.check = check;
  return ReproToJson(c);
}

// Replace the first occurrence of `from` (which must exist) with `to`.
std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

void ExpectSafe(const std::string& text) {
  auto parsed = ReproFromJson(text);  // must not crash
  if (!parsed.ok()) return;
  EXPECT_TRUE(parsed->plan.Validate().ok());
  EXPECT_TRUE(parsed->config.Validate(parsed->plan).ok());
  EXPECT_TRUE(parsed->cluster.Validate().ok());
  (void)RunCheck(parsed->check, *parsed);  // must return
}

TEST(ReproducerFuzzTest, HostileFieldsAreRejected) {
  const std::string base = BaseText("runtime_lower_bound");
  ASSERT_TRUE(ReproFromJson(base).ok());
  const std::string count = "\"count\": 4";
  // 41e308 parses to +inf: once accepted and cast, it reached
  // vector::reserve and aborted with std::length_error.
  for (const char* bad : {"41e308", "-41e308", "-1", "0", "2.5", "1e9"}) {
    auto r = ReproFromJson(Replace(base, count, "\"count\": " +
                                                    std::string(bad)));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  const std::string nodes =
      "\"num_nodes\": " + std::to_string(MakeSimCase(1, 4).cluster.num_nodes);
  for (const char* bad : {"41e308", "0", "-3", "1.5", "4294967297"}) {
    auto r = ReproFromJson(Replace(base, nodes, "\"num_nodes\": " +
                                                    std::string(bad)));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  for (const char* bad : {"1e308", "-1", "0.5"}) {
    auto r = ReproFromJson(Replace(base, "\"max_restarts\": 100",
                                   "\"max_restarts\": " + std::string(bad)));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  for (const char* bad : {"1e308", "-1", "0.5", "99"}) {
    // The original ids move to an ignored key.
    auto r = ReproFromJson(Replace(base, "\"materialized\": [",
                                   "\"materialized\": [" + std::string(bad) +
                                       "], \"ignored\": ["));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  ReproCase c = MakeSimCase(1, 4);
  c.check = "runtime_lower_bound";
  // A seed must be the whole decimal it names: 2^64 + 1 once wrapped to 1
  // and "" read as 0, replaying a different trace set than the file names.
  ReproCase seeded = c;
  seeded.trace.base_seed = 7;
  const std::string seeded_text = ReproToJson(seeded);
  ASSERT_TRUE(ReproFromJson(seeded_text).ok());
  for (const char* bad : {"18446744073709551617", ""}) {
    auto r = ReproFromJson(Replace(seeded_text, "\"base_seed\": \"7\"",
                                   "\"base_seed\": \"" + std::string(bad) +
                                       "\""));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  // An MTBF far below the plan's time scale made the failure traces grow
  // without bound (std::bad_alloc).
  for (const double mtbf : {1e-300, 1e-9}) {
    ReproCase bad = c;
    bad.cluster.mtbf_seconds = mtbf;
    auto r = ReproFromJson(ReproToJson(bad));
    ASSERT_FALSE(r.ok()) << mtbf;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  // A file written while intra-operator checkpointing existed replays
  // only if its interval was 0: without segments a non-zero interval
  // would check a different case.
  const std::string sim = "\"monitoring_interval\": ";
  ASSERT_TRUE(ReproFromJson(Replace(base, sim,
                                    "\"checkpoint_interval\": 0, " + sim))
                  .ok());
  auto r = ReproFromJson(
      Replace(base, sim, "\"checkpoint_interval\": 100, " + sim));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  EXPECT_NE(r.status().message().find("sim.checkpoint_interval"),
            std::string::npos)
      << r.status();
}

// A reproducer file nested far past the JSON depth limit is an
// InvalidArgument, not a stack overflow.
TEST(ReproducerFuzzTest, DeeplyNestedDocumentIsRejected) {
  constexpr int kDeep = 1000000;
  const std::string text = std::string(kDeep, '[') + std::string(kDeep, ']');
  auto r = ReproFromJson(text);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

class ReproducerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReproducerFuzz, MutatedInputNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Values that break naive integer casts, validation and loop bounds.
  static const char* const kHostile[] = {
      "0",      "-1",         "1e308",      "41e308", "-41e308", "2.5",
      "1e-300", "4294967296", "2147483648", "1e9",    "7",       "100000"};
  for (int trial = 0; trial < 100; ++trial) {
    std::string text = BaseText(kChecks[trial % 4]);
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) {
      if (text.empty()) break;
      const size_t pos = rng.NextBounded(text.size());
      switch (rng.NextBounded(5)) {
        case 0:
        case 1: {
          // Replace a number of the fields after the plan text (ids,
          // cluster, sim, trace), where the integer casts live; mutations
          // of the plan text mostly exercise the plan parser, which
          // plan_text_fuzz_test covers.
          const size_t fields = text.find("\"materialized\"");
          if (fields == std::string::npos) break;
          const size_t start = text.find_first_of(
              "-0123456789",
              fields + rng.NextBounded(text.size() - fields));
          if (start == std::string::npos) break;
          const size_t end =
              text.find_first_not_of("-+.eE0123456789", start);
          text.replace(start, end - start,
                       kHostile[rng.NextBounded(std::size(kHostile))]);
          break;
        }
        case 2:  // flip a character
          text[pos] = static_cast<char>(32 + rng.NextBounded(95));
          break;
        case 3:  // delete a character
          text.erase(pos, 1);
          break;
        case 4:  // duplicate a chunk
          text.insert(pos, text.substr(pos, rng.NextBounded(10) + 1));
          break;
      }
    }
    ExpectSafe(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReproducerFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace xdbft::validate
