#include "api/advisor_service.h"

#include <gtest/gtest.h>

#include <bit>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "api/xdbft.h"  // umbrella header must compile standalone
#include "common/rng.h"
#include "ft/scheme.h"
#include "tpch/queries.h"

namespace xdbft::api {
namespace {

plan::Plan SmallPlan(const std::string& name, double scan_tr = 100.0) {
  plan::PlanBuilder b(name);
  auto scan = b.Scan("t", 1e8, 64, scan_tr);
  auto join = b.Unary(plan::OpType::kHashJoin, "join", scan, 80.0, 30.0);
  b.Unary(plan::OpType::kHashAggregate, "agg", join, 40.0, 1.0);
  return std::move(b).Build();
}

AdvisorRequest MakeRequest(plan::Plan plan, double mtbf = 3600.0) {
  AdvisorRequest r;
  r.candidates.push_back(std::move(plan));
  r.cluster = cost::MakeCluster(10, mtbf, 1.0);
  return r;
}

bool BitIdentical(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameScheme(const ft::SchemePlan& served,
                      const ft::SchemePlan& fresh) {
  EXPECT_EQ(served.plan_index, fresh.plan_index);
  EXPECT_EQ(served.recovery, fresh.recovery);
  EXPECT_TRUE(served.config == fresh.config);
  EXPECT_TRUE(BitIdentical(served.estimated_cost, fresh.estimated_cost))
      << served.estimated_cost << " vs " << fresh.estimated_cost;
  EXPECT_EQ(served.plan.name(), fresh.plan.name());
}

// The serving invariant on real plans: Q1/Q3/Q5 answers through the
// service — miss, then hit — are bit-identical to one-shot enumeration.
TEST(AdvisorServiceTest, CachedAnswerBitIdenticalToFreshOnTpch) {
  AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0));
  for (const tpch::TpchQuery q : {tpch::TpchQuery::kQ1, tpch::TpchQuery::kQ3,
                                  tpch::TpchQuery::kQ5}) {
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = 10.0;
    auto plan = tpch::BuildQuery(q, cfg);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const AdvisorRequest request = MakeRequest(*plan);
    ft::FtCostContext context;
    context.cluster = request.cluster;
    context.model = request.model;
    const auto fresh = ft::ApplyCostBasedScheme(
        request.candidates, context, service.options().enumeration);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    const auto first = service.Advise(request);
    ASSERT_TRUE(first.ok()) << first.status();
    const auto second = service.Advise(request);
    ASSERT_TRUE(second.ok()) << second.status();
    ExpectSameScheme(first.ValueOrDie(), fresh.ValueOrDie());
    ExpectSameScheme(second.ValueOrDie(), fresh.ValueOrDie());
  }
  const AdvisorServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(AdvisorServiceTest, MultiCandidateAnswerCarriesCallersPlan) {
  AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0));
  AdvisorRequest request;
  request.candidates.push_back(SmallPlan("expensive", 500.0));
  request.candidates.push_back(SmallPlan("cheap", 10.0));
  request.cluster = cost::MakeCluster(10, 3600.0, 1.0);
  for (int round = 0; round < 2; ++round) {  // miss, then hit
    const auto chosen = service.Advise(request);
    ASSERT_TRUE(chosen.ok()) << chosen.status();
    EXPECT_EQ(chosen.ValueOrDie().plan_index, 1u);
    EXPECT_EQ(chosen.ValueOrDie().plan.name(), "cheap");
  }
}

TEST(AdvisorServiceTest, LruEvictsLeastRecentlyUsed) {
  AdvisorServiceOptions options;
  options.num_shards = 1;
  options.cache_capacity = 2;
  AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0), {}, options);
  const AdvisorRequest a = MakeRequest(SmallPlan("a"), 1000.0);
  const AdvisorRequest b = MakeRequest(SmallPlan("b"), 2000.0);
  const AdvisorRequest c = MakeRequest(SmallPlan("c"), 3000.0);
  ASSERT_TRUE(service.Advise(a).ok());
  ASSERT_TRUE(service.Advise(b).ok());
  // Touch `a`: it becomes most-recently-used, so inserting `c` must evict
  // `b`, not `a`.
  ASSERT_TRUE(service.Advise(a).ok());
  ASSERT_TRUE(service.Advise(c).ok());
  AdvisorServiceStats stats = service.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  // `a` and `c` hit; `b` re-enumerates.
  ASSERT_TRUE(service.Advise(a).ok());
  ASSERT_TRUE(service.Advise(c).ok());
  ASSERT_TRUE(service.Advise(b).ok());
  stats = service.stats();
  EXPECT_EQ(stats.hits, 3u);    // a (touch), a, c
  EXPECT_EQ(stats.misses, 4u);  // a, b, c, b again
}

// 8 concurrent identical requests (run under TSan in CI). The starting
// gun makes all threads issue the request together; each is a hit or a
// miss that enumerates on its own, every answer equals the fresh one, and
// the key is cached once.
TEST(AdvisorServiceTest, ConcurrentIdenticalRequestsGetTheFreshAnswer) {
  AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0));
  const AdvisorRequest request = MakeRequest(SmallPlan("shared"));
  ft::FtCostContext context;
  context.cluster = request.cluster;
  context.model = request.model;
  const auto fresh = ft::ApplyCostBasedScheme(request.candidates, context,
                                              service.options().enumeration);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  constexpr int kThreads = 8;
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  std::vector<Result<ft::SchemePlan>> answers(
      kThreads, Status::Internal("not answered"));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++ready == kThreads) cv.notify_all();
        cv.wait(lock, [&] { return go; });
      }
      answers[static_cast<size_t>(t)] = service.Advise(request);
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready == kThreads; });
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  for (const auto& answer : answers) {
    ASSERT_TRUE(answer.ok()) << answer.status();
    ExpectSameScheme(answer.ValueOrDie(), fresh.ValueOrDie());
  }
  AdvisorServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.entries, 1u);
  const uint64_t hits_before = stats.hits;
  const auto ninth = service.Advise(request);
  ASSERT_TRUE(ninth.ok());
  ExpectSameScheme(ninth.ValueOrDie(), fresh.ValueOrDie());
  stats = service.stats();
  EXPECT_EQ(stats.hits, hits_before + 1);
  EXPECT_EQ(stats.entries, 1u);
}

// Serving load: 4 client threads send a hot/cold mix (80 % of requests on
// 4 hot keys) over 48 keys — Q1/Q3/Q5 shapes, one MTBF per key — to a
// 16-entry cache, so entries are evicted and re-enumerated while other
// clients hit. Every answer, with the cache on and off, equals the key's
// one-shot ApplyCostBasedScheme (run under TSan in CI).
TEST(AdvisorServiceTest, ConcurrentHotColdMixWithEvictionsMatchesFresh) {
  constexpr size_t kKeys = 48;
  constexpr size_t kHotKeys = 4;
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 100;
  std::vector<plan::Plan> shapes;
  for (const tpch::TpchQuery q : {tpch::TpchQuery::kQ1, tpch::TpchQuery::kQ3,
                                  tpch::TpchQuery::kQ5}) {
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = 10.0;
    auto plan = tpch::BuildQuery(q, cfg);
    ASSERT_TRUE(plan.ok()) << plan.status();
    shapes.push_back(*plan);
  }
  std::vector<AdvisorRequest> population;
  std::vector<ft::SchemePlan> fresh;
  for (size_t i = 0; i < kKeys; ++i) {
    population.push_back(MakeRequest(shapes[i % shapes.size()],
                                     1800.0 + 60.0 * static_cast<double>(i)));
    ft::FtCostContext context;
    context.cluster = population.back().cluster;
    context.model = population.back().model;
    auto answer =
        ft::ApplyCostBasedScheme(population.back().candidates, context);
    ASSERT_TRUE(answer.ok()) << answer.status();
    fresh.push_back(std::move(*answer));
  }
  for (const bool cached : {true, false}) {
    AdvisorServiceOptions options;
    options.cache_enabled = cached;
    options.cache_capacity = 16;
    AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0), {}, options);
    struct Served {
      size_t key;
      Result<ft::SchemePlan> answer;
    };
    std::vector<std::vector<Served>> served(kClients);
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        Rng rng(0xC0FFEEULL + static_cast<uint64_t>(t) * 977);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const size_t key =
              rng.NextDouble() < 0.8
                  ? rng.NextBounded(kHotKeys)
                  : kHotKeys + rng.NextBounded(kKeys - kHotKeys);
          served[static_cast<size_t>(t)].push_back(
              {key, service.Advise(population[key])});
        }
      });
    }
    for (std::thread& c : clients) c.join();
    for (const auto& answers : served) {
      for (const Served& s : answers) {
        ASSERT_TRUE(s.answer.ok()) << s.answer.status();
        SCOPED_TRACE(testing::Message() << "cached=" << cached
                                        << " key=" << s.key);
        ExpectSameScheme(s.answer.ValueOrDie(), fresh[s.key]);
      }
    }
    const AdvisorServiceStats stats = service.stats();
    constexpr uint64_t kRequests = kClients * kRequestsPerClient;
    EXPECT_EQ(stats.requests, kRequests);
    EXPECT_EQ(stats.errors, 0u);
    if (cached) {
      EXPECT_EQ(stats.hits + stats.misses, kRequests);
      EXPECT_GT(stats.hits, 0u);
      EXPECT_GT(stats.evictions, 0u);
      EXPECT_LE(stats.entries, options.cache_capacity);
    } else {
      EXPECT_EQ(stats.bypassed, kRequests);
      EXPECT_EQ(stats.entries, 0u);
    }
  }
}

TEST(AdvisorServiceTest, CacheDisabledStillAnswersCorrectly) {
  AdvisorServiceOptions options;
  options.cache_enabled = false;
  AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0), {}, options);
  const AdvisorRequest request = MakeRequest(SmallPlan("p"));
  ft::FtCostContext context;
  context.cluster = request.cluster;
  context.model = request.model;
  const auto fresh = ft::ApplyCostBasedScheme(request.candidates, context,
                                              service.options().enumeration);
  ASSERT_TRUE(fresh.ok());
  const auto served = service.Advise(request);
  ASSERT_TRUE(served.ok());
  ExpectSameScheme(served.ValueOrDie(), fresh.ValueOrDie());
  EXPECT_EQ(service.stats().bypassed, 1u);
  EXPECT_EQ(service.stats().entries, 0u);
}

TEST(AdvisorServiceTest, ErrorsAreNotCached) {
  AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0));
  AdvisorRequest empty;  // no candidate plans -> InvalidArgument
  empty.cluster = cost::MakeCluster(10, 3600.0, 1.0);
  EXPECT_FALSE(service.Advise(empty).ok());
  EXPECT_FALSE(service.Advise(empty).ok());
  const AdvisorServiceStats stats = service.stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.misses, 2u);  // second attempt re-enumerates, no hit
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(AdvisorServiceTest, SinglePlanOverloadUsesDefaults) {
  AdvisorService service(cost::MakeCluster(10, 600.0, 1.0));
  const auto chosen = service.Advise(SmallPlan("p"));
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  EXPECT_EQ(chosen.ValueOrDie().kind, ft::SchemeKind::kCostBased);
  EXPECT_GT(chosen.ValueOrDie().estimated_cost, 0.0);
}

TEST(AdvisorServiceTest, CachedAnswerBitIdenticalWithBurstsOn) {
  AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0));
  AdvisorRequest request = MakeRequest(SmallPlan("bursty"));
  request.cluster.burst_mtbf_seconds = 600.0;
  request.cluster.burst_fanout = 0.5;
  ft::FtCostContext context;
  context.cluster = request.cluster;
  context.model = request.model;
  const auto fresh = ft::ApplyCostBasedScheme(request.candidates, context,
                                              service.options().enumeration);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const auto first = service.Advise(request);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto second = service.Advise(request);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectSameScheme(first.ValueOrDie(), fresh.ValueOrDie());
  ExpectSameScheme(second.ValueOrDie(), fresh.ValueOrDie());
  EXPECT_EQ(service.stats().hits, 1u);
}

// Under a WAL-enabled model the answer recovers by replaying the logged
// frontier; a miss and a hit must both say so, exactly like a fresh
// ApplyCostBasedScheme.
TEST(AdvisorServiceTest, CachedAnswerKeepsWalRecoveryMode) {
  AdvisorService service(cost::MakeCluster(10, 3600.0, 1.0));
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  auto plan = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
  ASSERT_TRUE(plan.ok()) << plan.status();
  AdvisorRequest request = MakeRequest(*plan);
  request.model.wal_enabled = true;
  request.model.wal_write_cost = 0.05;
  ft::FtCostContext context;
  context.cluster = request.cluster;
  context.model = request.model;
  const auto fresh = ft::ApplyCostBasedScheme(request.candidates, context,
                                              service.options().enumeration);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(fresh.ValueOrDie().recovery, ft::RecoveryMode::kWalReplay);
  const auto miss = service.Advise(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  const auto hit = service.Advise(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(service.stats().misses, 1u);
  EXPECT_EQ(service.stats().hits, 1u);
  EXPECT_EQ(miss.ValueOrDie().recovery, ft::RecoveryMode::kWalReplay);
  EXPECT_EQ(hit.ValueOrDie().recovery, ft::RecoveryMode::kWalReplay);
  ExpectSameScheme(miss.ValueOrDie(), fresh.ValueOrDie());
  ExpectSameScheme(hit.ValueOrDie(), fresh.ValueOrDie());
}

}  // namespace
}  // namespace xdbft::api
