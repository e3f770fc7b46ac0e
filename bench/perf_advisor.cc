// Load generator for the AdvisorService serving layer: drives mixed
// hot/cold best-FT-plan request streams at it from concurrent client
// threads and reports p50/p95/p99 latency, throughput and cache-hit rate
// per (mode, clients, hot-fraction) sweep point — plus the speedup of the
// cached service over a cold (cache-disabled) baseline on the same mix.
//
// Every sweep also verifies the serving invariant: for each distinct
// request in the population, the service's answer (cached or fresh) is
// bit-identical to a one-shot ft::ApplyCostBasedScheme — same plan index,
// same materialization bits, same cost down to the last ulp. A violation
// prints IDENTITY VIOLATION and makes the process exit nonzero; latency
// numbers alone never fail the run (CI treats regressions as warnings).
//
// Rows land in $XDBFT_BENCH_JSON_DIR/BENCH_advisor.json (JSON lines) when
// the env var is set. `--quick` shrinks the population and request counts
// for the CI bench-smoke leg.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/advisor_service.h"
#include "bench_util.h"
#include "common/rng.h"
#include "ft/scheme.h"
#include "tpch/queries.h"

using namespace xdbft;

namespace {

struct LoadConfig {
  int clients = 1;
  int requests_per_client = 200;
  double hot_fraction = 0.9;
  size_t hot_set_size = 4;
};

struct LoadOutcome {
  std::vector<double> latencies_us;  // one per request, unordered
  double wall_seconds = 0.0;
  uint64_t failures = 0;
};

// The request population: a few TPC-H plan shapes crossed with per-key
// MTBF values, so every index is a distinct fingerprint over the same
// small set of plans. Indices [0, hot_set_size) form the hot set.
std::vector<api::AdvisorRequest> BuildPopulation(size_t size) {
  const tpch::TpchQuery kQueries[] = {tpch::TpchQuery::kQ1,
                                      tpch::TpchQuery::kQ3,
                                      tpch::TpchQuery::kQ5};
  std::vector<plan::Plan> plans;
  for (const tpch::TpchQuery q : kQueries) {
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = 10.0;
    plans.push_back(*tpch::BuildQuery(q, cfg));
  }
  std::vector<api::AdvisorRequest> population;
  population.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    api::AdvisorRequest request;
    request.candidates.push_back(plans[i % plans.size()]);
    // Distinct MTBF per key: same plan shape, different failure regime —
    // the cheapest way to mint an unbounded stream of cold keys.
    request.cluster = cost::MakeCluster(
        10, 1800.0 + 60.0 * static_cast<double>(i), 1.0);
    request.model = cost::CostModelParams{};
    population.push_back(std::move(request));
  }
  return population;
}

LoadOutcome RunLoad(api::AdvisorService& service,
                    const std::vector<api::AdvisorRequest>& population,
                    const LoadConfig& cfg) {
  LoadOutcome out;
  std::vector<std::vector<double>> per_thread(
      static_cast<size_t>(cfg.clients));
  std::vector<uint64_t> per_thread_failures(
      static_cast<size_t>(cfg.clients), 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(cfg.clients));
  for (int t = 0; t < cfg.clients; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(0xC0FFEEULL + static_cast<uint64_t>(t) * 977);
      auto& lat = per_thread[static_cast<size_t>(t)];
      lat.reserve(static_cast<size_t>(cfg.requests_per_client));
      const size_t cold_n = population.size() - cfg.hot_set_size;
      for (int i = 0; i < cfg.requests_per_client; ++i) {
        size_t idx;
        if (cold_n == 0 || rng.NextDouble() < cfg.hot_fraction) {
          idx = rng.NextBounded(cfg.hot_set_size);
        } else {
          idx = cfg.hot_set_size + rng.NextBounded(cold_n);
        }
        const auto r0 = std::chrono::steady_clock::now();
        auto result = service.Advise(population[idx]);
        const auto r1 = std::chrono::steady_clock::now();
        if (!result.ok()) ++per_thread_failures[static_cast<size_t>(t)];
        lat.push_back(
            std::chrono::duration<double, std::micro>(r1 - r0).count());
      }
    });
  }
  for (std::thread& c : clients) c.join();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (int t = 0; t < cfg.clients; ++t) {
    auto& lat = per_thread[static_cast<size_t>(t)];
    out.latencies_us.insert(out.latencies_us.end(), lat.begin(), lat.end());
    out.failures += per_thread_failures[static_cast<size_t>(t)];
  }
  std::sort(out.latencies_us.begin(), out.latencies_us.end());
  return out;
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

bool BitIdentical(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// The serving invariant: answers through the service — first touch
// (miss), second touch (hit) — match a one-shot ApplyCostBasedScheme
// bit for bit.
bool VerifyBitIdentity(api::AdvisorService& service,
                       const std::vector<api::AdvisorRequest>& population,
                       size_t sample) {
  bool ok = true;
  sample = std::min(sample, population.size());
  for (size_t i = 0; i < sample; ++i) {
    const api::AdvisorRequest& request = population[i];
    ft::FtCostContext context;
    context.cluster = request.cluster;
    context.model = request.model;
    const auto fresh = ft::ApplyCostBasedScheme(
        request.candidates, context, service.options().enumeration);
    const auto first = service.Advise(request);   // miss or hit
    const auto second = service.Advise(request);  // hit
    if (!fresh.ok() || !first.ok() || !second.ok()) {
      std::fprintf(stderr, "IDENTITY VIOLATION: request %zu errored\n", i);
      ok = false;
      continue;
    }
    for (const ft::SchemePlan* served :
         {&first.ValueOrDie(), &second.ValueOrDie()}) {
      if (served->plan_index != fresh.ValueOrDie().plan_index ||
          !(served->config == fresh.ValueOrDie().config) ||
          !BitIdentical(served->estimated_cost,
                        fresh.ValueOrDie().estimated_cost)) {
        std::fprintf(stderr,
                     "IDENTITY VIOLATION: request %zu cached != fresh "
                     "(plan %zu vs %zu, cost %.17g vs %.17g)\n",
                     i, served->plan_index, fresh.ValueOrDie().plan_index,
                     served->estimated_cost,
                     fresh.ValueOrDie().estimated_cost);
        ok = false;
      }
    }
  }
  return ok;
}

int RunSweep(bool quick) {
  bench::PrintHeader(
      "AdvisorService: cached FT-plan serving under load",
      "serving extension of §4 — cached answers bit-identical to "
      "findBestFTPlan");
  const size_t population_size = quick ? 48 : 192;
  const int requests_per_client = quick ? 120 : 400;
  const std::vector<api::AdvisorRequest> population =
      BuildPopulation(population_size);
  std::printf("population = %zu distinct requests, hardware_concurrency = "
              "%u\n\n",
              population.size(), std::thread::hardware_concurrency());

  bench::BenchJsonWriter json("advisor");
  bench::Table table({"mode", "clients", "hot%", "p50_us", "p95_us",
                      "p99_us", "qps", "hit_rate", "speedup"},
                     {8, 7, 5, 9, 9, 9, 9, 8, 8});
  table.PrintHeaderRow();

  bool identity_ok = true;
  int failures = 0;
  const std::vector<int> client_sweep =
      quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  for (const double hot_fraction : {0.8, 0.95}) {
    // Cold baseline: same mix, caching off — every request enumerates.
    std::vector<double> cold_p50(static_cast<size_t>(
                                     *std::max_element(client_sweep.begin(),
                                                       client_sweep.end())) +
                                 1,
                                 0.0);
    for (const bool cached : {false, true}) {
      for (const int clients : client_sweep) {
        cost::ClusterStats default_cluster = cost::MakeCluster(10, 3600.0);
        api::AdvisorServiceOptions options;
        options.cache_enabled = cached;
        options.cache_capacity = quick ? 64 : 256;
        api::AdvisorService service(default_cluster, {}, options);

        LoadConfig cfg;
        cfg.clients = clients;
        cfg.requests_per_client = requests_per_client;
        cfg.hot_fraction = hot_fraction;
        const LoadOutcome outcome = RunLoad(service, population, cfg);
        failures += static_cast<int>(outcome.failures);

        const double p50 = PercentileSorted(outcome.latencies_us, 50.0);
        const double p95 = PercentileSorted(outcome.latencies_us, 95.0);
        const double p99 = PercentileSorted(outcome.latencies_us, 99.0);
        const double qps =
            outcome.wall_seconds > 0.0
                ? static_cast<double>(outcome.latencies_us.size()) /
                      outcome.wall_seconds
                : 0.0;
        const api::AdvisorServiceStats stats = service.stats();
        double speedup = 0.0;
        if (!cached) {
          cold_p50[static_cast<size_t>(clients)] = p50;
        } else if (cold_p50[static_cast<size_t>(clients)] > 0.0 &&
                   p50 > 0.0) {
          speedup = cold_p50[static_cast<size_t>(clients)] / p50;
        }

        const char* mode = cached ? "cached" : "cold";
        table.PrintRow(
            {mode, StrFormat("%d", clients),
             StrFormat("%.0f", hot_fraction * 100.0),
             StrFormat("%.1f", p50), StrFormat("%.1f", p95),
             StrFormat("%.1f", p99), StrFormat("%.0f", qps),
             StrFormat("%.3f", stats.hit_rate()),
             cached ? StrFormat("%.1fx", speedup) : std::string("-")});

        bench::JsonLine row;
        row.Set("mode", mode)
            .Set("clients", static_cast<double>(clients))
            .Set("hot_fraction", hot_fraction)
            .Set("requests",
                 static_cast<double>(outcome.latencies_us.size()))
            .Set("p50_us", p50)
            .Set("p95_us", p95)
            .Set("p99_us", p99)
            .Set("qps", qps)
            .Set("hit_rate", stats.hit_rate())
            .Set("hits", static_cast<double>(stats.hits))
            .Set("misses", static_cast<double>(stats.misses))
            .Set("evictions", static_cast<double>(stats.evictions))
            .Set("bypassed", static_cast<double>(stats.bypassed))
            .Set("p50_speedup_vs_cold", speedup)
            .Set("quick", quick);
        json.Write(row);

        // Identity sweep on the warm service (its cache is now populated
        // with this mix): cached answers must equal one-shot enumeration.
        if (cached) {
          identity_ok &= VerifyBitIdentity(service, population,
                                           quick ? 8 : 24);
        }
      }
    }
  }

  if (json.enabled()) std::printf("\nWrote %s\n", json.path().c_str());
  std::printf("\nbit-identity: %s\n", identity_ok ? "OK" : "VIOLATED");
  if (!identity_ok || failures > 0) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  return RunSweep(quick);
}
