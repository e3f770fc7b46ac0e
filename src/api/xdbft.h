// Umbrella header: the public API of the xdb-ft library.
//
// Quickstart:
//   #include "api/xdbft.h"
//   using namespace xdbft;
//
//   plan::PlanBuilder b("my-query");
//   auto scan = b.Scan("events", 1e8, 64, /*runtime_cost=*/120.0);
//   auto agg = b.Unary(plan::OpType::kHashAggregate, "agg", scan,
//                      /*tr=*/40.0, /*tm=*/2.0);
//   ft::FtCostContext context;
//   context.cluster =
//       cost::MakeCluster(/*nodes=*/10, /*mtbf=*/cost::kSecondsPerDay);
//   auto chosen = ft::ApplyCostBasedScheme({std::move(b).Build()}, context);
//   std::cout << ft::Explain(*chosen, context);
//
// A long-lived process answering many requests uses api::AdvisorService,
// which caches the same answers.
#pragma once

#include "api/advisor_service.h"    // IWYU pragma: export
#include "api/fingerprint.h"        // IWYU pragma: export
#include "cluster/experiment.h"     // IWYU pragma: export
#include "cluster/failure_trace.h"  // IWYU pragma: export
#include "cluster/simulator.h"      // IWYU pragma: export
#include "common/result.h"          // IWYU pragma: export
#include "common/status.h"          // IWYU pragma: export
#include "cost/cost_params.h"       // IWYU pragma: export
#include "cost/storage_model.h"     // IWYU pragma: export
#include "ft/collapsed_plan.h"      // IWYU pragma: export
#include "ft/enumerator.h"          // IWYU pragma: export
#include "ft/explain.h"             // IWYU pragma: export
#include "ft/greedy.h"              // IWYU pragma: export
#include "ft/failure_math.h"        // IWYU pragma: export
#include "ft/scheme.h"              // IWYU pragma: export
#include "obs/attempt_log.h"        // IWYU pragma: export
#include "obs/query_profile.h"      // IWYU pragma: export
#include "obs/run_report.h"         // IWYU pragma: export
#include "optimizer/join_enumerator.h"  // IWYU pragma: export
#include "plan/plan.h"              // IWYU pragma: export
#include "plan/plan_text.h"         // IWYU pragma: export
#include "tpch/q5_join_graph.h"     // IWYU pragma: export
#include "tpch/queries.h"           // IWYU pragma: export
