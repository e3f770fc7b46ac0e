#include "validate/reproducer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "ft/collapsed_plan.h"
#include "obs/json.h"
#include "plan/plan_text.h"

namespace xdbft::validate {

namespace {

const char* TraceKindName(TraceKind kind) {
  return kind == TraceKind::kBurst ? "burst" : "independent";
}

Result<TraceKind> TraceKindFromName(const std::string& name) {
  if (name == "burst") return TraceKind::kBurst;
  if (name == "independent") return TraceKind::kIndependent;
  return Status::InvalidArgument("unknown trace kind: " + name);
}

// `u64` as a JSON-safe decimal string (doubles cannot hold all of them).
std::string U64(uint64_t v) {
  return obs::JsonQuote(StrFormat("%llu", static_cast<unsigned long long>(v)));
}

Result<uint64_t> ParseU64(const obs::JsonValue& v) {
  uint64_t out = 0;
  if (!v.is_string() || !ParseUint64(v.string_value, &out)) {
    return Status::InvalidArgument("expected a u64 decimal string");
  }
  return out;
}

Result<double> Num(const obs::JsonValue& obj, const std::string& key) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("missing number field: " + key);
  }
  return v->number_value;
}

// Bounds on the integer fields of a reproducer. Generated cases stay far
// below them; they keep a hostile file from requesting unbounded work.
constexpr int64_t kMaxNodes = 4096;
constexpr int64_t kMaxRestarts = 100000;
// Budget on the worst-case failures a case's trace set generates (each
// costs 8 bytes of trace and a simulator step). MakeSimCase cases stay
// below it with room to spare.
constexpr double kMaxTraceFailures = 1e8;

// The one way an integer leaves a JSON number: finite, integral and in
// [lo, hi]. A plain static_cast of a non-finite or out-of-range double is
// undefined behaviour.
Result<int64_t> CheckedInt(double v, const std::string& what, int64_t lo,
                           int64_t hi) {
  if (!std::isfinite(v) || v != std::trunc(v) ||
      v < static_cast<double>(lo) || v > static_cast<double>(hi)) {
    return Status::InvalidArgument(
        StrFormat("%s must be an integer in [%lld, %lld]", what.c_str(),
                  static_cast<long long>(lo), static_cast<long long>(hi)));
  }
  return static_cast<int64_t>(v);
}

Result<int> Int(const obs::JsonValue& obj, const std::string& key,
                int64_t lo, int64_t hi) {
  XDBFT_ASSIGN_OR_RETURN(const double v, Num(obj, key));
  XDBFT_ASSIGN_OR_RETURN(const int64_t i, CheckedInt(v, key, lo, hi));
  return static_cast<int>(i);
}

// The simulator knobs ClusterSimulator assumes: a CONST_pipe in (0, 1],
// a skew that keeps every partition's duration non-negative, and a finite
// non-negative monitoring interval.
Status ValidateSimOptions(const cluster::SimulationOptions& sim) {
  if (!(sim.pipe_constant > 0.0) || sim.pipe_constant > 1.0) {
    return Status::InvalidArgument("sim.pipe_constant must be in (0, 1]");
  }
  if (!(sim.partition_skew >= 0.0) || sim.partition_skew > 1.0) {
    return Status::InvalidArgument("sim.partition_skew must be in [0, 1]");
  }
  if (!(sim.monitoring_interval >= 0.0) ||
      !std::isfinite(sim.monitoring_interval)) {
    return Status::InvalidArgument(
        "sim.monitoring_interval must be non-negative and finite");
  }
  return Status::OK();
}

// Worst-case failures the trace set of one check generates: each node's
// trace extends to the simulated horizon, where every retry unit (one
// per plan operator) may exhaust its restarts and a failed attempt lasts
// about one MTBF plus repair and detection delays. abort_cap reruns the
// case with one restart and an MTBF of its longest collapsed operator
// (at least 1 s).
double WorstCaseTraceFailures(const ReproCase& c) {
  double work = 0.0;
  for (const plan::PlanNode& n : c.plan.nodes()) {
    work += n.runtime_cost + n.materialize_cost;
  }
  work *= 1.0 + c.sim.partition_skew;
  const double units = static_cast<double>(c.plan.num_nodes());
  const double delay = c.cluster.mttr_seconds + c.sim.monitoring_interval;
  const auto per_node = [&](double mtbf, double attempts) {
    return (work + units * attempts * delay) / mtbf + units * attempts;
  };
  double mtbf = c.cluster.mtbf_seconds;
  double bursts = 0.0;
  if (c.trace.kind == TraceKind::kBurst) {
    mtbf = std::min(mtbf, c.trace.burst.background_mtbf);
    bursts = c.trace.burst.horizon / c.trace.burst.mean_interval;
  }
  double longest = 1.0;
  const auto cp =
      ft::CollapsedPlan::Create(c.plan, c.config, c.sim.pipe_constant);
  if (cp.ok()) {
    for (const auto& op : cp->ops()) {
      longest = std::max(longest, op.total_cost());
    }
  }
  const double per_trace =
      std::max(per_node(mtbf, c.sim.max_restarts + 1.0),
               per_node(longest, 2.0)) +
      bursts;
  return per_trace * c.cluster.num_nodes * c.trace.count;
}

Result<std::string> Str(const obs::JsonValue& obj, const std::string& key) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("missing string field: " + key);
  }
  return v->string_value;
}

}  // namespace

std::string ReproToJson(const ReproCase& c) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"xdbft_crosscheck\",\n";
  out << "  \"check\": " << obs::JsonQuote(c.check) << ",\n";
  out << "  \"detail\": " << obs::JsonQuote(c.detail) << ",\n";
  out << "  \"seed\": " << U64(c.seed) << ",\n";
  out << "  \"minimized\": " << (c.minimized ? "true" : "false") << ",\n";
  out << "  \"kind\": " << obs::JsonQuote(c.kind) << ",\n";
  out << "  \"plan_text\": " << obs::JsonQuote(plan::PlanToText(c.plan))
      << ",\n";
  out << "  \"materialized\": [";
  bool first = true;
  for (size_t i = 0; i < c.config.size(); ++i) {
    if (!c.config.materialized(static_cast<plan::OpId>(i))) continue;
    if (!first) out << ", ";
    out << i;
    first = false;
  }
  out << "],\n";
  out << "  \"cluster\": {\"num_nodes\": " << c.cluster.num_nodes
      << ", \"mtbf_seconds\": " << obs::JsonNumber(c.cluster.mtbf_seconds)
      << ", \"mttr_seconds\": " << obs::JsonNumber(c.cluster.mttr_seconds)
      << "},\n";
  out << "  \"sim\": {\"pipe_constant\": "
      << obs::JsonNumber(c.sim.pipe_constant)
      << ", \"max_restarts\": " << c.sim.max_restarts
      << ", \"partition_skew\": " << obs::JsonNumber(c.sim.partition_skew)
      << ", \"monitoring_interval\": "
      << obs::JsonNumber(c.sim.monitoring_interval) << "},\n";
  out << "  \"trace\": {\"kind\": "
      << obs::JsonQuote(TraceKindName(c.trace.kind))
      << ", \"count\": " << c.trace.count
      << ", \"base_seed\": " << U64(c.trace.base_seed);
  if (c.trace.kind == TraceKind::kBurst) {
    const cluster::BurstOptions& b = c.trace.burst;
    out << ", \"burst\": {\"mean_interval\": "
        << obs::JsonNumber(b.mean_interval)
        << ", \"horizon\": " << obs::JsonNumber(b.horizon)
        << ", \"width\": " << obs::JsonNumber(b.width)
        << ", \"min_nodes\": " << b.min_nodes
        << ", \"max_nodes\": " << b.max_nodes
        << ", \"background_mtbf\": " << obs::JsonNumber(b.background_mtbf)
        << "}";
  }
  out << "}\n";
  out << "}\n";
  return out.str();
}

Result<ReproCase> ReproFromJson(const std::string& text) {
  XDBFT_ASSIGN_OR_RETURN(obs::JsonValue root, obs::ParseJson(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("reproducer: not a JSON object");
  }
  ReproCase c;
  XDBFT_ASSIGN_OR_RETURN(c.check, Str(root, "check"));
  XDBFT_ASSIGN_OR_RETURN(c.detail, Str(root, "detail"));
  XDBFT_ASSIGN_OR_RETURN(c.kind, Str(root, "kind"));
  const obs::JsonValue* seed = root.Find("seed");
  if (seed == nullptr) return Status::InvalidArgument("missing seed");
  XDBFT_ASSIGN_OR_RETURN(c.seed, ParseU64(*seed));
  const obs::JsonValue* minimized = root.Find("minimized");
  c.minimized = minimized != nullptr && minimized->bool_value;

  XDBFT_ASSIGN_OR_RETURN(std::string plan_text, Str(root, "plan_text"));
  XDBFT_ASSIGN_OR_RETURN(c.plan, plan::PlanFromText(plan_text));
  // NoMat establishes the forced bound/sink flags; the listed free
  // operators are then switched on. Round-trips any valid config.
  c.config = ft::MaterializationConfig::NoMat(c.plan);
  const obs::JsonValue* mats = root.Find("materialized");
  if (mats == nullptr || !mats->is_array()) {
    return Status::InvalidArgument("missing materialized list");
  }
  for (const obs::JsonValue& m : mats->array) {
    if (!m.is_number()) return Status::InvalidArgument("bad materialized id");
    XDBFT_ASSIGN_OR_RETURN(
        const int64_t id,
        CheckedInt(m.number_value, "materialized id", 0,
                   static_cast<int64_t>(c.plan.num_nodes()) - 1));
    c.config.set_materialized(static_cast<plan::OpId>(id), true);
  }
  XDBFT_RETURN_NOT_OK(c.config.Validate(c.plan));

  const obs::JsonValue* cl = root.Find("cluster");
  if (cl == nullptr) return Status::InvalidArgument("missing cluster");
  XDBFT_ASSIGN_OR_RETURN(c.cluster.num_nodes,
                         Int(*cl, "num_nodes", 1, kMaxNodes));
  XDBFT_ASSIGN_OR_RETURN(c.cluster.mtbf_seconds, Num(*cl, "mtbf_seconds"));
  XDBFT_ASSIGN_OR_RETURN(c.cluster.mttr_seconds, Num(*cl, "mttr_seconds"));
  XDBFT_RETURN_NOT_OK(c.cluster.Validate());

  const obs::JsonValue* sim = root.Find("sim");
  if (sim == nullptr) return Status::InvalidArgument("missing sim");
  XDBFT_ASSIGN_OR_RETURN(c.sim.pipe_constant, Num(*sim, "pipe_constant"));
  XDBFT_ASSIGN_OR_RETURN(c.sim.max_restarts,
                         Int(*sim, "max_restarts", 0, kMaxRestarts));
  XDBFT_ASSIGN_OR_RETURN(c.sim.partition_skew, Num(*sim, "partition_skew"));
  XDBFT_ASSIGN_OR_RETURN(c.sim.monitoring_interval,
                         Num(*sim, "monitoring_interval"));
  // Older files carry the removed intra-operator checkpoint settings. An
  // interval of 0 (checkpointing off) replays as written; any other
  // interval named a case the simulator no longer has.
  const obs::JsonValue* ckpt = sim->Find("checkpoint_interval");
  if (ckpt != nullptr && !(ckpt->is_number() && ckpt->number_value == 0.0)) {
    return Status::InvalidArgument(
        "sim.checkpoint_interval must be 0: intra-operator checkpointing "
        "was removed, so this case cannot be replayed");
  }
  XDBFT_RETURN_NOT_OK(ValidateSimOptions(c.sim));

  const obs::JsonValue* trace = root.Find("trace");
  if (trace == nullptr) return Status::InvalidArgument("missing trace");
  XDBFT_ASSIGN_OR_RETURN(std::string kind_name, Str(*trace, "kind"));
  XDBFT_ASSIGN_OR_RETURN(c.trace.kind, TraceKindFromName(kind_name));
  XDBFT_ASSIGN_OR_RETURN(c.trace.count,
                         Int(*trace, "count", 1, kMaxTraces));
  const obs::JsonValue* base_seed = trace->Find("base_seed");
  if (base_seed == nullptr) {
    return Status::InvalidArgument("missing trace.base_seed");
  }
  XDBFT_ASSIGN_OR_RETURN(c.trace.base_seed, ParseU64(*base_seed));
  if (c.trace.kind == TraceKind::kBurst) {
    const obs::JsonValue* b = trace->Find("burst");
    if (b == nullptr) return Status::InvalidArgument("missing trace.burst");
    cluster::BurstOptions& burst = c.trace.burst;
    XDBFT_ASSIGN_OR_RETURN(burst.mean_interval, Num(*b, "mean_interval"));
    XDBFT_ASSIGN_OR_RETURN(burst.horizon, Num(*b, "horizon"));
    XDBFT_ASSIGN_OR_RETURN(burst.width, Num(*b, "width"));
    XDBFT_ASSIGN_OR_RETURN(burst.min_nodes,
                           Int(*b, "min_nodes", 1, kMaxNodes));
    XDBFT_ASSIGN_OR_RETURN(burst.max_nodes,
                           Int(*b, "max_nodes", 1, kMaxNodes));
    const obs::JsonValue* bg = b->Find("background_mtbf");
    // JSON cannot represent infinity (kNeverFails renders as null).
    burst.background_mtbf =
        bg != nullptr && bg->is_number() ? bg->number_value
                                         : cluster::kNeverFails;
    XDBFT_RETURN_NOT_OK(burst.Validate());
  }
  // NaN-safe: an overflowing estimate must reject, not pass.
  if (!(WorstCaseTraceFailures(c) <= kMaxTraceFailures)) {
    return Status::InvalidArgument(
        "reproducer requests more than 1e8 simulated failures "
        "(MTBF too small for the plan, delays and restarts)");
  }
  return c;
}

Result<std::string> WriteReproducer(const std::string& dir,
                                    const ReproCase& c) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create reproducer dir " + dir + ": " +
                            ec.message());
  }
  const std::string path = StrFormat(
      "%s/repro-%s-%llu.json", dir.c_str(), c.check.c_str(),
      static_cast<unsigned long long>(c.seed));
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out << ReproToJson(c);
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return path;
}

Result<ReproCase> LoadReproducer(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ReproFromJson(buf.str());
}

}  // namespace xdbft::validate
