#include "core/artifact_io.h"

#include <memory>
#include <unordered_set>

#include "graph/ops.h"
#include "obs/run_metadata.h"
#include "support/error.h"

namespace ag::core {
namespace {

// Collects every While/Cond FuncGraph reachable from `g` (including
// nested control flow) in pre-order — the set of subgraphs Session
// would lazily plan-compile via PlanFor. FusedElementwise bodies are
// serialized as graphs (they ride along as subgraph attrs) but get no
// plan: the fused kernel interprets them directly.
void CollectPlannedSubgraphs(const graph::Graph* g,
                             std::unordered_set<const graph::Graph*>* seen,
                             std::vector<const graph::FuncGraph*>* out) {
  if (!seen->insert(g).second) return;
  for (const auto& node : g->nodes()) {
    const graph::StepKind kind = graph::KindForOp(node->op());
    const bool planned =
        kind == graph::StepKind::kWhile || kind == graph::StepKind::kCond;
    for (const auto& [key, attr] : node->attrs()) {
      const auto* sub = std::get_if<std::shared_ptr<graph::Graph>>(&attr);
      if (sub == nullptr) continue;
      if (planned) {
        if (const auto* fg =
                dynamic_cast<const graph::FuncGraph*>(sub->get())) {
          if (seen->count(fg) == 0) out->push_back(fg);
        }
      }
      CollectPlannedSubgraphs(sub->get(), seen, out);
    }
  }
}

}  // namespace

void SaveArtifact(
    const std::string& path,
    const std::vector<std::pair<std::string, const StagedFunction*>>&
        functions,
    const SaveArtifactOptions& options) {
  artifact::ArtifactModule module;
  module.producer = "agc (autograph-cpp)";
  module.source_path = options.source_path;
  module.pipeline = options.pipeline;
  module.functions.reserve(functions.size());
  for (const auto& [name, sf] : functions) {
    if (sf == nullptr || sf->graph == nullptr || sf->session == nullptr) {
      throw ValueError("SaveArtifact: function '" + name +
                       "' is not a staged function");
    }
    artifact::ArtifactFunction af;
    af.name = name;
    af.feed_names = sf->feed_names;
    af.fetch_was_tuple = sf->fetch_was_tuple;
    af.graph = sf->graph;
    af.fetches = sf->fetches;
    // CompilePlan is pure; compiling here (rather than exporting the
    // session's lazy caches) guarantees the artifact carries a plan for
    // every control-flow body even if it never executed.
    af.top_plan = sf->session->CompilePlan(sf->fetches, /*allow_args=*/false);
    std::unordered_set<const graph::Graph*> seen;
    std::vector<const graph::FuncGraph*> subgraphs;
    CollectPlannedSubgraphs(sf->graph.get(), &seen, &subgraphs);
    af.sub_plans.reserve(subgraphs.size());
    for (const graph::FuncGraph* fg : subgraphs) {
      af.sub_plans.emplace_back(
          fg, sf->session->CompilePlan(fg->returns, /*allow_args=*/true));
    }
    af.variables = sf->session->SnapshotVariables();
    module.functions.push_back(std::move(af));
  }
  artifact::WriteArtifact(path, module);
}

std::map<std::string, StagedFunction> StageFromArtifact(
    const std::string& path, const artifact::ReadOptions& options,
    artifact::InspectInfo* info) {
  const int64_t t0 = obs::NowNs();
  artifact::ArtifactModule module = artifact::ReadArtifact(path, options, info);
  std::map<std::string, StagedFunction> out;
  for (artifact::ArtifactFunction& af : module.functions) {
    StagedFunction sf;
    sf.graph = af.graph;
    sf.fetches = af.fetches;
    sf.fetch_was_tuple = af.fetch_was_tuple;
    sf.feed_names = af.feed_names;
    sf.session = std::make_unique<exec::Session>(sf.graph.get());
    // Pre-populate both plan caches: TopPlanFor and PlanFor hit on
    // first Run, so the session never calls CompilePlan.
    sf.session->InstallTopPlan(af.fetches, std::move(af.top_plan));
    for (auto& [sub_graph, plan] : af.sub_plans) {
      sf.session->InstallPlan(sub_graph, std::move(plan));
    }
    for (auto& [name, value] : af.variables) {
      sf.session->SetVariable(name, std::move(value));
    }
    sf.metadata.phase_ns["artifact_load"] = obs::NowNs() - t0;
    if (!out.emplace(af.name, std::move(sf)).second) {
      throw ValueError("artifact: '" + path + "' defines function '" +
                       af.name + "' twice");
    }
  }
  return out;
}

}  // namespace ag::core
