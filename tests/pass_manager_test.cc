// Declarative pass pipeline (DESIGN.md §4i): the PipelineSpec grammar,
// the shared OrderPasses scheduler both registries use, cycle detection
// with a structured error naming the passes on the cycle, and the
// registry round-trip guarantee — every registered pass (graph level
// and AST level) is reachable from the default spec, so "default"
// really does mean "everything the registry ships".
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/kernels.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "graph/optimize.h"
#include "graph/pass_manager.h"
#include "support/error.h"
#include "support/pass_pipeline.h"
#include "transforms/pass_manager.h"

namespace ag {
namespace {

// --- PipelineSpec grammar -------------------------------------------------

TEST(PipelineSpec, ParseRoundTripsExplicitSelection) {
  const PipelineSpec spec = PipelineSpec::Parse("licm,cse,-dce");
  EXPECT_FALSE(spec.from_default);  // positive tokens: exact selection
  EXPECT_TRUE(spec.specified);
  ASSERT_EQ(spec.include.size(), 2u);
  EXPECT_EQ(spec.include[0], "licm");
  EXPECT_EQ(spec.include[1], "cse");
  ASSERT_EQ(spec.exclude.size(), 1u);
  EXPECT_EQ(spec.exclude[0], "dce");
  EXPECT_EQ(spec.str(), "licm,cse,-dce");

  // str() re-parses to an equivalent spec.
  const PipelineSpec again = PipelineSpec::Parse(spec.str());
  EXPECT_EQ(again.from_default, spec.from_default);
  EXPECT_EQ(again.include, spec.include);
  EXPECT_EQ(again.exclude, spec.exclude);
}

TEST(PipelineSpec, EmptyIsDefaultAndUnspecified) {
  const PipelineSpec spec = PipelineSpec::Parse("");
  EXPECT_TRUE(spec.from_default);
  EXPECT_FALSE(spec.specified);  // callers may fall back to AG_PASSES
  EXPECT_TRUE(spec.include.empty());
  EXPECT_TRUE(spec.exclude.empty());
}

TEST(PipelineSpec, ExclusionOnlySpecKeepsTheDefaultSet) {
  const PipelineSpec spec = PipelineSpec::Parse("-fusion");
  EXPECT_TRUE(spec.from_default);  // no positive token
  EXPECT_TRUE(spec.specified);
  EXPECT_TRUE(spec.Selects("dce", /*default_enabled=*/true));
  EXPECT_FALSE(spec.Selects("fusion", /*default_enabled=*/true));
}

TEST(PipelineSpec, PlusAndDefaultTokens) {
  const PipelineSpec spec = PipelineSpec::Parse("default, +fusion, -dce");
  EXPECT_TRUE(spec.from_default);
  EXPECT_TRUE(spec.Selects("fusion", /*default_enabled=*/false));
  EXPECT_FALSE(spec.Selects("dce", /*default_enabled=*/true));
  // Include wins over a default-disabled registration; exclude wins
  // over everything.
  EXPECT_FALSE(spec.Selects("other", /*default_enabled=*/false));
}

TEST(PipelineSpec, MalformedTokenIsAValueError) {
  EXPECT_THROW((void)PipelineSpec::Parse("licm,c se"), Error);
  EXPECT_THROW((void)PipelineSpec::Parse("-"), Error);
  EXPECT_THROW((void)PipelineSpec::Parse("licm,cse!"), Error);
}

// --- OrderPasses: shared scheduler ---------------------------------------

TEST(OrderPasses, RankOrdersUnconstrainedPasses) {
  const std::vector<PassOrderNode> nodes{
      {"cleanup", {}, {}, 3},
      {"hoist", {}, {}, 0},
      {"simplify", {}, {}, 1},
  };
  const std::vector<size_t> order = OrderPasses(nodes);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(nodes[order[0]].name, "hoist");
  EXPECT_EQ(nodes[order[1]].name, "simplify");
  EXPECT_EQ(nodes[order[2]].name, "cleanup");
}

TEST(OrderPasses, HardConstraintBeatsRank) {
  // "late" prefers to run last by rank but is constrained before
  // "early"; the constraint wins.
  const std::vector<PassOrderNode> nodes{
      {"early", {}, {}, 0},
      {"late", {}, {"early"}, 9},
  };
  const std::vector<size_t> order = OrderPasses(nodes);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(nodes[order[0]].name, "late");
  EXPECT_EQ(nodes[order[1]].name, "early");
}

TEST(OrderPasses, ConstraintsOnAbsentPassesAreVacuous) {
  const std::vector<PassOrderNode> nodes{
      {"a", {"not_selected"}, {"also_not_selected"}, 0},
  };
  const std::vector<size_t> order = OrderPasses(nodes);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 0u);
}

TEST(OrderPasses, CycleIsAStructuredErrorNamingBothPasses) {
  const std::vector<PassOrderNode> nodes{
      {"alpha", {"beta"}, {}, 0},
      {"beta", {"alpha"}, {}, 0},
  };
  try {
    (void)OrderPasses(nodes);
    FAIL() << "expected Error for the alpha<->beta cycle";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("alpha"), std::string::npos) << message;
    EXPECT_NE(message.find("beta"), std::string::npos) << message;
    EXPECT_NE(message.find("cycle"), std::string::npos) << message;
  }
}

// --- graph::PassRegistry --------------------------------------------------

TEST(GraphPassRegistry, DefaultPipelineOrder) {
  const std::vector<const graph::PassInfo*> pipeline =
      graph::PassRegistry::Global().BuildPipeline(PipelineSpec::Parse(""));
  std::vector<std::string> names;
  names.reserve(pipeline.size());
  for (const graph::PassInfo* p : pipeline) names.push_back(p->name);
  const std::vector<std::string> expected{
      "licm", "constant_folding", "cse", "fusion", "dce"};
  EXPECT_EQ(names, expected);
}

TEST(GraphPassRegistry, EveryRegisteredPassReachableFromDefaultSpec) {
  // The round-trip guarantee: nothing registers into a dead corner.
  // A pass registered default-disabled would still have to be reachable
  // via an explicit include; today every built-in is default-enabled.
  const graph::PassRegistry& registry = graph::PassRegistry::Global();
  const std::vector<const graph::PassInfo*> pipeline =
      registry.BuildPipeline(PipelineSpec::Parse("default"));
  for (const std::string& name : registry.Names()) {
    const bool in_default =
        std::any_of(pipeline.begin(), pipeline.end(),
                    [&name](const graph::PassInfo* p) {
                      return p->name == name;
                    });
    const std::vector<const graph::PassInfo*> explicit_pipeline =
        registry.BuildPipeline(PipelineSpec::Parse(name));
    const bool by_name = explicit_pipeline.size() == 1 &&
                         explicit_pipeline[0]->name == name;
    EXPECT_TRUE(in_default || by_name) << name;
    EXPECT_TRUE(by_name) << name;  // explicit selection always works
  }
}

TEST(GraphPassRegistry, UnknownSpecNameIsAValueError) {
  try {
    (void)graph::PassRegistry::Global().BuildPipeline(
        PipelineSpec::Parse("licm,no_such_pass"));
    FAIL() << "expected Error for unknown pass";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no_such_pass"), std::string::npos) << message;
    // The error lists what IS registered, so the fix is obvious.
    EXPECT_NE(message.find("licm"), std::string::npos) << message;
  }
}

TEST(GraphPassRegistry, PrivateRegistryCycleNamesThePasses) {
  graph::PassRegistry registry;
  graph::PassInfo a;
  a.name = "ping";
  a.after = {"pong"};
  a.run = [](graph::PassContext&) { return 0; };
  graph::PassInfo b;
  b.name = "pong";
  b.after = {"ping"};
  b.run = [](graph::PassContext&) { return 0; };
  registry.Register(std::move(a));
  registry.Register(std::move(b));
  try {
    (void)registry.BuildPipeline(PipelineSpec::Parse("ping,pong"));
    FAIL() << "expected Error for the ping<->pong cycle";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("ping"), std::string::npos) << message;
    EXPECT_NE(message.find("pong"), std::string::npos) << message;
  }
}

TEST(GraphPassRegistry, DuplicateRegistrationIsAValueError) {
  graph::PassRegistry registry;
  graph::PassInfo info;
  info.name = "once";
  info.run = [](graph::PassContext&) { return 0; };
  registry.Register(info);
  EXPECT_THROW(registry.Register(info), Error);
}

TEST(GraphPassRegistry, ConstraintOnUnregisteredPassIsRejected) {
  graph::PassRegistry registry;
  graph::PassInfo info;
  info.name = "orphan";
  info.after = {"never_registered"};
  info.run = [](graph::PassContext&) { return 0; };
  registry.Register(std::move(info));
  EXPECT_THROW((void)registry.BuildPipeline(PipelineSpec::Parse("orphan")),
               Error);
}

// --- OptimizeOptions resolution ------------------------------------------

TEST(EffectivePipeline, ExcludeTokensDropOnlyThosePasses) {
  graph::OptimizeOptions options;
  options.pipeline = PipelineSpec::Parse("-dce,-licm");
  const PipelineSpec spec = graph::EffectivePipeline(options);
  EXPECT_FALSE(spec.Selects("dce", true));
  EXPECT_FALSE(spec.Selects("licm", true));
  EXPECT_TRUE(spec.Selects("cse", true));
  EXPECT_TRUE(spec.Selects("fusion", true));
}

TEST(EffectivePipeline, ExplicitPipelineWinsOverEnv) {
  const char* saved = std::getenv("AG_PASSES");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("AG_PASSES", "licm", /*overwrite=*/1);
  graph::OptimizeOptions options;
  // Unspecified: the environment selects.
  EXPECT_TRUE(graph::EffectivePipeline(options).Selects("licm", true));
  EXPECT_FALSE(graph::EffectivePipeline(options).Selects("cse", true));
  options.pipeline = PipelineSpec::Parse("cse,dce");
  const PipelineSpec spec = graph::EffectivePipeline(options);
  if (saved != nullptr) {
    ::setenv("AG_PASSES", restore.c_str(), 1);
  } else {
    ::unsetenv("AG_PASSES");
  }
  EXPECT_TRUE(spec.Selects("cse", true));
  EXPECT_TRUE(spec.Selects("dce", true));
  EXPECT_FALSE(spec.Selects("licm", true));
}

TEST(Optimize, PipelineSpecSelectsPasses) {
  // A spec without cse leaves the duplicated Tanh unmerged.
  graph::Graph g;
  graph::GraphContext ctx(&g);
  graph::Node* ph = g.AddNode("Placeholder", {}, {{"name", std::string("x")}});
  graph::Output x = ph->out(0);
  graph::Output t1 = graph::Op(ctx, "Tanh", {x});
  graph::Output t2 = graph::Op(ctx, "Tanh", {x});
  graph::Output sum = graph::Op(ctx, "Add", {t1, t2});
  std::vector<graph::Output> roots{sum};
  graph::OptimizeOptions options;
  options.pipeline = PipelineSpec::Parse("licm,dce");
  const graph::OptimizeStats stats =
      graph::Optimize(&g, &roots, &exec::EvaluatePureNode, options);
  EXPECT_EQ(stats.merged, 0);
  ASSERT_EQ(stats.passes.size(), 2u);
  EXPECT_EQ(stats.passes[0].pass, "licm");
  EXPECT_EQ(stats.passes[1].pass, "dce");
}

// --- transforms::PassRegistry (AST level) ---------------------------------

TEST(AstPassRegistry, EveryRegisteredPassReachableFromDefaultSpec) {
  const transforms::PassRegistry& registry =
      transforms::PassRegistry::Global();
  const std::vector<const transforms::PassInfo*> pipeline =
      registry.BuildPipeline(PipelineSpec::Parse("default"));
  for (const std::string& name : registry.Names()) {
    EXPECT_TRUE(std::any_of(pipeline.begin(), pipeline.end(),
                            [&name](const transforms::PassInfo* p) {
                              return p->name == name;
                            }))
        << name;
  }
}

TEST(AstPassRegistry, ConversionOrderRespectsConstraints) {
  const std::vector<const transforms::PassInfo*> pipeline =
      transforms::PassRegistry::Global().BuildPipeline(
          PipelineSpec::Parse(""));
  auto position = [&pipeline](const std::string& name) {
    for (size_t i = 0; i < pipeline.size(); ++i) {
      if (pipeline[i]->name == name) return i;
    }
    ADD_FAILURE() << "pass not in default pipeline: " << name;
    return pipeline.size();
  };
  EXPECT_LT(position("desugar"), position("directives"));
  EXPECT_LT(position("slices"), position("call_trees"));
  EXPECT_LT(position("call_trees"), position("control_flow"));
}

TEST(AstPassRegistry, ExcludingCallTreesMatchesRecursiveFalseShim) {
  // Non-recursive conversion is spelled "-call_trees" (the interpreter
  // then also runs unconverted callees as plain Python); the registry
  // view of that spec must drop exactly that pass.
  const transforms::PassRegistry& registry =
      transforms::PassRegistry::Global();
  const std::vector<const transforms::PassInfo*> with_all =
      registry.BuildPipeline(PipelineSpec::Parse(""));
  const std::vector<const transforms::PassInfo*> without =
      registry.BuildPipeline(PipelineSpec::Parse("-call_trees"));
  EXPECT_EQ(without.size() + 1, with_all.size());
  EXPECT_TRUE(std::none_of(without.begin(), without.end(),
                           [](const transforms::PassInfo* p) {
                             return p->name == "call_trees";
                           }));
}

}  // namespace
}  // namespace ag
