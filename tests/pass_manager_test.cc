// Pass pipelines (DESIGN.md §4i): the PipelineSpec grammar, and the two
// fixed pass tables a spec selects from — graph passes run by
// graph::Optimize and conversion passes run by ConvertFunctionAst. A
// spec only selects rows; every selection runs in table order, and
// every row is reachable by name.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/kernels.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "graph/optimize.h"
#include "support/error.h"
#include "support/pass_pipeline.h"
#include "transforms/passes.h"

namespace ag {
namespace {

// --- PipelineSpec grammar -------------------------------------------------

TEST(PipelineSpec, ParseRoundTripsExplicitSelection) {
  const PipelineSpec spec = PipelineSpec::Parse("licm, +cse,-dce");
  EXPECT_FALSE(spec.from_default);  // positive tokens: exact selection
  EXPECT_EQ(spec.include, (std::vector<std::string>{"licm", "cse"}));
  EXPECT_EQ(spec.exclude, (std::vector<std::string>{"dce"}));
}

TEST(PipelineSpec, EmptyIsDefaultAndUnspecified) {
  const PipelineSpec spec = PipelineSpec::Parse("");
  EXPECT_TRUE(spec.from_default);
  EXPECT_TRUE(spec.include.empty());
  EXPECT_TRUE(spec.exclude.empty());
}

TEST(PipelineSpec, ExclusionOnlySpecKeepsTheDefaultSet) {
  const PipelineSpec spec = PipelineSpec::Parse("-fusion");
  EXPECT_TRUE(spec.from_default);  // no positive token
  EXPECT_TRUE(spec.Selects("dce", /*default_enabled=*/true));
  EXPECT_FALSE(spec.Selects("fusion", /*default_enabled=*/true));
}

TEST(PipelineSpec, PlusAndDefaultTokens) {
  const PipelineSpec spec = PipelineSpec::Parse("default, +fusion, -dce");
  EXPECT_TRUE(spec.from_default);
  EXPECT_TRUE(spec.Selects("fusion", /*default_enabled=*/false));
  EXPECT_FALSE(spec.Selects("dce", /*default_enabled=*/true));
  // Include wins over a default-disabled row; exclude wins over
  // everything.
  EXPECT_FALSE(spec.Selects("other", /*default_enabled=*/false));
}

TEST(PipelineSpec, MalformedTokenIsAValueError) {
  EXPECT_THROW((void)PipelineSpec::Parse("licm,c se"), Error);
  EXPECT_THROW((void)PipelineSpec::Parse("-"), Error);
  EXPECT_THROW((void)PipelineSpec::Parse("licm,cse!"), Error);
}

// The ErrorKind `fn` throws, or nullopt when it returns normally.
template <typename Fn>
std::optional<ErrorKind> ThrownKind(Fn fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind();
  }
  return std::nullopt;
}

TEST(PipelineSpec, MinusDefaultIsAValueError) {
  // "-default" names no pass; it must not silently mean "default".
  EXPECT_EQ(ThrownKind([] { (void)PipelineSpec::Parse("-default"); }),
            ErrorKind::kValue);
  EXPECT_EQ(ThrownKind([] { (void)PipelineSpec::Parse("licm, - default"); }),
            ErrorKind::kValue);
  EXPECT_TRUE(PipelineSpec::Parse("+default").from_default);
}

// --- graph pass table -----------------------------------------------------

// The pass names graph::Optimize runs for `spec`, in execution order,
// over a small graph with a duplicated Tanh (so cse has work to do).
std::vector<std::string> OptimizedPassNames(const std::string& spec) {
  graph::Graph g;
  graph::GraphContext ctx(&g);
  graph::Node* ph = g.AddNode("Placeholder", {}, {{"name", std::string("x")}});
  graph::Output x = ph->out(0);
  graph::Output t1 = graph::Op(ctx, "Tanh", {x});
  graph::Output t2 = graph::Op(ctx, "Tanh", {x});
  std::vector<graph::Output> roots{graph::Op(ctx, "Add", {t1, t2})};
  graph::OptimizeOptions options;
  options.pipeline = PipelineSpec::Parse(spec);
  const graph::OptimizeStats stats =
      graph::Optimize(&g, &roots, &exec::EvaluatePureNode, options);
  std::vector<std::string> names;
  names.reserve(stats.passes.size());
  for (const graph::OptimizePassStat& p : stats.passes) {
    names.push_back(p.pass);
  }
  return names;
}

TEST(GraphPassRegistry, DefaultPipelineOrder) {
  const std::vector<std::string> expected{"licm", "constant_folding", "cse",
                                          "fusion", "dce"};
  EXPECT_EQ(OptimizedPassNames(""), expected);
  EXPECT_EQ(OptimizedPassNames("default"), expected);
}

TEST(GraphPassRegistry, EveryRegisteredPassReachableFromDefaultSpec) {
  // Every row runs when named alone, and a default-enabled row also
  // runs under the default spec; nothing in the table is a dead corner.
  const std::vector<std::string> defaults = OptimizedPassNames("");
  for (const graph::GraphPass& pass : graph::GraphPasses()) {
    EXPECT_EQ(OptimizedPassNames(pass.name),
              std::vector<std::string>{pass.name});
    const bool in_default =
        std::find(defaults.begin(), defaults.end(), pass.name) !=
        defaults.end();
    EXPECT_EQ(in_default, pass.default_enabled) << pass.name;
  }
}

TEST(GraphPassRegistry, UnknownSpecNameIsAValueError) {
  for (const char* spec : {"licm,no_such_pass", "-no_such_pass"}) {
    try {
      graph::CheckGraphPipeline(PipelineSpec::Parse(spec));
      FAIL() << "expected ValueError for " << spec;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kValue);
      const std::string message = e.what();
      EXPECT_NE(message.find("no_such_pass"), std::string::npos) << message;
      // The error lists the table's passes, so the fix is obvious.
      EXPECT_NE(message.find("quantize_weights"), std::string::npos)
          << message;
    }
  }
  // Optimize itself rejects the spec before running any pass.
  EXPECT_EQ(ThrownKind([] { (void)OptimizedPassNames("licm,no_such_pass"); }),
            ErrorKind::kValue);
}

TEST(EffectivePipeline, ExcludeTokensDropOnlyThosePasses) {
  const std::vector<std::string> expected{"constant_folding", "cse",
                                          "fusion"};
  EXPECT_EQ(OptimizedPassNames("-dce,-licm"), expected);
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

TEST(Optimize, QuantizeWeightsRunsBetweenFusionAndDce) {
  const std::vector<std::string> expected{
      "licm", "constant_folding", "cse", "fusion", "quantize_weights", "dce"};
  EXPECT_EQ(OptimizedPassNames("default,+quantize_weights"), expected);
}

TEST(Optimize, SpecOrderDoesNotReorderPasses) {
  // Selection only: "dce,licm" still runs licm first.
  const std::vector<std::string> expected{"licm", "dce"};
  EXPECT_EQ(OptimizedPassNames("dce,licm"), expected);
}

// --- conversion pass table ------------------------------------------------

std::vector<std::string> ConversionPassNames(const PipelineSpec& spec) {
  std::vector<std::string> names;
  for (const transforms::ConversionPass& pass :
       transforms::ConversionPasses()) {
    if (spec.Selects(pass.name, /*default_enabled=*/true)) {
      names.emplace_back(pass.name);
    }
  }
  return names;
}

TEST(AstPassRegistry, EveryRegisteredPassReachableFromDefaultSpec) {
  const std::vector<std::string> defaults =
      ConversionPassNames(PipelineSpec::Parse("default"));
  EXPECT_EQ(defaults.size(), transforms::ConversionPasses().size());
}

TEST(AstPassRegistry, ConversionOrderRespectsConstraints) {
  // Paper §7.2, after the initial desugar pass; Function Wrappers is
  // the decoration ConvertFunctionAst applies after the table.
  const std::vector<std::string> expected{
      "desugar", "directives", "break",        "continue",
      "return",  "assert",     "lists",        "slices",
      "call_trees", "control_flow", "ternary", "logical"};
  EXPECT_EQ(ConversionPassNames(PipelineSpec::Parse("")), expected);
}

TEST(AstPassRegistry, ExcludingCallTreesMatchesRecursiveFalseShim) {
  // Non-recursive conversion is spelled "-call_trees" (the interpreter
  // then also runs unconverted callees as plain Python); that spec
  // drops exactly that pass.
  std::vector<std::string> expected =
      ConversionPassNames(PipelineSpec::Parse(""));
  expected.erase(std::find(expected.begin(), expected.end(), "call_trees"));
  EXPECT_EQ(ConversionPassNames(PipelineSpec::Parse("-call_trees")),
            expected);
}

TEST(AstPassRegistry, UnknownSpecNameIsAValueError) {
  auto fn = std::make_shared<lang::FunctionDefStmt>(
      "f", std::vector<std::string>{}, lang::StmtList{});
  transforms::ConversionOptions options;
  options.pipeline = PipelineSpec::Parse("-no_such_pass");
  EXPECT_EQ(
      ThrownKind([&] { (void)transforms::ConvertFunctionAst(fn, options); }),
      ErrorKind::kValue);
}

}  // namespace
}  // namespace ag
