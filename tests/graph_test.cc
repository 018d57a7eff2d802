// Unit tests for the graph IR: node construction, name scopes, subgraph
// capture, pruning, and the optimizer passes (constant folding, CSE,
// DCE).
#include <gtest/gtest.h>

#include "exec/kernels.h"
#include "graph/optimize.h"
#include "graph/ops.h"

namespace ag::graph {
namespace {

TEST(Graph, NodeConstructionAndNames) {
  Graph g;
  Node* a = g.AddNode("Const", {}, {{"value", Tensor::Scalar(1.0f)}});
  Node* b = g.AddNode("Const", {}, {{"value", Tensor::Scalar(2.0f)}});
  Node* add = g.AddNode("Add", {a->out(0), b->out(0)});
  EXPECT_EQ(add->inputs().size(), 2u);
  EXPECT_EQ(a->name(), "Const");
  EXPECT_EQ(b->name(), "Const_1");  // unique names
  EXPECT_EQ(g.FindNode("Const_1"), b);
  EXPECT_EQ(add->owner(), &g);
}

TEST(Graph, NameScopes) {
  Graph g;
  g.PushNameScope("layer1");
  Node* n1 = g.AddNode("Tanh", {});
  g.PushNameScope("inner");
  Node* n2 = g.AddNode("Tanh", {});
  g.PopNameScope();
  g.PopNameScope();
  Node* n3 = g.AddNode("Tanh", {});
  EXPECT_EQ(n1->name(), "layer1/Tanh");
  EXPECT_EQ(n2->name(), "layer1/inner/Tanh");
  EXPECT_EQ(n3->name(), "Tanh");
}

TEST(Graph, AttrAccessErrors) {
  Graph g;
  Node* n = g.AddNode("ReduceSum", {}, {{"axis", int64_t{1}}});
  EXPECT_EQ(n->attr<int64_t>("axis"), 1);
  EXPECT_THROW((void)n->attr<int64_t>("missing"), Error);
  EXPECT_THROW((void)n->attr<std::string>("axis"), Error);  // wrong type
}

TEST(Graph, PruneKeepsReachableAndCaptures) {
  Graph g;
  GraphContext ctx(&g);
  Output a = Const(ctx, Tensor::Scalar(1.0f));
  Output dead = Op(ctx, "Neg", {a});
  (void)dead;
  Output pred = Const(ctx, Tensor::ScalarBool(true));
  Output live = Const(ctx, Tensor::Scalar(5.0f));
  // The Cond branch captures `live`; pruning must keep it.
  std::vector<Output> outs = Cond(
      ctx, pred, [&] { return std::vector<Output>{live}; },
      [&] { return std::vector<Output>{a}; });
  std::vector<Output> roots{outs[0]};
  g.Prune(roots);
  EXPECT_EQ(g.FindNode("Neg"), nullptr);
  bool live_kept = false;
  for (const auto& n : g.nodes()) {
    if (n.get() == live.node) live_kept = true;
  }
  EXPECT_TRUE(live_kept);
}

TEST(GraphContext, ResolvesThroughNestedCaptures) {
  Graph g;
  GraphContext ctx(&g);
  Output outer = Const(ctx, Tensor::Scalar(3.0f));

  auto fg1 = std::make_shared<FuncGraph>();
  ctx.Push(fg1.get());
  Output level1 = ctx.Resolve(outer);
  EXPECT_EQ(level1.node->op(), "Arg");
  // Resolving twice reuses the same Arg.
  EXPECT_EQ(ctx.Resolve(outer), level1);

  auto fg2 = std::make_shared<FuncGraph>();
  ctx.Push(fg2.get());
  Output level2 = ctx.Resolve(outer);
  EXPECT_EQ(level2.node->op(), "Arg");
  EXPECT_EQ(level2.node->owner(), fg2.get());
  // The chain of captures is recorded at each level.
  EXPECT_EQ(fg2->captures.size(), 1u);
  EXPECT_EQ(fg2->captures[0], level1);
  EXPECT_EQ(fg1->captures.size(), 1u);
  EXPECT_EQ(fg1->captures[0], outer);
  ctx.Pop();
  ctx.Pop();
}

TEST(InferDtypeRules, Samples) {
  Graph g;
  GraphContext ctx(&g);
  Output f = Const(ctx, Tensor::Scalar(1.0f));
  Output i = Const(ctx, Tensor::ScalarInt(1));
  EXPECT_EQ(Op(ctx, "Less", {f, f}).node->output_dtype(0), DType::kBool);
  EXPECT_EQ(Op(ctx, "Range", {i}).node->output_dtype(0), DType::kInt32);
  EXPECT_EQ(Op(ctx, "Add", {i, i}).node->output_dtype(0), DType::kInt32);
  EXPECT_EQ(Op(ctx, "Div", {i, i}).node->output_dtype(0), DType::kFloat32);
  EXPECT_EQ(Op(ctx, "Cast", {f}, {{"dtype", DType::kInt32}})
                .node->output_dtype(0),
            DType::kInt32);
}

TEST(Cond, BranchArityMismatchIsStagingError) {
  Graph g;
  GraphContext ctx(&g);
  Output pred = Const(ctx, Tensor::ScalarBool(true));
  Output a = Const(ctx, Tensor::Scalar(1.0f));
  EXPECT_THROW(
      (void)Cond(
          ctx, pred, [&] { return std::vector<Output>{a, a}; },
          [&] { return std::vector<Output>{a}; }),
      Error);
}

TEST(While, BodyArityMismatchIsStagingError) {
  Graph g;
  GraphContext ctx(&g);
  Output i0 = Const(ctx, Tensor::ScalarInt(0));
  EXPECT_THROW((void)While(
                   ctx, {i0},
                   [&](const std::vector<Output>& args) {
                     return Op(ctx, "Less",
                               {args[0], Const(ctx, Tensor::ScalarInt(3))});
                   },
                   [&](const std::vector<Output>& args) {
                     return std::vector<Output>{args[0], args[0]};
                   }),
               Error);
}

TEST(Optimize, ConstantFoldingCollapsesChains) {
  Graph g;
  GraphContext ctx(&g);
  Output two = Const(ctx, Tensor::Scalar(2.0f));
  Output three = Const(ctx, Tensor::Scalar(3.0f));
  Output six = Op(ctx, "Mul", {two, three});
  Output twelve = Op(ctx, "Add", {six, six});
  std::vector<Output> roots{twelve};
  OptimizeStats stats = Optimize(&g, &roots, &exec::EvaluatePureNode);
  EXPECT_GE(stats.folded, 2);
  EXPECT_EQ(roots[0].node->op(), "Const");
  EXPECT_FLOAT_EQ(roots[0].node->attr<Tensor>("value").scalar(), 12.0f);
}

TEST(Optimize, CseMergesIdenticalSubtrees) {
  Graph g;
  GraphContext ctx(&g);
  Node* ph = g.AddNode("Placeholder", {}, {{"name", std::string("x")}});
  Output x = ph->out(0);
  Output t1 = Op(ctx, "Tanh", {x});
  Output t2 = Op(ctx, "Tanh", {x});
  Output sum = Op(ctx, "Add", {t1, t2});
  std::vector<Output> roots{sum};
  OptimizeOptions options;
  options.pipeline = PipelineSpec::Parse("-constant_folding");
  OptimizeStats stats =
      Optimize(&g, &roots, &exec::EvaluatePureNode, options);
  EXPECT_EQ(stats.merged, 1);
  // Both Add inputs now reference the same node.
  EXPECT_EQ(roots[0].node->inputs()[0].node,
            roots[0].node->inputs()[1].node);
}

TEST(Optimize, CseDoesNotMergeStatefulOps) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<int> shape{2};
  Output r1 = Op(ctx, "RandomNormal", {}, {{"shape", shape}});
  Output r2 = Op(ctx, "RandomNormal", {}, {{"shape", shape}});
  Output sum = Op(ctx, "Add", {r1, r2});
  std::vector<Output> roots{sum};
  OptimizeStats stats = Optimize(&g, &roots, &exec::EvaluatePureNode);
  EXPECT_EQ(stats.merged, 0);
  EXPECT_NE(roots[0].node->inputs()[0].node,
            roots[0].node->inputs()[1].node);
}

TEST(Optimize, DceCountsPrunedNodes) {
  Graph g;
  GraphContext ctx(&g);
  Output keep = Const(ctx, Tensor::Scalar(1.0f));
  (void)Op(ctx, "Neg", {Const(ctx, Tensor::Scalar(9.0f))});
  std::vector<Output> roots{keep};
  OptimizeOptions options;
  options.pipeline = PipelineSpec::Parse("-constant_folding,-cse");
  OptimizeStats stats =
      Optimize(&g, &roots, &exec::EvaluatePureNode, options);
  EXPECT_EQ(stats.pruned, 2);
  EXPECT_EQ(g.num_nodes(), 1u);
}

}  // namespace
}  // namespace ag::graph
