// Registry test for the op table (graph/ops.h): the name-keyed kernel
// and gradient registries, the fused forms and the FLOP model must all
// agree with the one row each graph op has.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autodiff/graph_grad.h"
#include "exec/kernels.h"
#include "exec/session.h"
#include "graph/ops.h"
#include "graph/optimize.h"
#include "obs/run_metadata.h"
#include "support/pass_pipeline.h"

namespace ag {
namespace {

using graph::FindOpDef;
using graph::OpDef;
using graph::OpTable;
using graph::StepKind;

TEST(OpTable, RowNamesAreUnique) {
  for (const OpDef& def : OpTable()) {
    EXPECT_EQ(FindOpDef(def.name), &def) << def.name;
  }
  EXPECT_EQ(FindOpDef("NoSuchOp"), nullptr);
}

TEST(OpTable, KernelRowsAreExactlyTheKernelRegistry) {
  for (const OpDef& def : OpTable()) {
    const std::string name(def.name);
    EXPECT_EQ(exec::HasKernel(name), def.kind == StepKind::kKernel)
        << name << ": kernel steps need a kernel, Session-run steps have none";
  }
  for (const std::string& op : exec::KernelOps()) {
    EXPECT_NE(FindOpDef(op), nullptr) << "kernel '" << op << "' has no row";
  }
}

TEST(OpTable, EveryGradientHasARow) {
  for (const std::string& op : autodiff::GradientOps()) {
    EXPECT_NE(FindOpDef(op), nullptr) << "gradient '" << op << "' has no row";
  }
}

TEST(OpTable, EffectsAreConsistent) {
  for (const OpDef& def : OpTable()) {
    EXPECT_FALSE(def.stateful() && def.pure()) << def.name;
  }
  EXPECT_TRUE(graph::IsPureOp("Add"));
  EXPECT_FALSE(graph::IsPureOp("RandomNormal"));
  EXPECT_FALSE(graph::IsPureOp("NoSuchOp"));
  EXPECT_EQ(graph::KindForOp("While"), StepKind::kWhile);
  EXPECT_EQ(graph::KindForOp("NoSuchOp"), StepKind::kKernel);
}

TEST(OpTable, FusedFormsRoundTripAndCoverEveryFusedOp) {
  std::set<int> covered;
  for (const OpDef& def : OpTable()) {
    FusedOp op = FusedOp::kAdd;
    bool binary = false;
    const bool found = graph::FusedOpForName(def.name, &op, &binary);
    ASSERT_EQ(found, def.fused.fusable) << def.name;
    if (!found) continue;
    EXPECT_EQ(op, def.fused.op) << def.name;
    EXPECT_EQ(binary, def.fused.binary) << def.name;
    EXPECT_TRUE(covered.insert(static_cast<int>(op)).second)
        << def.name << " reuses another row's FusedOp";
  }
  // Every FusedOp case the fused interpreter implements is reachable
  // from exactly one graph op.
  for (int op = 0; op <= static_cast<int>(FusedOp::kCast); ++op) {
    EXPECT_EQ(covered.count(op), 1u) << "FusedOp " << op << " has no row";
  }
}

TEST(OpTable, OpNRejectsAnUnknownOp) {
  graph::Graph g;
  graph::GraphContext ctx(&g);
  graph::Output x = graph::Const(ctx, Tensor::Scalar(1.0f));
  try {
    (void)graph::Op(ctx, "NoSuchOp", {x});
    FAIL() << "expected InternalError";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
    EXPECT_NE(e.message().find("NoSuchOp"), std::string::npos);
  }
  EXPECT_EQ(g.num_nodes(), 1u);  // nothing was emitted
}

int64_t FlopsOf(const obs::RunMetadata& meta, const std::string& op) {
  int64_t flops = -1;
  for (const obs::NodeStats& n : meta.step_stats.nodes) {
    if (n.op == op) flops = n.flops;
  }
  return flops;
}

TEST(OpTable, FlopModelPinsNodeStats) {
  graph::Graph g;
  graph::GraphContext ctx(&g);
  graph::Output x = graph::Placeholder(ctx, "x", DType::kFloat32);  // [2, 3]
  graph::Output w = graph::Placeholder(ctx, "w", DType::kFloat32);  // [3, 4]
  graph::Output half = graph::Const(ctx, Tensor::Scalar(0.5f));
  std::vector<graph::Output> roots{
      graph::Op(ctx, "Tanh", {x}),                                  // unit
      graph::Op(ctx, "MatMul", {x, w}),                             // matmul
      graph::Op(ctx, "Exp", {graph::Op(ctx, "Mul", {x, half})}),    // chain
      graph::Op(ctx, "Less", {x, half}),                            // none
      graph::Op(ctx, "ReduceSum", {x}, {{"axis", int64_t{0}}}),     // reduce
      graph::Op(ctx, "LogSoftmax", {x}),                            // unit
  };
  graph::OptimizeOptions options;
  options.pipeline = PipelineSpec::Parse("fusion,dce");
  (void)graph::Optimize(&g, &roots, &exec::EvaluatePureNode, options);
  ASSERT_EQ(roots[2].node->op(), "FusedElementwise");

  exec::Session session(&g);
  obs::RunOptions run_options;
  obs::RunMetadata meta;
  (void)session.Run({{"x", Tensor::Full({2, 3}, 0.25f)},
                     {"w", Tensor::Full({3, 4}, 2.0f)}},
                    roots, &run_options, &meta);
  EXPECT_EQ(FlopsOf(meta, "Tanh"), 6);                  // 2·3 elements
  EXPECT_EQ(FlopsOf(meta, "MatMul"), 2 * 2 * 3 * 4);    // 2·m·k·n
  EXPECT_EQ(FlopsOf(meta, "FusedElementwise"), 2 * 6);  // 2 body ops
  EXPECT_EQ(FlopsOf(meta, "Less"), 0);
  EXPECT_EQ(FlopsOf(meta, "ReduceSum"), 6);  // one per input element
  EXPECT_EQ(FlopsOf(meta, "LogSoftmax"), 6);
}

}  // namespace
}  // namespace ag
