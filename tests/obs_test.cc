// Tests for the runtime observability layer: the tracing core
// (nesting, disabled-path behavior), RunOptions/RunMetadata threading
// through Session / StagedFunction / CallEager / lantern::Executor,
// Chrome trace-event export round-trips, control-flow counters,
// optimizer pass stats, and the stats surfaces (SessionStats,
// CacheStats, DebugString).
#include <gtest/gtest.h>

#include <cmath>

#include "core/api.h"
#include "core/lantern_api.h"
#include "exec/session.h"
#include "graph/ops.h"
#include "lantern/builder.h"
#include "obs/chrome_trace.h"
#include "obs/run_metadata.h"
#include "obs/trace.h"

namespace ag::obs {
namespace {

TEST(Tracer, ScopesNestCorrectly) {
  Tracer tracer;
  {
    TraceScope outer(&tracer, "outer", "test");
    TraceScope inner(&tracer, "inner", "test");
  }
  std::vector<TraceEvent> events = tracer.Take();
  ASSERT_EQ(events.size(), 2u);
  // Destructor order: the inner scope closes (and records) first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  // The inner interval is contained in the outer one.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  EXPECT_EQ(events[0].thread_id, events[1].thread_id);
}

TEST(Tracer, NullTracerScopeIsANoOp) {
  TraceScope scope(nullptr, "nothing", "test");
  EXPECT_EQ(CurrentTracer(), nullptr);
}

TEST(Tracer, InstallScopeRestoresPrevious) {
  Tracer a;
  Tracer b;
  EXPECT_EQ(CurrentTracer(), nullptr);
  {
    TracerInstallScope ia(&a);
    EXPECT_EQ(CurrentTracer(), &a);
    {
      TracerInstallScope ib(&b);
      EXPECT_EQ(CurrentTracer(), &b);
    }
    EXPECT_EQ(CurrentTracer(), &a);
  }
  EXPECT_EQ(CurrentTracer(), nullptr);
}

TEST(RunMetadata, MergeCombinesNodeStatsByNameAndOp) {
  RunMetadata a;
  a.step_stats.nodes.push_back({"n1", "Add", 2, 100, 8, 0, 0, 0, ""});
  a.runs = 1;
  RunMetadata b;
  b.step_stats.nodes.push_back({"n1", "Add", 3, 50, 4, 0, 0, 0, ""});
  b.step_stats.nodes.push_back({"n2", "Mul", 1, 10, 4, 0, 0, 0, ""});
  b.runs = 2;
  a.Merge(b);
  ASSERT_EQ(a.step_stats.nodes.size(), 2u);
  EXPECT_EQ(a.step_stats.nodes[0].count, 5);
  EXPECT_EQ(a.step_stats.nodes[0].total_ns, 150);
  EXPECT_EQ(a.step_stats.nodes[0].output_bytes, 12);
  EXPECT_EQ(a.step_stats.TotalNodeExecutions(), 6);
  EXPECT_EQ(a.runs, 3);
}

TEST(ChromeTrace, ExportRoundTripsThroughParser) {
  Tracer tracer;
  {
    TraceScope s(&tracer, "step \"one\"\n", "op");  // escaping path
  }
  tracer.AddCounter("mem", "counter", 42);
  tracer.AddInstant("marker", "phase");
  const std::string json = ToChromeTraceJson(tracer.Take());
  std::string error;
  int num_events = 0;
  EXPECT_TRUE(ValidateChromeTraceJson(json, &error, &num_events)) << error;
  EXPECT_EQ(num_events, 3);
}

TEST(ChromeTrace, ValidatorRejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTraceJson("not json", &error, nullptr));
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents\": 3}", &error,
                                       nullptr));
  EXPECT_FALSE(
      ValidateChromeTraceJson("{\"traceEvents\": [}", &error, nullptr));
}

// ---- Session instrumentation ----

TEST(SessionObs, StepStatsCoverKernelInvocations) {
  graph::Graph g;
  graph::GraphContext ctx(&g);
  graph::Output x = graph::Placeholder(ctx, "x", DType::kFloat32);
  graph::Output t = graph::Op(ctx, "Tanh", {x});
  graph::Output y = graph::Op(ctx, "Add", {t, t});
  exec::Session session(&g);

  RunOptions options;
  options.trace = true;
  RunMetadata meta;
  std::map<std::string, exec::RuntimeValue> feeds{
      {"x", Tensor::Scalar(0.5f)}};
  (void)session.Run(feeds, {y}, &options, &meta);

  EXPECT_EQ(meta.runs, 1);
  EXPECT_GT(meta.run_wall_ns, 0);
  // Every kernel invocation the session counted has a step-stats record.
  EXPECT_GE(meta.step_stats.TotalNodeExecutions(),
            session.stats().kernel_invocations);
  // Leaf-only step stats: per-op times sum to within the Run wall time.
  EXPECT_LE(meta.step_stats.TotalNodeNs(), meta.run_wall_ns);
  // The trace contains the op events plus the enclosing Session::Run.
  bool found_run = false;
  for (const TraceEvent& e : meta.trace_events) {
    if (e.name == "Session::Run") found_run = true;
  }
  EXPECT_TRUE(found_run);
  EXPECT_GE(meta.trace_events.size(), meta.step_stats.nodes.size());
}

TEST(SessionObs, DisabledOptionsAddNothing) {
  graph::Graph g;
  graph::GraphContext ctx(&g);
  graph::Output x = graph::Placeholder(ctx, "x", DType::kFloat32);
  graph::Output y = graph::Op(ctx, "Tanh", {x});
  exec::Session session(&g);
  std::map<std::string, exec::RuntimeValue> feeds{
      {"x", Tensor::Scalar(0.5f)}};

  RunOptions off;
  off.trace = false;
  off.step_stats = false;
  EXPECT_FALSE(off.enabled());
  RunMetadata meta;
  (void)session.Run(feeds, {y}, &off, &meta);
  (void)session.Run(feeds, {y}, nullptr, &meta);
  (void)session.Run(feeds, {y});  // pre-observability call shape
  EXPECT_TRUE(meta.trace_events.empty());
  EXPECT_TRUE(meta.step_stats.nodes.empty());
  EXPECT_EQ(meta.runs, 0);
}

TEST(SessionObs, FeedListOverloadMatchesMapOverload) {
  graph::Graph g;
  graph::GraphContext ctx(&g);
  graph::Output x = graph::Placeholder(ctx, "x", DType::kFloat32);
  graph::Output y =
      graph::Op(ctx, "Mul", {x, graph::Const(ctx, Tensor::Scalar(3.0f))});
  exec::Session session(&g);
  exec::FeedList feeds;
  feeds.emplace_back("x", Tensor::Scalar(2.0f));
  std::vector<exec::RuntimeValue> out = session.Run(feeds, {y});
  EXPECT_FLOAT_EQ(exec::AsTensor(out[0]).scalar(), 6.0f);
}

// ---- StagedFunction / full-stack instrumentation ----

constexpr char kLoopSource[] = R"(
def f(x, n):
  i = tf.constant(0.0)
  while i < n:
    if x > 10.0:
      x = x / 2.0
    else:
      x = x * 3.0
    i = i + 1.0
  return x
)";

TEST(StagedObs, ControlFlowCountersAndPhases) {
  core::AutoGraph agc;
  agc.LoadSource(kLoopSource);
  core::StagedFunction staged = agc.Stage(
      "f", {core::StageArg::Placeholder("x"),
            core::StageArg::Placeholder("n")});
  // Staging phases were recorded even before any Run.
  EXPECT_GT(staged.metadata.phase_ns.count("convert"), 0u);
  EXPECT_GT(staged.metadata.phase_ns.count("trace"), 0u);
  EXPECT_GT(staged.metadata.phase_ns.count("optimize"), 0u);

  RunOptions options;
  options.trace = true;
  RunMetadata meta;
  Tensor out = staged.Run1({Tensor::Scalar(2.0f), Tensor::Scalar(3.0f)},
                           &options, &meta);
  // 2 -> 6 -> 18 -> 9.
  EXPECT_FLOAT_EQ(out.scalar(), 9.0f);
  EXPECT_EQ(meta.while_iterations, 3);
  EXPECT_EQ(meta.cond_true_taken + meta.cond_false_taken, 3);
  EXPECT_EQ(meta.runs, 1);
  // Cumulative metadata on the function merged the same record.
  EXPECT_EQ(staged.metadata.while_iterations, 3);
  EXPECT_GE(staged.metadata.runs, 1);
  EXPECT_LE(meta.step_stats.TotalNodeNs(), meta.run_wall_ns);

  // The whole thing exports as valid Chrome trace JSON.
  const std::string json = ToChromeTraceJson(meta);
  std::string error;
  int num_events = 0;
  EXPECT_TRUE(ValidateChromeTraceJson(json, &error, &num_events)) << error;
  EXPECT_GT(num_events, 0);

  EXPECT_NE(staged.DebugString().find("RunMetadata"), std::string::npos);
}

TEST(StagedObs, NameKeyedRunValidatesFeeds) {
  core::AutoGraph agc;
  agc.LoadSource("def f(x):\n  return x * 2.0\n");
  core::StagedFunction staged =
      agc.Stage("f", {core::StageArg::Placeholder("x")});
  std::map<std::string, exec::RuntimeValue> by_name{
      {"x", Tensor::Scalar(4.0f)}};
  std::vector<exec::RuntimeValue> out = staged.Run(by_name);
  EXPECT_FLOAT_EQ(exec::AsTensor(out[0]).scalar(), 8.0f);
  std::map<std::string, exec::RuntimeValue> wrong{
      {"y", Tensor::Scalar(4.0f)}};
  EXPECT_THROW((void)staged.Run(wrong), Error);
}

TEST(StagedObs, OptimizePassStatsRecorded) {
  core::AutoGraph agc;
  agc.LoadSource("def f(x):\n  return x * 1.0 + (2.0 + 3.0)\n");
  core::StagedFunction staged =
      agc.Stage("f", {core::StageArg::Placeholder("x")});
  ASSERT_FALSE(staged.optimize_stats.passes.empty());
  for (const graph::OptimizePassStat& p : staged.optimize_stats.passes) {
    EXPECT_FALSE(p.pass.empty());
    if (p.pass != "fusion") {
      // Only fusion may grow the count (it adds the FusedElementwise
      // node and leaves the originals for dce); everything else shrinks.
      EXPECT_GE(p.nodes_before, p.nodes_after);
    }
    EXPECT_GE(p.wall_ns, 0);
  }
  EXPECT_NE(staged.optimize_stats.DebugString().find("licm"),
            std::string::npos);
  EXPECT_NE(staged.optimize_stats.DebugString().find("constant_folding"),
            std::string::npos);
}

TEST(PolymorphicObs, CacheStatsCountHitsAndMisses) {
  core::AutoGraph agc;
  agc.LoadSource("def f(x):\n  return x + x\n");
  core::PolymorphicFunction fn = agc.Function("f");
  (void)fn({Tensor::Scalar(1.0f)});             // miss (trace)
  (void)fn({Tensor::Scalar(2.0f)});             // hit
  (void)fn({Tensor::ScalarInt(3)});             // miss (new signature)
  core::CacheStats stats = fn.cache_stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.traces, 2u);
  EXPECT_NE(fn.DebugString().find("hits=1"), std::string::npos);

  // Instrumented call-through: metadata flows from the cached trace.
  RunOptions options;
  RunMetadata meta;
  (void)fn({Tensor::Scalar(4.0f)}, &options, &meta);
  EXPECT_EQ(meta.runs, 1);
  EXPECT_FALSE(meta.step_stats.nodes.empty());
}

TEST(EagerObs, CallEagerTracesPerOpDispatch) {
  core::AutoGraph agc;
  agc.LoadSource("def f(x):\n  return tf.tanh(x) * x + 1.0\n");
  RunOptions options;
  options.trace = true;
  RunMetadata meta;
  core::Value out = agc.CallEager("f", {core::Value(Tensor::Scalar(0.5f))},
                                  &options, &meta);
  EXPECT_NEAR(out.AsTensor().scalar(), 0.5f * std::tanh(0.5f) + 1.0f,
              1e-6f);
  EXPECT_EQ(meta.runs, 1);
  ASSERT_FALSE(meta.step_stats.nodes.empty());
  bool saw_eager = false;
  for (const NodeStats& n : meta.step_stats.nodes) {
    if (n.op == "eager") saw_eager = true;
  }
  EXPECT_TRUE(saw_eager);
  // Uninstrumented eager calls leave no thread-local tracer behind.
  EXPECT_EQ(CurrentTracer(), nullptr);
}

TEST(LanternObs, ExecutorRecordsPerLOpStatsAndPhases) {
  core::AutoGraph agc;
  agc.LoadSource(R"(
def tree_prod(base, tree):
  if not tree.is_empty:
    l = tree_prod(base, tree.left)
    r = tree_prod(base, tree.right)
    return l * r * tree.value
  else:
    return base
)");
  core::LanternStagedFunction lf = core::StageLantern(
      agc, "tree_prod",
      {core::LanternArg::TensorParam(), core::LanternArg::TreeParam()});
  lantern::LTreePtr tree =
      lantern::LTree::Node(lantern::LTree::Leaf(Tensor::Scalar(3.0f)),
                           lantern::LTree::Leaf(Tensor::Scalar(5.0f)),
                           Tensor::Scalar(2.0f));

  RunOptions options;
  options.trace = true;
  RunMetadata meta;
  lantern::LValue out = lf.Run({Tensor::Scalar(1.0f), tree}, &options,
                               &meta);
  EXPECT_FLOAT_EQ(lantern::AsTensorL(out).scalar(), 30.0f);
  EXPECT_EQ(meta.runs, 1);
  EXPECT_GT(meta.phase_ns.count("forward"), 0u);
  ASSERT_FALSE(meta.step_stats.nodes.empty());
  for (const NodeStats& n : meta.step_stats.nodes) {
    EXPECT_EQ(n.op, "lantern");
  }
  EXPECT_LE(meta.step_stats.TotalNodeNs(), meta.run_wall_ns);

  RunMetadata grad_meta;
  auto [value, grads] = lf.RunWithGradients({Tensor::Scalar(1.0f), tree},
                                            &options, &grad_meta);
  EXPECT_FLOAT_EQ(value.scalar(), 30.0f);
  EXPECT_GT(grad_meta.phase_ns.count("forward"), 0u);
  EXPECT_GT(grad_meta.phase_ns.count("backward"), 0u);

  // Deprecated call shape (no trailing observability params) still runs.
  lantern::LValue plain = lf.Run({Tensor::Scalar(1.0f), tree});
  EXPECT_FLOAT_EQ(lantern::AsTensorL(plain).scalar(), 30.0f);
}

}  // namespace
}  // namespace ag::obs
