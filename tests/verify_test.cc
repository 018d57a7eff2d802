// Fault-injection tests for the agverify static checkers: each test
// corrupts one specific invariant of a well-formed graph or compiled
// plan and asserts the checker reports exactly the matching AGV code —
// plus clean-verification sweeps over the paper workloads, which is how
// latent pipeline bugs surface (the Where-dtype and condition-only
// staged-while bugs were both found this way).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/api.h"
#include "exec/session.h"
#include "graph/ops.h"
#include "verify/plan_verify.h"
#include "verify/verify.h"
#include "workloads/rnn.h"
#include "workloads/training.h"

namespace ag::verify {
namespace {

using core::AutoGraph;
using core::StageArg;
using core::StagedFunction;
using core::Value;
using exec::Session;
using graph::Const;
using graph::FuncGraph;
using graph::Graph;
using graph::GraphContext;
using graph::Op;
using graph::Output;
using graph::Placeholder;

bool HasCode(const std::vector<VerifyDiagnostic>& findings,
             const std::string& code) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const VerifyDiagnostic& d) { return d.code == code; });
}

// Asserts the findings contain `code` and nothing outside `allowed`
// (surgical faults must not cascade into unrelated reports).
void ExpectFinding(const std::vector<VerifyDiagnostic>& findings,
                   const std::string& code,
                   const std::vector<std::string>& allowed = {}) {
  EXPECT_TRUE(HasCode(findings, code))
      << "expected a " << code << " finding in:\n" << FormatFindings(findings);
  for (const VerifyDiagnostic& d : findings) {
    const bool ok = d.code == code ||
                    std::find(allowed.begin(), allowed.end(), d.code) !=
                        allowed.end();
    EXPECT_TRUE(ok) << "unexpected " << d.code << ": " << d.str();
  }
}

// ---- graph checks (AGV1xx) -------------------------------------------

TEST(GraphVerify, CleanGraphHasNoFindings) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "Add", {Op(ctx, "Tanh", {x}), x});
  EXPECT_EQ(FormatFindings(VerifyGraphAndRoots(g, {y})), "");
}

TEST(GraphVerify, DetectsCycle) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output a = Op(ctx, "Tanh", {x});
  Output b = Op(ctx, "Relu", {a});
  // Rewire Tanh to consume Relu: a <-> b.
  (*a.node->mutable_inputs())[0] = b;
  ExpectFinding(VerifyGraph(g), "AGV101");
}

TEST(GraphVerify, DetectsDanglingForeignInput) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "Tanh", {x});

  Graph other;
  GraphContext other_ctx(&other);
  Output foreign = Const(other_ctx, Tensor::Scalar(1.0f));
  // Splice a node owned by a different graph into y's inputs.
  (*y.node->mutable_inputs())[0] = foreign;
  ExpectFinding(VerifyGraph(g), "AGV102");
}

TEST(GraphVerify, DetectsOutOfRangeOutputIndex) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "Tanh", {x});
  (*y.node->mutable_inputs())[0].index = 3;  // Placeholder has 1 output
  ExpectFinding(VerifyGraph(g), "AGV102");
}

TEST(GraphVerify, DetectsDanglingSubgraphCapture) {
  Graph g;
  GraphContext ctx(&g);
  Output p = Placeholder(ctx, "p", DType::kBool);
  Output v = Placeholder(ctx, "v", DType::kFloat32);
  std::vector<Output> outs = graph::Cond(
      ctx, p,
      [&] { return std::vector<Output>{Op(ctx, "Tanh", {v})}; },
      [&] { return std::vector<Output>{Op(ctx, "Relu", {v})}; });
  // Find the Cond's then-branch and drop its capture record: the branch
  // still holds a capture Arg, but the call site no longer threads it.
  const graph::Node* cond = outs[0].node;
  const std::shared_ptr<Graph>& then_graph =
      cond->attr<std::shared_ptr<Graph>>("then_branch");
  auto* fg = dynamic_cast<FuncGraph*>(then_graph.get());
  ASSERT_NE(fg, nullptr);
  ASSERT_FALSE(fg->captures.empty());
  fg->captures.pop_back();
  ExpectFinding(VerifyGraph(g), "AGV103");
}

TEST(GraphVerify, DetectsRecordedDtypeMismatch) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output cmp = Op(ctx, "Less", {x, Const(ctx, Tensor::Scalar(0.0f))});
  cmp.node->set_output_dtype(0, DType::kFloat32);  // comparisons are bool
  ExpectFinding(VerifyGraph(g), "AGV104");
}

TEST(GraphVerify, DetectsCondBranchDtypeMismatch) {
  Graph g;
  GraphContext ctx(&g);
  Output p = Placeholder(ctx, "p", DType::kBool);
  std::vector<Output> outs = graph::Cond(
      ctx, p,
      [&] { return std::vector<Output>{Const(ctx, Tensor::Scalar(1.0f))}; },
      [&] {
        return std::vector<Output>{Const(ctx, Tensor::ScalarBool(true))};
      });
  (void)outs;
  ExpectFinding(VerifyGraph(g), "AGV105");
}

TEST(GraphVerify, DetectsWhileLoopVarDtypeChange) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  std::vector<Output> outs = graph::While(
      ctx, {x},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], Const(ctx, Tensor::Scalar(8.0f))});
      },
      [&](const std::vector<Output>& args) {
        // Body rebinds the float loop var to a bool.
        return std::vector<Output>{
            Op(ctx, "Greater", {args[0], Const(ctx, Tensor::Scalar(0.0f))})};
      });
  (void)outs;
  ExpectFinding(VerifyGraph(g), "AGV105");
}

TEST(GraphVerify, DetectsForeignFetchRoot) {
  Graph g;
  GraphContext ctx(&g);
  Output y = Op(ctx, "Tanh", {Placeholder(ctx, "x", DType::kFloat32)});
  (void)y;

  Graph other;
  GraphContext other_ctx(&other);
  Output foreign = Const(other_ctx, Tensor::Scalar(1.0f));
  ExpectFinding(VerifyGraphAndRoots(g, {foreign}), "AGV102");
}

// ---- plan checks (AGV2xx) --------------------------------------------

// One producer with two consumers plus a fetch of an intermediate:
// exercises pending counts, successor edges, and move analysis.
struct PlanFixture {
  Graph g;
  std::unique_ptr<GraphContext> ctx;
  std::unique_ptr<Session> session;
  Session::Plan plan;

  PlanFixture() {
    ctx = std::make_unique<GraphContext>(&g);
    Output x = Const(*ctx, Tensor::Scalar(2.0f));
    Output t = Op(*ctx, "Tanh", {x});
    Output a = Op(*ctx, "Relu", {t});
    Output b = Op(*ctx, "Exp", {t});  // t has two consumers
    Output y = Op(*ctx, "Add", {a, b});
    session = std::make_unique<Session>(&g);
    plan = session->CompilePlan({y}, /*allow_args=*/false);
  }
};

TEST(PlanVerify, CleanPlanHasNoFindings) {
  PlanFixture f;
  PlanVerifyOptions opts;
  opts.allow_args = false;
  EXPECT_EQ(FormatFindings(VerifyPlan(f.plan, opts)), "");
}

TEST(PlanVerify, DetectsBrokenPendingCount) {
  PlanFixture f;
  ++f.plan.steps.back().pending_init;  // count can never reach zero
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(f.plan, opts), "AGV201");
}

TEST(PlanVerify, DetectsMissingDataflowEdge) {
  PlanFixture f;
  // Remove the edge from the first producer to its first consumer (and
  // rebalance the pending count so only the missing-edge check fires).
  for (Session::Plan::Step& s : f.plan.steps) {
    if (s.successors.empty()) continue;
    const int victim = s.successors.front();
    s.successors.erase(s.successors.begin());
    --f.plan.steps[static_cast<size_t>(victim)].pending_init;
    break;
  }
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(f.plan, opts), "AGV203");
}

TEST(PlanVerify, DetectsDuplicateSuccessorEdge) {
  PlanFixture f;
  for (Session::Plan::Step& s : f.plan.steps) {
    if (s.successors.empty()) continue;
    s.successors.push_back(s.successors.front());
    break;
  }
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(f.plan, opts), "AGV202");
}

TEST(PlanVerify, DetectsReadAfterMove) {
  PlanFixture f;
  // The shared slot (Tanh) has two consumers: flagging its first
  // reference as a sequential move leaves the second reading a
  // moved-from value.
  std::map<std::pair<int, int>, int> refs;
  for (const Session::Plan::Step& s : f.plan.steps) {
    for (const Session::Plan::InputRef& r : s.inputs) {
      if (r.step >= 0) ++refs[{r.step, r.output}];
    }
  }
  bool applied = false;
  for (Session::Plan::Step& s : f.plan.steps) {
    for (size_t i = 0; i < s.inputs.size() && !applied; ++i) {
      const Session::Plan::InputRef& r = s.inputs[i];
      if (r.step >= 0 && refs[{r.step, r.output}] > 1) {
        s.input_move[i] = Session::Plan::kMoveSeq;
        applied = true;
      }
    }
    if (applied) break;
  }
  ASSERT_TRUE(applied);
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(f.plan, opts), "AGV210");
}

TEST(PlanVerify, DetectsMultiConsumerMoveAlways) {
  PlanFixture f;
  // Same fault as above but with the parallel-engine flag: AGV211 must
  // name the sole-consumer violation (AGV210 also fires — the second
  // reference still reads a moved-from slot).
  std::map<std::pair<int, int>, int> refs;
  for (const Session::Plan::Step& s : f.plan.steps) {
    for (const Session::Plan::InputRef& r : s.inputs) {
      if (r.step >= 0) ++refs[{r.step, r.output}];
    }
  }
  bool applied = false;
  for (Session::Plan::Step& s : f.plan.steps) {
    for (size_t i = 0; i < s.inputs.size() && !applied; ++i) {
      const Session::Plan::InputRef& r = s.inputs[i];
      if (r.step >= 0 && refs[{r.step, r.output}] > 1) {
        s.input_move[i] = Session::Plan::kMoveAlways;
        applied = true;
      }
    }
    if (applied) break;
  }
  ASSERT_TRUE(applied);
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(f.plan, opts), "AGV211", {"AGV210"});
}

TEST(PlanVerify, DetectsFetchedValueMovedIntoConsumer) {
  Graph g;
  GraphContext ctx(&g);
  Output t = Op(ctx, "Tanh", {Const(ctx, Tensor::Scalar(1.0f))});
  Output y = Op(ctx, "Relu", {t});
  Session session(&g);
  // Fetch both the intermediate and the final value: t's consumer must
  // not move it, or the fetch returns an empty tensor.
  Session::Plan plan = session.CompilePlan({t, y}, /*allow_args=*/false);
  std::set<std::pair<int, int>> fetched;
  for (const Session::Plan::InputRef& r : plan.returns) {
    fetched.insert({r.step, r.output});
  }
  bool applied = false;
  for (Session::Plan::Step& s : plan.steps) {
    for (size_t i = 0; i < s.inputs.size(); ++i) {
      const Session::Plan::InputRef& r = s.inputs[i];
      if (r.step >= 0 && fetched.count({r.step, r.output}) > 0) {
        s.input_move[i] = Session::Plan::kMoveSeq;  // Relu moves t
        applied = true;
        break;
      }
    }
    if (applied) break;
  }
  ASSERT_TRUE(applied);
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(plan, opts), "AGV212");
}

TEST(PlanVerify, DetectsReturnsMoveAtNonFinalFetch) {
  Graph g;
  GraphContext ctx(&g);
  Output y = Op(ctx, "Tanh", {Const(ctx, Tensor::Scalar(1.0f))});
  Session session(&g);
  // Fetch the same slot twice: only the second (final) fetch may move.
  Session::Plan plan = session.CompilePlan({y, y}, /*allow_args=*/false);
  ASSERT_EQ(plan.returns_move.size(), 2u);
  EXPECT_EQ(plan.returns_move[0], 0);
  EXPECT_EQ(plan.returns_move[1], 1);
  std::swap(plan.returns_move[0], plan.returns_move[1]);
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(plan, opts), "AGV213");
}

TEST(PlanVerify, DetectsMalformedMoveVector) {
  PlanFixture f;
  f.plan.steps.back().input_move.push_back(Session::Plan::kKeep);
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(f.plan, opts), "AGV205");
}

TEST(PlanVerify, DetectsOutOfRangeReturn) {
  PlanFixture f;
  f.plan.returns.front().step = static_cast<int>(f.plan.steps.size()) + 5;
  PlanVerifyOptions opts;
  opts.allow_args = false;
  ExpectFinding(VerifyPlan(f.plan, opts), "AGV206");
}

// Variable/Assign pair: the stateful-chain and race-audit faults.
struct StatefulPlanFixture {
  Graph g;
  std::unique_ptr<GraphContext> ctx;
  std::unique_ptr<Session> session;
  Session::Plan plan;
  int first = -1;
  int second = -1;

  StatefulPlanFixture() {
    ctx = std::make_unique<GraphContext>(&g);
    // A read and a dataflow-independent write of the same variable: the
    // stateful chain edge is the ONLY thing ordering them, so severing
    // it is both a chain break (AGV204) and a schedule race (AGV214).
    Output v = graph::Variable(*ctx, "acc", DType::kFloat32);
    Output w =
        graph::Assign(*ctx, "acc", Const(*ctx, Tensor::Scalar(3.0f)));
    session = std::make_unique<Session>(&g);
    plan = session->CompilePlan({v, w}, /*allow_args=*/false);
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      if (!PlanStepIsStateful(plan.steps[i])) continue;
      if (first < 0) {
        first = static_cast<int>(i);
      } else if (second < 0) {
        second = static_cast<int>(i);
      }
    }
  }

  // Severs the chain edge first->second, rebalancing the pending count
  // so only the chain/race checks see the corruption.
  bool BreakChain() {
    if (first < 0 || second < 0) return false;
    std::vector<int>& succ =
        plan.steps[static_cast<size_t>(first)].successors;
    auto it = std::find(succ.begin(), succ.end(), second);
    if (it == succ.end()) return false;
    succ.erase(it);
    --plan.steps[static_cast<size_t>(second)].pending_init;
    return true;
  }
};

TEST(PlanVerify, StatefulChainVerifiesClean) {
  StatefulPlanFixture f;
  ASSERT_GE(f.second, 0) << "fixture needs two stateful steps";
  PlanVerifyOptions opts;
  opts.allow_args = false;
  EXPECT_EQ(FormatFindings(VerifyPlan(f.plan, opts)), "");
}

TEST(PlanVerify, DetectsBrokenStatefulChain) {
  StatefulPlanFixture f;
  ASSERT_TRUE(f.BreakChain());
  PlanVerifyOptions opts;
  opts.allow_args = false;
  // The Variable read and the Assign write to 'acc' also lose their
  // ordering path, so the race audit fires alongside the chain check.
  ExpectFinding(VerifyPlan(f.plan, opts), "AGV204", {"AGV214"});
}

TEST(PlanVerify, RaceAuditFlagsUnorderedVariableAccess) {
  StatefulPlanFixture f;
  ASSERT_TRUE(f.BreakChain());
  PlanVerifyOptions opts;
  opts.allow_args = false;
  std::vector<VerifyDiagnostic> findings = VerifyPlan(f.plan, opts);
  EXPECT_TRUE(HasCode(findings, "AGV214")) << FormatFindings(findings);
}

// ---- clean sweeps over the paper workloads ---------------------------

// Verifies a staged function end to end: graph + roots, the top-level
// plan, and one plan per Cond/While subgraph (compiled with args
// allowed, as Session::PlanFor does).
void VerifyStagedClean(StagedFunction& staged) {
  SCOPED_TRACE("graph");
  EXPECT_EQ(FormatFindings(
                VerifyGraphAndRoots(*staged.graph, staged.fetches)),
            "");
  PlanVerifyOptions top;
  top.allow_args = false;
  EXPECT_EQ(FormatFindings(VerifyPlan(
                staged.session->CompilePlan(staged.fetches, false), top)),
            "");
  // Collect every FuncGraph reachable through subgraph attrs.
  std::vector<const Graph*> pending{staged.graph.get()};
  std::vector<std::shared_ptr<Graph>> subgraphs;
  while (!pending.empty()) {
    const Graph* g = pending.back();
    pending.pop_back();
    for (const auto& node : g->nodes()) {
      for (const auto& [key, attr] : node->attrs()) {
        if (const auto* sub = std::get_if<std::shared_ptr<Graph>>(&attr)) {
          subgraphs.push_back(*sub);
          pending.push_back(sub->get());
        }
      }
    }
  }
  PlanVerifyOptions nested;
  nested.allow_args = true;
  for (const std::shared_ptr<Graph>& sub : subgraphs) {
    const auto* fg = dynamic_cast<const FuncGraph*>(sub.get());
    ASSERT_NE(fg, nullptr);
    EXPECT_EQ(FormatFindings(VerifyPlan(
                  staged.session->CompilePlan(fg->returns, true), nested)),
              "");
  }
}

TEST(WorkloadVerify, DynamicRnnVerifiesClean) {
  workloads::RnnConfig config;
  config.batch = 4;
  config.seq_len = 6;
  config.input_size = 8;
  config.hidden = 16;
  workloads::RnnInputs inputs = workloads::MakeRnnInputs(config);
  AutoGraph agc;
  workloads::InstallRnn(agc, inputs);
  StagedFunction staged = agc.Stage(
      "dynamic_rnn",
      {StageArg::Placeholder("input_data"),
       StageArg::Placeholder("initial_state"),
       StageArg::Placeholder("sequence_len", DType::kInt32)});
  EXPECT_TRUE(staged.optimize_stats.broken_pass.empty())
      << staged.optimize_stats.broken_pass << ": "
      << staged.optimize_stats.broken_finding;
  VerifyStagedClean(staged);
}

TEST(WorkloadVerify, TrainingWorkloadsVerifyClean) {
  AutoGraph agc;
  agc.LoadSource(workloads::GraphTrainStepSource());
  agc.LoadSource(workloads::TrainLoopSource());
  StagedFunction step = agc.Stage(
      "train_step",
      {StageArg::Placeholder("x"), StageArg::Placeholder("y", DType::kInt32),
       StageArg::Placeholder("w"), StageArg::Placeholder("b"),
       StageArg::Constant(Value(0.1))});
  VerifyStagedClean(step);
  StagedFunction loop = agc.Stage(
      "train_loop",
      {StageArg::Placeholder("x"), StageArg::Placeholder("y", DType::kInt32),
       StageArg::Placeholder("w"), StageArg::Placeholder("b"),
       StageArg::Constant(Value(0.1)),
       StageArg::Constant(Value(static_cast<int64_t>(5)))});
  VerifyStagedClean(loop);
}

TEST(WorkloadVerify, HandwrittenRnnGraphVerifiesClean) {
  workloads::RnnConfig config;
  config.batch = 4;
  config.seq_len = 6;
  config.input_size = 8;
  config.hidden = 16;
  workloads::RnnInputs inputs = workloads::MakeRnnInputs(config);
  StagedFunction hand = workloads::BuildHandwrittenRnnGraph(inputs);
  VerifyStagedClean(hand);
}

}  // namespace
}  // namespace ag::verify
