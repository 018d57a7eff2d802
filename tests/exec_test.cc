// Unit tests for the Session executor: feeds/fetches, taken-branch-only
// execution, functional while loops, tensor lists, variables, the
// compiled-plan path, and runtime error reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "exec/session.h"
#include "graph/ops.h"
#include "tensor/tensor_ops.h"

namespace ag::exec {
namespace {

using graph::Cond;
using graph::Const;
using graph::Graph;
using graph::GraphContext;
using graph::Op;
using graph::OpN;
using graph::Output;
using graph::Placeholder;
using graph::While;

TEST(Session, FeedAndFetch) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "Mul", {x, Const(ctx, Tensor::Scalar(3.0f))});
  Session session(&g);
  EXPECT_FLOAT_EQ(session.RunTensor({{"x", Tensor::Scalar(2.0f)}}, y)
                      .scalar(),
                  6.0f);
  // Missing feed is a runtime error naming the placeholder.
  try {
    (void)session.RunTensor({}, y);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRuntime);
    EXPECT_NE(e.message().find("'x'"), std::string::npos);
  }
}

TEST(Session, MemoizationWithinOneRun) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Const(ctx, Tensor::Scalar(1.0f));
  Output t = Op(ctx, "Tanh", {x});
  Output sum = Op(ctx, "Add", {t, t});  // t executes once
  Session session(&g);
  (void)session.RunTensor({}, sum);
  // Const + Tanh + Add = 3 node executions, not 4.
  EXPECT_EQ(session.stats().nodes_executed, 3);
}

TEST(Session, CondExecutesOnlyTakenBranch) {
  Graph g;
  GraphContext ctx(&g);
  Output pred = Placeholder(ctx, "p", DType::kBool);
  Output a = Const(ctx, Tensor::Scalar(1.0f));
  std::vector<Output> outs = Cond(
      ctx, pred,
      [&] { return std::vector<Output>{Op(ctx, "Add", {a, a})}; },
      [&] {
        // This branch divides by zero — it must not run when p is true.
        return std::vector<Output>{
            Op(ctx, "Div", {a, Const(ctx, Tensor::Scalar(0.0f))})};
      });
  Session session(&g);
  EXPECT_FLOAT_EQ(
      session.RunTensor({{"p", Tensor::ScalarBool(true)}}, outs[0]).scalar(),
      2.0f);
}

// Every engine rejects a non-bool predicate, whether the Cond sits at
// the top level or inside a While body (a sub-plan step).
void ExpectNonBoolPredicateRejected(const Graph& g, const Output& fetch) {
  for (const int inter_op : {0, 1, 4}) {
    Session session(&g);
    obs::RunOptions options;
    options.inter_op_threads = inter_op;
    try {
      (void)session.RunTensor({{"p", Tensor::Scalar(1.0f)}}, fetch,
                              &options);
      ADD_FAILURE() << "float predicate accepted at inter_op_threads="
                    << inter_op;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kRuntime) << inter_op;
      EXPECT_NE(e.message().find("cond predicate must be a bool tensor"),
                std::string::npos)
          << e.message();
    }
  }
}

TEST(Session, CondPredicateMustBeBool) {
  Graph g;
  GraphContext ctx(&g);
  Output pred = Placeholder(ctx, "p", DType::kFloat32);
  Output a = Const(ctx, Tensor::Scalar(1.0f));
  std::vector<Output> outs =
      Cond(ctx, pred, [&] { return std::vector<Output>{a}; },
           [&] { return std::vector<Output>{a}; });
  ExpectNonBoolPredicateRejected(g, outs[0]);

  // The same Cond nested in a While body.
  Graph nested;
  GraphContext nctx(&nested);
  Output npred = Placeholder(nctx, "p", DType::kFloat32);
  std::vector<Output> loop = While(
      nctx, {Const(nctx, Tensor::ScalarInt(0))},
      [&](const std::vector<Output>& args) {
        return Op(nctx, "Less", {args[0], Const(nctx, Tensor::ScalarInt(2))});
      },
      [&](const std::vector<Output>& args) {
        Output one = Const(nctx, Tensor::ScalarInt(1));
        auto branch = [&] {
          return std::vector<Output>{Op(nctx, "Add", {args[0], one})};
        };
        return Cond(nctx, npred, branch, branch);
      });
  ExpectNonBoolPredicateRejected(nested, loop[0]);
}

TEST(Session, UntakenBranchCaptureSideEffectsAgreeAcrossEngines) {
  // The else branch captures an outer Assign. Cond evaluates all of its
  // inputs before picking a branch (TF graph semantics), so the Assign
  // runs even though only the then branch is taken — in every engine.
  Graph g;
  GraphContext ctx(&g);
  Output pred = Placeholder(ctx, "p", DType::kBool);
  Output assign = graph::Assign(ctx, "v", Const(ctx, Tensor::Scalar(1.0f)));
  std::vector<Output> outs = Cond(
      ctx, pred,
      [&] { return std::vector<Output>{Const(ctx, Tensor::Scalar(5.0f))}; },
      [&] { return std::vector<Output>{Op(ctx, "Add", {assign, assign})}; });
  for (const int inter_op : {0, 1, 4}) {
    Session session(&g);
    session.SetVariable("v", Tensor::Scalar(0.0f));
    obs::RunOptions options;
    options.inter_op_threads = inter_op;
    EXPECT_FLOAT_EQ(session
                        .RunTensor({{"p", Tensor::ScalarBool(true)}},
                                   outs[0], &options)
                        .scalar(),
                    5.0f);
    EXPECT_FLOAT_EQ(session.GetVariable("v").scalar(), 1.0f)
        << "inter_op_threads=" << inter_op;
  }
}

TEST(Session, FetchOfInvalidOutputIndexFails) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Const(ctx, Tensor::Scalar(1.0f));
  const Output bad{x.node, 3};
  for (const int inter_op : {0, 1}) {
    Session session(&g);
    obs::RunOptions options;
    options.inter_op_threads = inter_op;
    try {
      (void)session.Run({}, {bad}, &options);
      ADD_FAILURE() << "out-of-range fetch accepted at inter_op_threads="
                    << inter_op;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInternal) << e.message();
      EXPECT_NE(e.message().find("invalid output index"), std::string::npos)
          << e.message();
    }
  }
}

TEST(Session, CyclicGraphFailsToCompile) {
  Graph g;
  GraphContext ctx(&g);
  Output a = Op(ctx, "Neg", {Const(ctx, Tensor::Scalar(1.0f))});
  Output b = Op(ctx, "Neg", {a});
  (*a.node->mutable_inputs())[0] = b;  // a <- b <- a
  for (const int inter_op : {0, 1}) {
    Session session(&g);
    obs::RunOptions options;
    options.inter_op_threads = inter_op;
    try {
      (void)session.RunTensor({}, b, &options);
      ADD_FAILURE() << "cyclic graph ran at inter_op_threads=" << inter_op;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInternal) << e.message();
      EXPECT_NE(e.message().find("graph cycle"), std::string::npos)
          << e.message();
    }
  }
}

TEST(Session, WhileLoopRunsToFixpoint) {
  Graph g;
  GraphContext ctx(&g);
  Output limit = Placeholder(ctx, "n", DType::kInt32);
  Output i0 = Const(ctx, Tensor::ScalarInt(0));
  Output acc0 = Const(ctx, Tensor::Scalar(0.0f));
  std::vector<Output> outs = While(
      ctx, {i0, acc0},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        Output inc =
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))});
        Output acc = Op(ctx, "Add",
                        {args[1], Op(ctx, "Cast", {args[0]},
                                     {{"dtype", DType::kFloat32}})});
        return std::vector<Output>{inc, acc};
      });
  Session session(&g);
  // sum(0..9) = 45; loop count fed at run time.
  auto results = session.Run({{"n", Tensor::ScalarInt(10)}}, outs);
  EXPECT_EQ(AsTensor(results[0]).scalar_int(), 10);
  EXPECT_FLOAT_EQ(AsTensor(results[1]).scalar(), 45.0f);
  // Zero-trip loop returns the initial values.
  auto zero = session.Run({{"n", Tensor::ScalarInt(0)}}, outs);
  EXPECT_FLOAT_EQ(AsTensor(zero[1]).scalar(), 0.0f);
}

TEST(Session, NestedWhileInsideCond) {
  Graph g;
  GraphContext ctx(&g);
  Output pred = Placeholder(ctx, "p", DType::kBool);
  Output limit = Const(ctx, Tensor::ScalarInt(4));
  std::vector<Output> outs = Cond(
      ctx, pred,
      [&] {
        Output i0 = Const(ctx, Tensor::ScalarInt(0));
        std::vector<Output> loop = While(
            ctx, {i0},
            [&](const std::vector<Output>& args) {
              return Op(ctx, "Less", {args[0], limit});
            },
            [&](const std::vector<Output>& args) {
              return std::vector<Output>{
                  Op(ctx, "Add",
                     {args[0], Const(ctx, Tensor::ScalarInt(1))})};
            });
        return std::vector<Output>{loop[0]};
      },
      [&] {
        return std::vector<Output>{Const(ctx, Tensor::ScalarInt(-1))};
      });
  Session session(&g);
  EXPECT_EQ(session.RunTensor({{"p", Tensor::ScalarBool(true)}}, outs[0])
                .scalar_int(),
            4);
  EXPECT_EQ(session.RunTensor({{"p", Tensor::ScalarBool(false)}}, outs[0])
                .scalar_int(),
            -1);
}

TEST(Session, TensorListOps) {
  Graph g;
  GraphContext ctx(&g);
  Output list = Op(ctx, "TensorListNew", {});
  Output l1 =
      Op(ctx, "TensorListPushBack", {list, Const(ctx, Tensor::Scalar(1.0f))});
  Output l2 =
      Op(ctx, "TensorListPushBack", {l1, Const(ctx, Tensor::Scalar(2.0f))});
  Output len = Op(ctx, "TensorListLen", {l2});
  Output stacked = Op(ctx, "TensorListStack", {l2});
  std::vector<Output> popped = OpN(ctx, "TensorListPopBack", {l2}, {}, 2);
  Session session(&g);
  auto results = session.Run({}, {len, stacked, popped[1]});
  EXPECT_EQ(AsTensor(results[0]).scalar_int(), 2);
  EXPECT_EQ(AsTensor(results[1]).shape(), Shape({2}));
  EXPECT_FLOAT_EQ(AsTensor(results[2]).scalar(), 2.0f);
  // Lists are values: l1 still has one element.
  EXPECT_EQ(session.RunTensor({}, Op(ctx, "TensorListLen", {l1}))
                .scalar_int(),
            1);
}

TEST(Session, TensorListAsLoopVariable) {
  Graph g;
  GraphContext ctx(&g);
  Output list = Op(ctx, "TensorListNew", {});
  Output i0 = Const(ctx, Tensor::ScalarInt(0));
  std::vector<Output> outs = While(
      ctx, {i0, list},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], Const(ctx, Tensor::ScalarInt(3))});
      },
      [&](const std::vector<Output>& args) {
        Output v = Op(ctx, "Cast", {args[0]}, {{"dtype", DType::kFloat32}});
        return std::vector<Output>{
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))}),
            Op(ctx, "TensorListPushBack", {args[1], v})};
      });
  Output stacked = Op(ctx, "TensorListStack", {outs[1]});
  Session session(&g);
  Tensor result = session.RunTensor({}, stacked);
  EXPECT_EQ(result.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(result.at(2), 2.0f);
}

TEST(Session, VariablesPersistAcrossRuns) {
  Graph g;
  GraphContext ctx(&g);
  Output v = graph::Variable(ctx, "counter", DType::kFloat32);
  Output next = Op(ctx, "Add", {v, Const(ctx, Tensor::Scalar(1.0f))});
  Output assign = graph::Assign(ctx, "counter", next);
  Session session(&g);
  session.SetVariable("counter", Tensor::Scalar(0.0f));
  for (int i = 1; i <= 3; ++i) {
    EXPECT_FLOAT_EQ(session.RunTensor({}, assign).scalar(),
                    static_cast<float>(i));
  }
  EXPECT_FLOAT_EQ(session.GetVariable("counter").scalar(), 3.0f);
  EXPECT_THROW((void)session.GetVariable("missing"), Error);
}

TEST(Session, GetVariableErrorNamesVariableAndListsKnown) {
  Graph g;
  Session session(&g);
  session.SetVariable("weights", Tensor::Scalar(1.0f));
  session.SetVariable("bias", Tensor::Scalar(0.0f));
  try {
    (void)session.GetVariable("weigths");  // typo'd name
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRuntime);
    EXPECT_NE(e.message().find("'weigths'"), std::string::npos)
        << e.message();
    EXPECT_NE(e.message().find("'bias'"), std::string::npos) << e.message();
    EXPECT_NE(e.message().find("'weights'"), std::string::npos)
        << e.message();
  }
  // With no variables at all, the message says so rather than listing.
  Session empty(&g);
  try {
    (void)empty.GetVariable("x");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(e.message().find("(none)"), std::string::npos) << e.message();
  }
}

TEST(Session, RuntimeErrorsCarryGraphFrames) {
  Graph g;
  GraphContext ctx(&g);
  Output bad = Op(ctx, "MatMul", {Const(ctx, Tensor::Scalar(1.0f)),
                                  Const(ctx, Tensor::Scalar(2.0f))});
  Session session(&g);
  try {
    (void)session.RunTensor({}, bad);
    FAIL();
  } catch (const Error& e) {
    ASSERT_FALSE(e.frames().empty());
    EXPECT_NE(e.frames()[0].function_name.find("MatMul"),
              std::string::npos);
    EXPECT_TRUE(e.frames()[0].generated);
  }
}

TEST(Session, WhileLoopErrorInsideBodySurfaces) {
  Graph g;
  GraphContext ctx(&g);
  Output i0 = Const(ctx, Tensor::ScalarInt(0));
  std::vector<Output> outs = While(
      ctx, {i0},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], Const(ctx, Tensor::ScalarInt(2))});
      },
      [&](const std::vector<Output>& args) {
        // Fails on execution: gather index out of range.
        Output bad = Op(ctx, "Gather",
                        {Const(ctx, Tensor::FromVector({1, 2}, Shape({2}))),
                         Const(ctx, Tensor::ScalarInt(7))});
        return std::vector<Output>{
            Op(ctx, "Add", {args[0], Op(ctx, "Cast", {bad},
                                        {{"dtype", DType::kInt32}})})};
      });
  Session session(&g);
  EXPECT_THROW((void)session.Run({}, outs), Error);
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.dtype() == b.dtype() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.num_elements()) * sizeof(float)) ==
             0;
}

// A Const step is a plan literal: its slot gets a refcount copy of the
// bound tensor. Fed into an in-place Add whose other operand is
// sole-owned, the Add must write into the other operand's buffer, never
// into the literal's, which the node's attr (and every later iteration)
// still reads.
TEST(Session, ConstLiteralIsNeverWrittenInPlace) {
  Graph g;
  GraphContext ctx(&g);
  const Tensor start = Tensor::FromVector({0.5f, -1.0f, 2.0f}, Shape({3}));
  const Tensor offset = Tensor::FromVector({0.25f, 0.5f, -0.75f}, Shape({3}));
  Output limit = Placeholder(ctx, "n", DType::kInt32);
  Output c_node;
  std::vector<Output> outs = While(
      ctx, {Const(ctx, Tensor::ScalarInt(0)), Const(ctx, start)},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        c_node = Const(ctx, offset);
        // Tanh's result is sole-owned and dead after the Add, the literal
        // is shared: the Add may only reuse Tanh's buffer.
        return std::vector<Output>{
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))}),
            Op(ctx, "Add", {c_node, Op(ctx, "Tanh", {args[1]})})};
      });
  const Tensor attr_before = c_node.node->attr<Tensor>("value");
  const std::vector<float> offset_values(offset.data(), offset.data() + 3);

  Tensor expected = start;
  for (int i = 0; i < 5; ++i) expected = Add(offset, Tanh(expected));

  Session session(&g);
  for (const int inter_op : {0, 2}) {
    for (const bool pool : {true, false}) {
      SCOPED_TRACE("inter_op " + std::to_string(inter_op) + " pool " +
                   std::to_string(pool));
      obs::RunOptions options;
      options.step_stats = false;
      options.inter_op_threads = inter_op;
      options.buffer_pool = pool;
      for (int run = 0; run < 2; ++run) {
        auto results =
            session.Run({{"n", Tensor::ScalarInt(5)}}, outs, &options);
        EXPECT_TRUE(BitEqual(AsTensor(results[1]), expected));
      }
    }
  }
  const Tensor& attr_after = c_node.node->attr<Tensor>("value");
  EXPECT_EQ(attr_after.data(), attr_before.data());
  EXPECT_EQ(std::vector<float>(attr_after.data(), attr_after.data() + 3),
            offset_values);
}

// Cond and While steps bind their sub-plans on first execution. Threads
// racing the first Run of a fresh session must compile or find each
// sub-plan exactly as one thread would and agree on the results.
TEST(Session, RacingFirstRunsBindSubPlansOnce) {
  Graph g;
  GraphContext ctx(&g);
  Output limit = Placeholder(ctx, "n", DType::kInt32);
  std::vector<Output> outs = While(
      ctx,
      {Const(ctx, Tensor::ScalarInt(0)), Const(ctx, Tensor::Scalar(0.0f))},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        Output parity =
            Op(ctx, "Mod", {args[0], Const(ctx, Tensor::ScalarInt(2))});
        Output even =
            Op(ctx, "Equal", {parity, Const(ctx, Tensor::ScalarInt(0))});
        std::vector<Output> step = Cond(
            ctx, even,
            [&] {
              return std::vector<Output>{
                  Op(ctx, "Add", {args[1], Const(ctx, Tensor::Scalar(1.0f))})};
            },
            [&] {
              return std::vector<Output>{
                  Op(ctx, "Mul", {args[1], Const(ctx, Tensor::Scalar(2.0f))})};
            });
        return std::vector<Output>{
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))}),
            step[0]};
      });
  // acc: +1 on even i, *2 on odd i, for i in 0..5: ((((0+1)*2+1)*2+1)*2.
  constexpr float kExpected = 14.0f;

  constexpr int kThreads = 4;
  for (int trial = 0; trial < 8; ++trial) {
    Session session(&g);
    std::atomic<int> ready{0};
    std::vector<float> got(kThreads, 0.0f);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        obs::RunOptions options;
        options.step_stats = false;
        options.inter_op_threads = t % 2;
        got[static_cast<size_t>(t)] =
            AsTensor(session.Run({{"n", Tensor::ScalarInt(6)}}, outs,
                                 &options)[1])
                .scalar();
      });
    }
    for (std::thread& t : threads) t.join();
    for (float v : got) EXPECT_FLOAT_EQ(v, kExpected);
    // The top plan and the four subgraph plans, each installed once; a
    // racing compile may repeat the work but not the install.
    EXPECT_GE(session.stats().plans_compiled.load(), 5);
    EXPECT_EQ(session.stats().runs.load(), kThreads);
  }
}

}  // namespace
}  // namespace ag::exec
