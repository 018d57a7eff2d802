// Tests for the parallel dataflow runtime: the ThreadPool / ParallelFor
// substrate, the Session's ready-queue plan executor (inter-op), the
// sharded-kernel determinism contract (intra-op), counter-based random
// streams, and concurrent Run() safety on one Session.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/session.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "runtime/cancellation.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor_ops.h"
#include "workloads/beam_search.h"
#include "workloads/rnn.h"
#include "workloads/training.h"

namespace ag {
namespace {

using exec::AsTensor;
using exec::RuntimeValue;
using exec::Session;
using graph::Assign;
using graph::Cond;
using graph::Const;
using graph::Graph;
using graph::GraphContext;
using graph::Op;
using graph::Output;
using graph::Placeholder;
using graph::Variable;
using graph::While;

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.dtype(), b.dtype());
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.num_elements())),
            0);
}

// Options selecting the parallel engines without enabling profiling.
obs::RunOptions ParallelOptions(int inter, int intra = 1) {
  obs::RunOptions opts;
  opts.step_stats = false;
  opts.inter_op_threads = inter;
  opts.intra_op_threads = intra;
  return opts;
}

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ExecutesScheduledTasks) {
  runtime::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&count] { ++count; });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < 100 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SurvivesThrowingTask) {
  runtime::ThreadPool pool(1);
  std::atomic<bool> ran{false};
  pool.Schedule([] { throw RuntimeError("stray task failure"); });
  pool.Schedule([&ran] { ran = true; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  // The worker logged the escaped exception and kept draining.
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, EnsureWorkersGrowsClampsAndNeverShrinks) {
  runtime::ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.num_workers(), 3);
  pool.EnsureWorkers(1);  // never shrinks
  EXPECT_EQ(pool.num_workers(), 3);
  pool.EnsureWorkers(runtime::ThreadPool::kMaxWorkers + 100);
  EXPECT_EQ(pool.num_workers(), runtime::ThreadPool::kMaxWorkers);
}

// ---------------------------------------------------------------------
// ParallelFor / IntraOpScope

TEST(IntraOpScope, NestsAndRestores) {
  EXPECT_EQ(runtime::IntraOpThreads(), 1);
  {
    runtime::IntraOpScope outer(4);
    EXPECT_EQ(runtime::IntraOpThreads(), 4);
    {
      runtime::IntraOpScope inner(2);
      EXPECT_EQ(runtime::IntraOpThreads(), 2);
    }
    EXPECT_EQ(runtime::IntraOpThreads(), 4);
    runtime::IntraOpScope floor(0);  // <= 1 means sequential
    EXPECT_EQ(runtime::IntraOpThreads(), 1);
  }
  EXPECT_EQ(runtime::IntraOpThreads(), 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  runtime::IntraOpScope scope(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  runtime::ParallelFor(kN, 10, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, RunsInlineWithoutBudget) {
  // Default budget is 1: exactly one body call covering the full range,
  // even for large n.
  int calls = 0;
  int64_t begin = -1;
  int64_t end = -1;
  runtime::ParallelFor(100000, 1, [&](int64_t b, int64_t e) {
    ++calls;
    begin = b;
    end = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(begin, 0);
  EXPECT_EQ(end, 100000);
}

TEST(ParallelFor, SmallRangesStayInline) {
  runtime::IntraOpScope scope(8);
  int calls = 0;
  runtime::ParallelFor(31, 16, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);  // n < 2 * grain: not worth shipping
}

TEST(ParallelFor, PropagatesBodyException) {
  runtime::IntraOpScope scope(4);
  EXPECT_THROW(
      runtime::ParallelFor(1000, 10,
                           [&](int64_t begin, int64_t end) {
                             for (int64_t i = begin; i < end; ++i) {
                               if (i == 137) {
                                 throw RuntimeError("shard failure");
                               }
                             }
                           }),
      Error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  runtime::IntraOpScope scope(4);
  std::atomic<int64_t> total{0};
  runtime::ParallelFor(64, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      runtime::ParallelFor(32, 1, [&](int64_t b, int64_t e) {
        total.fetch_add(e - b, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 64 * 32);
}

TEST(ParallelFor, ShardBoundariesAreDeterministic) {
  // Boundaries must be a pure function of (n, grain, budget) — the
  // determinism contract the sharded kernels rely on.
  auto boundaries = [](int threads) {
    runtime::IntraOpScope scope(threads);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> shards;
    runtime::ParallelFor(997, 8, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      shards.emplace_back(b, e);
    });
    std::sort(shards.begin(), shards.end());
    return shards;
  };
  EXPECT_EQ(boundaries(4), boundaries(4));
}

// ---------------------------------------------------------------------
// Session: ready-queue parallel plan engine

// Eight independent Tanh/Add chains over a fed placeholder, summed — a
// wide fan-out with real inter-op parallelism.
Output BuildFanOut(GraphContext& ctx, Output x) {
  std::vector<Output> chains;
  for (int c = 0; c < 8; ++c) {
    Output v = Const(ctx, Tensor::Scalar(static_cast<float>(c + 1)));
    for (int d = 0; d < 5; ++d) {
      v = Op(ctx, "Tanh", {Op(ctx, "Add", {v, x})});
    }
    chains.push_back(v);
  }
  Output sum = chains[0];
  for (size_t c = 1; c < chains.size(); ++c) {
    sum = Op(ctx, "Add", {sum, chains[c]});
  }
  return sum;
}

TEST(SessionParallel, FanOutMatchesSequentialBitIdentical) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output sum = BuildFanOut(ctx, x);

  Session session(&g);
  const Tensor feed = Tensor::Scalar(0.25f);
  const Tensor seq = session.RunTensor({{"x", feed}}, sum);
  for (int inter : {1, 2, 4, 8}) {
    obs::RunOptions opts = ParallelOptions(inter, 2);
    const Tensor par = session.RunTensor({{"x", feed}}, sum, &opts);
    ExpectBitIdentical(seq, par);
  }
}

TEST(SessionParallel, NodesExecutedMatchesSequentialEngine) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Const(ctx, Tensor::Scalar(1.0f));
  Output t = Op(ctx, "Tanh", {x});
  Output sum = Op(ctx, "Add", {t, t});

  Session session(&g);
  (void)session.RunTensor({}, sum);
  const int64_t after_seq = session.stats().nodes_executed;
  EXPECT_EQ(after_seq, 3);  // Const + Tanh + Add, memoized

  obs::RunOptions opts = ParallelOptions(2);
  (void)session.RunTensor({}, sum, &opts);
  EXPECT_EQ(session.stats().nodes_executed - after_seq, 3);
}

TEST(SessionParallel, ControlFlowRunsUnderParallelEngine) {
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
  obs::RunOptions opts = ParallelOptions(4);
  auto results =
      session.Run({{"n", Tensor::ScalarInt(10)}}, outs, &opts);
  EXPECT_EQ(AsTensor(results[0]).scalar_int(), 10);
  EXPECT_FLOAT_EQ(AsTensor(results[1]).scalar(), 45.0f);
}

TEST(SessionParallel, StatefulChainKeepsAssignBeforeRead) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output assigned = Assign(ctx, "v", x);
  Output read = Variable(ctx, "v", DType::kFloat32);
  // Plenty of unrelated parallel work around the stateful pair.
  Output noise = BuildFanOut(ctx, x);

  Session session(&g);
  obs::RunOptions opts = ParallelOptions(8);
  for (int i = 0; i < 20; ++i) {
    const float fed = static_cast<float>(i) + 0.5f;
    auto results = session.Run({{"x", Tensor::Scalar(fed)}},
                               {assigned, read, noise}, &opts);
    // The chain orders the Variable read after the Assign in plan
    // (= program) order, every schedule.
    EXPECT_FLOAT_EQ(AsTensor(results[1]).scalar(), fed);
  }
}

TEST(SessionParallel, StatefulChainCoversCondSubgraphEffects) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output pred = Const(ctx, Tensor::ScalarBool(true));
  // The Assign hides inside the taken branch's subgraph; the top-level
  // Variable read must still be ordered after the Cond step.
  std::vector<Output> assigned = Cond(
      ctx, pred,
      [&] { return std::vector<Output>{Assign(ctx, "cv", x)}; },
      [&] {
        return std::vector<Output>{Const(ctx, Tensor::Scalar(-1.0f))};
      });
  Output read = Variable(ctx, "cv", DType::kFloat32);
  Output noise = BuildFanOut(ctx, x);

  Session session(&g);
  obs::RunOptions opts = ParallelOptions(8);
  for (int i = 0; i < 20; ++i) {
    const float fed = static_cast<float>(i) + 0.25f;
    auto results = session.Run({{"x", Tensor::Scalar(fed)}},
                               {assigned[0], read, noise}, &opts);
    EXPECT_FLOAT_EQ(AsTensor(results[1]).scalar(), fed);
  }
}

TEST(SessionParallel, StatefulChainCoversWhileBodyEffects) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output limit = Placeholder(ctx, "n", DType::kInt32);
  Output i0 = Const(ctx, Tensor::ScalarInt(0));
  Output c0 = Const(ctx, Tensor::Scalar(0.0f));
  // Each iteration assigns the running count to "w" inside the body
  // subgraph; the top-level read must observe the final iteration.
  std::vector<Output> outs = While(
      ctx, {i0, c0},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        Output inc =
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))});
        Output next = Assign(
            ctx, "w",
            Op(ctx, "Add",
               {args[1], Const(ctx, Tensor::Scalar(1.0f))}));
        return std::vector<Output>{inc, next};
      });
  Output read = Variable(ctx, "w", DType::kFloat32);
  Output noise = BuildFanOut(ctx, x);

  Session session(&g);
  obs::RunOptions opts = ParallelOptions(8);
  for (int i = 0; i < 10; ++i) {
    auto results = session.Run(
        {{"x", Tensor::Scalar(0.5f)}, {"n", Tensor::ScalarInt(7)}},
        {outs[0], outs[1], read, noise}, &opts);
    EXPECT_FLOAT_EQ(AsTensor(results[2]).scalar(), 7.0f);
  }
}

TEST(SessionParallel, WhileCondArityValidatedInBothEngines) {
  Graph g;
  GraphContext ctx(&g);
  Output limit = Placeholder(ctx, "n", DType::kInt32);
  Output i0 = Const(ctx, Tensor::ScalarInt(0));
  std::vector<Output> outs = While(
      ctx, {i0},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        return std::vector<Output>{
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))})};
      });
  // Corrupt the cond subgraph so it returns two values — unreachable
  // through the builders, but both engines must reject it identically.
  auto cond_g = std::static_pointer_cast<graph::FuncGraph>(
      outs[0].node->attr<std::shared_ptr<graph::Graph>>("cond"));
  cond_g->returns.push_back(cond_g->returns[0]);

  Session session(&g);
  for (int inter : {0, 2}) {
    obs::RunOptions opts = ParallelOptions(inter);
    try {
      (void)session.Run({{"n", Tensor::ScalarInt(3)}}, outs, &opts);
      FAIL() << "expected the malformed while condition to throw";
    } catch (const Error& e) {
      EXPECT_NE(e.message().find("single value"), std::string::npos)
          << e.message();
    }
  }
}

TEST(SessionParallel, ExceptionPropagatesAndSessionSurvives) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output sum = BuildFanOut(ctx, x);
  Output bad = Op(ctx, "Assert", {Const(ctx, Tensor::ScalarBool(false))},
                  {{"message", std::string("midrun failure")}});

  Session session(&g);
  obs::RunOptions opts = ParallelOptions(4);
  try {
    (void)session.Run({{"x", Tensor::Scalar(1.0f)}}, {sum, bad}, &opts);
    FAIL() << "expected the Assert to throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRuntime);
    EXPECT_NE(e.message().find("midrun failure"), std::string::npos);
  }
  // The session stays usable after a failed parallel run.
  const Tensor seq = session.RunTensor({{"x", Tensor::Scalar(1.0f)}}, sum);
  const Tensor par =
      session.RunTensor({{"x", Tensor::Scalar(1.0f)}}, sum, &opts);
  ExpectBitIdentical(seq, par);
}

TEST(SessionParallel, ConcurrentRunsShareOneSession) {
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
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the threads use the sequential engine, half the parallel
      // one — both against the shared plan cache and stats.
      obs::RunOptions opts = ParallelOptions(t % 2 == 0 ? 0 : 2);
      for (int r = 0; r < kRunsPerThread; ++r) {
        const int n = 3 + t;
        auto results =
            session.Run({{"n", Tensor::ScalarInt(n)}}, outs, &opts);
        const float expected = static_cast<float>(n * (n - 1)) / 2.0f;
        if (AsTensor(results[0]).scalar_int() != n ||
            AsTensor(results[1]).scalar() != expected) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(session.stats().runs, kThreads * kRunsPerThread);
}

// Each Run counts its steps in its own context and adds them to the
// session once; runs racing on one Session must still sum exactly.
TEST(SessionParallel, ConcurrentRunsSumStepCountsExactly) {
  Graph g;
  GraphContext ctx(&g);
  Output limit = Placeholder(ctx, "n", DType::kInt32);
  std::vector<Output> outs = While(
      ctx, {Const(ctx, Tensor::ScalarInt(0)), Const(ctx, Tensor::Scalar(0.0f))},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        Output inc =
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))});
        Output acc = Op(ctx, "Add", {args[1], Op(ctx, "Tanh", {args[1]})});
        return std::vector<Output>{inc, acc};
      });
  const std::map<std::string, RuntimeValue> feeds = {
      {"n", Tensor::ScalarInt(5)}};

  Session session(&g);
  (void)session.Run(feeds, outs);
  const int64_t nodes0 = session.stats().nodes_executed;
  const int64_t kernels0 = session.stats().kernel_invocations;
  (void)session.Run(feeds, outs);
  const int64_t nodes_per_run = session.stats().nodes_executed - nodes0;
  const int64_t kernels_per_run =
      session.stats().kernel_invocations - kernels0;
  ASSERT_GT(kernels_per_run, 0);

  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 25;
  const int64_t nodes1 = session.stats().nodes_executed;
  const int64_t kernels1 = session.stats().kernel_invocations;
  const int64_t runs1 = session.stats().runs;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::RunOptions opts = ParallelOptions(t % 4);
      for (int r = 0; r < kRunsPerThread; ++r) {
        (void)session.Run(feeds, outs, &opts);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  constexpr int64_t kRuns = kThreads * kRunsPerThread;
  EXPECT_EQ(session.stats().runs - runs1, kRuns);
  EXPECT_EQ(session.stats().nodes_executed - nodes1, kRuns * nodes_per_run);
  EXPECT_EQ(session.stats().kernel_invocations - kernels1,
            kRuns * kernels_per_run);
}

TEST(SessionParallel, ConcurrentVariableWritesStayConsistent) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output assigned = Assign(ctx, "shared", x);

  Session session(&g);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::RunOptions opts = ParallelOptions(t % 2 == 0 ? 0 : 2);
      for (int r = 0; r < 10; ++r) {
        (void)session.Run(
            {{"x", Tensor::Scalar(static_cast<float>(t))}}, {assigned},
            &opts);
        // Reads interleave with other threads' writes; they must
        // always observe some fully-written value.
        const float v = session.GetVariable("shared").scalar();
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, static_cast<float>(kThreads));
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(SessionParallel, ThreadingKnobsDoNotEnableInstrumentation) {
  obs::RunOptions opts = ParallelOptions(4, 4);
  EXPECT_FALSE(opts.enabled());

  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "Mul", {x, Const(ctx, Tensor::Scalar(3.0f))});
  Session session(&g);
  obs::RunMetadata meta;
  EXPECT_FLOAT_EQ(
      session.RunTensor({{"x", Tensor::Scalar(2.0f)}}, y, &opts, &meta)
          .scalar(),
      6.0f);
  EXPECT_EQ(meta.runs, 0);  // no instrumentation was recorded
}

TEST(SessionParallel, StepStatsMatchSequentialEngine) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output sum = BuildFanOut(ctx, x);
  Session session(&g);

  obs::RunOptions seq_opts;  // step_stats on, sequential engine
  obs::RunMetadata seq_meta;
  (void)session.RunTensor({{"x", Tensor::Scalar(1.0f)}}, sum, &seq_opts,
                          &seq_meta);

  obs::RunOptions par_opts;
  par_opts.inter_op_threads = 4;
  obs::RunMetadata par_meta;
  (void)session.RunTensor({{"x", Tensor::Scalar(1.0f)}}, sum, &par_opts,
                          &par_meta);

  EXPECT_EQ(par_meta.step_stats.TotalNodeExecutions(),
            seq_meta.step_stats.TotalNodeExecutions());
}

// ---------------------------------------------------------------------
// Cancellation, deadlines, runaway-loop guards

// A While loop that counts to INT32_MAX — practically infinite at
// kernel-dispatch speed, so only a deadline, a cancel, or the
// max_while_iterations guard can end the run in test time.
std::vector<Output> BuildEndlessWhile(GraphContext& ctx) {
  Output i0 = Const(ctx, Tensor::ScalarInt(0));
  Output limit =
      Const(ctx, Tensor::ScalarInt(std::numeric_limits<int32_t>::max()));
  return While(
      ctx, {i0},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        return std::vector<Output>{
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))})};
      });
}

TEST(Cancellation, TokenLifecycle) {
  runtime::CancellationToken none;
  EXPECT_FALSE(none.IsCancelled());
  EXPECT_EQ(none.reason(), "");

  runtime::CancellationSource source;
  runtime::CancellationToken token = source.token();
  EXPECT_FALSE(source.IsCancelled());
  EXPECT_FALSE(token.IsCancelled());
  source.Cancel("first");
  source.Cancel("second");  // first reason wins
  EXPECT_TRUE(source.IsCancelled());
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_EQ(token.reason(), "first");
  // Tokens minted after the cancel observe it too.
  EXPECT_TRUE(source.token().IsCancelled());
}

TEST(Cancellation, DeadlineFiresMidWhileInBothEngines) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<Output> outs = BuildEndlessWhile(ctx);

  Session session(&g);
  for (int inter : {0, 2}) {
    obs::RunOptions opts = ParallelOptions(inter);
    opts.deadline_ms = 50;
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)session.Run({}, outs, &opts);
      FAIL() << "expected the deadline to interrupt the run";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << e.what();
      // Structured message: names the While node and the deadline.
      EXPECT_NE(e.message().find("deadline"), std::string::npos)
          << e.message();
      EXPECT_NE(e.message().find(outs[0].node->name()), std::string::npos)
          << e.message();
      EXPECT_NE(e.message().find("iteration"), std::string::npos)
          << e.message();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(5)) << "inter=" << inter;
  }
}

TEST(Cancellation, ExternalCancelFromAnotherThread) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<Output> outs = BuildEndlessWhile(ctx);

  Session session(&g);
  for (int inter : {0, 2}) {
    runtime::CancellationSource source;
    runtime::CancellationToken token = source.token();
    obs::RunOptions opts = ParallelOptions(inter);
    opts.cancel_token = &token;
    std::thread killer([&source] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      source.Cancel("user abort");
    });
    try {
      (void)session.Run({}, outs, &opts);
      ADD_FAILURE() << "expected the external cancel to interrupt the run";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
      EXPECT_NE(e.message().find("user abort"), std::string::npos)
          << e.message();
    }
    killer.join();
  }
}

TEST(Cancellation, FaultInjectedCancelAtEveryKernelIndex) {
  // Small plan with a handful of kernels; inject the cancel after every
  // kernel count 0..N and check each outcome. Once some count lets the
  // run complete, every larger count must too.
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output v = x;
  for (int i = 0; i < 4; ++i) v = Op(ctx, "Tanh", {v});

  Session session(&g);
  for (int inter : {0, 2}) {
    bool completed = false;
    int64_t first_completed = -1;
    for (int64_t inject = 0; inject <= 16; ++inject) {
      obs::RunOptions opts = ParallelOptions(inter);
      opts.inject_cancel_after_kernels = inject;
      try {
        (void)session.RunTensor({{"x", Tensor::Scalar(0.5f)}}, v, &opts);
        if (!completed) first_completed = inject;
        completed = true;
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
        EXPECT_NE(e.message().find("fault injection"), std::string::npos)
            << e.message();
        EXPECT_FALSE(completed)
            << "run failed at inject=" << inject
            << " after completing at inject=" << first_completed;
      }
    }
    EXPECT_TRUE(completed) << "inter=" << inter;
    EXPECT_GT(first_completed, 0) << "inter=" << inter
                                  << ": inject=0 should cancel before "
                                     "any kernel runs";
  }
}

// A run that is cancelled or fails still adds every step it began to
// the session's counts, in both engines.
TEST(Cancellation, CancelledAndFailedRunsFoldExactStepCounts) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output v = x;
  for (int i = 0; i < 4; ++i) v = Op(ctx, "Tanh", {v});
  Output check = Op(ctx, "Assert",
                    {Op(ctx, "Less", {v, Const(ctx, Tensor::Scalar(0.0f))})},
                    {{"message", std::string("not negative")}});

  Session session(&g);
  for (int inter : {0, 2}) {
    SCOPED_TRACE("inter " + std::to_string(inter));
    // Cancelled before kernel `inject` + 1 of the Tanh chain: the
    // Placeholder, `inject` kernels and the refused step were begun.
    for (int64_t inject = 0; inject < 4; ++inject) {
      obs::RunOptions opts = ParallelOptions(inter);
      opts.inject_cancel_after_kernels = inject;
      const int64_t nodes0 = session.stats().nodes_executed;
      const int64_t kernels0 = session.stats().kernel_invocations;
      const int64_t runs0 = session.stats().runs;
      EXPECT_THROW((void)session.RunTensor({{"x", Tensor::Scalar(0.5f)}}, v,
                                           &opts),
                   Error);
      EXPECT_EQ(session.stats().nodes_executed - nodes0, inject + 2);
      EXPECT_EQ(session.stats().kernel_invocations - kernels0, inject);
      EXPECT_EQ(session.stats().runs - runs0, 1);
    }
    // A failing Assert is the last step, so the failed run began every
    // step the passing run did.
    obs::RunOptions opts = ParallelOptions(inter);
    int64_t counts[2][2] = {};
    for (const float sign : {-1.0f, 1.0f}) {
      const int64_t nodes0 = session.stats().nodes_executed;
      const int64_t kernels0 = session.stats().kernel_invocations;
      try {
        (void)session.Run({{"x", Tensor::Scalar(sign)}}, {check}, &opts);
        EXPECT_LT(sign, 0.0f);
      } catch (const Error& e) {
        EXPECT_GT(sign, 0.0f) << e.what();
      }
      counts[sign > 0][0] = session.stats().nodes_executed - nodes0;
      counts[sign > 0][1] = session.stats().kernel_invocations - kernels0;
    }
    EXPECT_EQ(counts[0][0], 8);  // Placeholder, 4 Tanh, Const, Less, Assert
    EXPECT_EQ(counts[1][0], counts[0][0]);
    EXPECT_EQ(counts[1][1], counts[0][1]);
  }
}

TEST(Cancellation, SessionStaysUsableAfterCancelledRun) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output assigned = Assign(ctx, "state", x);
  std::vector<Output> endless = BuildEndlessWhile(ctx);

  Session session(&g);
  for (int inter : {0, 2}) {
    obs::RunOptions opts = ParallelOptions(inter);
    // Seed the variable, then let a deadline kill an endless run.
    (void)session.Run({{"x", Tensor::Scalar(41.0f)}}, {assigned}, &opts);
    opts.deadline_ms = 50;
    EXPECT_THROW((void)session.Run({}, endless, &opts), Error);
    // Graceful degradation: variables and the plan cache survive, and
    // the same Session completes an un-deadlined run.
    EXPECT_FLOAT_EQ(session.GetVariable("state").scalar(), 41.0f);
    obs::RunOptions clean = ParallelOptions(inter);
    auto results =
        session.Run({{"x", Tensor::Scalar(7.0f)}}, {assigned}, &clean);
    EXPECT_FLOAT_EQ(AsTensor(results[0]).scalar(), 7.0f);
    EXPECT_FLOAT_EQ(session.GetVariable("state").scalar(), 7.0f);
  }
}

TEST(Cancellation, MaxWhileIterationsGuardInBothEngines) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<Output> outs = BuildEndlessWhile(ctx);

  Session session(&g);
  for (int inter : {0, 2}) {
    obs::RunOptions opts = ParallelOptions(inter);
    opts.max_while_iterations = 100;
    try {
      (void)session.Run({}, outs, &opts);
      FAIL() << "expected the iteration guard to fire";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kRuntime) << e.what();
      EXPECT_NE(e.message().find("max_while_iterations"), std::string::npos)
          << e.message();
      EXPECT_NE(e.message().find(outs[0].node->name()), std::string::npos)
          << e.message();
      EXPECT_NE(e.message().find("100"), std::string::npos) << e.message();
    }
  }
}

TEST(Cancellation, MaxWhileIterationsBoundExcludesCleanTermination) {
  // TF's maximum_iterations semantics boundary case: a While that
  // terminates cleanly in exactly N body executions must not trip a
  // bound of N (the guard fires only when the condition is still true
  // at the bound), in both engines.
  Graph g;
  GraphContext ctx(&g);
  Output i0 = Const(ctx, Tensor::ScalarInt(0));
  Output limit = Const(ctx, Tensor::ScalarInt(10));
  std::vector<Output> outs = While(
      ctx, {i0},
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        return std::vector<Output>{
            Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))})};
      });

  Session session(&g);
  for (int inter : {0, 2}) {
    obs::RunOptions opts = ParallelOptions(inter);
    opts.max_while_iterations = 10;  // exactly the loop's trip count
    auto results = session.Run({}, outs, &opts);
    EXPECT_EQ(AsTensor(results[0]).scalar_int(), 10) << "inter=" << inter;
    opts.max_while_iterations = 9;  // one short: the guard must fire
    EXPECT_THROW((void)session.Run({}, outs, &opts), Error)
        << "inter=" << inter;
  }
}

TEST(Cancellation, InterruptOutcomeRecordedInRunMetadata) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<Output> outs = BuildEndlessWhile(ctx);

  Session session(&g);
  obs::RunOptions opts;  // step_stats on: instrumented run
  opts.deadline_ms = 50;
  obs::RunMetadata meta;
  EXPECT_THROW((void)session.Run({}, outs, &opts, &meta), Error);
  EXPECT_EQ(meta.runs, 1);
  EXPECT_EQ(meta.interrupted_runs, 1);
  EXPECT_EQ(meta.interrupt_kind, "deadline_exceeded");
  EXPECT_GE(meta.unwind_ns, 0);
  EXPECT_NE(meta.DebugString().find("interrupted"), std::string::npos);
}

TEST(Cancellation, ParallelForShardsObserveThreadCancelCheck) {
  runtime::CancellationSource source;
  runtime::CancellationToken token = source.token();
  source.Cancel("shard stop");
  runtime::CancelCheck check(&token, /*deadline_ms=*/0);
  runtime::CancelCheckScope scope(&check);
  runtime::IntraOpScope intra(4);
  try {
    runtime::ParallelFor(1000, 10, [](int64_t, int64_t) {});
    FAIL() << "expected the sharded loop to observe the cancel";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
    EXPECT_NE(e.message().find("shard stop"), std::string::npos)
        << e.message();
  }
}

// ---------------------------------------------------------------------
// Absolute deadlines (RunOptions::deadline_ns)

// Regression: deadline_ms is *relative* — it re-arms at every Run()
// entry, so a retry loop re-passing it grants each attempt a fresh
// budget. deadline_ns is stamped once, before the loop, and every
// attempt is charged against the same instant: attempt 1 consumes the
// budget, attempts 2..N must fail in microseconds, not deadline_ms
// each.
TEST(AbsoluteDeadline, RetriesShareOneWallBudget) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<Output> outs = BuildEndlessWhile(ctx);

  Session session(&g);
  for (int inter : {0, 2}) {
    constexpr int64_t kBudgetMs = 150;
    obs::RunOptions opts = ParallelOptions(inter);
    opts.deadline_ns = obs::NowNs() + kBudgetMs * 1000000;

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::chrono::milliseconds> attempt_ms;
    for (int attempt = 0; attempt < 3; ++attempt) {
      const auto attempt_start = std::chrono::steady_clock::now();
      try {
        (void)session.Run({}, outs, &opts);
        FAIL() << "endless loop cannot complete";
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << e.what();
      }
      attempt_ms.push_back(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - attempt_start));
    }
    const auto total = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    // With the relative-deadline bug each attempt burned a full budget
    // (~3x kBudgetMs total). Shared absolute budget: attempts after the
    // first fail at the Run-entry admission poll, long before a fresh
    // budget would elapse. Generous slack for CI-loaded machines.
    EXPECT_LT(attempt_ms[1].count(), kBudgetMs) << "inter=" << inter;
    EXPECT_LT(attempt_ms[2].count(), kBudgetMs) << "inter=" << inter;
    EXPECT_LT(total.count(), 3 * kBudgetMs) << "inter=" << inter;
  }
}

// A Run() entered with its absolute deadline already in the past fails
// at the entry admission poll — before any kernel executes.
TEST(AbsoluteDeadline, PreExpiredRunFailsBeforeAnyKernel) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output assigned = Assign(ctx, "touched", x);

  Session session(&g);
  for (int inter : {0, 2}) {
    obs::RunOptions opts = ParallelOptions(inter);
    opts.deadline_ns = obs::NowNs() - 1;  // already expired
    try {
      (void)session.Run({{"x", Tensor::Scalar(1.0f)}}, {assigned}, &opts);
      FAIL() << "expected the pre-expired deadline to reject the run";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << e.what();
    }
    // The variable assignment never executed: no kernel ran.
    EXPECT_FALSE(session.HasVariable("touched")) << "inter=" << inter;
  }
}

// Regression: deadline polls used to start only once kernels began
// executing, so plan-compile time (and anything else between Run()
// entry and the first kernel) was invisible to the deadline. With the
// injected compile delay the deadline passes *during* the cold
// first-compile; the post-compile poll must fire before any kernel.
TEST(AbsoluteDeadline, FiresWhenCompileTimeConsumesBudget) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output assigned = Assign(ctx, "compiled", x);

  Session session(&g);  // fresh: the plan cache is cold
  obs::RunOptions opts = ParallelOptions(2);
  opts.deadline_ns = obs::NowNs() + 20 * 1000000;  // 20 ms budget
  opts.inject_compile_delay_ms = 200;              // compile takes 200 ms
  try {
    (void)session.Run({{"x", Tensor::Scalar(1.0f)}}, {assigned}, &opts);
    FAIL() << "expected the deadline to fire during the slow compile";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << e.what();
  }
  EXPECT_FALSE(session.HasVariable("compiled"));

  // Same session, warm cache, same budget: completes easily — the
  // expired run left the compiled plan behind and the session usable.
  obs::RunOptions warm = ParallelOptions(2);
  warm.deadline_ns = obs::NowNs() + 5000 * 1000000LL;
  warm.inject_compile_delay_ms = 200;  // no cold compile, so no delay
  auto results =
      session.Run({{"x", Tensor::Scalar(9.0f)}}, {assigned}, &warm);
  EXPECT_FLOAT_EQ(AsTensor(results[0]).scalar(), 9.0f);
}

// When both deadline fields are set, the earlier effective instant
// wins.
TEST(AbsoluteDeadline, EarlierOfBothDeadlineFieldsWins) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<Output> outs = BuildEndlessWhile(ctx);

  Session session(&g);
  // Generous relative budget, tiny absolute budget: absolute wins.
  obs::RunOptions opts = ParallelOptions(0);
  opts.deadline_ms = 60000;
  opts.deadline_ns = obs::NowNs() + 50 * 1000000;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)session.Run({}, outs, &opts), Error);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
}

// ---------------------------------------------------------------------
// Hierarchical cancellation

TEST(Cancellation, ParentCancelFansOutToChildren) {
  runtime::CancellationSource server;
  runtime::CancellationSource connection(server.token());
  runtime::CancellationSource request_a(connection.token());
  runtime::CancellationSource request_b(connection.token());

  EXPECT_FALSE(request_a.IsCancelled());
  EXPECT_FALSE(request_b.IsCancelled());

  connection.Cancel("client disconnected");
  // Both requests observe the connection-level cancel, with its reason.
  EXPECT_TRUE(request_a.token().IsCancelled());
  EXPECT_TRUE(request_b.token().IsCancelled());
  EXPECT_EQ(request_a.token().reason(), "client disconnected");
  // The fan-out never travels upward.
  EXPECT_FALSE(server.IsCancelled());
}

TEST(Cancellation, ChildCancelDoesNotAffectParentOrSiblings) {
  runtime::CancellationSource parent;
  runtime::CancellationSource child_a(parent.token());
  runtime::CancellationSource child_b(parent.token());

  child_a.Cancel("only a");
  EXPECT_TRUE(child_a.IsCancelled());
  EXPECT_FALSE(parent.IsCancelled());
  EXPECT_FALSE(child_b.IsCancelled());
  // The nearest cancelled state's reason wins on the child itself.
  EXPECT_EQ(child_a.token().reason(), "only a");

  // Cancelling the parent afterwards reaches the untouched sibling and
  // leaves child_a's own (earlier, nearer) reason in place.
  parent.Cancel("root teardown");
  EXPECT_TRUE(child_b.IsCancelled());
  EXPECT_EQ(child_b.token().reason(), "root teardown");
  EXPECT_EQ(child_a.token().reason(), "only a");
}

TEST(Cancellation, ChildTokenInterruptsARun) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<Output> outs = BuildEndlessWhile(ctx);

  Session session(&g);
  runtime::CancellationSource connection;
  runtime::CancellationSource request(connection.token());
  runtime::CancellationToken token = request.token();
  obs::RunOptions opts = ParallelOptions(2);
  opts.cancel_token = &token;
  // Cancel the *parent*: the run polls only the child's token, and must
  // still observe the fan-out.
  std::thread killer([&connection] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    connection.Cancel("connection dropped");
  });
  try {
    (void)session.Run({}, outs, &opts);
    ADD_FAILURE() << "expected the parent cancel to interrupt the run";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
    EXPECT_NE(e.message().find("connection dropped"), std::string::npos)
        << e.message();
  }
  killer.join();
}

// ---------------------------------------------------------------------
// ThreadPool helper leases

TEST(ThreadPool, HelperLeasesHonorTheCap) {
  runtime::ThreadPool* pool = runtime::ThreadPool::Shared();
  pool->SetLentHelperCapForTesting(4);
  EXPECT_EQ(pool->lent_helper_cap(), 4);
  EXPECT_EQ(pool->lent_helpers(), 0);

  EXPECT_EQ(pool->TryLendHelpers(10), 4);  // clamped to the cap
  EXPECT_EQ(pool->TryLendHelpers(1), 0);   // exhausted
  pool->ReturnHelpers(2);
  EXPECT_EQ(pool->TryLendHelpers(3), 2);   // partial re-grant
  pool->ReturnHelpers(4);
  EXPECT_EQ(pool->lent_helpers(), 0);

  pool->SetLentHelperCapForTesting(0);  // restore the hardware default
  EXPECT_GE(pool->lent_helper_cap(), 1);
  EXPECT_LE(pool->lent_helper_cap(), runtime::ThreadPool::kMaxWorkers);
}

// Regression: before helper leasing, every concurrent sharded run asked
// EnsureWorkers for its own full thread budget, so 32 concurrent Runs
// on a small machine grew the shared pool toward the 64-worker cap and
// oversubscribed the host. Leases bound *total* helpers across all
// concurrent runs by the cap, no matter how many runs race.
TEST(ThreadPool, ConcurrentShardedRunsShareBoundedHelpers) {
  runtime::ThreadPool* pool = runtime::ThreadPool::Shared();
  constexpr int kCap = 3;
  pool->SetLentHelperCapForTesting(kCap);
  pool->ResetLentHelpersPeak();

  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "MatMul", {x, x});

  Session session(&g);
  const Tensor a = Tensor::Full(Shape({64, 64}), 0.25f);
  const Tensor expected =
      AsTensor(session.Run({{"x", a}}, {y})[0]);  // sequential reference

  constexpr int kRuns = 32;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kRuns);
  for (int t = 0; t < kRuns; ++t) {
    threads.emplace_back([&] {
      // Each run demands an 8-thread intra-op budget — 32x8 wants far
      // more helpers than the cap allows.
      obs::RunOptions opts = ParallelOptions(0, 8);
      auto out = session.Run({{"x", a}}, {y}, &opts);
      const Tensor& got = AsTensor(out[0]);
      if (std::memcmp(got.data(), expected.data(),
                      sizeof(float) *
                          static_cast<size_t>(expected.num_elements())) !=
          0) {
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // The whole storm never had more than kCap helpers out at once.
  EXPECT_LE(pool->lent_helpers_peak(), kCap);
  // Every lease comes back; a helper task scheduled late may still be
  // between its (empty) drain and its ReturnHelpers, so wait briefly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool->lent_helpers() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool->lent_helpers(), 0);
  pool->SetLentHelperCapForTesting(0);
}

// ---------------------------------------------------------------------
// Counter-based random streams

TEST(RandomStreams, BitIdenticalAcrossEngines) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<int> shape{8, 8};
  Output r = Op(ctx, "RandomNormal", {}, {{"shape", shape}});
  Output u = Op(ctx, "RandomUniform", {}, {{"shape", shape}});

  // Fresh sessions so both start at invocation index 0.
  Session seq_session(&g);
  auto seq = seq_session.Run({}, {r, u});

  Session par_session(&g);
  obs::RunOptions opts = ParallelOptions(4);
  auto par = par_session.Run({}, {r, u}, &opts);

  ExpectBitIdentical(AsTensor(seq[0]), AsTensor(par[0]));
  ExpectBitIdentical(AsTensor(seq[1]), AsTensor(par[1]));
}

TEST(RandomStreams, SuccessiveRunsDrawFreshValues) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<int> shape{16};
  Output r = Op(ctx, "RandomNormal", {}, {{"shape", shape}});
  Session session(&g);
  const Tensor first = session.RunTensor({}, r);
  const Tensor second = session.RunTensor({}, r);
  EXPECT_NE(std::memcmp(first.data(), second.data(),
                        sizeof(float) * static_cast<size_t>(
                                            first.num_elements())),
            0);
}

TEST(RandomStreams, DistinctNodesDrawDistinctStreams) {
  Graph g;
  GraphContext ctx(&g);
  std::vector<int> shape{16};
  Output r1 = Op(ctx, "RandomNormal", {}, {{"shape", shape}});
  Output r2 = Op(ctx, "RandomNormal", {}, {{"shape", shape}});
  Session session(&g);
  auto results = session.Run({}, {r1, r2});
  EXPECT_NE(std::memcmp(AsTensor(results[0]).data(),
                        AsTensor(results[1]).data(),
                        sizeof(float) * 16),
            0);
}

// ---------------------------------------------------------------------
// Paper workloads: parallel must be bit-identical to sequential

TEST(WorkloadParity, DynamicRnn) {
  workloads::RnnConfig config;
  config.batch = 2;
  config.seq_len = 4;
  config.input_size = 3;
  config.hidden = 4;
  workloads::RnnInputs inputs = workloads::MakeRnnInputs(config);

  core::AutoGraph agc;
  workloads::InstallRnn(agc, inputs);
  core::StagedFunction staged = agc.Stage(
      "dynamic_rnn",
      {core::StageArg::Placeholder("input_data"),
       core::StageArg::Placeholder("initial_state"),
       core::StageArg::Placeholder("sequence_len", DType::kInt32)});

  const std::vector<RuntimeValue> feeds{
      inputs.input_data, inputs.initial_state, inputs.sequence_len};
  auto seq = staged.Run(feeds);
  obs::RunOptions opts = ParallelOptions(4, 2);
  auto par = staged.Run(feeds, &opts);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ExpectBitIdentical(AsTensor(seq[i]), AsTensor(par[i]));
  }
}

TEST(WorkloadParity, InGraphTraining) {
  workloads::MnistConfig config;
  config.batch = 16;
  config.features = 10;
  config.classes = 4;
  config.steps = 10;
  workloads::MnistData data = workloads::MakeMnistData(config);

  core::StagedFunction hand =
      workloads::BuildHandwrittenTrainingGraph(config);
  const std::vector<RuntimeValue> feeds{data.images, data.labels, data.w0,
                                        data.b0};
  auto seq = hand.Run(feeds);
  obs::RunOptions opts = ParallelOptions(4, 2);
  auto par = hand.Run(feeds, &opts);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ExpectBitIdentical(AsTensor(seq[i]), AsTensor(par[i]));
  }
}

TEST(WorkloadParity, BeamSearch) {
  workloads::BeamConfig config;
  config.beam = 4;
  config.vocab = 32;
  config.hidden = 16;
  config.max_len = 12;
  workloads::BeamInputs inputs = workloads::MakeBeamInputs(config);

  core::AutoGraph agc;
  workloads::InstallBeamSearch(agc, config, inputs);
  core::StagedFunction staged = agc.Stage(
      "beam_search",
      {core::StageArg::Placeholder("state"),
       core::StageArg::Placeholder("scores"),
       core::StageArg::Placeholder("tokens", DType::kInt32)});

  const std::vector<RuntimeValue> feeds{inputs.init_state,
                                        inputs.init_scores,
                                        inputs.init_tokens};
  auto seq = staged.Run(feeds);
  obs::RunOptions opts = ParallelOptions(4, 2);
  auto par = staged.Run(feeds, &opts);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ExpectBitIdentical(AsTensor(seq[i]), AsTensor(par[i]));
  }
}

// ---------------------------------------------------------------------
// Observability: named thread lanes

TEST(ThreadNames, RegistryRoundTrips) {
  obs::SetCurrentThreadName("runtime-test-main");
  EXPECT_EQ(obs::ThreadName(obs::CurrentThreadId()), "runtime-test-main");
  EXPECT_EQ(obs::ThreadName(~0ULL), "");  // unknown tid has no name
}

TEST(ThreadNames, ChromeTraceEmitsThreadNameRows) {
  obs::SetCurrentThreadName("runtime-test-main");

  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output sum = BuildFanOut(ctx, x);
  Session session(&g);
  obs::RunOptions opts;
  opts.trace = true;
  opts.inter_op_threads = 2;
  obs::RunMetadata meta;
  (void)session.RunTensor({{"x", Tensor::Scalar(1.0f)}}, sum, &opts, &meta);

  const std::string json = obs::ToChromeTraceJson(meta.trace_events);
  std::string error;
  int num_events = 0;
  ASSERT_TRUE(obs::ValidateChromeTraceJson(json, &error, &num_events))
      << error;
  EXPECT_GT(num_events, 0);
  // The caller thread always emits at least the Session::Run span, and
  // it is named, so a thread_name metadata row must be present.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("runtime-test-main"), std::string::npos);
}

}  // namespace
}  // namespace ag
