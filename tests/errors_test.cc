// Tests for the three error classes of Appendix B — conversion errors,
// staging errors, and runtime errors — and for error *rewriting*: frames
// must point at the user's original source lines even though execution
// runs converted (generated) code.
#include <gtest/gtest.h>

#include <chrono>

#include "core/api.h"

namespace ag::core {
namespace {

TEST(Errors, ConversionErrorForUnsupportedIdiom) {
  // Slice assignment to a computed (non-variable) target is legal-looking
  // PyMini that conversion rejects.
  AutoGraph agc;
  agc.LoadSource("def f(a, i, y):\n  g(a)[i] = y\n  return a\n");
  try {
    (void)agc.ConvertedSource("f");
    FAIL() << "expected conversion error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kConversion);
  }
}

TEST(Errors, StagingErrorForUnstagedDataDependentControlFlow) {
  // Data-dependent control flow reaching UNCONVERTED code while staging
  // is the classic staging error.
  AutoGraph agc;
  agc.LoadSource(R"(
def f(x):
  if x > 0:
    return x
  return -x
)");
  // Build a graph context but call the *unconverted* function.
  auto graph = std::make_shared<graph::Graph>();
  graph::GraphContext ctx(graph.get());
  agc.interpreter().set_graph_ctx(&ctx);
  graph::Output ph = graph::Placeholder(ctx, "x", DType::kFloat32);
  try {
    (void)agc.interpreter().CallCallable(agc.GetGlobal("f"),
                                         {Value(ph)});
    FAIL() << "expected staging error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kStaging);
    EXPECT_NE(e.message().find("AutoGraph"), std::string::npos);
  }
  agc.interpreter().set_graph_ctx(nullptr);
}

TEST(Errors, StagingErrorForInconsistentBranches) {
  // One branch defines the variable, the other leaves it undefined —
  // Appendix E: "all code paths must produce consistent value".
  AutoGraph agc;
  agc.LoadSource(R"(
def f(x):
  if x > 0:
    y = x
  return y
)");
  try {
    (void)agc.Stage("f", {StageArg::Placeholder("x")});
    FAIL() << "expected staging error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kStaging);
    EXPECT_NE(e.message().find("'y'"), std::string::npos) << e.message();
  }
}

TEST(Errors, StagingErrorForUninitializedLoopVariable) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(n):
  i = tf.constant(0)
  while i < n:
    acc = i
    i = i + 1
  return acc
)");
  try {
    (void)agc.Stage("f", {StageArg::Placeholder("n", DType::kInt32)});
    FAIL() << "expected staging error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kStaging);
    EXPECT_NE(e.message().find("'acc'"), std::string::npos) << e.message();
  }
}

TEST(Errors, RuntimeErrorsRewrittenToOriginalSource) {
  // The paper's Appendix B example: division by zero in graph execution.
  // The error trace must reference the user's file/line via the source
  // map, not only generated code.
  AutoGraph agc;
  agc.LoadSource(R"(
def f(n):
  x = tf.constant(10.0)
  while n > 0:
    x = x / n
    n = n - 1
  return x
)",
                 "user_code.py");
  // Eager: runtime error frames point into user_code.py.
  try {
    Value bad = agc.CallEager(
        "f", {Value(Tensor::FromVector({1, 2}, Shape({2})))});
    (void)bad;
    FAIL() << "expected error";
  } catch (const Error& e) {
    bool has_user_frame = false;
    for (const SourceFrame& frame : e.frames()) {
      if (frame.location.filename == "user_code.py") has_user_frame = true;
    }
    EXPECT_TRUE(has_user_frame) << e.what();
  }
}

TEST(Errors, ConvertedCodeFramesPointToOriginalLines) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(l):
  v = l.pop()
  return v
)",
                 "user_code.py");
  FunctionPtr converted =
      agc.interpreter().ConvertFunctionValue(agc.GetGlobal("f").AsFunction());
  try {
    // pop from empty list raises inside the *converted* body.
    (void)agc.interpreter().CallFunctionValue(converted, {MakeList({})});
    FAIL() << "expected error";
  } catch (const Error& e) {
    ASSERT_FALSE(e.frames().empty());
    bool points_to_user_line3 = false;
    for (const SourceFrame& frame : e.frames()) {
      if (frame.location.filename == "user_code.py" &&
          frame.location.line == 3) {
        points_to_user_line3 = true;
      }
    }
    EXPECT_TRUE(points_to_user_line3) << e.what();
  }
}

TEST(Errors, AssertRaisesEagerlyAndStagesToAssertNode) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(x):
  assert x > 0, 'x must be positive'
  return x * 2
)");
  // Eager failure carries the message.
  try {
    (void)agc.CallEager("f", {Value(int64_t{-1})});
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(e.message().find("assert"), std::string::npos);
  }
  // Staged: the assert becomes a graph node that fires at run time.
  StagedFunction staged = agc.Stage("f", {StageArg::Placeholder("x")});
  EXPECT_FLOAT_EQ(staged.Run1({Tensor::Scalar(2.0f)}).scalar(), 4.0f);
}

TEST(Errors, ErrorKindNamesRendered) {
  Error e(ErrorKind::kStaging, "boom");
  EXPECT_NE(std::string(e.what()).find("StagingError: boom"),
            std::string::npos);
  SourceFrame frame;
  frame.function_name = "fn";
  frame.location = SourceLocation{"file.py", 7, 2};
  Error with = e.WithFrame(frame);
  EXPECT_NE(std::string(with.what()).find("file.py:7"), std::string::npos);
  EXPECT_EQ(with.frames().size(), 1u);
  EXPECT_EQ(e.frames().size(), 0u);  // original untouched
}

TEST(Errors, InterruptionErrorKindsRendered) {
  Error cancelled = CancelledError("stopped by token");
  EXPECT_EQ(cancelled.kind(), ErrorKind::kCancelled);
  EXPECT_NE(std::string(cancelled.what())
                .find("CancelledError: stopped by token"),
            std::string::npos);
  Error deadline = DeadlineExceededError("50 ms budget spent");
  EXPECT_EQ(deadline.kind(), ErrorKind::kDeadlineExceeded);
  EXPECT_NE(std::string(deadline.what())
                .find("DeadlineExceededError: 50 ms budget spent"),
            std::string::npos);
}

TEST(Errors, EagerWhileLoopHonorsDeadline) {
  // The eager interpreter polls the run's CancelCheck once per while
  // iteration, so even unstaged runaway loops are interruptible.
  AutoGraph agc;
  agc.LoadSource(R"(
def f(n):
  while n > 0:
    n = n + 1
  return n
)");
  obs::RunOptions opts;
  opts.deadline_ms = 50;
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)agc.CallEager("f", {Value(int64_t{1})}, &opts);
    FAIL() << "expected the deadline to interrupt the eager loop";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << e.what();
    EXPECT_NE(e.message().find("eager while loop"), std::string::npos)
        << e.message();
    EXPECT_NE(e.message().find("iteration"), std::string::npos)
        << e.message();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
}

TEST(Errors, EagerDeadlineRecordsInterruptInMetadata) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(n):
  while n > 0:
    n = n + 1
  return n
)");
  obs::RunOptions opts;
  opts.deadline_ms = 50;
  obs::RunMetadata meta;
  EXPECT_THROW((void)agc.CallEager("f", {Value(int64_t{1})}, &opts, &meta),
               Error);
  EXPECT_EQ(meta.runs, 1);
  EXPECT_EQ(meta.interrupted_runs, 1);
  EXPECT_EQ(meta.interrupt_kind, "deadline_exceeded");
}

// The StagedFunction::Run wrapper must merge the interrupt record into
// the caller's metadata even though the session throws mid-merge path.
TEST(Errors, StagedRunPropagatesInterruptMetadata) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(n):
  while n > 0:
    n = n + 1
  return n
)");
  StagedFunction staged = agc.Stage("f", {StageArg::Placeholder("n")});
  obs::RunOptions opts;
  opts.deadline_ms = 50;
  obs::RunMetadata meta;
  EXPECT_THROW(
      (void)staged.Run({exec::RuntimeValue(Tensor::Scalar(1.0f))}, &opts,
                       &meta),
      Error);
  EXPECT_EQ(meta.runs, 1);
  EXPECT_EQ(meta.interrupted_runs, 1);
  EXPECT_EQ(meta.interrupt_kind, "deadline_exceeded");
  EXPECT_GE(staged.metadata.interrupted_runs, 1);
}

// step_stats=false is the documented parallel-but-unprofiled config;
// the staged wrapper must still forward the interruption knobs to the
// session instead of taking the bare fast path.
TEST(Errors, StagedUnprofiledRunStillHonorsDeadline) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(n):
  while n > 0:
    n = n + 1
  return n
)");
  StagedFunction staged = agc.Stage("f", {StageArg::Placeholder("n")});
  obs::RunOptions opts;
  opts.step_stats = false;
  opts.deadline_ms = 50;
  ASSERT_FALSE(opts.enabled());
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)staged.Run({exec::RuntimeValue(Tensor::Scalar(1.0f))}, &opts);
    FAIL() << "expected the deadline to interrupt the staged run";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
}

TEST(Errors, EagerWhileLoopHonorsMaxIterationsAlone) {
  // Only the loop bound is set: cancellable() is false, but the eager
  // engine must still install a check and stop the runaway loop.
  AutoGraph agc;
  agc.LoadSource(R"(
def f(n):
  while n > 0:
    n = n + 1
  return n
)");
  obs::RunOptions opts;
  opts.max_while_iterations = 1000;
  ASSERT_FALSE(opts.cancellable());
  try {
    (void)agc.CallEager("f", {Value(int64_t{1})}, &opts);
    FAIL() << "expected the iteration guard to fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRuntime) << e.what();
    EXPECT_NE(e.message().find("max_while_iterations"), std::string::npos)
        << e.message();
    EXPECT_NE(e.message().find("1000"), std::string::npos) << e.message();
  }
}

TEST(Errors, EagerMaxIterationsBoundExcludesCleanTermination) {
  // A loop that terminates in exactly 5 body executions is fine with a
  // bound of 5 and errors with a bound of 4.
  AutoGraph agc;
  agc.LoadSource(R"(
def g(n):
  while n > 0:
    n = n - 1
  return n
)");
  obs::RunOptions opts;
  opts.max_while_iterations = 5;
  Value out = agc.CallEager("g", {Value(int64_t{5})}, &opts);
  EXPECT_EQ(out.AsInt(), 0);
  opts.max_while_iterations = 4;
  EXPECT_THROW((void)agc.CallEager("g", {Value(int64_t{5})}, &opts), Error);
}

}  // namespace
}  // namespace ag::core
