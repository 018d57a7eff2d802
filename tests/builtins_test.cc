// The builtin table (core/builtins.h): every row runs on every backend
// with bit-identical results, every row's graph op has an op-table row
// and a kernel, and aglint's typed-builtin sets agree with the row kinds.
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/shape_infer.h"
#include "core/builtins.h"
#include "core/lantern_api.h"
#include "exec/kernels.h"
#include "graph/ops.h"

namespace ag::core {
namespace {

Tensor Floats(std::vector<float> v, Shape shape) {
  return Tensor::FromVector(std::move(v), std::move(shape));
}

// Fixed operands inside every row's domain: positive floats, bools for
// the logic ops, int32 indices and labels.
std::vector<Tensor> InputsFor(const BuiltinDef& row) {
  const std::string op = row.op;
  if (op == "LogicalAnd" || op == "LogicalOr" || op == "LogicalNot") {
    const Tensor p =
        Tensor::FromVector({1, 0, 1, 0}, Shape({4}), DType::kBool);
    const Tensor q =
        Tensor::FromVector({1, 1, 0, 0}, Shape({4}), DType::kBool);
    return row.kind() == BuiltinKind::kUnary ? std::vector<Tensor>{p}
                                             : std::vector<Tensor>{p, q};
  }
  const Tensor x = Floats({0.5f, 1.5f, 2.0f, 0.25f}, Shape({2, 2}));
  const Tensor y = Floats({1.25f, 0.5f, 2.0f, 3.0f}, Shape({2, 2}));
  if (op == "Gather") {
    return {x, Tensor::FromVector({1, 0, 1}, Shape({3}), DType::kInt32)};
  }
  if (op == "SoftmaxCrossEntropy") {  // one class label per logits row
    return {x, Tensor::FromVector({1, 0}, Shape({2}), DType::kInt32)};
  }
  if (row.kind() == BuiltinKind::kBinary) return {x, y};
  return {x};
}

// `def f(a[, b]): return <call>` over the row's operands.
std::string Source(const std::string& call, size_t arity) {
  return arity == 1 ? "def f(a):\n  return " + call + "\n"
                    : "def f(a, b):\n  return " + call + "\n";
}

std::string CallOf(const std::string& tf_name, size_t arity) {
  return "tf." + tf_name + (arity == 1 ? "(a)" : "(a, b)");
}

void ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.dtype(), actual.dtype()) << what;
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        sizeof(float) * expected.num_elements()),
            0)
      << what;
}

Tensor RunEager(const std::string& source, const std::vector<Tensor>& in) {
  AutoGraph agc;
  agc.LoadSource(source);
  std::vector<Value> args(in.begin(), in.end());
  return agc.CallEager("f", std::move(args)).AsTensor();
}

// Stages without graph passes so the row's op is the node that runs.
Tensor RunStaged(const std::string& source, const std::vector<Tensor>& in,
                 const std::string& expect_op) {
  AutoGraph agc;
  agc.LoadSource(source);
  std::vector<StageArg> args;
  std::vector<exec::RuntimeValue> feeds;
  for (size_t i = 0; i < in.size(); ++i) {
    args.push_back(StageArg::Placeholder(i == 0 ? "a" : "b", in[i].dtype()));
    feeds.emplace_back(in[i]);
  }
  StageOptions options;
  options.optimize = false;
  StagedFunction sf = agc.Stage("f", args, options);
  bool found = false;
  for (const auto& node : sf.graph->nodes()) found |= node->op() == expect_op;
  EXPECT_TRUE(found) << "no " << expect_op << " node in\n" << source;
  return sf.Run1(feeds);
}

LanternStagedFunction StageOnLantern(AutoGraph& agc, size_t arity) {
  const std::vector<LanternArg> args(arity, LanternArg::TensorParam());
  return StageLantern(agc, "f", args);
}

Tensor RunLantern(const std::string& source, const std::vector<Tensor>& in) {
  AutoGraph agc;
  agc.LoadSource(source);
  LanternStagedFunction lf = StageOnLantern(agc, in.size());
  std::vector<lantern::LValue> args(in.begin(), in.end());
  return lantern::AsTensorL(lf.Run(args));
}

void ExpectLanternUnsupported(const std::string& source, size_t arity,
                              const std::string& names) {
  AutoGraph agc;
  agc.LoadSource(source);
  try {
    (void)StageOnLantern(agc, arity);
    ADD_FAILURE() << "Lantern staged " << source;
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUnsupported) << e.what();
    EXPECT_NE(e.message().find(names), std::string::npos) << e.message();
  }
}

TEST(BuiltinTable, EveryTfNameAgreesOnEveryBackend) {
  for (const BuiltinDef& row : BuiltinTable()) {
    const std::vector<Tensor> in = InputsFor(row);
    for (std::string_view tf_name : row.tf_names) {
      if (tf_name.empty()) continue;
      const std::string source = Source(CallOf(std::string(tf_name),
                                               in.size()),
                                        in.size());
      SCOPED_TRACE(source);
      const Tensor eager = RunEager(source, in);
      ExpectBitIdentical(eager, RunStaged(source, in, row.op), "staged");
      if (row.lop) {
        ExpectBitIdentical(eager, RunLantern(source, in), "lantern");
      } else {
        ExpectLanternUnsupported(source, in.size(),
                                 "op '" + std::string(row.op) + "'");
      }
    }
  }
}

TEST(BuiltinTable, ReductionAxisAndKeepdimsAgree) {
  const Tensor x = Floats({0.5f, 1.5f, 2.0f, 0.25f, 3.0f, 1.0f},
                          Shape({2, 3}));
  for (const BuiltinDef& row : BuiltinTable()) {
    if (row.kind() != BuiltinKind::kReduction) continue;
    const std::string fn = "tf." + std::string(row.tf_names[0]);
    for (const char* args : {"(a, 1)", "(a, axis=0)",
                             "(a, axis=1, keepdims=True)"}) {
      const std::string source = Source(fn + args, 1);
      SCOPED_TRACE(source);
      ExpectBitIdentical(RunEager(source, {x}),
                         RunStaged(source, {x}, row.op), "staged");
      // Lantern's one reduction is the axis-less sum.
      ExpectLanternUnsupported(source, 1, "op '" + std::string(row.op) + "'");
    }
  }
}

// Operators reach rows with no tf name (FloorDiv, Mod, the composed
// comparisons, Neg) and must agree the same way. The staged graph must
// hold the named op, which pins each operator's row.
TEST(BuiltinTable, OperatorsAgreeOnEveryBackend) {
  struct Case {
    std::string expr;
    std::string op;
    bool on_lantern;
  };
  const std::vector<Case> cases = {
      {"a + b", "Add", true},          {"a - b", "Sub", true},
      {"a * b", "Mul", true},          {"a / b", "Div", true},
      {"a // b", "FloorDiv", false},   {"a % b", "Mod", false},
      {"a ** b", "Pow", false},        {"a < b", "Less", true},
      {"a <= b", "LessEqual", true},   {"a > b", "Greater", true},
      {"a >= b", "GreaterEqual", true}, {"a == b", "Equal", true},
      {"a != b", "NotEqual", true},
  };
  const Tensor x = Floats({0.5f, 1.5f, 2.0f, 0.25f}, Shape({4}));
  const Tensor y = Floats({1.25f, 0.5f, 2.0f, 3.0f}, Shape({4}));
  for (const Case& c : cases) {
    const std::string source = Source(c.expr, 2);
    SCOPED_TRACE(source);
    const Tensor eager = RunEager(source, {x, y});
    ExpectBitIdentical(eager, RunStaged(source, {x, y}, c.op), "staged");
    if (c.on_lantern) {
      ExpectBitIdentical(eager, RunLantern(source, {x, y}), "lantern");
    } else {
      ExpectLanternUnsupported(source, 2, "operator ");
    }
  }
  const std::string neg = Source("-a", 1);
  const Tensor eager = RunEager(neg, {x});
  ExpectBitIdentical(eager, RunStaged(neg, {x}, "Neg"), "staged");
  ExpectBitIdentical(eager, RunLantern(neg, {x}), "lantern");
  EXPECT_EQ(CompareOpRow(lang::CompareOp::kIn), nullptr);
  EXPECT_EQ(CompareOpRow(lang::CompareOp::kNotIn), nullptr);
}

TEST(BuiltinTable, EveryRowHasAnOpRowAndAKernel) {
  std::set<std::string> ops;
  std::set<std::string_view> tf_names;
  for (const BuiltinDef& row : BuiltinTable()) {
    EXPECT_TRUE(ops.insert(row.op).second) << "duplicate row " << row.op;
    EXPECT_NE(graph::FindOpDef(row.op), nullptr) << row.op;
    EXPECT_TRUE(exec::HasKernel(row.op)) << row.op;
    for (std::string_view name : row.tf_names) {
      if (!name.empty()) {
        EXPECT_TRUE(tf_names.insert(name).second) << "duplicate " << name;
      }
    }
  }
}

// Each error names the function the user called, not the row's first name.
TEST(BuiltinTable, ArityErrorNamesTheCalledFunction) {
  for (const auto& [call, message] :
       std::map<std::string, std::string>{
           {"tf.nn.tanh(1.0, 2.0)", "tf.nn.tanh() expects 1 arguments, got 2"},
           {"tf.nn.sigmoid()", "tf.nn.sigmoid() expects 1 arguments, got 0"},
           {"tf.tanh()", "tf.tanh() expects 1 arguments, got 0"},
           {"tf.add(1.0)", "tf.add() expects 2 arguments, got 1"},
           {"tf.reduce_max()", "tf.reduce_max() expects 1 or 2 arguments, "
                               "got 0"}}) {
    AutoGraph agc;
    agc.LoadSource("def f():\n  return " + call + "\n");
    try {
      (void)agc.CallEager("f", {});
      ADD_FAILURE() << call << " did not throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kValue) << call;
      EXPECT_EQ(e.message(), message) << call;
    }
  }
}

// Only reductions take keywords (axis, keepdims). Any other keyword is a
// ValueError, eager and staged, not silently dropped.
TEST(BuiltinTable, UnknownKeywordIsAValueError) {
  const Tensor x = Floats({0.5f, 1.5f, 2.0f, 0.25f}, Shape({2, 2}));
  for (const auto& [call, message] :
       std::map<std::string, std::string>{
           {"tf.nn.softmax(a, axis=0)",
            "tf.nn.softmax() got an unexpected keyword argument 'axis'"},
           {"tf.reduce_sum(a, axs=0)",
            "tf.reduce_sum() got an unexpected keyword argument 'axs'"}}) {
    for (const bool staged : {false, true}) {
      AutoGraph agc;
      agc.LoadSource(Source(call, 1));
      try {
        if (staged) {
          (void)agc.Stage("f", {StageArg::Placeholder("a", DType::kFloat32)});
        } else {
          (void)agc.CallEager("f", {Value(x)});
        }
        ADD_FAILURE() << call << " did not throw, staged=" << staged;
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kValue) << call;
        EXPECT_EQ(e.message(), message) << call;
      }
    }
  }
  const std::string keepdims =
      Source("tf.reduce_sum(a, axis=0, keepdims=True)", 1);
  const Tensor expected = Floats({2.5f, 1.75f}, Shape({1, 2}));
  ExpectBitIdentical(expected, RunEager(keepdims, {x}), "eager");
  ExpectBitIdentical(expected, RunStaged(keepdims, {x}, "ReduceSum"), "staged");
}

// tf.math.top_k takes k positionally or as k=, eager and staged, and
// rejects any other keyword instead of dropping it.
TEST(BuiltinTable, TopKTakesKByKeywordAndRejectsOthers) {
  const Tensor x = Floats({0.5f, 1.5f, 2.0f, 0.25f}, Shape({2, 2}));
  const Tensor values = Floats({1.5f, 2.0f}, Shape({2, 1}));
  for (const std::string call :
       {"tf.math.top_k(a, 1)[0]", "tf.math.top_k(a, k=1)[0]"}) {
    ExpectBitIdentical(values, RunEager(Source(call, 1), {x}), call);
    ExpectBitIdentical(values, RunStaged(Source(call, 1), {x}, "TopK"), call);
  }
  for (const auto& [call, message] :
       std::map<std::string, std::string>{
           {"tf.math.top_k(a, 1, sorted=False)",
            "tf.math.top_k() got an unexpected keyword argument 'sorted'"},
           {"tf.math.top_k(a, 1, k=1)",
            "tf.math.top_k() got multiple values for argument 'k'"}}) {
    for (const bool staged : {false, true}) {
      AutoGraph agc;
      agc.LoadSource(Source(call, 1));
      try {
        if (staged) {
          (void)agc.Stage("f", {StageArg::Placeholder("a", DType::kFloat32)});
        } else {
          (void)agc.CallEager("f", {Value(x)});
        }
        ADD_FAILURE() << call << " did not throw, staged=" << staged;
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kValue) << call;
        EXPECT_EQ(e.message(), message) << call;
      }
    }
  }
}

TEST(BuiltinTable, LanternReductionWithoutAnOpSaysTheOpIsUnsupported) {
  for (const char* name : {"reduce_mean", "reduce_max", "reduce_min"}) {
    AutoGraph agc;
    agc.LoadSource(Source(std::string("tf.") + name + "(a)", 1));
    try {
      (void)StageOnLantern(agc, 1);
      ADD_FAILURE() << name;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kUnsupported);
      EXPECT_EQ(e.message().find("axis"), std::string::npos) << e.message();
      EXPECT_NE(e.message().find("' is not supported by the Lantern backend"),
                std::string::npos)
          << e.message();
    }
  }
}

// aglint (ag_analysis, which cannot link ag_core) types builtins by
// name. Every typed name is a row of the matching kind, and every row of
// those kinds is either typed or listed here with the reason it is not.
TEST(BuiltinTable, AglintTypingIsPinnedToTheTable) {
  const std::map<std::string, std::string> untyped = {
      {"tf.logical_not", "bool result"},
      {"tf.equal", "bool result"},
      {"tf.less", "bool result"},
      {"tf.greater", "bool result"},
      {"tf.logical_and", "bool result"},
      {"tf.logical_or", "bool result"},
      {"tf.gather", "result shape is not the operands' shape"},
      {"tf.nn.softmax_cross_entropy",
       "result shape is not the operands' shape"},
      {"tf.matmul", "typed by its own rule"},
  };
  const analysis::TypedBuiltins& typed = analysis::TypedTfBuiltins();
  const std::map<BuiltinKind, const std::set<std::string>*> by_kind = {
      {BuiltinKind::kUnary, &typed.shape_preserving_unary},
      {BuiltinKind::kBinary, &typed.elementwise_binary},
      {BuiltinKind::kReduction, &typed.reductions},
  };
  std::map<std::string, BuiltinKind> kind_of;
  for (const BuiltinDef& row : BuiltinTable()) {
    for (std::string_view name : row.tf_names) {
      if (name.empty()) continue;
      const std::string full = "tf." + std::string(name);
      kind_of[full] = row.kind();
      const bool is_typed = by_kind.at(row.kind())->count(full) > 0;
      EXPECT_NE(is_typed, untyped.count(full) > 0)
          << full << (is_typed ? " is typed and listed as untyped"
                               : " is neither typed by aglint nor listed");
    }
  }
  for (const auto& [kind, names] : by_kind) {
    for (const std::string& name : *names) {
      ASSERT_TRUE(kind_of.count(name) > 0) << name << " has no table row";
      EXPECT_EQ(kind_of.at(name), kind) << name;
    }
  }
}

}  // namespace
}  // namespace ag::core
