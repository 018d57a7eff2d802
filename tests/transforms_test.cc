// Unit tests for the conversion passes of §7.2. Structural checks inspect
// the converted source; semantic checks run the converted code through
// the interpreter on plain values and require identical behaviour to the
// original (the conversion must be meaning-preserving under Python
// semantics — the paper's central correctness property).
#include <gtest/gtest.h>

#include "core/api.h"
#include "lang/parser.h"
#include "lang/unparser.h"
#include "transforms/passes.h"

namespace ag::transforms {
namespace {

using core::AutoGraph;
using core::Value;

std::string Convert(const std::string& source) {
  auto fn = lang::ParseEntity(source);
  return lang::AstToSource(
      std::static_pointer_cast<lang::Stmt>(ConvertFunctionAst(fn)));
}

// Runs fn_name(args) both unconverted and converted on plain values and
// expects equal integer results.
void ExpectSameBehaviour(const std::string& source,
                         const std::string& fn_name,
                         std::vector<int64_t> inputs) {
  for (int64_t input : inputs) {
    AutoGraph agc;
    agc.LoadSource(source);
    Value plain = agc.CallEager(fn_name, {Value(input)});

    AutoGraph agc2;
    agc2.LoadSource(source);
    core::FunctionPtr converted = agc2.interpreter().ConvertFunctionValue(
        agc2.GetGlobal(fn_name).AsFunction());
    Value conv =
        agc2.interpreter().CallFunctionValue(converted, {Value(input)});

    ASSERT_EQ(plain.IsInt(), conv.IsInt()) << "input " << input;
    if (plain.IsInt()) {
      EXPECT_EQ(plain.AsInt(), conv.AsInt()) << "input " << input;
    } else {
      EXPECT_DOUBLE_EQ(plain.AsFloat(), conv.AsFloat()) << "input " << input;
    }
  }
}

TEST(ControlFlowPass, IfBecomesFunctionalForm) {
  std::string out = Convert(R"(
def f(x):
  if x > 0:
    x = x * x
  return x
)");
  EXPECT_NE(out.find("def ag__if_true_0():"), std::string::npos) << out;
  EXPECT_NE(out.find("def ag__if_false_0():"), std::string::npos) << out;
  EXPECT_NE(out.find("x = ag__.if_stmt(x > 0, ag__if_true_0, "
                     "ag__if_false_0)"),
            std::string::npos)
      << out;
}

TEST(ControlFlowPass, WhileThreadsOnlyLiveModifiedState) {
  std::string out = Convert(R"(
def f(x, eps):
  while x > eps:
    t = x * 0.5
    x = t
  return x
)");
  // x is loop state; t is body-local (not live across iterations).
  EXPECT_NE(out.find("def ag__loop_test_0(x):"), std::string::npos) << out;
  EXPECT_NE(out.find("def ag__loop_body_0(x):"), std::string::npos) << out;
  EXPECT_NE(out.find("x = ag__.while_stmt(ag__loop_test_0, "
                     "ag__loop_body_0, (x,))"),
            std::string::npos)
      << out;
}

TEST(ControlFlowPass, UndefinedReification) {
  std::string out = Convert(R"(
def f(c):
  if c:
    v = 1
  else:
    v = 2
  return v
)");
  // v is not defined before the conditional -> reified.
  EXPECT_NE(out.find("v = ag__.Undefined('v')"), std::string::npos) << out;
}

TEST(ControlFlowPass, ForLoopGetsIteratorParameter) {
  std::string out = Convert(R"(
def f(items):
  total = 0
  for v in items:
    total = total + v
  return total
)");
  EXPECT_NE(out.find("ag__.for_stmt(items, ag__loop_body_0, (total,))"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("def ag__loop_body_0(ag__itr_0, total):"),
            std::string::npos)
      << out;
}

TEST(BreakPass, LoweredToGuard) {
  std::string out = Convert(R"(
def f(n):
  i = 0
  while i < n:
    if i == 5:
      break
    i = i + 1
  return i
)");
  EXPECT_NE(out.find("ag__did_break_0"), std::string::npos) << out;
  EXPECT_EQ(out.find("break\n"), std::string::npos) << out;
}

TEST(BreakPass, SemanticsPreserved) {
  ExpectSameBehaviour(R"(
def f(n):
  i = 0
  total = 0
  while i < 100:
    if i == n:
      break
    total = total + i
    i = i + 1
  return total
)",
                      "f", {0, 3, 50, 200});
}

TEST(ContinuePass, SemanticsPreserved) {
  ExpectSameBehaviour(R"(
def f(n):
  total = 0
  for i in range(n):
    if i % 3 == 0:
      continue
    total = total + i
  return total
)",
                      "f", {0, 1, 7, 20});
}

TEST(ReturnPass, EarlyReturnsLowered) {
  std::string out = Convert(R"(
def f(x):
  if x > 0:
    return 1
  return 0
)");
  EXPECT_NE(out.find("ag__do_return_0"), std::string::npos) << out;
  EXPECT_NE(out.find("ag__retval_0"), std::string::npos) << out;
}

TEST(ReturnPass, SemanticsPreservedAcrossShapes) {
  ExpectSameBehaviour(R"(
def f(x):
  if x > 10:
    return 100
  i = 0
  while i < x:
    if i == 7:
      return -7
    i = i + 1
  return i
)",
                      "f", {0, 5, 8, 11, 20});
}

TEST(ReturnPass, ReturnInsideForLoop) {
  ExpectSameBehaviour(R"(
def f(n):
  for i in range(n):
    if i * i > 20:
      return i
  return -1
)",
                      "f", {0, 3, 10});
}

TEST(ReturnPass, BareReturnBecomesNone) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(x):
  if x > 0:
    return
  return
)");
  core::FunctionPtr converted = agc.interpreter().ConvertFunctionValue(
      agc.GetGlobal("f").AsFunction());
  Value v = agc.interpreter().CallFunctionValue(converted,
                                                {Value(int64_t{1})});
  EXPECT_TRUE(v.IsNone());
}

TEST(DesugarPass, AugAssignBecomesAssign) {
  std::string out = Convert("def f(x):\n  x += 2\n  return x\n");
  EXPECT_EQ(out.find("+="), std::string::npos) << out;
  EXPECT_NE(out.find("x = x + 2"), std::string::npos) << out;
}

TEST(ListsPass, AppendAndPopOverloaded) {
  std::string out = Convert(R"(
def f(n):
  l = []
  l.append(n)
  v = l.pop()
  return v
)");
  EXPECT_NE(out.find("l = ag__.list_append(l, n)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("l, v = ag__.list_pop(l)"), std::string::npos) << out;
}

TEST(ListsPass, SemanticsPreserved) {
  ExpectSameBehaviour(R"(
def f(n):
  l = []
  for i in range(n):
    l.append(i * i)
  total = 0
  while len(l) > 0:
    v = l.pop()
    total = total + v
  return total
)",
                      "f", {0, 1, 5});
}

TEST(SlicesPass, SliceWriteGetsValueSemantics) {
  std::string out = Convert("def f(x, i, y):\n  x[i] = y\n  return x\n");
  EXPECT_NE(out.find("x = ag__.set_item(x, i, y)"), std::string::npos)
      << out;
}

TEST(CallTreesPass, UserCallsWrappedWhitelistNot) {
  std::string out = Convert(R"(
def f(a, x):
  y = a(x)
  z = tf.tanh(x)
  return y + z
)");
  EXPECT_NE(out.find("ag__.converted_call(a, x)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("tf.tanh(x)"), std::string::npos) << out;
  EXPECT_EQ(out.find("converted_call(tf.tanh"), std::string::npos) << out;
}

TEST(TernaryPass, ConvertedToIfExp) {
  std::string out = Convert("def f(x):\n  return 1 if x > 0 else -1\n");
  EXPECT_NE(out.find("ag__.if_exp("), std::string::npos) << out;
}

TEST(LogicalPass, LazyOperands) {
  std::string out = Convert("def f(a, b):\n  return a and not b\n");
  EXPECT_NE(out.find("ag__.and_(a, lambda: ag__.not_(b))"),
            std::string::npos)
      << out;
}

TEST(LogicalPass, EqualityConverted) {
  std::string out = Convert("def f(a, b):\n  return a == b\n");
  EXPECT_NE(out.find("ag__.eq(a, b)"), std::string::npos) << out;
  std::string out2 = Convert("def f(a, b):\n  return a != b\n");
  EXPECT_NE(out2.find("ag__.not_eq(a, b)"), std::string::npos) << out2;
}

TEST(DirectivesPass, SetElementTypeRebinds) {
  std::string out = Convert(R"(
def f(x):
  outputs = []
  ag.set_element_type(outputs, tf.float32)
  outputs.append(x)
  return outputs
)");
  EXPECT_NE(out.find("outputs = ag__.set_element_type(outputs, tf.float32)"),
            std::string::npos)
      << out;
}

TEST(DirectivesPass, SetLoopOptionsConsumed) {
  std::string out = Convert(R"(
def f(n):
  i = 0
  while i < n:
    ag.set_loop_options()
    i = i + 1
  return i
)");
  EXPECT_EQ(out.find("set_loop_options"), std::string::npos) << out;
}

TEST(AssertPass, BecomesFunctionalForm) {
  std::string out = Convert("def f(x):\n  assert x > 0, 'neg'\n  return x\n");
  EXPECT_NE(out.find("ag__.assert_stmt(lambda: x > 0, lambda: 'neg')"),
            std::string::npos)
      << out;
}

TEST(FunctionWrappers, ConvertedMarker) {
  auto fn = lang::ParseEntity("def f(x):\n  return x\n");
  auto converted = ConvertFunctionAst(fn);
  ASSERT_EQ(converted->decorators.size(), 1u);
  EXPECT_EQ(converted->decorators[0], "ag__converted");
  // The original is untouched.
  EXPECT_TRUE(fn->decorators.empty());
}

TEST(Pipeline, NestedControlFlowComposes) {
  // Deeply nested loops + conditionals + break + continue + early return,
  // all at once (the pass-interaction case §10 calls out).
  ExpectSameBehaviour(R"(
def f(n):
  total = 0
  for i in range(n):
    j = 0
    while j < i:
      j = j + 1
      if j % 2 == 0:
        continue
      if j > 7:
        break
      total = total + j
    if total > 100:
      return total
  return total
)",
                      "f", {0, 2, 5, 9, 15});
}

TEST(Pipeline, NonRecursiveOptionSkipsCallWrapping) {
  auto fn = lang::ParseEntity("def f(g, x):\n  return g(x)\n");
  ConversionOptions options;
  options.pipeline = PipelineSpec::Parse("-call_trees");
  std::string out = lang::AstToSource(
      std::static_pointer_cast<lang::Stmt>(ConvertFunctionAst(fn, options)));
  EXPECT_EQ(out.find("converted_call"), std::string::npos) << out;
}

}  // namespace
}  // namespace ag::transforms
