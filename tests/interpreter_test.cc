// Unit tests for the PyMini interpreter and the dynamic-dispatch value
// semantics layer: Python semantics on plain values, eager tensor
// dispatch, closures, builtins, and the tf module surface.
#include <gtest/gtest.h>
#include <pthread.h>

#include <cmath>

#include "core/api.h"
#include "tensor/tensor_ops.h"

namespace ag::core {
namespace {

Value Eval(const std::string& program, const std::string& fn,
           std::vector<Value> args) {
  AutoGraph agc;
  agc.LoadSource(program);
  return agc.CallEager(fn, std::move(args));
}

TEST(Interpreter, ArithmeticSemantics) {
  EXPECT_EQ(Eval("def f(a, b):\n  return a + b * 2\n", "f",
                 {Value(int64_t{1}), Value(int64_t{3})})
                .AsInt(),
            7);
  // Division always yields float (Python 3).
  Value v = Eval("def f(a, b):\n  return a / b\n", "f",
                 {Value(int64_t{7}), Value(int64_t{2})});
  EXPECT_TRUE(v.IsFloat());
  EXPECT_DOUBLE_EQ(v.AsFloat(), 3.5);
  // Floor division and Python modulo on negatives.
  EXPECT_EQ(Eval("def f(a, b):\n  return a // b\n", "f",
                 {Value(int64_t{-7}), Value(int64_t{2})})
                .AsInt(),
            -4);
  EXPECT_EQ(Eval("def f(a, b):\n  return a % b\n", "f",
                 {Value(int64_t{-7}), Value(int64_t{3})})
                .AsInt(),
            2);
  EXPECT_EQ(Eval("def f(a):\n  return a ** 3\n", "f",
                 {Value(int64_t{2})})
                .AsInt(),
            8);
}

TEST(Interpreter, StringAndListOperations) {
  EXPECT_EQ(Eval("def f(a, b):\n  return a + b\n", "f",
                 {Value(std::string("foo")), Value(std::string("bar"))})
                .AsStr(),
            "foobar");
  Value l = Eval("def f():\n  return [1, 2] + [3]\n", "f", {});
  EXPECT_EQ(l.AsList()->size(), 3u);
  EXPECT_EQ(Eval("def f(l):\n  return l[1] + l[-1]\n", "f",
                 {MakeList({Value(int64_t{10}), Value(int64_t{20}),
                            Value(int64_t{30})})})
                .AsInt(),
            50);
}

TEST(Interpreter, MembershipAndEquality) {
  EXPECT_TRUE(Eval("def f(x):\n  return x in [1, 2, 3]\n", "f",
                   {Value(int64_t{2})})
                  .AsBool());
  EXPECT_TRUE(Eval("def f(x):\n  return x not in [1, 2]\n", "f",
                   {Value(int64_t{5})})
                  .AsBool());
  EXPECT_TRUE(Eval("def f(s):\n  return s == 'relu'\n", "f",
                   {Value(std::string("relu"))})
                  .AsBool());
  EXPECT_TRUE(Eval("def f():\n  return None == None\n", "f", {}).AsBool());
}

TEST(Interpreter, ClosuresReadEnclosingScope) {
  Value v = Eval(R"(
def outer(x):
  def inner():
    return x * 2
  x = x + 1
  return inner()
)",
                 "outer", {Value(int64_t{5})});
  // Late binding: inner sees x AFTER the reassignment.
  EXPECT_EQ(v.AsInt(), 12);
}

TEST(Interpreter, DefaultsAndKwargs) {
  AutoGraph agc;
  agc.LoadSource("def f(a, b=10, c=100):\n  return a + b + c\n");
  EXPECT_EQ(agc.CallEager("f", {Value(int64_t{1})}).AsInt(), 111);
  Value fn = agc.GetGlobal("f");
  EXPECT_EQ(agc.interpreter()
                .CallCallable(fn, {Value(int64_t{1})},
                              {{"c", Value(int64_t{7})}})
                .AsInt(),
            18);
  // Unknown kwarg / missing arg / duplicate binding all raise.
  EXPECT_THROW((void)agc.interpreter().CallCallable(
                   fn, {}, {{"zz", Value(int64_t{1})}}),
               Error);
  EXPECT_THROW((void)agc.interpreter().CallCallable(fn, {}), Error);
  EXPECT_THROW((void)agc.interpreter().CallCallable(
                   fn, {Value(int64_t{1})}, {{"a", Value(int64_t{2})}}),
               Error);
}

TEST(Interpreter, RecursionWorksAndOverflowGuards) {
  EXPECT_EQ(Eval(R"(
def fact(n):
  if n <= 1:
    return 1
  return n * fact(n - 1)
)",
                 "fact", {Value(int64_t{10})})
                .AsInt(),
            3628800);
  EXPECT_THROW((void)Eval("def f(n):\n  return f(n)\n", "f",
                          {Value(int64_t{0})}),
               Error);
}

TEST(Interpreter, RecursionOnASmallThreadStackRaises) {
  // A 1 MiB stack runs out long before max_call_depth calls: the
  // native-stack check, not the depth count, must stop the recursion
  // with the structured error instead of a stack overflow.
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, size_t{1} << 20), 0);
  bool raised = false;
  auto body = [](void* arg) -> void* {
    try {
      (void)Eval("def f(n):\n  return f(n)\n", "f", {Value(int64_t{0})});
    } catch (const Error& e) {
      *static_cast<bool*>(arg) =
          e.message().find("recursion") != std::string::npos;
    }
    return nullptr;
  };
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, &attr, body, &raised), 0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
  EXPECT_TRUE(raised);
}

TEST(Interpreter, TensorOperatorOverloading) {
  // The §4 motivation: `a + b` instead of tf.add(a, b).
  Value v = Eval("def f(a, b):\n  return a + b * a\n", "f",
                 {Value(Tensor::FromVector({1, 2}, Shape({2}))),
                  Value(Tensor::FromVector({10, 10}, Shape({2})))});
  EXPECT_FLOAT_EQ(v.AsTensor().at(0), 11);
  EXPECT_FLOAT_EQ(v.AsTensor().at(1), 22);
  // Mixed tensor/scalar promotes.
  Value s = Eval("def f(a):\n  return 2 * a - 1\n", "f",
                 {Value(Tensor::Scalar(5.0f))});
  EXPECT_FLOAT_EQ(s.AsTensor().scalar(), 9.0f);
}

TEST(Interpreter, TensorTruthinessIsScalarOnly) {
  EXPECT_EQ(Eval("def f(t):\n  if t > 0:\n    return 1\n  return 0\n", "f",
                 {Value(Tensor::Scalar(3.0f))})
                .AsInt(),
            1);
  // Non-scalar truthiness is an error, like TF eager.
  EXPECT_THROW((void)Eval("def f(t):\n  if t:\n    return 1\n  return 0\n",
                          "f",
                          {Value(Tensor::FromVector({1, 2}, Shape({2})))}),
               Error);
}

TEST(Interpreter, BuiltinsDispatch) {
  EXPECT_EQ(Eval("def f(l):\n  return len(l)\n", "f",
                 {MakeList({Value(int64_t{1}), Value(int64_t{2})})})
                .AsInt(),
            2);
  EXPECT_EQ(Eval("def f(t):\n  return len(t)\n", "f",
                 {Value(Tensor::Zeros(Shape({5, 2})))})
                .AsInt(),
            5);
  EXPECT_EQ(Eval("def f():\n  total = 0\n  for i in range(2, 8, 2):\n"
                 "    total += i\n  return total\n",
                 "f", {})
                .AsInt(),
            12);
  EXPECT_EQ(Eval("def f(x):\n  return int(x)\n", "f", {Value(3.9)}).AsInt(),
            3);
  EXPECT_DOUBLE_EQ(
      Eval("def f(s):\n  return float(s)\n", "f",
           {Value(std::string("2.5"))})
          .AsFloat(),
      2.5);
  EXPECT_EQ(Eval("def f(a, b):\n  return min(a, b) + max(a, b)\n", "f",
                 {Value(int64_t{3}), Value(int64_t{8})})
                .AsInt(),
            11);
}

TEST(Interpreter, TfModuleEagerSurface) {
  Value v = Eval(R"(
def f():
  a = tf.constant([1.0, 2.0, 3.0])
  b = tf.reduce_sum(a * a)
  return tf.sqrt(b)
)",
                 "f", {});
  EXPECT_NEAR(v.AsTensor().scalar(), std::sqrt(14.0f), 1e-5f);

  Value m = Eval(R"(
def f():
  x = tf.ones((2, 3))
  w = tf.ones((3, 4))
  return tf.shape(tf.matmul(x, w))
)",
                 "f", {});
  EXPECT_FLOAT_EQ(m.AsTensor().at(0), 2);
  EXPECT_FLOAT_EQ(m.AsTensor().at(1), 4);
}

TEST(Interpreter, ObjectAttributes) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(obj):
  obj.count = obj.count + 1
  return obj.count
)");
  Value obj = MakeObject("Counter");
  obj.AsObject()->attrs["count"] = Value(int64_t{41});
  EXPECT_EQ(agc.CallEager("f", {obj}).AsInt(), 42);
  // The mutation is visible to the caller (reference semantics).
  EXPECT_EQ(obj.AsObject()->GetAttr("count").AsInt(), 42);
  EXPECT_THROW((void)obj.AsObject()->GetAttr("missing"), Error);
}

TEST(Interpreter, TupleUnpackingForms) {
  EXPECT_EQ(Eval(R"(
def f():
  a, b = 1, 2
  a, b = b, a
  return a * 10 + b
)",
                 "f", {})
                .AsInt(),
            21);
  EXPECT_EQ(Eval(R"(
def pair():
  return 3, 4

def f():
  x, y = pair()
  return x * y
)",
                 "f", {})
                .AsInt(),
            12);
}

TEST(Interpreter, ShortCircuitSemantics) {
  // `or` must not evaluate the crashing right side.
  EXPECT_TRUE(Eval(R"(
def boom():
  assert False
  return True

def f(a):
  return a or boom()
)",
                   "f", {Value(true)})
                  .AsBool());
  // `and` returns the left falsy value itself.
  Value v = Eval("def f():\n  return 0 and 5\n", "f", {});
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(Interpreter, ChainedComparisonSemantics) {
  EXPECT_TRUE(Eval("def f(x):\n  return 1 < x < 10\n", "f",
                   {Value(int64_t{5})})
                  .AsBool());
  EXPECT_FALSE(Eval("def f(x):\n  return 1 < x < 10\n", "f",
                    {Value(int64_t{20})})
                   .AsBool());
  EXPECT_FALSE(Eval("def f(x):\n  return 1 < x < 10\n", "f",
                    {Value(int64_t{0})})
                   .AsBool());
}

TEST(Interpreter, UndefinedNameError) {
  try {
    (void)Eval("def f():\n  return nope\n", "f", {});
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(e.message().find("'nope'"), std::string::npos);
  }
}

TEST(Interpreter, StatementCounterAdvances) {
  AutoGraph agc;
  agc.LoadSource("def f(n):\n  total = 0\n  for i in range(n):\n"
                 "    total += i\n  return total\n");
  const int64_t before = agc.interpreter().statements_executed();
  (void)agc.CallEager("f", {Value(int64_t{10})});
  EXPECT_GT(agc.interpreter().statements_executed(), before + 10);
}

}  // namespace
}  // namespace ag::core
