#include "core/builtins.h"

#include "tensor/tensor_ops.h"

namespace ag::core {

namespace {

using L = lantern::LOp;
using Names = std::array<std::string_view, 2>;
using Lop = std::optional<L>;

constexpr BuiltinDef Unary(const char* op, Names tf, UnaryFn eager,
                           Lop lop = std::nullopt) {
  return {op, tf, eager, lop};
}
constexpr BuiltinDef Binary(const char* op, Names tf, BinaryFn eager,
                            Lop lop = std::nullopt) {
  return {op, tf, eager, lop};
}
constexpr BuiltinDef Reduction(const char* op, Names tf, ReduceFn eager,
                               Lop lop = std::nullopt) {
  return {op, tf, eager, lop};
}

// Adding a generic builtin means adding its row here. Its graph op needs
// an op-table row and a kernel; aglint either types its tf names
// (analysis/shape_infer.cc) or tests/builtins_test.cc says why not.
constexpr BuiltinDef kBuiltins[] = {
    // Arithmetic: tf.* and the binary operators.
    Binary("Add", {"add"}, &Add, L::kAdd),
    Binary("Sub", {"subtract"}, &Sub, L::kSub),
    Binary("Mul", {"multiply"}, &Mul, L::kMul),
    Binary("Div", {"divide"}, &Div, L::kDiv),
    Binary("FloorDiv", {}, &FloorDiv),
    Binary("Mod", {}, &Mod),
    Binary("Pow", {"pow"}, &Pow),
    Binary("Maximum", {"maximum"}, &Maximum),
    Binary("Minimum", {"minimum"}, &Minimum),
    Binary("MatMul", {"matmul"}, &MatMul, L::kMatMul),
    Binary("Gather", {"gather"}, &Gather, L::kGather),
    Binary("SoftmaxCrossEntropy", {"nn.softmax_cross_entropy"},
           &SoftmaxCrossEntropy),
    // Comparisons and logic: bool results. Lantern composes >=, <= and
    // != from the ops it has (operators.cc).
    Binary("Less", {"less"}, &Less, L::kLess),
    Binary("LessEqual", {}, &LessEqual),
    Binary("Greater", {"greater"}, &Greater, L::kGreater),
    Binary("GreaterEqual", {}, &GreaterEqual),
    Binary("Equal", {"equal"}, &Equal, L::kEq),
    Binary("NotEqual", {}, &NotEqual),
    Binary("LogicalAnd", {"logical_and"}, &LogicalAnd),
    Binary("LogicalOr", {"logical_or"}, &LogicalOr),
    Unary("LogicalNot", {"logical_not"}, &LogicalNot, L::kNot),
    // Unary math and activations.
    Unary("Neg", {}, &Neg, L::kNeg),
    Unary("Tanh", {"tanh", "nn.tanh"}, &Tanh, L::kTanh),
    Unary("Sigmoid", {"sigmoid", "nn.sigmoid"}, &Sigmoid, L::kSigmoid),
    Unary("Exp", {"exp"}, &Exp, L::kExp),
    Unary("Log", {"log"}, &Log, L::kLog),
    Unary("Sqrt", {"sqrt"}, &Sqrt),
    Unary("Square", {"square"}, &Square, L::kSquare),
    Unary("Abs", {"abs"}, &Abs),
    Unary("Sin", {"sin"}, &Sin),
    Unary("Cos", {"cos"}, &Cos),
    Unary("Relu", {"nn.relu"}, &Relu, L::kRelu),
    Unary("Softmax", {"nn.softmax"}, &Softmax),
    Unary("LogSoftmax", {"nn.log_softmax"}, &LogSoftmax),
    // Reductions take an optional axis (positional or keyword) and
    // keepdims. Lantern has only the axis-less sum.
    Reduction("ReduceSum", {"reduce_sum"}, &ReduceSum, L::kReduceSum),
    Reduction("ReduceMean", {"reduce_mean"}, &ReduceMean),
    Reduction("ReduceMax", {"reduce_max"}, &ReduceMax),
    Reduction("ReduceMin", {"reduce_min"}, &ReduceMin),
};

constexpr const BuiltinDef* Row(std::string_view op) {
  for (const BuiltinDef& row : kBuiltins) {
    if (row.op == op) return &row;
  }
  return nullptr;
}

// Indexed by the syntax enums (lang/ast.h), in their declaration order.
constexpr const BuiltinDef* kBinaryOpRows[] = {
    Row("Add"), Row("Sub"), Row("Mul"), Row("Div"),
    Row("FloorDiv"), Row("Mod"), Row("Pow"),
};
constexpr const BuiltinDef* kCompareOpRows[] = {
    Row("Less"),  Row("LessEqual"), Row("Greater"), Row("GreaterEqual"),
    Row("Equal"), Row("NotEqual"),  nullptr,        nullptr,  // in, not in
};
constexpr const BuiltinDef* kNegateRow = Row("Neg");

static_assert(std::size(kBinaryOpRows) ==
              static_cast<size_t>(lang::BinaryOp::kPow) + 1);
static_assert(std::size(kCompareOpRows) ==
              static_cast<size_t>(lang::CompareOp::kNotIn) + 1);

}  // namespace

std::span<const BuiltinDef> BuiltinTable() { return kBuiltins; }

const BuiltinDef& BinaryOpRow(lang::BinaryOp op) {
  return *kBinaryOpRows[static_cast<size_t>(op)];
}

const BuiltinDef* CompareOpRow(lang::CompareOp op) {
  return kCompareOpRows[static_cast<size_t>(op)];
}

const BuiltinDef& NegateRow() { return *kNegateRow; }

}  // namespace ag::core
