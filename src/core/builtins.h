// The builtin table: one row per graph op that PyMini code reaches
// through a generic `tf.*` builtin or an arithmetic, comparison or
// negation operator, naming it once for each backend of the dispatch
// layer (paper §6, §8): graph op, eager tensor function, Lantern op.
// Builtins that take attrs or have special forms (tf.constant,
// tf.reshape, tf.concat, ...) stay hand-written in modules.cc.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <variant>

#include "lang/ast.h"
#include "lantern/ir.h"
#include "tensor/tensor.h"

namespace ag::core {

using UnaryFn = Tensor (*)(const Tensor&);
using BinaryFn = Tensor (*)(const Tensor&, const Tensor&);
using ReduceFn = Tensor (*)(const Tensor&, int axis, bool keepdims);

// A row's kind is the index of its eager function's signature.
enum class BuiltinKind : uint8_t { kUnary, kBinary, kReduction };

struct BuiltinDef {
  // Graph op (a graph::OpTable row); also the eager trace-event name.
  const char* op;
  // Names under `tf.`, e.g. "tanh" and "nn.tanh"; empty slots unused.
  // Ops reached only through an operator (FloorDiv, Neg, ...) have none.
  std::array<std::string_view, 2> tf_names;
  std::variant<UnaryFn, BinaryFn, ReduceFn> eager;
  // Lantern op; without one, staging the row on Lantern raises
  // UnsupportedError naming `op`.
  std::optional<lantern::LOp> lop;

  [[nodiscard]] BuiltinKind kind() const {
    return static_cast<BuiltinKind>(eager.index());
  }
};

[[nodiscard]] std::span<const BuiltinDef> BuiltinTable();

// The row an operator lowers to. No string lookup: the rows are resolved
// at compile time. CompareOpRow is null for `in` / `not in`.
[[nodiscard]] const BuiltinDef& BinaryOpRow(lang::BinaryOp op);
[[nodiscard]] const BuiltinDef* CompareOpRow(lang::CompareOp op);
[[nodiscard]] const BuiltinDef& NegateRow();

}  // namespace ag::core
