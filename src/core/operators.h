// Dynamic-dispatch operators (paper §6 and Appendix E).
//
// These implement both halves of every overloadable construct:
//   - Python semantics when operands are plain values / eager tensors,
//   - staged semantics (graph node emission) when any operand is a
//     symbolic graph tensor.
//
// The ag__.* intrinsics installed in the interpreter's globals are thin
// wrappers over these functions.
#pragma once

#include "core/interpreter.h"
#include "core/value.h"

namespace ag::core::ops {

// ---- operator overloading layer (used directly by the interpreter) ----
[[nodiscard]] Value Binary(Interpreter& in, lang::BinaryOp op, const Value& a,
                           const Value& b);
[[nodiscard]] Value Compare(Interpreter& in, lang::CompareOp op,
                            const Value& a, const Value& b);
[[nodiscard]] Value Negate(Interpreter& in, const Value& a);
[[nodiscard]] Value GetItem(Interpreter& in, const Value& obj,
                            const Value& index);
[[nodiscard]] Value SetItem(Interpreter& in, const Value& obj,
                            const Value& index, const Value& value);

// ---- control flow (ag__.if_stmt / while_stmt / for_stmt) ----
[[nodiscard]] Value IfStmt(Interpreter& in, const Value& cond,
                           const Value& body_fn, const Value& orelse_fn);
[[nodiscard]] Value WhileStmt(Interpreter& in, const Value& test_fn,
                              const Value& body_fn, const Value& init_state);
[[nodiscard]] Value ForStmt(Interpreter& in, const Value& iter,
                            const Value& body_fn, const Value& init_state);

// ---- logical / comparison functional forms ----
[[nodiscard]] Value And(Interpreter& in, const Value& a,
                        const Value& b_thunk);
[[nodiscard]] Value Or(Interpreter& in, const Value& a, const Value& b_thunk);
[[nodiscard]] Value Not(Interpreter& in, const Value& a);
[[nodiscard]] Value Eq(Interpreter& in, const Value& a, const Value& b);
[[nodiscard]] Value NotEq(Interpreter& in, const Value& a, const Value& b);
[[nodiscard]] Value IfExp(Interpreter& in, const Value& cond,
                          const Value& body_thunk, const Value& orelse_thunk);

// ---- calls ----
[[nodiscard]] Value ConvertedCall(Interpreter& in, const Value& fn,
                                  std::vector<Value> args, Kwargs kwargs);

// ---- list idioms ----
[[nodiscard]] Value ListAppend(Interpreter& in, const Value& list,
                               const Value& value);
// Returns (list_without_last, last) as a tuple.
[[nodiscard]] Value ListPop(Interpreter& in, const Value& list);
[[nodiscard]] Value SetElementType(Interpreter& in, const Value& list,
                                   const Value& dtype);
[[nodiscard]] Value StackList(Interpreter& in, const Value& list);

// ---- misc statements ----
[[nodiscard]] Value AssertStmt(Interpreter& in, const Value& test_thunk,
                               const Value& msg_thunk);
[[nodiscard]] Value Print(Interpreter& in, std::vector<Value>& args);
[[nodiscard]] Value Len(Interpreter& in, const Value& v);
[[nodiscard]] Value Range(Interpreter& in, std::vector<Value>& args);

// ---- staging helpers ----
// The graph under construction; throws Error(kStaging) naming `what`
// when a symbolic tensor reaches code running outside graph construction.
[[nodiscard]] graph::GraphContext& RequireStaging(Interpreter& in,
                                                  const char* what);
// Promotes a value to a graph endpoint in the current graph (Const for
// eager tensors / numbers / bools). Throws Error(kStaging) if the value
// cannot be staged (functions, objects, Undefined, ...).
[[nodiscard]] graph::Output ToGraphOutput(Interpreter& in, const Value& v,
                                          DType preferred = DType::kFloat32);
// Flattens a branch/loop result Value into endpoints (None -> empty,
// tuple -> elements, single -> one).
[[nodiscard]] std::vector<graph::Output> FlattenToOutputs(
    Interpreter& in, const Value& v, std::vector<bool>* tuple_shape);
// Rebuilds the Value structure from staged outputs.
[[nodiscard]] Value RebuildFromOutputs(const std::vector<graph::Output>& outs,
                                       bool was_tuple);

// Calls a niladic thunk (lambda or function value).
[[nodiscard]] Value CallThunk(Interpreter& in, const Value& thunk);

// Converts a plain value (number/bool/Tensor) to an eager Tensor; throws
// Error(kValue) for anything else.
[[nodiscard]] Tensor ToEager(const Value& v);
// True when `v` is a symbolic tensor carrying a TensorList.
[[nodiscard]] bool IsStagedListValue(const Value& v);

// ---- Lantern staging helpers (paper §8) ----
// Promotes a value to a Lantern symbol (constants for concrete values).
[[nodiscard]] lantern::SymPtr ToLanternSym(Interpreter& in, const Value& v);
// Staged tree accessors: tree.is_empty / left / right / value / label.
[[nodiscard]] Value LanternTreeAttr(Interpreter& in, const Value& tree,
                                    const std::string& attr);

}  // namespace ag::core::ops
