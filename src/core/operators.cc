#include "core/operators.h"

#include <cmath>
#include <iostream>

#include "core/builtins.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace ag::core::ops {

using graph::GraphContext;
using graph::Op;
using graph::OpN;
using graph::Output;

GraphContext& RequireStaging(Interpreter& in, const char* what) {
  if (!in.staging()) {
    throw StagingError(std::string(what) +
                       ": a symbolic tensor reached code running outside "
                       "graph construction");
  }
  return *in.graph_ctx();
}

namespace {

[[nodiscard]] bool IsStagedList(const Value& v) {
  if (!v.IsGraphTensor()) return false;
  const Output& o = v.AsGraphTensor();
  return o.node->output_is_list(o.index);
}

DType GraphDType(const Value& v) {
  const Output& o = v.AsGraphTensor();
  return o.node->output_dtype(o.index);
}

// Python equality for plain values (In/NotIn membership and ==).
bool PyEquals(const Value& a, const Value& b) {
  if (a.IsNone() || b.IsNone()) return a.IsNone() && b.IsNone();
  if (a.IsNumber() || a.IsBool()) {
    if (!(b.IsNumber() || b.IsBool())) return false;
    return a.AsFloat() == b.AsFloat();
  }
  if (a.IsStr() && b.IsStr()) return a.AsStr() == b.AsStr();
  if (a.IsTuple() && b.IsTuple()) {
    const auto& ae = a.AsTuple()->elts;
    const auto& be = b.AsTuple()->elts;
    if (ae.size() != be.size()) return false;
    for (size_t i = 0; i < ae.size(); ++i) {
      if (!PyEquals(ae[i], be[i])) return false;
    }
    return true;
  }
  if (a.v.index() != b.v.index()) return false;
  if (a.IsList()) return a.AsList() == b.AsList();
  if (a.IsFunction()) return a.AsFunction() == b.AsFunction();
  if (a.IsNative()) return a.AsNative() == b.AsNative();
  if (a.IsObject()) return a.AsObject() == b.AsObject();
  if (a.IsDType()) return a.AsDType() == b.AsDType();
  return false;
}

// Unpacks a loop-body / branch result into exactly `n` state values.
std::vector<Value> UnpackState(const Value& r, size_t n,
                               const char* context) {
  if (n == 0) return {};
  if (n == 1) return {r};
  if (!r.IsTuple() || r.AsTuple()->elts.size() != n) {
    throw RuntimeError(std::string(context) + ": expected " +
                       std::to_string(n) + " values, got " + r.Repr());
  }
  return r.AsTuple()->elts;
}

Value PackState(std::vector<Value> state) {
  if (state.empty()) return Value::None();
  if (state.size() == 1) return state[0];
  return MakeTuple(std::move(state));
}

}  // namespace

Value CallThunk(Interpreter& in, const Value& thunk) {
  return in.CallCallable(thunk, {});
}

Tensor ToEager(const Value& v) {
  if (v.IsTensor()) return v.AsTensor();
  if (v.IsInt()) return Tensor::ScalarInt(v.AsInt());
  if (v.IsBool()) return Tensor::ScalarBool(v.AsBool());
  if (v.IsFloat()) return Tensor::Scalar(static_cast<float>(v.AsFloat()));
  throw ValueError(std::string("cannot use ") + v.TypeName() +
                   " as a tensor operand: " + v.Repr());
}

bool IsStagedListValue(const Value& v) { return IsStagedList(v); }

// ---------------------------------------------------------------------
// Lantern staging (paper §8)
// ---------------------------------------------------------------------

namespace {

LanternContext& RequireLantern(Interpreter& in, const char* what) {
  if (!in.lantern_staging()) {
    throw StagingError(std::string(what) +
                       ": a Lantern symbol reached code running outside "
                       "Lantern tracing");
  }
  return *in.lantern_ctx();
}

}  // namespace

lantern::SymPtr ToLanternSym(Interpreter& in, const Value& v) {
  LanternContext& ctx = RequireLantern(in, "lantern stage");
  if (v.IsLantern()) return v.AsLantern();
  if (v.IsTensor()) return ctx.builder.EmitConst(v.AsTensor());
  if (v.IsNumber() || v.IsBool()) {
    return ctx.builder.EmitConst(ToEager(v));
  }
  if (v.IsUndefined()) {
    throw StagingError(
        "symbol '" + std::get<UndefinedPtr>(v.v)->symbol +
        "' may be undefined here; all code paths must initialize it");
  }
  throw StagingError(std::string("value of type ") + v.TypeName() +
                     " cannot be staged into the Lantern IR");
}

Value LanternTreeAttr(Interpreter& in, const Value& tree,
                      const std::string& attr) {
  LanternContext& ctx = RequireLantern(in, "tree attribute");
  const lantern::SymPtr& sym = tree.AsLantern();
  if (!sym->is_tree) {
    throw StagingError("attribute '" + attr +
                       "' accessed on a non-tree Lantern value");
  }
  lantern::LOp op;
  if (attr == "is_empty") {
    op = lantern::LOp::kTreeIsEmpty;
  } else if (attr == "left") {
    op = lantern::LOp::kTreeLeft;
  } else if (attr == "right") {
    op = lantern::LOp::kTreeRight;
  } else if (attr == "value") {
    op = lantern::LOp::kTreeValue;
  } else if (attr == "label") {
    op = lantern::LOp::kTreeLabel;
  } else {
    throw StagingError("staged trees have no attribute '" + attr + "'");
  }
  return Value(ctx.builder.Emit(op, {sym}));
}

namespace {

// Binary / comparison emission. The row gives the op; the IR lacks >=,
// <= and !=, so those are composed from <, > and ==.
Value LanternBinary(Interpreter& in, lang::BinaryOp op, const BuiltinDef& row,
                    const Value& a, const Value& b) {
  LanternContext& ctx = RequireLantern(in, "binary op");
  lantern::SymPtr sa = ToLanternSym(in, a);
  lantern::SymPtr sb = ToLanternSym(in, b);
  if (!row.lop) {
    throw UnsupportedError(std::string("operator ") +
                           lang::BinaryOpSymbol(op) +
                           " is not supported by the Lantern backend");
  }
  return Value(ctx.builder.Emit(*row.lop, {sa, sb}));
}

Value LanternCompare(Interpreter& in, lang::CompareOp op,
                     const BuiltinDef& row, const Value& a, const Value& b) {
  LanternContext& ctx = RequireLantern(in, "comparison");
  lantern::SymPtr sa = ToLanternSym(in, a);
  lantern::SymPtr sb = ToLanternSym(in, b);
  auto& B = ctx.builder;
  switch (op) {
    case lang::CompareOp::kNe:
      return Value(B.Emit(lantern::LOp::kNot,
                          {B.Emit(lantern::LOp::kEq, {sa, sb})}));
    case lang::CompareOp::kGe:
      return Value(B.Emit(lantern::LOp::kNot,
                          {B.Emit(lantern::LOp::kLess, {sa, sb})}));
    case lang::CompareOp::kLe:
      return Value(B.Emit(lantern::LOp::kNot,
                          {B.Emit(lantern::LOp::kGreater, {sa, sb})}));
    default:
      return Value(B.Emit(*row.lop, {sa, sb}));
  }
}

Value LanternIf(Interpreter& in, const Value& cond, const Value& body_fn,
                const Value& orelse_fn) {
  LanternContext& ctx = RequireLantern(in, "if");
  auto& B = ctx.builder;
  const lantern::SymPtr& pred = cond.AsLantern();

  auto trace_branch = [&](const Value& thunk, std::vector<lantern::SymPtr>*
                                                  syms) -> lantern::Block {
    B.BeginBlock();
    Value result = CallThunk(in, thunk);
    if (result.IsTuple()) {
      for (const Value& e : result.AsTuple()->elts) {
        syms->push_back(ToLanternSym(in, e));
      }
      return B.TakeBlockMulti(*syms);
    }
    syms->push_back(ToLanternSym(in, result));
    return B.TakeBlock(syms->back());
  };

  std::vector<lantern::SymPtr> then_syms;
  lantern::Block tb = trace_branch(body_fn, &then_syms);
  std::vector<lantern::SymPtr> else_syms;
  lantern::Block eb = trace_branch(orelse_fn, &else_syms);
  if (then_syms.size() != else_syms.size()) {
    throw StagingError(
        "Lantern staged `if`: branches produce a different number of "
        "values; all code paths must produce consistent values");
  }

  if (then_syms.size() == 1 && tb.results.empty()) {
    return Value(B.EmitIf(pred, std::move(tb), std::move(eb),
                          then_syms[0]->is_tree && else_syms[0]->is_tree,
                          then_syms[0]->is_bool && else_syms[0]->is_bool));
  }
  std::vector<bool> is_tree;
  is_tree.reserve(then_syms.size());
  for (size_t i = 0; i < then_syms.size(); ++i) {
    is_tree.push_back(then_syms[i]->is_tree && else_syms[i]->is_tree);
  }
  std::vector<lantern::SymPtr> outs =
      B.EmitIfMulti(pred, std::move(tb), std::move(eb), is_tree);
  std::vector<Value> elts;
  elts.reserve(outs.size());
  for (lantern::SymPtr& o : outs) elts.emplace_back(std::move(o));
  return MakeTuple(std::move(elts));
}

// __def_staged / __call_staged: stages a user function at this call site,
// specialized to the argument kinds, and emits a Call binding. Recursive
// call sites hit the name cache while the definition is still open.
Value LanternStagedCall(Interpreter& in, const FunctionPtr& fn,
                        std::vector<Value> args) {
  LanternContext& ctx = RequireLantern(in, "staged call");
  auto& B = ctx.builder;

  // Globals (by-reference captures, e.g. weights) are not threaded
  // through calls: they bind directly to the callee's parameter names
  // during tracing, and the call site passes only the varying arguments.
  // The specialization signature records which positions were globals.
  std::string sig;
  std::vector<lantern::SymPtr> arg_syms;
  std::vector<lantern::SymPtr> call_syms;   // non-global call arguments
  std::vector<bool> param_is_tree;          // for non-globals
  arg_syms.reserve(args.size());
  for (const Value& a : args) {
    lantern::SymPtr s = ToLanternSym(in, a);
    if (s->global_index >= 0) {
      sig += "g";
      sig += std::to_string(s->global_index);
      sig += ",";
    } else {
      sig += s->is_tree ? 'T' : 't';
      param_is_tree.push_back(s->is_tree);
      call_syms.push_back(s);
    }
    arg_syms.push_back(std::move(s));
  }

  const auto key = std::make_pair(
      static_cast<const void*>(fn->def_node.get()), sig);
  auto it = ctx.staged_names.find(key);
  if (it == ctx.staged_names.end()) {
    const std::string name = ctx.UniqueName(
        fn->name.empty() ? std::string("staged_fn") : fn->name);
    ctx.staged_names.emplace(key, name);  // before tracing: recursion hits it
    FunctionPtr converted = in.ConvertFunctionValue(fn);
    std::vector<lantern::SymPtr> params =
        B.BeginFunction(name, param_is_tree);
    try {
      std::vector<Value> param_values;
      param_values.reserve(arg_syms.size());
      size_t next_param = 0;
      for (const lantern::SymPtr& s : arg_syms) {
        if (s->global_index >= 0) {
          param_values.emplace_back(s);  // global: bound by capture
        } else {
          param_values.emplace_back(params[next_param++]);
        }
      }
      Value result = in.CallFunctionValue(converted, std::move(param_values));
      if (result.IsTuple()) {
        // Multi-value return (non-recursive only: a recursive call site
        // inside would already have failed to unpack; pack recursive
        // multi-value state into one tensor instead).
        std::vector<lantern::SymPtr> result_syms;
        for (const Value& e : result.AsTuple()->elts) {
          result_syms.push_back(ToLanternSym(in, e));
        }
        B.EndFunctionMulti(result_syms);
        ctx.staged_arity[name] = static_cast<int>(result_syms.size());
      } else {
        B.EndFunction(ToLanternSym(in, result));
        ctx.staged_arity[name] = 1;
      }
    } catch (...) {
      ctx.staged_names.erase(key);
      throw;
    }
    it = ctx.staged_names.find(key);
  }
  const int arity = ctx.staged_arity.count(it->second) > 0
                        ? ctx.staged_arity.at(it->second)
                        : 1;  // recursive call site: assumed single
  if (arity <= 1) {
    return Value(B.EmitCall(it->second, call_syms));
  }
  std::vector<lantern::SymPtr> outs =
      B.EmitCallMulti(it->second, call_syms, static_cast<size_t>(arity));
  std::vector<Value> elts;
  elts.reserve(outs.size());
  for (lantern::SymPtr& o : outs) elts.emplace_back(std::move(o));
  return MakeTuple(std::move(elts));
}

}  // namespace

Output ToGraphOutput(Interpreter& in, const Value& v, DType preferred) {
  GraphContext& ctx = RequireStaging(in, "stage");
  if (v.IsGraphTensor()) return ctx.Resolve(v.AsGraphTensor());
  if (v.IsUndefined()) {
    throw StagingError(
        "symbol '" + std::get<UndefinedPtr>(v.v)->symbol +
        "' may be undefined here; in staged control flow, all code paths "
        "must initialize a variable before it is used");
  }
  if (v.IsTensor()) return graph::Const(ctx, v.AsTensor());
  if (v.IsInt()) {
    if (preferred == DType::kFloat32) {
      return graph::Const(ctx,
                          Tensor::Scalar(static_cast<float>(v.AsInt())));
    }
    return graph::Const(ctx, Tensor::ScalarInt(v.AsInt()));
  }
  if (v.IsBool()) return graph::Const(ctx, Tensor::ScalarBool(v.AsBool()));
  if (v.IsFloat()) {
    return graph::Const(ctx,
                        Tensor::Scalar(static_cast<float>(v.AsFloat())));
  }
  throw StagingError(std::string("value of type ") + v.TypeName() +
                     " cannot be staged into the graph: " + v.Repr());
}

std::vector<Output> FlattenToOutputs(Interpreter& in, const Value& v,
                                     std::vector<bool>* tuple_shape) {
  if (v.IsNone()) {
    if (tuple_shape != nullptr) tuple_shape->push_back(false);
    return {};
  }
  if (v.IsTuple()) {
    if (tuple_shape != nullptr) tuple_shape->push_back(true);
    std::vector<Output> outs;
    for (const Value& e : v.AsTuple()->elts) {
      outs.push_back(ToGraphOutput(in, e));
    }
    return outs;
  }
  if (tuple_shape != nullptr) tuple_shape->push_back(false);
  return {ToGraphOutput(in, v)};
}

Value RebuildFromOutputs(const std::vector<Output>& outs, bool was_tuple) {
  if (outs.empty()) return Value::None();
  if (!was_tuple && outs.size() == 1) return Value(outs[0]);
  std::vector<Value> elts;
  elts.reserve(outs.size());
  for (const Output& o : outs) elts.emplace_back(o);
  return MakeTuple(std::move(elts));
}

// ---------------------------------------------------------------------
// Operator overloading layer
// ---------------------------------------------------------------------

Value Binary(Interpreter& in, lang::BinaryOp op, const Value& a,
             const Value& b) {
  const BuiltinDef& row = BinaryOpRow(op);
  if (a.IsLantern() || b.IsLantern()) {
    return LanternBinary(in, op, row, a, b);
  }
  // Staged: any symbolic operand turns the op into a graph node.
  if (a.IsGraphTensor() || b.IsGraphTensor()) {
    const DType pref = a.IsGraphTensor() ? GraphDType(a) : GraphDType(b);
    GraphContext& ctx = RequireStaging(in, "binary op");
    return Value(Op(ctx, row.op,
                    {ToGraphOutput(in, a, pref), ToGraphOutput(in, b, pref)}));
  }
  // Eager tensor path.
  if (a.IsTensor() || b.IsTensor()) {
    obs::TraceScope scope(obs::CurrentTracer(), row.op, "eager");
    return Value(std::get<BinaryFn>(row.eager)(ToEager(a), ToEager(b)));
  }
  // Plain Python semantics.
  if (a.IsStr() || b.IsStr()) {
    if (op == lang::BinaryOp::kAdd && a.IsStr() && b.IsStr()) {
      return Value(a.AsStr() + b.AsStr());
    }
    throw ValueError("unsupported string operation");
  }
  if (a.IsList() && b.IsList() && op == lang::BinaryOp::kAdd) {
    std::vector<Value> out = *a.AsList();
    const auto& be = *b.AsList();
    out.insert(out.end(), be.begin(), be.end());
    return MakeList(std::move(out));
  }
  if ((a.IsNumber() || a.IsBool()) && (b.IsNumber() || b.IsBool())) {
    const bool both_int = !a.IsFloat() && !b.IsFloat();
    const double x = a.AsFloat();
    const double y = b.AsFloat();
    switch (op) {
      case lang::BinaryOp::kAdd:
        return both_int ? Value(a.AsInt() + b.AsInt()) : Value(x + y);
      case lang::BinaryOp::kSub:
        return both_int ? Value(a.AsInt() - b.AsInt()) : Value(x - y);
      case lang::BinaryOp::kMul:
        return both_int ? Value(a.AsInt() * b.AsInt()) : Value(x * y);
      case lang::BinaryOp::kDiv:
        if (y == 0.0) throw RuntimeError("division by zero");
        return Value(x / y);
      case lang::BinaryOp::kFloorDiv: {
        if (y == 0.0) throw RuntimeError("integer division by zero");
        const double q = std::floor(x / y);
        return both_int ? Value(static_cast<int64_t>(q)) : Value(q);
      }
      case lang::BinaryOp::kMod: {
        if (y == 0.0) throw RuntimeError("modulo by zero");
        const double m = x - std::floor(x / y) * y;
        return both_int ? Value(static_cast<int64_t>(m)) : Value(m);
      }
      case lang::BinaryOp::kPow: {
        const double p = std::pow(x, y);
        if (both_int && b.AsInt() >= 0) {
          return Value(static_cast<int64_t>(std::llround(p)));
        }
        return Value(p);
      }
    }
  }
  throw ValueError(std::string("unsupported operand types for ") +
                   lang::BinaryOpSymbol(op) + ": " + a.TypeName() + " and " +
                   b.TypeName());
}

Value Compare(Interpreter& in, lang::CompareOp op, const Value& a,
              const Value& b) {
  if (op == lang::CompareOp::kIn || op == lang::CompareOp::kNotIn) {
    if (b.IsGraphTensor() || a.IsGraphTensor()) {
      throw StagingError("'in' is not supported on symbolic tensors");
    }
    const std::vector<Value>* elts = nullptr;
    if (b.IsList()) elts = b.AsList().get();
    if (b.IsTuple()) elts = &b.AsTuple()->elts;
    if (elts == nullptr) {
      throw ValueError("'in' requires a list or tuple on the right");
    }
    bool found = false;
    for (const Value& e : *elts) {
      if (PyEquals(a, e)) {
        found = true;
        break;
      }
    }
    return Value(op == lang::CompareOp::kIn ? found : !found);
  }

  const BuiltinDef& row = *CompareOpRow(op);
  if (a.IsLantern() || b.IsLantern()) {
    return LanternCompare(in, op, row, a, b);
  }
  if (a.IsGraphTensor() || b.IsGraphTensor()) {
    const DType pref = a.IsGraphTensor() ? GraphDType(a) : GraphDType(b);
    GraphContext& ctx = RequireStaging(in, "comparison");
    return Value(Op(ctx, row.op,
                    {ToGraphOutput(in, a, pref), ToGraphOutput(in, b, pref)}));
  }
  if (a.IsTensor() || b.IsTensor()) {
    obs::TraceScope scope(obs::CurrentTracer(), row.op, "eager");
    const Tensor ta = ToEager(a);
    const Tensor tb = ToEager(b);
    return Value(std::get<BinaryFn>(row.eager)(ta, tb));
  }
  // Plain Python comparison.
  if (op == lang::CompareOp::kEq) return Value(PyEquals(a, b));
  if (op == lang::CompareOp::kNe) return Value(!PyEquals(a, b));
  if ((a.IsNumber() || a.IsBool()) && (b.IsNumber() || b.IsBool())) {
    const double x = a.AsFloat();
    const double y = b.AsFloat();
    switch (op) {
      case lang::CompareOp::kLt: return Value(x < y);
      case lang::CompareOp::kLe: return Value(x <= y);
      case lang::CompareOp::kGt: return Value(x > y);
      case lang::CompareOp::kGe: return Value(x >= y);
      default: break;
    }
  }
  if (a.IsStr() && b.IsStr()) {
    switch (op) {
      case lang::CompareOp::kLt: return Value(a.AsStr() < b.AsStr());
      case lang::CompareOp::kLe: return Value(a.AsStr() <= b.AsStr());
      case lang::CompareOp::kGt: return Value(a.AsStr() > b.AsStr());
      case lang::CompareOp::kGe: return Value(a.AsStr() >= b.AsStr());
      default: break;
    }
  }
  throw ValueError(std::string("unsupported comparison between ") +
                   a.TypeName() + " and " + b.TypeName());
}

Value Negate(Interpreter& in, const Value& a) {
  const BuiltinDef& row = NegateRow();
  if (a.IsLantern()) {
    return Value(in.lantern_ctx()->builder.Emit(*row.lop, {a.AsLantern()}));
  }
  if (a.IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "negation");
    return Value(Op(ctx, row.op, {ToGraphOutput(in, a)}));
  }
  if (a.IsTensor()) {
    obs::TraceScope scope(obs::CurrentTracer(), row.op, "eager");
    return Value(std::get<UnaryFn>(row.eager)(a.AsTensor()));
  }
  if (a.IsInt() || a.IsBool()) return Value(-a.AsInt());
  if (a.IsFloat()) return Value(-a.AsFloat());
  throw ValueError(std::string("bad operand type for unary -: ") +
                   a.TypeName());
}

Value GetItem(Interpreter& in, const Value& obj, const Value& index) {
  if (obj.IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "subscript");
    Output idx = ToGraphOutput(in, index, DType::kInt32);
    if (IsStagedList(obj)) {
      return Value(Op(ctx, "TensorListGet", {ToGraphOutput(in, obj), idx}));
    }
    return Value(Op(ctx, "IndexAxis0", {ToGraphOutput(in, obj), idx}));
  }
  if (obj.IsTensor()) {
    if (index.IsGraphTensor()) {
      GraphContext& ctx = RequireStaging(in, "subscript");
      return Value(Op(ctx, "IndexAxis0",
                      {ToGraphOutput(in, obj),
                       ToGraphOutput(in, index, DType::kInt32)}));
    }
    int64_t i = index.IsTensor() ? index.AsTensor().scalar_int()
                                 : index.AsInt();
    return Value(IndexAxis0(obj.AsTensor(), i));
  }
  if (obj.IsList() || obj.IsTuple()) {
    const std::vector<Value>& elts =
        obj.IsList() ? *obj.AsList() : obj.AsTuple()->elts;
    int64_t i = index.AsInt();
    if (i < 0) i += static_cast<int64_t>(elts.size());
    if (i < 0 || i >= static_cast<int64_t>(elts.size())) {
      throw RuntimeError("list index out of range");
    }
    return elts[static_cast<size_t>(i)];
  }
  if (obj.IsStr()) {
    const std::string& s = obj.AsStr();
    int64_t i = index.AsInt();
    if (i < 0) i += static_cast<int64_t>(s.size());
    if (i < 0 || i >= static_cast<int64_t>(s.size())) {
      throw RuntimeError("string index out of range");
    }
    return Value(std::string(1, s[static_cast<size_t>(i)]));
  }
  throw ValueError(std::string(obj.TypeName()) +
                   " object is not subscriptable");
}

Value SetItem(Interpreter& in, const Value& obj, const Value& index,
              const Value& value) {
  if (obj.IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "slice assignment");
    Output idx = ToGraphOutput(in, index, DType::kInt32);
    if (IsStagedList(obj)) {
      return Value(Op(ctx, "TensorListSet",
                      {ToGraphOutput(in, obj), idx,
                       ToGraphOutput(in, value)}));
    }
    return Value(Op(ctx, "SetItemAxis0",
                    {ToGraphOutput(in, obj), idx, ToGraphOutput(in, value)}));
  }
  if (obj.IsTensor()) {
    int64_t i = index.IsTensor() ? index.AsTensor().scalar_int()
                                 : index.AsInt();
    return Value(SetItemAxis0(obj.AsTensor(), i, ToEager(value)));
  }
  if (obj.IsList()) {
    auto& elts = *obj.AsList();
    int64_t i = index.AsInt();
    if (i < 0) i += static_cast<int64_t>(elts.size());
    if (i < 0 || i >= static_cast<int64_t>(elts.size())) {
      throw RuntimeError("list assignment index out of range");
    }
    elts[static_cast<size_t>(i)] = value;
    return obj;  // value-semantics interface over an in-place update
  }
  throw ValueError(std::string(obj.TypeName()) +
                   " object does not support item assignment");
}

// ---------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------

Value IfStmt(Interpreter& in, const Value& cond, const Value& body_fn,
             const Value& orelse_fn) {
  if (cond.IsLantern()) {
    return LanternIf(in, cond, body_fn, orelse_fn);
  }
  if (cond.IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "if");
    Output pred = ToGraphOutput(in, cond);
    if (pred.node->output_dtype(pred.index) != DType::kBool) {
      throw StagingError(
          "staged `if` requires a boolean tensor predicate, got dtype " +
          std::string(DTypeName(pred.node->output_dtype(pred.index))));
    }
    bool then_tuple = false;
    bool else_tuple = false;
    std::vector<Output> outs = graph::Cond(
        ctx, pred,
        [&] {
          std::vector<bool> shape;
          auto o = FlattenToOutputs(in, CallThunk(in, body_fn), &shape);
          then_tuple = shape[0];
          return o;
        },
        [&] {
          std::vector<bool> shape;
          auto o = FlattenToOutputs(in, CallThunk(in, orelse_fn), &shape);
          else_tuple = shape[0];
          return o;
        });
    if (then_tuple != else_tuple) {
      throw StagingError(
          "staged `if`: branches produce inconsistent value structures; "
          "all code paths must produce consistent values");
    }
    return RebuildFromOutputs(outs, then_tuple);
  }
  // Plain Python semantics (macro-style conditional on hyperparameters).
  return Truthy(cond) ? CallThunk(in, body_fn) : CallThunk(in, orelse_fn);
}

Value WhileStmt(Interpreter& in, const Value& test_fn, const Value& body_fn,
                const Value& init_state) {
  std::vector<Value> state =
      init_state.IsTuple() ? init_state.AsTuple()->elts
                           : std::vector<Value>{init_state};
  const size_t n = state.size();

  bool staged = [&state] {
    for (const Value& s : state) {
      if (s.IsGraphTensor()) return true;
    }
    return false;
  }();

  if (!staged) {
    // The loop state alone does not decide staging: `i = 0; while i < n:`
    // with a symbolic `n` carries only Python ints but still needs a
    // graph While. Probe the condition once — a symbolic test forces the
    // staged path (the probe node, if any, is dead and removed by DCE).
    Value test = in.CallCallable(test_fn, state);
    if (test.IsGraphTensor()) {
      staged = true;
    } else {
      while (Truthy(test)) {
        Value next = in.CallCallable(body_fn, state);
        state = UnpackState(next, n, "while loop body");
        test = in.CallCallable(test_fn, state);
      }
      return PackState(std::move(state));
    }
  }

  GraphContext& ctx = RequireStaging(in, "while");
  std::vector<Output> init;
  init.reserve(n);
  for (const Value& s : state) {
    if (s.IsUndefined()) {
      throw StagingError(
          "loop variable '" + std::get<UndefinedPtr>(s.v)->symbol +
          "' must be initialized before a staged while loop");
    }
    init.push_back(ToGraphOutput(in, s));
  }

  auto as_values = [](const std::vector<Output>& outs) {
    std::vector<Value> vals;
    vals.reserve(outs.size());
    for (const Output& o : outs) vals.emplace_back(o);
    return vals;
  };

  std::vector<Output> outs = graph::While(
      ctx, init,
      [&](const std::vector<Output>& args) {
        Value test = in.CallCallable(test_fn, as_values(args));
        Output t = ToGraphOutput(in, test);
        if (t.node->output_dtype(t.index) != DType::kBool) {
          throw StagingError(
              "staged `while` requires a boolean tensor condition");
        }
        return t;
      },
      [&](const std::vector<Output>& args) {
        Value next = in.CallCallable(body_fn, as_values(args));
        std::vector<Value> next_state =
            UnpackState(next, n, "while loop body");
        std::vector<Output> next_outs;
        next_outs.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          next_outs.push_back(ToGraphOutput(
              in, next_state[i],
              init[i].node->output_dtype(init[i].index)));
        }
        return next_outs;
      });

  std::vector<Value> final_state = as_values(outs);
  final_state.resize(n);  // While returns max(n, 1) outputs
  return PackState(std::move(final_state));
}

Value ForStmt(Interpreter& in, const Value& iter, const Value& body_fn,
              const Value& init_state) {
  std::vector<Value> state =
      init_state.IsTuple() ? init_state.AsTuple()->elts
                           : std::vector<Value>{init_state};
  const size_t n = state.size();

  if (!iter.IsGraphTensor()) {
    // Eager iteration over Python sequences or concrete tensors.
    std::vector<Value> items;
    if (iter.IsList()) {
      items = *iter.AsList();
    } else if (iter.IsTuple()) {
      items = iter.AsTuple()->elts;
    } else if (iter.IsTensor()) {
      for (Tensor& row : Unstack(iter.AsTensor())) {
        items.emplace_back(std::move(row));
      }
    } else {
      throw ValueError(std::string(iter.TypeName()) +
                       " object is not iterable");
    }
    for (const Value& item : items) {
      std::vector<Value> args{item};
      args.insert(args.end(), state.begin(), state.end());
      Value next = in.CallCallable(body_fn, std::move(args));
      state = UnpackState(next, n, "for loop body");
    }
    return PackState(std::move(state));
  }

  // Staged: lower to a while loop over an index counter.
  GraphContext& ctx = RequireStaging(in, "for");
  Output it = ToGraphOutput(in, iter);
  const bool is_list = IsStagedList(iter);
  Output limit = is_list ? Op(ctx, "TensorListLen", {it})
                         : Op(ctx, "Dim0", {it});

  std::vector<Output> init;
  init.reserve(n + 1);
  init.push_back(graph::Const(ctx, Tensor::ScalarInt(0)));
  for (const Value& s : state) {
    if (s.IsUndefined()) {
      throw StagingError(
          "loop variable '" + std::get<UndefinedPtr>(s.v)->symbol +
          "' must be initialized before a staged for loop");
    }
    init.push_back(ToGraphOutput(in, s));
  }

  std::vector<Output> outs = graph::While(
      ctx, init,
      [&](const std::vector<Output>& args) {
        return Op(ctx, "Less", {args[0], limit});
      },
      [&](const std::vector<Output>& args) {
        Output elem = is_list
                          ? Op(ctx, "TensorListGet", {it, args[0]})
                          : Op(ctx, "IndexAxis0", {it, args[0]});
        std::vector<Value> call_args{Value(elem)};
        for (size_t i = 1; i < args.size(); ++i) {
          call_args.emplace_back(args[i]);
        }
        Value next = in.CallCallable(body_fn, std::move(call_args));
        std::vector<Value> next_state =
            UnpackState(next, n, "for loop body");
        std::vector<Output> next_outs;
        next_outs.reserve(n + 1);
        next_outs.push_back(
            Op(ctx, "Add",
               {args[0], graph::Const(ctx, Tensor::ScalarInt(1))}));
        for (size_t i = 0; i < n; ++i) {
          next_outs.push_back(ToGraphOutput(
              in, next_state[i],
              init[i + 1].node->output_dtype(init[i + 1].index)));
        }
        return next_outs;
      });

  std::vector<Value> final_state;
  final_state.reserve(n);
  for (size_t i = 1; i <= n; ++i) final_state.emplace_back(outs[i]);
  return PackState(std::move(final_state));
}

// ---------------------------------------------------------------------
// Logical / comparison functional forms
// ---------------------------------------------------------------------

Value And(Interpreter& in, const Value& a, const Value& b_thunk) {
  if (a.IsLantern()) {
    Value return_a = MakeNative(
        "", [a](Interpreter&, std::vector<Value>&, Kwargs&) { return a; });
    return LanternIf(in, a, b_thunk, return_a);
  }
  if (a.IsGraphTensor()) {
    // Lazy: tf.cond(a, lambda: b, lambda: a) per Appendix E.
    GraphContext& ctx = RequireStaging(in, "and");
    Output pa = ToGraphOutput(in, a);
    std::vector<Output> outs = graph::Cond(
        ctx, pa,
        [&] {
          return std::vector<Output>{
              ToGraphOutput(in, CallThunk(in, b_thunk))};
        },
        [&] { return std::vector<Output>{pa}; });
    return Value(outs[0]);
  }
  if (a.IsTensor()) {
    return Truthy(a) ? CallThunk(in, b_thunk) : a;
  }
  return Truthy(a) ? CallThunk(in, b_thunk) : a;
}

Value Or(Interpreter& in, const Value& a, const Value& b_thunk) {
  if (a.IsLantern()) {
    Value return_a = MakeNative(
        "", [a](Interpreter&, std::vector<Value>&, Kwargs&) { return a; });
    return LanternIf(in, a, return_a, b_thunk);
  }
  if (a.IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "or");
    Output pa = ToGraphOutput(in, a);
    std::vector<Output> outs = graph::Cond(
        ctx, pa, [&] { return std::vector<Output>{pa}; },
        [&] {
          return std::vector<Output>{
              ToGraphOutput(in, CallThunk(in, b_thunk))};
        });
    return Value(outs[0]);
  }
  return Truthy(a) ? a : CallThunk(in, b_thunk);
}

Value Not(Interpreter& in, const Value& a) {
  if (a.IsLantern()) {
    return Value(in.lantern_ctx()->builder.Emit(lantern::LOp::kNot,
                                                {a.AsLantern()}));
  }
  if (a.IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "not");
    return Value(Op(ctx, "LogicalNot", {ToGraphOutput(in, a)}));
  }
  if (a.IsTensor()) return Value(LogicalNot(a.AsTensor()));
  return Value(!Truthy(a));
}

Value Eq(Interpreter& in, const Value& a, const Value& b) {
  return Compare(in, lang::CompareOp::kEq, a, b);
}

Value NotEq(Interpreter& in, const Value& a, const Value& b) {
  return Compare(in, lang::CompareOp::kNe, a, b);
}

Value IfExp(Interpreter& in, const Value& cond, const Value& body_thunk,
            const Value& orelse_thunk) {
  return IfStmt(in, cond, body_thunk, orelse_thunk);
}

// ---------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------

Value ConvertedCall(Interpreter& in, const Value& fn, std::vector<Value> args,
                    Kwargs kwargs) {
  if (fn.IsNative()) {
    return fn.AsNative()->fn(in, args, kwargs);
  }
  if (fn.IsFunction()) {
    const FunctionPtr& f = fn.AsFunction();
    // Lantern backend: user functions called with staged arguments become
    // staged (and possibly recursive) IR functions.
    if (in.lantern_staging() && f->def_node) {
      bool any_lantern = false;
      for (const Value& a : args) any_lantern = any_lantern || a.IsLantern();
      if (any_lantern) {
        if (!kwargs.empty()) {
          throw UnsupportedError(
              "keyword arguments are not supported in Lantern staged calls");
        }
        return LanternStagedCall(in, f, std::move(args));
      }
    }
    // Non-recursive conversion ("-call_trees") runs callees as written.
    if (f->converted ||
        !in.options().conversion.pipeline.Selects("call_trees", true)) {
      return in.CallFunctionValue(f, std::move(args), std::move(kwargs));
    }
    FunctionPtr converted = in.ConvertFunctionValue(f);
    return in.CallFunctionValue(converted, std::move(args),
                                std::move(kwargs));
  }
  if (fn.IsObject()) {
    const ObjectPtr& obj = fn.AsObject();
    if (obj->HasAttr("__call__")) {
      return ConvertedCall(in, obj->GetAttr("__call__"), std::move(args),
                           std::move(kwargs));
    }
  }
  throw ValueError(std::string(fn.TypeName()) + " object is not callable: " +
                   fn.Repr());
}

// ---------------------------------------------------------------------
// List idioms
// ---------------------------------------------------------------------

Value ListAppend(Interpreter& in, const Value& list, const Value& value) {
  if (list.IsList()) {
    list.AsList()->push_back(value);
    return list;
  }
  if (IsStagedList(list)) {
    GraphContext& ctx = RequireStaging(in, "list append");
    return Value(Op(ctx, "TensorListPushBack",
                    {ToGraphOutput(in, list), ToGraphOutput(in, value)}));
  }
  throw ValueError(std::string("append on non-list value of type ") +
                   list.TypeName());
}

Value ListPop(Interpreter& in, const Value& list) {
  if (list.IsList()) {
    auto& elts = *list.AsList();
    if (elts.empty()) throw RuntimeError("pop from empty list");
    Value last = elts.back();
    elts.pop_back();
    return MakeTuple({list, last});
  }
  if (IsStagedList(list)) {
    GraphContext& ctx = RequireStaging(in, "list pop");
    std::vector<Output> outs =
        OpN(ctx, "TensorListPopBack", {ToGraphOutput(in, list)}, {}, 2);
    return MakeTuple({Value(outs[0]), Value(outs[1])});
  }
  throw ValueError(std::string("pop on non-list value of type ") +
                   list.TypeName());
}

Value SetElementType(Interpreter& in, const Value& list,
                     const Value& dtype) {
  if (!in.staging()) return list;  // advisory in eager mode
  if (list.IsGraphTensor()) return list;
  if (!list.IsList() || !list.AsList()->empty()) {
    throw StagingError(
        "ag.set_element_type requires an empty list when staging");
  }
  GraphContext& ctx = *in.graph_ctx();
  Output l = Op(ctx, "TensorListNew", {},
                {{"dtype", dtype.IsDType() ? dtype.AsDType()
                                           : DType::kFloat32}});
  return Value(l);
}

Value StackList(Interpreter& in, const Value& list) {
  if (IsStagedList(list)) {
    GraphContext& ctx = RequireStaging(in, "stack");
    return Value(Op(ctx, "TensorListStack", {ToGraphOutput(in, list)}));
  }
  if (list.IsList() || list.IsTuple()) {
    const std::vector<Value>& elts =
        list.IsList() ? *list.AsList() : list.AsTuple()->elts;
    if (elts.empty()) throw ValueError("cannot stack an empty list");
    bool any_graph = false;
    for (const Value& e : elts) any_graph = any_graph || e.IsGraphTensor();
    if (any_graph) {
      GraphContext& ctx = RequireStaging(in, "stack");
      std::vector<Output> outs;
      outs.reserve(elts.size());
      for (const Value& e : elts) outs.push_back(ToGraphOutput(in, e));
      return Value(Op(ctx, "Pack", std::move(outs)));
    }
    std::vector<Tensor> tensors;
    tensors.reserve(elts.size());
    for (const Value& e : elts) tensors.push_back(ToEager(e));
    return Value(Stack(tensors));
  }
  throw ValueError(std::string("cannot stack value of type ") +
                   list.TypeName());
}

// ---------------------------------------------------------------------
// Misc statements / builtins
// ---------------------------------------------------------------------

Value AssertStmt(Interpreter& in, const Value& test_thunk,
                 const Value& msg_thunk) {
  Value test = CallThunk(in, test_thunk);
  if (test.IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "assert");
    Value msg = CallThunk(in, msg_thunk);
    std::string text = msg.IsStr() ? msg.AsStr() : msg.Repr();
    return Value(Op(ctx, "Assert", {ToGraphOutput(in, test)},
                    {{"message", text}}));
  }
  if (!Truthy(test)) {
    Value msg = CallThunk(in, msg_thunk);
    throw RuntimeError("assertion failed" +
                       (msg.IsNone() ? std::string()
                                     : ": " + msg.Repr()));
  }
  return Value::None();
}

Value Print(Interpreter& in, std::vector<Value>& args) {
  bool any_graph = false;
  for (const Value& a : args) any_graph = any_graph || a.IsGraphTensor();
  if (any_graph) {
    // Staged print (tf.print analog): emits a Print node. Like TF, the
    // node only fires if it is on the path to a fetched output.
    GraphContext& ctx = RequireStaging(in, "print");
    std::vector<Output> ins;
    std::string prefix;
    for (const Value& a : args) {
      if (a.IsGraphTensor() || a.IsTensor() || a.IsNumber() || a.IsBool()) {
        ins.push_back(ToGraphOutput(in, a));
      } else {
        prefix += a.Repr() + " ";
      }
    }
    return Value(Op(ctx, "Print", std::move(ins), {{"message", prefix}}));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) std::cout << " ";
    if (args[i].IsStr()) {
      std::cout << args[i].AsStr();
    } else {
      std::cout << args[i].Repr();
    }
  }
  std::cout << "\n";
  return Value::None();
}

Value Len(Interpreter& in, const Value& v) {
  if (v.IsList()) return Value(static_cast<int64_t>(v.AsList()->size()));
  if (v.IsTuple()) {
    return Value(static_cast<int64_t>(v.AsTuple()->elts.size()));
  }
  if (v.IsStr()) return Value(static_cast<int64_t>(v.AsStr().size()));
  if (v.IsTensor()) {
    if (v.AsTensor().rank() < 1) throw ValueError("len() of a scalar tensor");
    return Value(v.AsTensor().shape().dim(0));
  }
  if (v.IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "len");
    if (IsStagedList(v)) {
      return Value(Op(ctx, "TensorListLen", {ToGraphOutput(in, v)}));
    }
    return Value(Op(ctx, "Dim0", {ToGraphOutput(in, v)}));
  }
  throw ValueError(std::string("object of type ") + v.TypeName() +
                   " has no len()");
}

Value Range(Interpreter& in, std::vector<Value>& args) {
  if (args.size() == 1 && args[0].IsGraphTensor()) {
    GraphContext& ctx = RequireStaging(in, "range");
    return Value(Op(ctx, "Range",
                    {ToGraphOutput(in, args[0], DType::kInt32)}));
  }
  int64_t start = 0;
  int64_t stop = 0;
  int64_t step = 1;
  if (args.size() == 1) {
    stop = args[0].AsInt();
  } else if (args.size() == 2) {
    start = args[0].AsInt();
    stop = args[1].AsInt();
  } else if (args.size() == 3) {
    start = args[0].AsInt();
    stop = args[1].AsInt();
    step = args[2].AsInt();
    if (step == 0) throw ValueError("range() arg 3 must not be zero");
  } else {
    throw ValueError("range() takes 1 to 3 arguments");
  }
  std::vector<Value> out;
  if (step > 0) {
    for (int64_t i = start; i < stop; i += step) out.emplace_back(i);
  } else {
    for (int64_t i = start; i > stop; i += step) out.emplace_back(i);
  }
  return MakeList(std::move(out));
}

}  // namespace ag::core::ops
