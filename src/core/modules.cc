#include "core/modules.h"

#include <cmath>
#include <cstdlib>
#include <span>
#include <string>

#include "autodiff/graph_grad.h"
#include "core/builtins.h"
#include "core/operators.h"
#include "tensor/tensor_ops.h"

namespace ag::core {

using graph::GraphContext;
using graph::Op;
using graph::OpN;
using graph::Output;

namespace {

void RequireArgs(const std::vector<Value>& args, size_t n,
                 const char* name) {
  if (args.size() != n) {
    throw ValueError(std::string(name) + "() expects " + std::to_string(n) +
                     " arguments, got " + std::to_string(args.size()));
  }
}

const Value* FindKwarg(const Kwargs& kwargs, const std::string& name) {
  for (const auto& [k, v] : kwargs) {
    if (k == name) return &v;
  }
  return nullptr;
}

// Converts a (possibly nested) PyMini list/number literal to a Tensor.
Tensor ValueToTensor(const Value& v, DType dtype) {
  if (v.IsTensor()) {
    return dtype == v.AsTensor().dtype() ? v.AsTensor()
                                         : v.AsTensor().Cast(dtype);
  }
  if (v.IsNumber() || v.IsBool()) {
    return Tensor::Scalar(static_cast<float>(v.AsFloat()), dtype);
  }
  if (v.IsList() || v.IsTuple()) {
    const std::vector<Value>& elts =
        v.IsList() ? *v.AsList() : v.AsTuple()->elts;
    if (elts.empty()) return Tensor::Zeros(Shape({0}), dtype);
    // Nested lists -> stack recursively.
    if (elts[0].IsList() || elts[0].IsTuple()) {
      std::vector<Tensor> rows;
      rows.reserve(elts.size());
      for (const Value& e : elts) rows.push_back(ValueToTensor(e, dtype));
      return Stack(rows);
    }
    std::vector<float> data;
    data.reserve(elts.size());
    for (const Value& e : elts) {
      data.push_back(static_cast<float>(e.AsFloat()));
    }
    return Tensor::FromVector(std::move(data),
                              Shape({static_cast<int64_t>(elts.size())}),
                              dtype);
  }
  throw ValueError(std::string("cannot convert ") + v.TypeName() +
                   " to a tensor");
}

// Extracts a shape from a list/tuple of ints.
Shape ValueToShape(const Value& v) {
  const std::vector<Value>* elts = nullptr;
  if (v.IsList()) elts = v.AsList().get();
  if (v.IsTuple()) elts = &v.AsTuple()->elts;
  if (elts == nullptr) {
    if (v.IsInt()) return Shape({v.AsInt()});
    throw ValueError("shape must be a list/tuple of ints");
  }
  std::vector<int64_t> dims;
  dims.reserve(elts->size());
  for (const Value& e : *elts) dims.push_back(e.AsInt());
  return Shape(std::move(dims));
}

std::vector<int> ValueToPerm(const Value& v) {
  const std::vector<Value>* elts = nullptr;
  if (v.IsList()) elts = v.AsList().get();
  if (v.IsTuple()) elts = &v.AsTuple()->elts;
  if (elts == nullptr) throw ValueError("perm must be a list/tuple of ints");
  std::vector<int> perm;
  perm.reserve(elts->size());
  for (const Value& e : *elts) perm.push_back(static_cast<int>(e.AsInt()));
  return perm;
}

// True when a builtin over `args` emits a graph node rather than running
// eagerly.
bool ShouldStage(Interpreter& in, std::span<const Value> args) {
  if (in.staging()) return true;
  for (const Value& a : args) {
    if (a.IsGraphTensor()) return true;
  }
  return false;
}

// The one dispatcher behind every generic tf.* builtin: `name` is the
// dotted name the user called, `row` the builtin-table row it names.
Value CallBuiltin(Interpreter& in, const BuiltinDef& row,
                  const std::string& name, const std::vector<Value>& args,
                  const Kwargs& kwargs) {
  const BuiltinKind kind = row.kind();
  if (kind == BuiltinKind::kReduction) {
    if (args.empty() || args.size() > 2) {
      throw ValueError(name + "() expects 1 or 2 arguments, got " +
                       std::to_string(args.size()));
    }
  } else {
    RequireArgs(args, kind == BuiltinKind::kUnary ? 1 : 2, name.c_str());
  }
  // Only reductions take keywords; anything else would be silently ignored.
  for (const auto& [k, v] : kwargs) {
    if (kind != BuiltinKind::kReduction || (k != "axis" && k != "keepdims")) {
      throw ValueError(name + "() got an unexpected keyword argument '" + k +
                       "'");
    }
  }
  // A reduction's tensor operand is its first argument; the rest is axis.
  const std::span<const Value> operands =
      kind == BuiltinKind::kReduction ? std::span(args).first(1)
                                      : std::span(args);

  // During Lantern tracing all tensor math is staged (constants fold into
  // Const bindings).
  if (in.lantern_staging()) {
    if (!row.lop) {
      throw UnsupportedError(std::string("op '") + row.op +
                             "' is not supported by the Lantern backend");
    }
    if (kind == BuiltinKind::kReduction &&
        (args.size() > 1 || !kwargs.empty())) {
      throw UnsupportedError(std::string("op '") + row.op +
                             "' with axis arguments is not supported by the "
                             "Lantern backend");
    }
    std::vector<lantern::SymPtr> ins;
    ins.reserve(operands.size());
    for (const Value& a : operands) ins.push_back(ops::ToLanternSym(in, a));
    return Value(in.lantern_ctx()->builder.Emit(*row.lop, ins));
  }

  int axis = kAllAxes;
  bool keepdims = false;
  graph::AttrMap attrs;
  if (kind == BuiltinKind::kReduction) {
    if (args.size() > 1 && !args[1].IsNone()) {
      axis = static_cast<int>(args[1].AsInt());
    }
    if (const Value* v = FindKwarg(kwargs, "axis"); v != nullptr) {
      axis = static_cast<int>(v->AsInt());
    }
    if (const Value* v = FindKwarg(kwargs, "keepdims"); v != nullptr) {
      keepdims = Truthy(*v);
    }
    attrs["keepdims"] = static_cast<int64_t>(keepdims);
    if (axis != kAllAxes) attrs["axis"] = static_cast<int64_t>(axis);
  }

  if (ShouldStage(in, operands)) {
    GraphContext& ctx = ops::RequireStaging(in, name.c_str());
    std::vector<Output> ins;
    ins.reserve(operands.size());
    for (const Value& a : operands) ins.push_back(ops::ToGraphOutput(in, a));
    return Value(Op(ctx, row.op, std::move(ins), std::move(attrs)));
  }
  if (kind == BuiltinKind::kUnary) {
    return Value(std::get<UnaryFn>(row.eager)(ops::ToEager(args[0])));
  }
  if (kind == BuiltinKind::kBinary) {
    return Value(std::get<BinaryFn>(row.eager)(ops::ToEager(args[0]),
                                               ops::ToEager(args[1])));
  }
  return Value(
      std::get<ReduceFn>(row.eager)(ops::ToEager(args[0]), axis, keepdims));
}

Value NativeV(const std::string& name,
              std::function<Value(Interpreter&, std::vector<Value>&,
                                  Kwargs&)> fn) {
  return MakeNative(name, std::move(fn));
}

// ---------------------------------------------------------------------
// The `tf` module
// ---------------------------------------------------------------------

Value BuildTfModule() {
  auto tf = std::make_shared<ObjectValue>();
  tf->type_name = "module 'tf'";
  auto& m = tf->attrs;

  m["float32"] = Value(DType::kFloat32);
  m["int32"] = Value(DType::kInt32);
  m["bool"] = Value(DType::kBool);

  m["constant"] = NativeV("tf.constant", [](Interpreter& in,
                                            std::vector<Value>& args,
                                            Kwargs& kwargs) {
    if (args.empty()) throw ValueError("tf.constant needs a value");
    DType dtype = DType::kFloat32;
    if (args.size() > 1 && args[1].IsDType()) dtype = args[1].AsDType();
    if (const Value* v = FindKwarg(kwargs, "dtype"); v != nullptr) {
      dtype = v->AsDType();
    } else if (args.size() == 1 && args[0].IsInt()) {
      dtype = DType::kInt32;
    } else if (args.size() == 1 && args[0].IsBool()) {
      dtype = DType::kBool;
    }
    Tensor t = ValueToTensor(args[0], dtype);
    if (in.staging()) return Value(graph::Const(*in.graph_ctx(), t));
    return Value(std::move(t));
  });

  m["zeros"] = NativeV("tf.zeros", [](Interpreter& in,
                                      std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "tf.zeros");
    Tensor t = Tensor::Zeros(ValueToShape(args[0]));
    if (in.staging()) return Value(graph::Const(*in.graph_ctx(), t));
    return Value(std::move(t));
  });
  m["ones"] = NativeV("tf.ones", [](Interpreter& in,
                                    std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "tf.ones");
    Tensor t = Tensor::Ones(ValueToShape(args[0]));
    if (in.staging()) return Value(graph::Const(*in.graph_ctx(), t));
    return Value(std::move(t));
  });

  // Generic builtins: one native per tf name of each builtin-table row,
  // named as the user calls it.
  auto nn = std::make_shared<ObjectValue>();
  nn->type_name = "module 'tf.nn'";
  for (const BuiltinDef& row : BuiltinTable()) {
    for (std::string_view tf_name : row.tf_names) {
      if (tf_name.empty()) continue;
      const bool in_nn = tf_name.starts_with("nn.");
      std::string name = "tf." + std::string(tf_name);
      (in_nn ? nn->attrs : m)[std::string(tf_name.substr(in_nn ? 3 : 0))] =
          NativeV(name, [&row, name](Interpreter& in,
                                     std::vector<Value>& args,
                                     Kwargs& kwargs) {
            return CallBuiltin(in, row, name, args, kwargs);
          });
    }
  }
  m["nn"] = Value(std::move(nn));

  m["argmax"] = NativeV("tf.argmax", [](Interpreter& in,
                                        std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 2, "tf.argmax");
    const auto axis = static_cast<int64_t>(args[1].AsInt());
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "ArgMax",
                      {ops::ToGraphOutput(in, args[0])}, {{"axis", axis}}));
    }
    return Value(ArgMax(ops::ToEager(args[0]), static_cast<int>(axis)));
  });

  m["transpose"] = NativeV("tf.transpose", [](Interpreter& in,
                                              std::vector<Value>& args,
                                              Kwargs&) {
    RequireArgs(args, 2, "tf.transpose");
    std::vector<int> perm = ValueToPerm(args[1]);
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "Transpose",
                      {ops::ToGraphOutput(in, args[0])}, {{"perm", perm}}));
    }
    return Value(Transpose(ops::ToEager(args[0]), perm));
  });

  m["reshape"] = NativeV("tf.reshape", [](Interpreter& in,
                                          std::vector<Value>& args,
                                          Kwargs&) {
    RequireArgs(args, 2, "tf.reshape");
    Shape shape = ValueToShape(args[1]);
    if (in.lantern_staging()) {
      std::vector<int> dims;
      for (int64_t d : shape.dims()) dims.push_back(static_cast<int>(d));
      return Value(in.lantern_ctx()->builder.EmitReshape(
          ops::ToLanternSym(in, args[0]), std::move(dims)));
    }
    if (ShouldStage(in, args)) {
      std::vector<int> dims;
      for (int64_t d : shape.dims()) dims.push_back(static_cast<int>(d));
      return Value(Op(*in.graph_ctx(), "Reshape",
                      {ops::ToGraphOutput(in, args[0])}, {{"dims", dims}}));
    }
    return Value(Reshape(ops::ToEager(args[0]), shape));
  });

  m["expand_dims"] = NativeV("tf.expand_dims", [](Interpreter& in,
                                                  std::vector<Value>& args,
                                                  Kwargs&) {
    RequireArgs(args, 2, "tf.expand_dims");
    const auto axis = static_cast<int64_t>(args[1].AsInt());
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "ExpandDims",
                      {ops::ToGraphOutput(in, args[0])}, {{"axis", axis}}));
    }
    Tensor t = ops::ToEager(args[0]);
    std::vector<int64_t> dims = t.shape().dims();
    int ax = static_cast<int>(axis);
    if (ax < 0) ax += t.rank() + 1;
    dims.insert(dims.begin() + ax, 1);
    return Value(t.Reshaped(Shape(std::move(dims))));
  });

  m["shape"] = NativeV("tf.shape", [](Interpreter& in,
                                      std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "tf.shape");
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "Shape",
                      {ops::ToGraphOutput(in, args[0])}));
    }
    const Shape& s = ops::ToEager(args[0]).shape();
    std::vector<float> dims;
    for (int64_t d : s.dims()) dims.push_back(static_cast<float>(d));
    return Value(Tensor::FromVector(std::move(dims), Shape({s.rank()}),
                                    DType::kInt32));
  });

  m["range"] = NativeV("tf.range", [](Interpreter& in,
                                      std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "tf.range");
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "Range",
                      {ops::ToGraphOutput(in, args[0], DType::kInt32)}));
    }
    return Value(Range(args[0].IsTensor() ? args[0].AsTensor().scalar_int()
                                          : args[0].AsInt()));
  });

  m["where"] = NativeV("tf.where", [](Interpreter& in,
                                      std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 3, "tf.where");
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "Where",
                      {ops::ToGraphOutput(in, args[0]),
                       ops::ToGraphOutput(in, args[1]),
                       ops::ToGraphOutput(in, args[2])}));
    }
    return Value(Where(ops::ToEager(args[0]), ops::ToEager(args[1]),
                       ops::ToEager(args[2])));
  });

  m["concat"] = NativeV("tf.concat", [](Interpreter& in,
                                        std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 2, "tf.concat");
    const std::vector<Value>& elts = args[0].IsList()
                                         ? *args[0].AsList()
                                         : args[0].AsTuple()->elts;
    const auto axis = static_cast<int64_t>(args[1].AsInt());
    if (in.lantern_staging()) {
      if (elts.size() != 2 || axis != 0) {
        throw UnsupportedError(
            "the Lantern backend supports tf.concat of exactly two values "
            "along axis 0");
      }
      lantern::SymPtr a = ops::ToLanternSym(in, elts[0]);
      lantern::SymPtr b = ops::ToLanternSym(in, elts[1]);
      return Value(
          in.lantern_ctx()->builder.Emit(lantern::LOp::kConcat0, {a, b}));
    }
    bool staged = in.staging();
    for (const Value& e : elts) staged = staged || e.IsGraphTensor();
    if (staged) {
      std::vector<Output> ins;
      for (const Value& e : elts) ins.push_back(ops::ToGraphOutput(in, e));
      return Value(Op(*in.graph_ctx(), "Concat", std::move(ins),
                      {{"axis", axis}}));
    }
    std::vector<Tensor> parts;
    for (const Value& e : elts) parts.push_back(ops::ToEager(e));
    return Value(Concat(parts, static_cast<int>(axis)));
  });

  m["stack"] = NativeV("tf.stack", [](Interpreter& in,
                                      std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "tf.stack");
    return ops::StackList(in, args[0]);
  });

  m["cast"] = NativeV("tf.cast", [](Interpreter& in,
                                    std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 2, "tf.cast");
    DType dtype = args[1].AsDType();
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "Cast",
                      {ops::ToGraphOutput(in, args[0])},
                      {{"dtype", dtype}}));
    }
    return Value(ops::ToEager(args[0]).Cast(dtype));
  });

  m["one_hot"] = NativeV("tf.one_hot", [](Interpreter& in,
                                          std::vector<Value>& args,
                                          Kwargs&) {
    RequireArgs(args, 2, "tf.one_hot");
    const int64_t depth = args[1].AsInt();
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "OneHot",
                      {ops::ToGraphOutput(in, args[0])},
                      {{"depth", depth}}));
    }
    return Value(OneHot(ops::ToEager(args[0]), depth));
  });

  // Contiguous row slice: tf.slice_rows(x, start, len). Supported on all
  // three backends (eager kernel, graph SliceRows node, Lantern kSlice0).
  m["slice_rows"] = NativeV("tf.slice_rows", [](Interpreter& in,
                                                std::vector<Value>& args,
                                                Kwargs&) {
    RequireArgs(args, 3, "tf.slice_rows");
    const auto start = static_cast<int>(args[1].AsInt());
    const auto len = static_cast<int>(args[2].AsInt());
    if (in.lantern_staging()) {
      return Value(in.lantern_ctx()->builder.EmitSlice0(
          ops::ToLanternSym(in, args[0]), start, len));
    }
    if (ShouldStage(in, args)) {
      return Value(Op(*in.graph_ctx(), "SliceRows",
                      {ops::ToGraphOutput(in, args[0])},
                      {{"start", static_cast<int64_t>(start)},
                       {"len", static_cast<int64_t>(len)}}));
    }
    const Tensor& x = ops::ToEager(args[0]);
    const int64_t inner = x.num_elements() / x.shape().dim(0);
    std::vector<float> out(x.data() + start * inner,
                           x.data() + (start + len) * inner);
    std::vector<int64_t> dims = x.shape().dims();
    dims[0] = len;
    return Value(Tensor::FromVector(std::move(out), Shape(std::move(dims)),
                                    x.dtype()));
  });

  m["print"] = NativeV("tf.print", [](Interpreter& in,
                                      std::vector<Value>& args, Kwargs&) {
    return ops::Print(in, args);
  });

  m["gradients"] = NativeV("tf.gradients", [](Interpreter& in,
                                              std::vector<Value>& args,
                                              Kwargs&) {
    RequireArgs(args, 2, "tf.gradients");
    if (!in.staging()) {
      throw StagingError(
          "tf.gradients is only available during graph construction; use "
          "the eager GradientTape for define-by-run differentiation");
    }
    Output y = ops::ToGraphOutput(in, args[0]);
    const std::vector<Value>& xs_v = args[1].IsList()
                                         ? *args[1].AsList()
                                         : args[1].AsTuple()->elts;
    std::vector<Output> xs;
    for (const Value& x : xs_v) xs.push_back(ops::ToGraphOutput(in, x));
    std::vector<Output> grads = autodiff::Gradients(*in.graph_ctx(), y, xs);
    std::vector<Value> out;
    for (const Output& g : grads) out.emplace_back(g);
    return MakeList(std::move(out));
  });

  // tf.math submodule.
  auto math = std::make_shared<ObjectValue>();
  math->type_name = "module 'tf.math'";
  math->attrs["top_k"] = NativeV("tf.math.top_k", [](Interpreter& in,
                                                     std::vector<Value>& args,
                                                     Kwargs& kwargs) {
    // top_k(input, k): k may come by keyword; nothing else may.
    for (const auto& [name, v] : kwargs) {
      if (name != "k") {
        throw ValueError(
            "tf.math.top_k() got an unexpected keyword argument '" + name +
            "'");
      }
      if (args.size() >= 2) {
        throw ValueError(
            "tf.math.top_k() got multiple values for argument 'k'");
      }
      args.push_back(v);
    }
    RequireArgs(args, 2, "tf.math.top_k");
    const int64_t k = args[1].AsInt();
    if (ShouldStage(in, args)) {
      std::vector<Output> outs =
          OpN(*in.graph_ctx(), "TopK", {ops::ToGraphOutput(in, args[0])},
              {{"k", k}}, 2);
      return MakeTuple({Value(outs[0]), Value(outs[1])});
    }
    auto [values, indices] = TopK(ops::ToEager(args[0]), k);
    return MakeTuple({Value(values), Value(indices)});
  });
  m["math"] = Value(std::move(math));

  return Value(std::move(tf));
}

// ---------------------------------------------------------------------
// The `ag` module (user-facing) and `ag__` intrinsics
// ---------------------------------------------------------------------

Value BuildAgModule() {
  auto ag_mod = std::make_shared<ObjectValue>();
  ag_mod->type_name = "module 'ag'";
  ag_mod->attrs["stack"] = NativeV("ag.stack", [](Interpreter& in,
                                                  std::vector<Value>& args,
                                                  Kwargs&) {
    RequireArgs(args, 1, "ag.stack");
    return ops::StackList(in, args[0]);
  });
  // In eager (unconverted) execution these directives are advisory no-ops;
  // the Directives pass rewires them when code is converted.
  ag_mod->attrs["set_element_type"] = NativeV(
      "ag.set_element_type",
      [](Interpreter&, std::vector<Value>&, Kwargs&) {
        return Value::None();
      });
  ag_mod->attrs["set_loop_options"] = NativeV(
      "ag.set_loop_options",
      [](Interpreter&, std::vector<Value>&, Kwargs&) {
        return Value::None();
      });
  return Value(std::move(ag_mod));
}

Value BuildIntrinsics() {
  auto intr = std::make_shared<ObjectValue>();
  intr->type_name = "module 'ag__'";
  auto& m = intr->attrs;

  m["if_stmt"] = NativeV("ag__.if_stmt", [](Interpreter& in,
                                            std::vector<Value>& args,
                                            Kwargs&) {
    RequireArgs(args, 3, "ag__.if_stmt");
    return ops::IfStmt(in, args[0], args[1], args[2]);
  });
  m["while_stmt"] = NativeV("ag__.while_stmt", [](Interpreter& in,
                                                  std::vector<Value>& args,
                                                  Kwargs&) {
    RequireArgs(args, 3, "ag__.while_stmt");
    return ops::WhileStmt(in, args[0], args[1], args[2]);
  });
  m["for_stmt"] = NativeV("ag__.for_stmt", [](Interpreter& in,
                                              std::vector<Value>& args,
                                              Kwargs&) {
    RequireArgs(args, 3, "ag__.for_stmt");
    return ops::ForStmt(in, args[0], args[1], args[2]);
  });
  m["and_"] = NativeV("ag__.and_", [](Interpreter& in,
                                      std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 2, "ag__.and_");
    return ops::And(in, args[0], args[1]);
  });
  m["or_"] = NativeV("ag__.or_", [](Interpreter& in,
                                    std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 2, "ag__.or_");
    return ops::Or(in, args[0], args[1]);
  });
  m["not_"] = NativeV("ag__.not_", [](Interpreter& in,
                                      std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "ag__.not_");
    return ops::Not(in, args[0]);
  });
  m["eq"] = NativeV("ag__.eq", [](Interpreter& in, std::vector<Value>& args,
                                  Kwargs&) {
    RequireArgs(args, 2, "ag__.eq");
    return ops::Eq(in, args[0], args[1]);
  });
  m["not_eq"] = NativeV("ag__.not_eq", [](Interpreter& in,
                                          std::vector<Value>& args,
                                          Kwargs&) {
    RequireArgs(args, 2, "ag__.not_eq");
    return ops::NotEq(in, args[0], args[1]);
  });
  m["if_exp"] = NativeV("ag__.if_exp", [](Interpreter& in,
                                          std::vector<Value>& args,
                                          Kwargs&) {
    RequireArgs(args, 3, "ag__.if_exp");
    return ops::IfExp(in, args[0], args[1], args[2]);
  });
  m["converted_call"] = NativeV("ag__.converted_call",
                                [](Interpreter& in, std::vector<Value>& args,
                                   Kwargs& kwargs) {
                                  if (args.empty()) {
                                    throw ValueError(
                                        "converted_call needs a callee");
                                  }
                                  Value fn = args[0];
                                  std::vector<Value> rest(args.begin() + 1,
                                                          args.end());
                                  return ops::ConvertedCall(
                                      in, fn, std::move(rest), kwargs);
                                });
  m["list_append"] = NativeV("ag__.list_append", [](Interpreter& in,
                                                    std::vector<Value>& args,
                                                    Kwargs&) {
    RequireArgs(args, 2, "ag__.list_append");
    return ops::ListAppend(in, args[0], args[1]);
  });
  m["list_pop"] = NativeV("ag__.list_pop", [](Interpreter& in,
                                              std::vector<Value>& args,
                                              Kwargs&) {
    RequireArgs(args, 1, "ag__.list_pop");
    return ops::ListPop(in, args[0]);
  });
  m["set_element_type"] = NativeV(
      "ag__.set_element_type",
      [](Interpreter& in, std::vector<Value>& args, Kwargs&) {
        RequireArgs(args, 2, "ag__.set_element_type");
        return ops::SetElementType(in, args[0], args[1]);
      });
  m["stack"] = NativeV("ag__.stack", [](Interpreter& in,
                                        std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "ag__.stack");
    return ops::StackList(in, args[0]);
  });
  m["set_item"] = NativeV("ag__.set_item", [](Interpreter& in,
                                              std::vector<Value>& args,
                                              Kwargs&) {
    RequireArgs(args, 3, "ag__.set_item");
    return ops::SetItem(in, args[0], args[1], args[2]);
  });
  m["assert_stmt"] = NativeV("ag__.assert_stmt", [](Interpreter& in,
                                                    std::vector<Value>& args,
                                                    Kwargs&) {
    RequireArgs(args, 2, "ag__.assert_stmt");
    return ops::AssertStmt(in, args[0], args[1]);
  });
  m["Undefined"] = NativeV("ag__.Undefined", [](Interpreter&,
                                                std::vector<Value>& args,
                                                Kwargs&) {
    RequireArgs(args, 1, "ag__.Undefined");
    return MakeUndefined(args[0].AsStr());
  });
  return Value(std::move(intr));
}

}  // namespace

Value MakeObject(const std::string& type_name) {
  auto obj = std::make_shared<ObjectValue>();
  obj->type_name = type_name;
  return Value(std::move(obj));
}

EnvPtr BuildGlobals() {
  auto env = std::make_shared<Env>();

  // Builtins.
  env->Set("print", NativeV("print", [](Interpreter& in,
                                        std::vector<Value>& args, Kwargs&) {
    return ops::Print(in, args);
  }));
  env->Set("len", NativeV("len", [](Interpreter& in,
                                    std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "len");
    return ops::Len(in, args[0]);
  }));
  env->Set("range", NativeV("range", [](Interpreter& in,
                                        std::vector<Value>& args, Kwargs&) {
    return ops::Range(in, args);
  }));
  env->Set("int", NativeV("int", [](Interpreter& in,
                                    std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "int");
    const Value& v = args[0];
    if (v.IsGraphTensor()) {
      return Value(Op(*in.graph_ctx(), "Cast",
                      {ops::ToGraphOutput(in, v)},
                      {{"dtype", DType::kInt32}}));
    }
    if (v.IsTensor()) return Value(v.AsTensor().Cast(DType::kInt32));
    if (v.IsStr()) return Value(static_cast<int64_t>(std::stoll(v.AsStr())));
    return Value(static_cast<int64_t>(v.AsFloat()));
  }));
  env->Set("float", NativeV("float", [](Interpreter& in,
                                        std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "float");
    const Value& v = args[0];
    if (v.IsGraphTensor()) {
      return Value(Op(*in.graph_ctx(), "Cast",
                      {ops::ToGraphOutput(in, v)},
                      {{"dtype", DType::kFloat32}}));
    }
    if (v.IsTensor()) return Value(v.AsTensor().Cast(DType::kFloat32));
    if (v.IsStr()) return Value(std::stod(v.AsStr()));
    return Value(v.AsFloat());
  }));
  env->Set("bool", NativeV("bool", [](Interpreter&, std::vector<Value>& args,
                                      Kwargs&) {
    RequireArgs(args, 1, "bool");
    return Value(Truthy(args[0]));
  }));
  env->Set("abs", NativeV("abs", [](Interpreter& in,
                                    std::vector<Value>& args, Kwargs&) {
    RequireArgs(args, 1, "abs");
    const Value& v = args[0];
    if (v.IsGraphTensor()) {
      return Value(Op(*in.graph_ctx(), "Abs", {ops::ToGraphOutput(in, v)}));
    }
    if (v.IsTensor()) return Value(Abs(v.AsTensor()));
    if (v.IsInt()) return Value(std::abs(v.AsInt()));
    return Value(std::fabs(v.AsFloat()));
  }));
  env->Set("min", NativeV("min", [](Interpreter&, std::vector<Value>& args,
                                    Kwargs&) {
    RequireArgs(args, 2, "min");
    return args[0].AsFloat() <= args[1].AsFloat() ? args[0] : args[1];
  }));
  env->Set("max", NativeV("max", [](Interpreter&, std::vector<Value>& args,
                                    Kwargs&) {
    RequireArgs(args, 2, "max");
    return args[0].AsFloat() >= args[1].AsFloat() ? args[0] : args[1];
  }));

  env->Set("tf", BuildTfModule());
  env->Set("ag", BuildAgModule());
  env->Set("ag__", BuildIntrinsics());
  return env;
}

}  // namespace ag::core
