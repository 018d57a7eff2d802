#include "analysis/shape_infer.h"

#include "analysis/activity.h"
#include "tensor/shape.h"

namespace ag::analysis {

using lang::Cast;
using lang::ExprKind;
using lang::ExprPtr;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

namespace {

// Iteration cap for the loop-body fixpoint. The per-symbol lattice has
// height 3, so joins stabilize almost immediately; the cap is a backstop.
constexpr int kMaxLoopIterations = 8;

TypeFact Lookup(const TypeEnv& env, const std::string& name) {
  auto it = env.find(name);
  return it == env.end() ? TypeFact::Bottom() : it->second;
}

// Abstract result of a binary arithmetic operator.
TypeFact EvalBinaryOp(lang::BinaryOp op, const TypeFact& l,
                      const TypeFact& r) {
  if (l.kind == TypeKind::kTensor || r.kind == TypeKind::kTensor) {
    // Tensor math broadcasts; a python-number operand adopts the tensor's
    // dtype, two tensors must agree (join handles the refinements).
    const TypeFact* t = l.kind == TypeKind::kTensor ? &l : &r;
    TypeFact out = TypeFact::Tensor(t->dtype, t->shape);
    if (l.kind == TypeKind::kTensor && r.kind == TypeKind::kTensor) {
      out.dtype = TypeFact::Join(l, r).dtype;
      if (l.shape.state == ShapeFact::State::kKnown &&
          r.shape.state == ShapeFact::State::kKnown) {
        const Shape a{std::vector<int64_t>(l.shape.dims)};
        const Shape b{std::vector<int64_t>(r.shape.dims)};
        // Unknown dims (-1) defeat the static broadcast computation.
        bool has_unknown = false;
        for (int64_t d : l.shape.dims) has_unknown |= d < 0;
        for (int64_t d : r.shape.dims) has_unknown |= d < 0;
        if (!has_unknown && Shape::BroadcastCompatible(a, b)) {
          out.shape = ShapeFact::Known(Shape::Broadcast(a, b).dims());
        } else {
          out.shape = ShapeFact::Top();
        }
      } else {
        out.shape = ShapeFact::Top();
      }
    }
    return out;
  }
  const bool numeric_l =
      l.kind == TypeKind::kInt || l.kind == TypeKind::kFloat ||
      l.kind == TypeKind::kBool;
  const bool numeric_r =
      r.kind == TypeKind::kInt || r.kind == TypeKind::kFloat ||
      r.kind == TypeKind::kBool;
  if (numeric_l && numeric_r) {
    if (op == lang::BinaryOp::kDiv) return TypeFact::Of(TypeKind::kFloat);
    if (l.kind == TypeKind::kFloat || r.kind == TypeKind::kFloat) {
      return TypeFact::Of(TypeKind::kFloat);
    }
    return TypeFact::Of(TypeKind::kInt);
  }
  if (op == lang::BinaryOp::kAdd) {
    if (l.kind == TypeKind::kStr && r.kind == TypeKind::kStr) {
      return TypeFact::Of(TypeKind::kStr);
    }
    if (l.kind == TypeKind::kList && r.kind == TypeKind::kList) {
      return TypeFact::Of(TypeKind::kList);
    }
  }
  return TypeFact::Top();
}

// Shape of x[i] when x's shape is known: the leading axis is consumed.
ShapeFact IndexShape(const ShapeFact& shape) {
  if (shape.state != ShapeFact::State::kKnown || shape.dims.empty()) {
    return ShapeFact::Top();
  }
  return ShapeFact::Known(
      std::vector<int64_t>(shape.dims.begin() + 1, shape.dims.end()));
}

// Extracts a compile-time shape from a literal list/tuple of int literals.
bool LiteralShape(const ExprPtr& expr, std::vector<int64_t>* out) {
  const std::vector<ExprPtr>* elts = nullptr;
  if (expr->kind == ExprKind::kList) {
    elts = &Cast<lang::ListExpr>(expr)->elts;
  } else if (expr->kind == ExprKind::kTuple) {
    elts = &Cast<lang::TupleExpr>(expr)->elts;
  } else {
    return false;
  }
  for (const ExprPtr& e : *elts) {
    if (e->kind != ExprKind::kNumber) return false;
    auto n = Cast<lang::NumberExpr>(e);
    if (!n->is_int || n->value < 0) return false;
    out->push_back(static_cast<int64_t>(n->value));
  }
  return true;
}

// Plain names modified anywhere inside `stmts` (threaded variables).
std::set<std::string> ModifiedNamesOf(const StmtList& stmts) {
  if (stmts.empty()) return {};
  ActivityAnalysis activity(stmts);
  return ActivityAnalysis::Aggregate(activity, stmts).ModifiedNames();
}

}  // namespace

const TypedBuiltins& TypedTfBuiltins() {
  static const TypedBuiltins kTyped{
      .shape_preserving_unary = {"tf.tanh", "tf.sigmoid", "tf.exp",
                                 "tf.log", "tf.sqrt", "tf.square",
                                 "tf.abs", "tf.sin", "tf.cos", "tf.nn.relu",
                                 "tf.nn.tanh", "tf.nn.sigmoid",
                                 "tf.nn.softmax", "tf.nn.log_softmax"},
      .elementwise_binary = {"tf.add", "tf.subtract", "tf.multiply",
                             "tf.divide", "tf.maximum", "tf.minimum",
                             "tf.pow"},
      .reductions = {"tf.reduce_sum", "tf.reduce_mean", "tf.reduce_max",
                     "tf.reduce_min"},
  };
  return kTyped;
}

ShapeInference::ShapeInference(const lang::FunctionDefStmt& fn) {
  Run(fn.body, fn.params);
}

ShapeInference::ShapeInference(const StmtList& body,
                               const std::vector<std::string>& params) {
  Run(body, params);
}

void ShapeInference::Run(const StmtList& body,
                         const std::vector<std::string>& params) {
  TypeEnv env;
  for (const std::string& p : params) env[p] = TypeFact::Top();
  exit_env_ = ExecBody(body, std::move(env));
}

TypeEnv ShapeInference::ExecBody(const StmtList& body, TypeEnv env) {
  for (const StmtPtr& s : body) env = ExecStmt(s, std::move(env));
  return env;
}

TypeEnv ShapeInference::ExecStmt(const StmtPtr& stmt, TypeEnv env) {
  switch (stmt->kind) {
    case StmtKind::kAssign: {
      auto a = Cast<lang::AssignStmt>(stmt);
      AssignTarget(a->target, EvalExpr(a->value, env), &env);
      return env;
    }
    case StmtKind::kAugAssign: {
      auto a = Cast<lang::AugAssignStmt>(stmt);
      TypeFact fact = EvalBinaryOp(a->op, EvalExpr(a->target, env),
                                   EvalExpr(a->value, env));
      AssignTarget(a->target, fact, &env);
      return env;
    }
    case StmtKind::kIf: {
      auto i = Cast<lang::IfStmt>(stmt);
      TypeEnv then_env = ExecBody(i->body, env);
      TypeEnv else_env = ExecBody(i->orelse, env);
      StmtList both = i->body;
      both.insert(both.end(), i->orelse.begin(), i->orelse.end());
      for (const std::string& v : ModifiedNamesOf(both)) {
        const TypeFact t = Lookup(then_env, v);
        const TypeFact e = Lookup(else_env, v);
        if (t.DTypeConflictsWith(e)) {
          issues_.push_back({TypeIssue::Kind::kBranchDType, v, e, t,
                             stmt.get()});
        } else if (t.ShapeConflictsWith(e)) {
          issues_.push_back({TypeIssue::Kind::kBranchShape, v, e, t,
                             stmt.get()});
        }
      }
      return JoinEnvs(then_env, else_env);
    }
    case StmtKind::kWhile: {
      auto w = Cast<lang::WhileStmt>(stmt);
      return ExecLoop(stmt, w->body, std::move(env));
    }
    case StmtKind::kFor: {
      auto f = Cast<lang::ForStmt>(stmt);
      // Bind the target from the iterable: element facts are tracked only
      // for literal iterables; everything else yields Top.
      TypeFact elem = TypeFact::Top();
      if (f->iter->kind == ExprKind::kList ||
          f->iter->kind == ExprKind::kTuple) {
        const auto& elts = f->iter->kind == ExprKind::kList
                               ? Cast<lang::ListExpr>(f->iter)->elts
                               : Cast<lang::TupleExpr>(f->iter)->elts;
        elem = TypeFact::Bottom();
        for (const ExprPtr& e : elts) {
          elem = TypeFact::Join(elem, EvalExpr(e, env));
        }
        if (elem.kind == TypeKind::kBottom) elem = TypeFact::Top();
      }
      AssignTarget(f->target, elem, &env);
      return ExecLoop(stmt, f->body, std::move(env));
    }
    case StmtKind::kFunctionDef: {
      auto fd = Cast<lang::FunctionDefStmt>(stmt);
      env[fd->name] = TypeFact::Of(TypeKind::kFunc);
      return env;
    }
    case StmtKind::kReturn:
    case StmtKind::kExprStmt:
    case StmtKind::kAssert:
    case StmtKind::kBreak:
    case StmtKind::kContinue:
    case StmtKind::kPass:
      return env;
  }
  return env;
}

TypeEnv ShapeInference::ExecLoop(const StmtPtr& stmt, const StmtList& body,
                                 TypeEnv env) {
  // One recorded abstract iteration from the loop-entry env: this is
  // where loop-variant dtype/shape issues (and issues inside the body)
  // are reported, exactly once.
  const TypeEnv entry = env;
  TypeEnv once = ExecBody(body, entry);

  std::set<std::string> loop_vars = ModifiedNamesOf(body);
  if (stmt->kind == StmtKind::kFor) {
    // The for-target is re-bound from the iterator every iteration, so
    // body rebindings of it do not thread to the next iteration.
    std::set<std::string> targets;
    std::set<std::string> ignored_reads;
    CollectWrites(Cast<lang::ForStmt>(stmt)->target, &targets,
                  &ignored_reads);
    for (const std::string& t : targets) loop_vars.erase(t);
  }
  for (const std::string& v : loop_vars) {
    const TypeFact before = Lookup(entry, v);
    const TypeFact after = Lookup(once, v);
    if (before.DTypeConflictsWith(after)) {
      issues_.push_back({TypeIssue::Kind::kLoopDType, v, before, after,
                         stmt.get()});
    } else if (before.ShapeConflictsWith(after)) {
      issues_.push_back({TypeIssue::Kind::kLoopShape, v, before, after,
                         stmt.get()});
    }
  }

  // Fixpoint join for the facts that flow past the loop; issue recording
  // is suppressed so the extra passes cannot duplicate reports.
  TypeEnv joined = JoinEnvs(entry, once);
  const size_t recorded = issues_.size();
  for (int i = 0; i < kMaxLoopIterations; ++i) {
    TypeEnv next = JoinEnvs(joined, ExecBody(body, joined));
    issues_.resize(recorded);
    if (next == joined) break;
    joined = std::move(next);
  }
  return joined;
}

void ShapeInference::AssignTarget(const ExprPtr& target, const TypeFact& fact,
                                  TypeEnv* env) {
  switch (target->kind) {
    case ExprKind::kName:
      (*env)[Cast<lang::NameExpr>(target)->id] = fact;
      return;
    case ExprKind::kTuple:
    case ExprKind::kList: {
      const auto& elts = target->kind == ExprKind::kTuple
                             ? Cast<lang::TupleExpr>(target)->elts
                             : Cast<lang::ListExpr>(target)->elts;
      // Element facts are not tracked through destructuring.
      for (const ExprPtr& e : elts) AssignTarget(e, TypeFact::Top(), env);
      return;
    }
    default:
      // Attribute/subscript writes do not rebind a symbol (AG004 reports
      // them separately).
      return;
  }
}

TypeFact ShapeInference::EvalExpr(const ExprPtr& expr, const TypeEnv& env) {
  if (!expr) return TypeFact::Of(TypeKind::kNone);
  switch (expr->kind) {
    case ExprKind::kName:
      return Lookup(env, Cast<lang::NameExpr>(expr)->id).kind ==
                     TypeKind::kBottom
                 ? TypeFact::Top()  // globals/builtins are unknown
                 : Lookup(env, Cast<lang::NameExpr>(expr)->id);
    case ExprKind::kNumber:
      return TypeFact::Of(Cast<lang::NumberExpr>(expr)->is_int
                              ? TypeKind::kInt
                              : TypeKind::kFloat);
    case ExprKind::kString:
      return TypeFact::Of(TypeKind::kStr);
    case ExprKind::kBool:
      return TypeFact::Of(TypeKind::kBool);
    case ExprKind::kNone:
      return TypeFact::Of(TypeKind::kNone);
    case ExprKind::kTuple:
      return TypeFact::Of(TypeKind::kTuple);
    case ExprKind::kList:
      return TypeFact::Of(TypeKind::kList);
    case ExprKind::kLambda:
      return TypeFact::Of(TypeKind::kFunc);
    case ExprKind::kAttribute:
      return TypeFact::Top();
    case ExprKind::kSubscript: {
      auto s = Cast<lang::SubscriptExpr>(expr);
      TypeFact value = EvalExpr(s->value, env);
      if (value.kind == TypeKind::kTensor) {
        return TypeFact::Tensor(value.dtype, IndexShape(value.shape));
      }
      return TypeFact::Top();
    }
    case ExprKind::kCall:
      return EvalCall(expr, env);
    case ExprKind::kUnary: {
      auto u = Cast<lang::UnaryExpr>(expr);
      TypeFact operand = EvalExpr(u->operand, env);
      if (u->op == lang::UnaryOp::kNot) {
        if (operand.kind == TypeKind::kTensor) {
          return TypeFact::Tensor(DTypeFact::kBoolDType, operand.shape);
        }
        return TypeFact::Of(TypeKind::kBool);
      }
      return operand;
    }
    case ExprKind::kBinary: {
      auto b = Cast<lang::BinaryExpr>(expr);
      return EvalBinaryOp(b->op, EvalExpr(b->left, env),
                          EvalExpr(b->right, env));
    }
    case ExprKind::kCompare: {
      auto c = Cast<lang::CompareExpr>(expr);
      TypeFact l = EvalExpr(c->left, env);
      TypeFact r = EvalExpr(c->right, env);
      if (l.kind == TypeKind::kTensor || r.kind == TypeKind::kTensor) {
        const TypeFact& t = l.kind == TypeKind::kTensor ? l : r;
        return TypeFact::Tensor(DTypeFact::kBoolDType, t.shape);
      }
      return TypeFact::Of(TypeKind::kBool);
    }
    case ExprKind::kBoolOp: {
      // Python and/or return one of their operands.
      auto b = Cast<lang::BoolOpExpr>(expr);
      return TypeFact::Join(EvalExpr(b->left, env), EvalExpr(b->right, env));
    }
    case ExprKind::kIfExp: {
      auto i = Cast<lang::IfExpExpr>(expr);
      return TypeFact::Join(EvalExpr(i->body, env),
                            EvalExpr(i->orelse, env));
    }
  }
  return TypeFact::Top();
}

TypeFact ShapeInference::EvalCall(const ExprPtr& expr, const TypeEnv& env) {
  auto call = Cast<lang::CallExpr>(expr);
  auto qn = lang::QualifiedName(call->func);
  if (!qn) return TypeFact::Top();
  const std::string& name = *qn;

  auto arg = [&](size_t i) {
    return i < call->args.size() ? EvalExpr(call->args[i], env)
                                 : TypeFact::Top();
  };

  if (name == "tf.zeros" || name == "tf.ones") {
    ShapeFact shape = ShapeFact::Top();
    std::vector<int64_t> dims;
    if (!call->args.empty() && LiteralShape(call->args[0], &dims)) {
      shape = ShapeFact::Known(std::move(dims));
    }
    return TypeFact::Tensor(DTypeFact::kFloat32, shape);
  }
  if (name == "tf.constant") {
    // Mirrors the runtime's dtype defaulting: bare python ints become
    // int32, bare bools become bool, everything else float32, and an
    // explicit dtype argument wins.
    DTypeFact dtype = DTypeFact::kFloat32;
    const TypeFact value = arg(0);
    if (call->args.size() == 1 && call->keywords.empty()) {
      if (value.kind == TypeKind::kInt) dtype = DTypeFact::kInt32;
      if (value.kind == TypeKind::kBool) dtype = DTypeFact::kBoolDType;
    }
    for (size_t i = 1; i < call->args.size(); ++i) {
      if (auto dt = lang::QualifiedName(call->args[i])) {
        if (*dt == "tf.float32") dtype = DTypeFact::kFloat32;
        if (*dt == "tf.int32") dtype = DTypeFact::kInt32;
        if (*dt == "tf.bool") dtype = DTypeFact::kBoolDType;
      }
    }
    for (const lang::Keyword& kw : call->keywords) {
      if (kw.name != "dtype") continue;
      if (auto dt = lang::QualifiedName(kw.value)) {
        if (*dt == "tf.float32") dtype = DTypeFact::kFloat32;
        if (*dt == "tf.int32") dtype = DTypeFact::kInt32;
        if (*dt == "tf.bool") dtype = DTypeFact::kBoolDType;
      }
    }
    ShapeFact shape = ShapeFact::Top();
    if (value.kind == TypeKind::kInt || value.kind == TypeKind::kFloat ||
        value.kind == TypeKind::kBool) {
      shape = ShapeFact::Scalar();
    } else if (!call->args.empty()) {
      // A literal element list is a rank-1 constant of that length.
      std::vector<int64_t> elems;
      if (LiteralShape(call->args[0], &elems)) {
        shape = ShapeFact::Known({static_cast<int64_t>(elems.size())});
      }
    }
    return TypeFact::Tensor(dtype, shape);
  }
  if (name == "tf.matmul") {
    TypeFact a = arg(0);
    TypeFact b = arg(1);
    ShapeFact shape = ShapeFact::Top();
    if (a.shape.state == ShapeFact::State::kKnown &&
        b.shape.state == ShapeFact::State::kKnown &&
        a.shape.dims.size() == 2 && b.shape.dims.size() == 2) {
      shape = ShapeFact::Known({a.shape.dims[0], b.shape.dims[1]});
    }
    DTypeFact dtype = a.kind == TypeKind::kTensor ? a.dtype
                      : b.kind == TypeKind::kTensor ? b.dtype
                                                    : DTypeFact::kFloat32;
    return TypeFact::Tensor(dtype, shape);
  }
  const TypedBuiltins& typed = TypedTfBuiltins();
  if (typed.shape_preserving_unary.count(name) > 0) {
    TypeFact a = arg(0);
    if (a.kind == TypeKind::kTensor) return a;
    return TypeFact::Tensor(DTypeFact::kTop, ShapeFact::Top());
  }
  if (typed.elementwise_binary.count(name) > 0) {
    return EvalBinaryOp(lang::BinaryOp::kAdd, arg(0), arg(1));
  }
  if (typed.reductions.count(name) > 0) {
    TypeFact a = arg(0);
    DTypeFact dtype =
        a.kind == TypeKind::kTensor ? a.dtype : DTypeFact::kTop;
    // Axis-less reduction collapses to a scalar; with an axis the result
    // shape is not tracked.
    ShapeFact shape = call->args.size() <= 1 && call->keywords.empty()
                          ? ShapeFact::Scalar()
                          : ShapeFact::Top();
    return TypeFact::Tensor(dtype, shape);
  }
  if (name == "len") return TypeFact::Of(TypeKind::kInt);
  if (name == "range") return TypeFact::Of(TypeKind::kList);
  if (name == "float") return TypeFact::Of(TypeKind::kFloat);
  if (name == "int") return TypeFact::Of(TypeKind::kInt);
  if (name == "bool") return TypeFact::Of(TypeKind::kBool);
  return TypeFact::Top();
}

}  // namespace ag::analysis
