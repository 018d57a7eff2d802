#include "core/interpreter.h"

#include <pthread.h>

#include <algorithm>
#include <cstdint>

#include "core/operators.h"
#include "obs/trace.h"
#include "runtime/cancellation.h"
#include "tensor/tensor_ops.h"

namespace ag::core {

using lang::Cast;
using lang::ExprKind;
using lang::ExprPtr;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

namespace {

// The calling thread's stack low end plus a reserve, read once per
// thread; 0 when unknown.
uintptr_t StackFloor() {
  thread_local const uintptr_t stack_floor = [] {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return uintptr_t{0};
    void* addr = nullptr;
    size_t size = 0;
    const int rc = pthread_attr_getstack(&attr, &addr, &size);
    pthread_attr_destroy(&attr);
    if (rc != 0) return uintptr_t{0};
    const size_t reserve = std::min<size_t>(size_t{512} << 10, size / 4);
    return reinterpret_cast<uintptr_t>(addr) + reserve;
  }();
  return stack_floor;
}

// RAII guard for call depth / converted-code flag / name scopes. Raises
// the recursion error at `max_depth` calls, or earlier once the native
// stack is within the reserve of its end: room for the frames one call
// builds before it nests and for unwinding (sanitizers grow frames).
class CallGuard {
 public:
  CallGuard(int* depth, int max_depth) : depth_(depth) {
    const auto frame = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
    if (++*depth_ > max_depth || frame < StackFloor()) {
      --*depth_;
      depth_ = nullptr;
      throw RuntimeError("maximum recursion depth exceeded");
    }
  }
  ~CallGuard() {
    if (depth_ != nullptr) --*depth_;
  }
  CallGuard(const CallGuard&) = delete;
  CallGuard& operator=(const CallGuard&) = delete;

 private:
  int* depth_;
};

// Frame-exit collector for def-created closure cycles. A `def` inside a
// function binds a FunctionValue whose closure is the defining frame's
// Env, while the Env holds the function Value: a shared_ptr cycle no
// refcount can free (the LeakSanitizer leak on every AutoGraph staging
// path before this existed). On frame exit, if every such cyclic
// function is referenced only by its own binding and the Env is
// referenced only by `env` here plus those closure back-edges, nothing
// outside the cycle can reach the frame any more — drop the bindings.
// A closure that was returned or stored elsewhere raises one of the
// use_counts and the frame is (correctly) kept alive.
void ReleaseFrameCycles(const EnvPtr& env) {
  long cyclic = 0;
  for (const auto& [name, value] : env->bindings()) {
    if (!value.IsFunction()) continue;
    const FunctionPtr& fn = value.AsFunction();
    if (fn->closure == env) {
      if (fn.use_count() != 1) return;  // aliased or escaped: keep
      ++cyclic;
    }
  }
  if (cyclic == 0) return;  // no cycle, plain refcounting suffices
  if (env.use_count() != 1 + cyclic) return;  // frame escaped: keep
  env->ClearBindings();
}

// RAII so the collector runs on the exception path too.
class FrameCycleGuard {
 public:
  explicit FrameCycleGuard(const EnvPtr& env) : env_(env) {}
  ~FrameCycleGuard() { ReleaseFrameCycles(env_); }
  FrameCycleGuard(const FrameCycleGuard&) = delete;
  FrameCycleGuard& operator=(const FrameCycleGuard&) = delete;

 private:
  const EnvPtr& env_;
};

}  // namespace

Value Interpreter::CallCallable(const Value& fn, std::vector<Value> args,
                                Kwargs kwargs) {
  if (fn.IsFunction()) {
    return CallFunctionValue(fn.AsFunction(), std::move(args),
                             std::move(kwargs));
  }
  if (fn.IsNative()) {
    obs::TraceScope scope(obs::CurrentTracer(), fn.AsNative()->name,
                          staging() ? "stage" : "eager");
    return fn.AsNative()->fn(*this, args, kwargs);
  }
  if (fn.IsObject()) {
    const ObjectPtr& obj = fn.AsObject();
    if (obj->HasAttr("__call__")) {
      return CallCallable(obj->GetAttr("__call__"), std::move(args),
                          std::move(kwargs));
    }
  }
  throw ValueError(std::string(fn.TypeName()) + " object is not callable: " +
                   fn.Repr());
}

Value Interpreter::CallFunctionValue(const FunctionPtr& fn,
                                     std::vector<Value> args,
                                     Kwargs kwargs) {
  CallGuard guard(&call_depth_, options_.max_call_depth);

  auto env = std::make_shared<Env>(fn->closure);
  // Declared after `env` so it runs before env's destructor, on normal
  // return and unwind alike.
  FrameCycleGuard cycle_guard(env);
  if (args.size() > fn->params.size()) {
    throw ValueError(fn->name + "() takes " +
                     std::to_string(fn->params.size()) + " arguments but " +
                     std::to_string(args.size()) + " were given");
  }
  std::vector<bool> bound(fn->params.size(), false);
  for (size_t i = 0; i < args.size(); ++i) {
    env->Set(fn->params[i], std::move(args[i]));
    bound[i] = true;
  }
  for (auto& [name, value] : kwargs) {
    bool found = false;
    for (size_t i = 0; i < fn->params.size(); ++i) {
      if (fn->params[i] == name) {
        if (bound[i]) {
          throw ValueError(fn->name + "() got multiple values for '" + name +
                           "'");
        }
        env->Set(name, std::move(value));
        bound[i] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      throw ValueError(fn->name + "() got an unexpected keyword argument '" +
                       name + "'");
    }
  }
  const size_t first_default = fn->params.size() - fn->defaults.size();
  for (size_t i = 0; i < fn->params.size(); ++i) {
    if (bound[i]) continue;
    if (i >= first_default) {
      env->Set(fn->params[i], fn->defaults[i - first_default]);
    } else {
      throw ValueError(fn->name + "() missing required argument '" +
                       fn->params[i] + "'");
    }
  }

  const bool prev_converted = in_converted_code_;
  in_converted_code_ = fn->converted;
  const bool scoped = staging() && fn->converted && !fn->name.empty();
  if (scoped) graph_ctx_->current()->PushNameScope(fn->name);
  const lang::Stmt* saved_stmt = cur_stmt_;

  Value ret;
  try {
    if (fn->expr) {
      ret = EvalExpr(fn->expr, env);
    } else {
      ExecBody(fn->body, env, &ret);
    }
  } catch (const Error& e) {
    if (scoped) graph_ctx_->current()->PopNameScope();
    in_converted_code_ = prev_converted;
    // Error rewriting (paper Appendix B): attach a frame pointing to the
    // user's ORIGINAL source line via the node's origin location.
    SourceFrame frame;
    frame.function_name = fn->name.empty() ? "<lambda>" : fn->name;
    if (cur_stmt_ != nullptr && cur_stmt_->origin.valid()) {
      frame.location = cur_stmt_->origin;
    } else {
      frame.generated = true;
    }
    cur_stmt_ = saved_stmt;
    throw e.WithFrame(std::move(frame));
  }
  if (scoped) graph_ctx_->current()->PopNameScope();
  in_converted_code_ = prev_converted;
  cur_stmt_ = saved_stmt;
  return ret;
}

void Interpreter::ExecTopLevel(const StmtList& body, const EnvPtr& env) {
  Value ret;
  ExecBody(body, env, &ret);
}

Interpreter::Flow Interpreter::ExecBody(const StmtList& body,
                                        const EnvPtr& env, Value* ret) {
  for (const StmtPtr& s : body) {
    Flow flow = ExecStmt(s, env, ret);
    if (flow != Flow::kNormal) return flow;
  }
  return Flow::kNormal;
}

Interpreter::Flow Interpreter::ExecStmt(const StmtPtr& stmt,
                                        const EnvPtr& env, Value* ret) {
  ++statements_executed_;
  cur_stmt_ = stmt.get();
  switch (stmt->kind) {
    case StmtKind::kFunctionDef: {
      auto f = Cast<lang::FunctionDefStmt>(stmt);
      auto fn = std::make_shared<FunctionValue>();
      fn->name = f->name;
      fn->params = f->params;
      fn->body = f->body;
      fn->closure = env;
      fn->converted = in_converted_code_;
      fn->def_node = f;
      for (const ExprPtr& d : f->defaults) {
        fn->defaults.push_back(EvalExpr(d, env));
      }
      env->Set(f->name, Value(std::move(fn)));
      return Flow::kNormal;
    }
    case StmtKind::kReturn: {
      auto r = Cast<lang::ReturnStmt>(stmt);
      *ret = r->value ? EvalExpr(r->value, env) : Value::None();
      return Flow::kReturn;
    }
    case StmtKind::kAssign: {
      auto a = Cast<lang::AssignStmt>(stmt);
      AssignTarget(a->target, EvalExpr(a->value, env), env);
      return Flow::kNormal;
    }
    case StmtKind::kAugAssign: {
      auto a = Cast<lang::AugAssignStmt>(stmt);
      Value current = EvalExpr(a->target, env);
      Value next = ops::Binary(*this, a->op, current, EvalExpr(a->value, env));
      AssignTarget(a->target, std::move(next), env);
      return Flow::kNormal;
    }
    case StmtKind::kExprStmt:
      (void)EvalExpr(Cast<lang::ExprStmt>(stmt)->value, env);
      return Flow::kNormal;
    case StmtKind::kIf: {
      auto i = Cast<lang::IfStmt>(stmt);
      if (Truthy(EvalExpr(i->test, env))) {
        return ExecBody(i->body, env, ret);
      }
      return ExecBody(i->orelse, env, ret);
    }
    case StmtKind::kWhile: {
      auto w = Cast<lang::WhileStmt>(stmt);
      // Cooperative interruption for imperative loops: CallEager with
      // deadline/cancel/max_while_iterations options installs the
      // thread's CancelCheck. Both checks sit after the condition came
      // up true, so a loop that terminates cleanly within the bound
      // never trips it.
      runtime::CancelCheck* cancel = runtime::CurrentCancelCheck();
      for (int64_t iter = 0; Truthy(EvalExpr(w->test, env)); ++iter) {
        if (cancel != nullptr) {
          cancel->Poll("eager while loop", iter);
          cancel->CheckLoopBound("eager while loop", iter);
        }
        Flow flow = ExecBody(w->body, env, ret);
        if (flow == Flow::kBreak) break;
        if (flow == Flow::kReturn) return flow;
        // kContinue and kNormal both loop.
      }
      return Flow::kNormal;
    }
    case StmtKind::kFor: {
      auto f = Cast<lang::ForStmt>(stmt);
      Value iter = EvalExpr(f->iter, env);
      std::vector<Value> items;
      if (iter.IsList()) {
        items = *iter.AsList();
      } else if (iter.IsTuple()) {
        items = iter.AsTuple()->elts;
      } else if (iter.IsTensor()) {
        for (Tensor& row : Unstack(iter.AsTensor())) {
          items.emplace_back(std::move(row));
        }
      } else if (iter.IsGraphTensor()) {
        throw StagingError(
            "iterating a symbolic tensor requires AutoGraph conversion");
      } else {
        throw ValueError(std::string(iter.TypeName()) +
                         " object is not iterable");
      }
      for (const Value& item : items) {
        AssignTarget(f->target, item, env);
        Flow flow = ExecBody(f->body, env, ret);
        if (flow == Flow::kBreak) break;
        if (flow == Flow::kReturn) return flow;
      }
      return Flow::kNormal;
    }
    case StmtKind::kBreak:
      return Flow::kBreak;
    case StmtKind::kContinue:
      return Flow::kContinue;
    case StmtKind::kPass:
      return Flow::kNormal;
    case StmtKind::kAssert: {
      auto a = Cast<lang::AssertStmt>(stmt);
      Value test = EvalExpr(a->test, env);
      if (!Truthy(test)) {
        std::string msg = "assertion failed";
        if (a->msg) msg += ": " + EvalExpr(a->msg, env).Repr();
        throw RuntimeError(msg);
      }
      return Flow::kNormal;
    }
  }
  throw InternalError("ExecStmt: unknown statement kind");
}

void Interpreter::AssignTarget(const ExprPtr& target, Value value,
                               const EnvPtr& env) {
  switch (target->kind) {
    case ExprKind::kName:
      env->Set(Cast<lang::NameExpr>(target)->id, std::move(value));
      return;
    case ExprKind::kTuple:
    case ExprKind::kList: {
      const auto& elts = target->kind == ExprKind::kTuple
                             ? Cast<lang::TupleExpr>(target)->elts
                             : Cast<lang::ListExpr>(target)->elts;
      const std::vector<Value>* values = nullptr;
      std::vector<Value> tensor_rows;
      if (value.IsTuple()) {
        values = &value.AsTuple()->elts;
      } else if (value.IsList()) {
        values = value.AsList().get();
      } else if (value.IsTensor()) {
        for (Tensor& row : Unstack(value.AsTensor())) {
          tensor_rows.emplace_back(std::move(row));
        }
        values = &tensor_rows;
      } else {
        throw ValueError("cannot unpack " + std::string(value.TypeName()) +
                         " into " + std::to_string(elts.size()) + " targets");
      }
      if (values->size() != elts.size()) {
        throw ValueError("cannot unpack " + std::to_string(values->size()) +
                         " values into " + std::to_string(elts.size()) +
                         " targets");
      }
      for (size_t i = 0; i < elts.size(); ++i) {
        AssignTarget(elts[i], (*values)[i], env);
      }
      return;
    }
    case ExprKind::kAttribute: {
      auto a = Cast<lang::AttributeExpr>(target);
      Value obj = EvalExpr(a->value, env);
      if (!obj.IsObject()) {
        throw ValueError(std::string("cannot set attribute on ") +
                         obj.TypeName());
      }
      obj.AsObject()->attrs[a->attr] = std::move(value);
      return;
    }
    case ExprKind::kSubscript: {
      auto s = Cast<lang::SubscriptExpr>(target);
      Value obj = EvalExpr(s->value, env);
      Value index = EvalExpr(s->index, env);
      Value updated = ops::SetItem(*this, obj, index, value);
      // Value-semantics containers (tensors) need the rebind; Python
      // lists were updated in place and rebinding is a no-op.
      if (s->value->kind == ExprKind::kName) {
        env->Set(Cast<lang::NameExpr>(s->value)->id, std::move(updated));
      }
      return;
    }
    default:
      throw ValueError("invalid assignment target");
  }
}

Value Interpreter::EvalCall(const std::shared_ptr<lang::CallExpr>& call,
                            const EnvPtr& env) {
  Value fn = EvalExpr(call->func, env);
  std::vector<Value> args;
  args.reserve(call->args.size());
  for (const ExprPtr& a : call->args) args.push_back(EvalExpr(a, env));
  Kwargs kwargs;
  kwargs.reserve(call->keywords.size());
  for (const lang::Keyword& kw : call->keywords) {
    kwargs.emplace_back(kw.name, EvalExpr(kw.value, env));
  }
  return CallCallable(fn, std::move(args), std::move(kwargs));
}

Value Interpreter::EvalExpr(const ExprPtr& expr, const EnvPtr& env) {
  switch (expr->kind) {
    case ExprKind::kName:
      return env->Lookup(Cast<lang::NameExpr>(expr)->id);
    case ExprKind::kNumber: {
      auto n = Cast<lang::NumberExpr>(expr);
      if (n->is_int) return Value(static_cast<int64_t>(n->value));
      return Value(n->value);
    }
    case ExprKind::kString:
      return Value(Cast<lang::StringExpr>(expr)->value);
    case ExprKind::kBool:
      return Value(Cast<lang::BoolExpr>(expr)->value);
    case ExprKind::kNone:
      return Value::None();
    case ExprKind::kTuple: {
      std::vector<Value> elts;
      for (const ExprPtr& e : Cast<lang::TupleExpr>(expr)->elts) {
        elts.push_back(EvalExpr(e, env));
      }
      return MakeTuple(std::move(elts));
    }
    case ExprKind::kList: {
      std::vector<Value> elts;
      for (const ExprPtr& e : Cast<lang::ListExpr>(expr)->elts) {
        elts.push_back(EvalExpr(e, env));
      }
      return MakeList(std::move(elts));
    }
    case ExprKind::kAttribute: {
      auto a = Cast<lang::AttributeExpr>(expr);
      Value obj = EvalExpr(a->value, env);
      if (obj.IsObject()) return obj.AsObject()->GetAttr(a->attr);
      if (obj.IsLantern()) return ops::LanternTreeAttr(*this, obj, a->attr);
      if (obj.IsList()) {
        // Bound list methods for unconverted (eager) execution; converted
        // code goes through ag__.list_append / ag__.list_pop instead.
        if (a->attr == "append") {
          return MakeNative(
              "list.append",
              [obj](Interpreter&, std::vector<Value>& args, Kwargs&) {
                if (args.size() != 1) {
                  throw ValueError("append() takes exactly one argument");
                }
                obj.AsList()->push_back(args[0]);
                return Value::None();
              });
        }
        if (a->attr == "pop") {
          return MakeNative(
              "list.pop",
              [obj](Interpreter&, std::vector<Value>& args, Kwargs&) {
                if (!args.empty()) {
                  throw ValueError("pop() with an index is not supported");
                }
                auto& elts = *obj.AsList();
                if (elts.empty()) throw RuntimeError("pop from empty list");
                Value last = elts.back();
                elts.pop_back();
                return last;
              });
        }
      }
      throw ValueError(std::string(obj.TypeName()) +
                       " object has no attribute '" + a->attr + "'");
    }
    case ExprKind::kSubscript: {
      auto s = Cast<lang::SubscriptExpr>(expr);
      Value obj = EvalExpr(s->value, env);
      Value index = EvalExpr(s->index, env);
      return ops::GetItem(*this, obj, index);
    }
    case ExprKind::kCall:
      return EvalCall(Cast<lang::CallExpr>(expr), env);
    case ExprKind::kUnary: {
      auto u = Cast<lang::UnaryExpr>(expr);
      Value operand = EvalExpr(u->operand, env);
      switch (u->op) {
        case lang::UnaryOp::kNot:
          return ops::Not(*this, operand);
        case lang::UnaryOp::kNeg:
          return ops::Negate(*this, operand);
        case lang::UnaryOp::kPos:
          return operand;
      }
      throw InternalError("bad unary op");
    }
    case ExprKind::kBinary: {
      auto b = Cast<lang::BinaryExpr>(expr);
      return ops::Binary(*this, b->op, EvalExpr(b->left, env),
                         EvalExpr(b->right, env));
    }
    case ExprKind::kCompare: {
      auto c = Cast<lang::CompareExpr>(expr);
      return ops::Compare(*this, c->op, EvalExpr(c->left, env),
                          EvalExpr(c->right, env));
    }
    case ExprKind::kBoolOp: {
      // Unconverted short-circuit semantics.
      auto b = Cast<lang::BoolOpExpr>(expr);
      Value left = EvalExpr(b->left, env);
      if (b->op == lang::BoolOp::kAnd) {
        return Truthy(left) ? EvalExpr(b->right, env) : left;
      }
      return Truthy(left) ? left : EvalExpr(b->right, env);
    }
    case ExprKind::kIfExp: {
      auto i = Cast<lang::IfExpExpr>(expr);
      return Truthy(EvalExpr(i->test, env)) ? EvalExpr(i->body, env)
                                            : EvalExpr(i->orelse, env);
    }
    case ExprKind::kLambda: {
      auto l = Cast<lang::LambdaExpr>(expr);
      auto fn = std::make_shared<FunctionValue>();
      fn->name = "";
      fn->params = l->params;
      fn->expr = l->body;
      fn->closure = env;
      fn->converted = in_converted_code_;
      return Value(std::move(fn));
    }
  }
  throw InternalError("EvalExpr: unknown expression kind");
}

FunctionPtr Interpreter::ConvertFunctionValue(const FunctionPtr& fn) {
  if (fn->converted) return fn;
  auto out = std::make_shared<FunctionValue>(*fn);
  out->converted = true;
  if (fn->expr) {
    // Lambdas: only the expression-level passes apply.
    lang::StmtList body{std::make_shared<lang::ReturnStmt>(
        lang::CloneExpr(fn->expr))};
    body = transforms::CallTreesPass(body, options_.conversion);
    body = transforms::TernaryPass(body);
    body = transforms::LogicalPass(body);
    out->expr = lang::Cast<lang::ReturnStmt>(body[0])->value;
    return out;
  }
  if (!fn->def_node) {
    return out;  // nothing to convert (synthetic function)
  }
  auto it = conversion_cache_.find(fn->def_node.get());
  std::shared_ptr<lang::FunctionDefStmt> converted;
  if (it != conversion_cache_.end()) {
    converted = it->second;
  } else {
    converted =
        transforms::ConvertFunctionAst(fn->def_node, options_.conversion);
    conversion_cache_[fn->def_node.get()] = converted;
  }
  out->params = converted->params;
  out->body = converted->body;
  out->def_node = converted;
  return out;
}

}  // namespace ag::core
