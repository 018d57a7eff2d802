// Control Flow conversion (paper §7.2): rewrites if/while/for statements
// into the overloadable functional forms ag__.if_stmt / ag__.while_stmt /
// ag__.for_stmt, using the dataflow analyses to determine:
//
//   - which symbols each branch/loop must return (modified AND live),
//   - which symbols may be undefined on entry and must be reified with
//     the special Undefined value.
//
// The analyses are computed once per function body, before any rewriting;
// compound statement nodes are mutated in place (bodies first, bottom-up),
// so the per-node annotations stay valid for the statements still being
// processed — AutoGraph's analyze-then-transform discipline per pass.
#include <algorithm>

#include "analysis/activity.h"
#include "analysis/cfg.h"
#include "analysis/liveness.h"
#include "analysis/reaching_definitions.h"
#include "transforms/passes.h"
#include "transforms/transformer.h"

namespace ag::transforms {

using lang::Cast;
using lang::CloneExpr;
using lang::ExprPtr;
using lang::MakeCall;
using lang::MakeDottedName;
using lang::MakeName;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

namespace {

template <typename T>
std::shared_ptr<T> At(std::shared_ptr<T> node, const lang::Node& src) {
  node->loc = src.loc;
  node->origin = src.origin;
  return node;
}

// Builds `return v` / `return (v1, v2, ...)` / `return None`.
StmtPtr MakeReturn(const std::vector<std::string>& names,
                   const lang::Node& src) {
  ExprPtr value;
  if (names.empty()) {
    value = std::make_shared<lang::NoneExpr>();
  } else if (names.size() == 1) {
    value = MakeName(names[0]);
  } else {
    std::vector<ExprPtr> elts;
    elts.reserve(names.size());
    for (const std::string& n : names) elts.push_back(MakeName(n));
    value = std::make_shared<lang::TupleExpr>(std::move(elts));
  }
  auto ret = std::make_shared<lang::ReturnStmt>(std::move(value));
  return At(std::move(ret), src);
}

// Builds the assignment `(v1, v2) = <call>` (or ExprStmt when no names).
StmtPtr MakeStateAssign(const std::vector<std::string>& names, ExprPtr call,
                        const lang::Node& src) {
  if (names.empty()) {
    return At(std::make_shared<lang::ExprStmt>(std::move(call)), src);
  }
  ExprPtr target;
  if (names.size() == 1) {
    target = MakeName(names[0]);
  } else {
    std::vector<ExprPtr> elts;
    elts.reserve(names.size());
    for (const std::string& n : names) elts.push_back(MakeName(n));
    target = std::make_shared<lang::TupleExpr>(std::move(elts));
  }
  auto assign = std::make_shared<lang::AssignStmt>(std::move(target),
                                                   std::move(call));
  return At(std::move(assign), src);
}

// `(v1, v2,)` tuple expression of current variable values.
ExprPtr MakeStateTuple(const std::vector<std::string>& names) {
  std::vector<ExprPtr> elts;
  elts.reserve(names.size());
  for (const std::string& n : names) elts.push_back(MakeName(n));
  return std::make_shared<lang::TupleExpr>(std::move(elts));
}

// `v = ag__.Undefined('v')` statements for symbols that may be undefined.
void EmitUndefinedReification(const std::vector<std::string>& names,
                              const analysis::NameSet& defined,
                              const lang::Node& src, StmtList* out) {
  for (const std::string& n : names) {
    if (defined.count(n) > 0) continue;
    auto call = MakeCall(
        MakeDottedName("ag__.Undefined"),
        {std::make_shared<lang::StringExpr>(n)});
    auto assign =
        std::make_shared<lang::AssignStmt>(MakeName(n), std::move(call));
    out->push_back(At(std::move(assign), src));
  }
}

class ControlFlow final : public Transformer {
 public:
  ControlFlow(const StmtList& body, const std::vector<std::string>& params)
      : activity_(body),
        cfg_(analysis::ControlFlowGraph::Build(body, params)),
        liveness_(cfg_),
        reaching_(cfg_) {}

 protected:
  StmtList TransformStmt(const StmtPtr& stmt) override {
    switch (stmt->kind) {
      case StmtKind::kFunctionDef: {
        // Nested functions get a fresh analysis universe.
        auto f = Cast<lang::FunctionDefStmt>(stmt);
        f->body = ControlFlowPass(f->body, f->params);
        return {f};
      }
      case StmtKind::kIf:
        return TransformIf(Cast<lang::IfStmt>(stmt));
      case StmtKind::kWhile:
        return TransformWhile(Cast<lang::WhileStmt>(stmt));
      case StmtKind::kFor:
        return TransformFor(Cast<lang::ForStmt>(stmt));
      default:
        return Transformer::TransformStmt(stmt);
    }
  }

 private:
  StmtList TransformIf(const std::shared_ptr<lang::IfStmt>& stmt) {
    // Analysis snapshot for this node (taken before rewriting children).
    const std::set<std::string> modified =
        activity_.ScopeFor(stmt.get()).ModifiedNames();
    const analysis::NameSet& live_out = liveness_.LiveOut(stmt.get());
    const analysis::NameSet& defined =
        reaching_.DefinitelyDefinedIn(stmt.get());

    std::vector<std::string> returned;
    for (const std::string& m : modified) {
      if (live_out.count(m) > 0) returned.push_back(m);
    }

    // Children after the snapshot.
    stmt->body = TransformBody(stmt->body);
    stmt->orelse = TransformBody(stmt->orelse);

    StmtList out;
    EmitUndefinedReification(returned, defined, *stmt, &out);

    const std::string true_name = NewSymbol("if_true");
    const std::string false_name = NewSymbol("if_false");

    StmtList true_body = stmt->body;
    true_body.push_back(MakeReturn(returned, *stmt));
    auto true_fn = std::make_shared<lang::FunctionDefStmt>(
        true_name, std::vector<std::string>{}, std::move(true_body));
    out.push_back(At(std::move(true_fn), *stmt));

    StmtList false_body = stmt->orelse;
    false_body.push_back(MakeReturn(returned, *stmt));
    auto false_fn = std::make_shared<lang::FunctionDefStmt>(
        false_name, std::vector<std::string>{}, std::move(false_body));
    out.push_back(At(std::move(false_fn), *stmt));

    auto call = MakeCall(
        MakeDottedName("ag__.if_stmt"),
        {stmt->test, MakeName(true_name), MakeName(false_name)});
    out.push_back(MakeStateAssign(returned, At(std::move(call), *stmt),
                                  *stmt));
    return out;
  }

  StmtList TransformWhile(const std::shared_ptr<lang::WhileStmt>& stmt) {
    const std::set<std::string> modified =
        activity_.ScopeFor(stmt.get()).ModifiedNames();
    const analysis::NameSet& live_out = liveness_.LiveOut(stmt.get());
    const analysis::NameSet& live_in = liveness_.LiveIn(stmt.get());
    const analysis::NameSet& defined =
        reaching_.DefinitelyDefinedIn(stmt.get());

    std::vector<std::string> state;
    for (const std::string& m : modified) {
      if (live_out.count(m) > 0 || live_in.count(m) > 0) {
        state.push_back(m);
      }
    }

    stmt->body = TransformBody(stmt->body);

    StmtList out;
    EmitUndefinedReification(state, defined, *stmt, &out);

    const std::string test_name = NewSymbol("loop_test");
    const std::string body_name = NewSymbol("loop_body");

    StmtList test_body{
        At(std::make_shared<lang::ReturnStmt>(stmt->test), *stmt)};
    auto test_fn = std::make_shared<lang::FunctionDefStmt>(
        test_name, state, std::move(test_body));
    out.push_back(At(std::move(test_fn), *stmt));

    StmtList body_stmts = stmt->body;
    body_stmts.push_back(MakeReturn(state, *stmt));
    auto body_fn = std::make_shared<lang::FunctionDefStmt>(
        body_name, state, std::move(body_stmts));
    out.push_back(At(std::move(body_fn), *stmt));

    auto call = MakeCall(MakeDottedName("ag__.while_stmt"),
                         {MakeName(test_name), MakeName(body_name),
                          MakeStateTuple(state)});
    out.push_back(MakeStateAssign(state, At(std::move(call), *stmt), *stmt));
    return out;
  }

  StmtList TransformFor(const std::shared_ptr<lang::ForStmt>& stmt) {
    const std::set<std::string> modified =
        activity_.ScopeFor(stmt.get()).ModifiedNames();
    const analysis::NameSet& live_out = liveness_.LiveOut(stmt.get());
    const analysis::NameSet& live_in = liveness_.LiveIn(stmt.get());
    const analysis::NameSet& defined =
        reaching_.DefinitelyDefinedIn(stmt.get());

    // Loop target names are rebound each iteration and are not state.
    std::set<std::string> target_names;
    std::set<std::string> target_reads;
    analysis::CollectWrites(stmt->target, &target_names, &target_reads);

    std::vector<std::string> state;
    for (const std::string& m : modified) {
      if (target_names.count(m) > 0) continue;
      if (live_out.count(m) > 0 || live_in.count(m) > 0) {
        state.push_back(m);
      }
    }

    stmt->body = TransformBody(stmt->body);

    StmtList out;
    EmitUndefinedReification(state, defined, *stmt, &out);

    const std::string body_name = NewSymbol("loop_body");
    const std::string iter_var = NewSymbol("itr");

    // def body(itr, *state):  [unpack itr if tuple target]  <body>  return
    std::vector<std::string> params{iter_var};
    params.insert(params.end(), state.begin(), state.end());

    StmtList body_stmts;
    {
      auto unpack = std::make_shared<lang::AssignStmt>(stmt->target,
                                                       MakeName(iter_var));
      body_stmts.push_back(At(std::move(unpack), *stmt));
    }
    body_stmts.insert(body_stmts.end(), stmt->body.begin(),
                      stmt->body.end());
    body_stmts.push_back(MakeReturn(state, *stmt));
    auto body_fn = std::make_shared<lang::FunctionDefStmt>(
        body_name, std::move(params), std::move(body_stmts));
    out.push_back(At(std::move(body_fn), *stmt));

    auto call = MakeCall(MakeDottedName("ag__.for_stmt"),
                         {stmt->iter, MakeName(body_name),
                          MakeStateTuple(state)});
    out.push_back(MakeStateAssign(state, At(std::move(call), *stmt), *stmt));
    return out;
  }

  analysis::ActivityAnalysis activity_;
  analysis::ControlFlowGraph cfg_;
  analysis::Liveness liveness_;
  analysis::ReachingDefinitions reaching_;
};

}  // namespace

StmtList ControlFlowPass(const StmtList& body,
                         const std::vector<std::string>& params) {
  ControlFlow pass(body, params);
  return pass.Run(body);
}

}  // namespace ag::transforms
