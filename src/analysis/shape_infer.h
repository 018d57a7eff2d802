// Dtype/shape abstract interpretation for staging-safety diagnostics.
//
// A forward structured walk over a function body, flowing TypeEnv facts
// (see type_lattice.h) and recording the two hazards the TF backend turns
// into opaque staging errors:
//
//   - kBranchMismatch: an `if` whose branches bind the same threaded
//     variable to conflicting dtypes/kinds or conflicting shapes —
//     `tf.cond` requires both branch outputs to agree (lint code AG002);
//   - kLoopVariant: a `while`/`for` body that rebinds a loop variable to
//     a dtype/shape different from its value on loop entry —
//     `tf.while_loop` requires loop variables to be invariant in both
//     (lint code AG003).
//
// The interpreter is deliberately conservative: anything it cannot prove
// concretely becomes Top, and only concrete-vs-concrete disagreements are
// reported, so every issue is a real inconsistency in the source.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/type_lattice.h"
#include "lang/ast.h"

namespace ag::analysis {

// One dtype/shape inconsistency found while interpreting.
struct TypeIssue {
  enum class Kind : std::uint8_t {
    kBranchDType,  // if-branches disagree on kind/dtype
    kBranchShape,  // if-branches disagree on shape/rank
    kLoopDType,    // loop body changes a loop variable's kind/dtype
    kLoopShape,    // loop body changes a loop variable's shape/rank
  };

  Kind kind;
  std::string var;
  TypeFact before;              // else-branch / loop-entry fact
  TypeFact after;               // then-branch / after-one-iteration fact
  const lang::Stmt* stmt;       // the offending if/while/for
};

// The `tf.*` builtins EvalCall types by a shared rule, by dotted name.
// ag_analysis does not link ag_core, so tests/builtins_test.cc pins these
// sets to core's builtin table rather than deriving them from it.
struct TypedBuiltins {
  std::set<std::string> shape_preserving_unary;  // argument's dtype, shape
  std::set<std::string> elementwise_binary;      // typed like `+`
  std::set<std::string> reductions;  // argument's dtype; scalar sans axis
};
[[nodiscard]] const TypedBuiltins& TypedTfBuiltins();

class ShapeInference {
 public:
  // Runs inference over a function definition. Parameters start at Top
  // (their staged dtype is unknown to the linter).
  explicit ShapeInference(const lang::FunctionDefStmt& fn);
  // Same, over a bare statement list with the given initially-bound names.
  ShapeInference(const lang::StmtList& body,
                 const std::vector<std::string>& params);

  [[nodiscard]] const std::vector<TypeIssue>& issues() const {
    return issues_;
  }
  // Facts at the end of the body (exposed for tests).
  [[nodiscard]] const TypeEnv& exit_env() const { return exit_env_; }

 private:
  void Run(const lang::StmtList& body,
           const std::vector<std::string>& params);
  TypeEnv ExecBody(const lang::StmtList& body, TypeEnv env);
  TypeEnv ExecStmt(const lang::StmtPtr& stmt, TypeEnv env);
  TypeEnv ExecLoop(const lang::StmtPtr& stmt, const lang::StmtList& body,
                   TypeEnv env);
  void AssignTarget(const lang::ExprPtr& target, const TypeFact& fact,
                    TypeEnv* env);
  TypeFact EvalExpr(const lang::ExprPtr& expr, const TypeEnv& env);
  TypeFact EvalCall(const lang::ExprPtr& expr, const TypeEnv& env);

  std::vector<TypeIssue> issues_;
  TypeEnv exit_env_;
};

}  // namespace ag::analysis
