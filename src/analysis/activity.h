// Activity analysis (paper §7.1): for every statement, the set of symbols
// read and the set of symbols modified, using qualified names ("a.b").
//
// Matches the paper's semantics: "Only direct modifications are considered
// writes. For example, in the statement a.b = c, a.b is considered to be
// modified, but a is not." (The *root* `a` is still counted as read, since
// mutating a field requires the object.)
#pragma once

#include <set>
#include <string>
#include <unordered_map>

#include "lang/ast.h"

namespace ag::analysis {

// Read/modified sets for one statement (including its nested bodies).
struct Scope {
  std::set<std::string> read;
  std::set<std::string> modified;

  // Plain-name subset of `modified` (compound targets like "a.b" or
  // subscript writes excluded) — these are the symbols control-flow
  // functionalization can thread through functional form.
  [[nodiscard]] std::set<std::string> ModifiedNames() const;
};

// Computes scopes for every statement in `body`, recursively. Results are
// keyed by statement node identity, so they are invalidated by transforms
// that replace nodes (each conversion pass that needs them computes them
// afresh on its own input).
class ActivityAnalysis {
 public:
  explicit ActivityAnalysis(const lang::StmtList& body);

  // Scope of one statement (must be a node within the analyzed body).
  [[nodiscard]] const Scope& ScopeFor(const lang::Stmt* stmt) const;

  // Aggregated scope over a statement list.
  [[nodiscard]] static Scope Aggregate(const ActivityAnalysis& analysis,
                                       const lang::StmtList& body);

 private:
  Scope Analyze(const lang::StmtPtr& stmt);
  Scope AnalyzeBody(const lang::StmtList& body);

  std::unordered_map<const lang::Stmt*, Scope> scopes_;
};

// ---- shared read/write extraction helpers (used by activity and CFG) ----

// Adds every symbol read by `expr` to `out` (qualified names for attribute
// chains; the root name of a qualified read is also added).
void CollectReads(const lang::ExprPtr& expr, std::set<std::string>* out);

// Adds symbols modified by assigning to `target`; reads performed while
// evaluating the target (e.g. the index in a[i] = ...) go to `reads`.
void CollectWrites(const lang::ExprPtr& target, std::set<std::string>* out,
                   std::set<std::string>* reads);

}  // namespace ag::analysis
